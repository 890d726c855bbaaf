"""Linearization of the discrete state map around a stored trajectory.

This is the exact Frechet derivative of the stepping scheme
(differentiate-the-scheme): the implicit matrix of each step is reused
verbatim, and the derivative of the frozen-advection term appears as an
explicit coupling of the previous slice against the stored new state.
Gradients computed against this solver are exact at the discrete level.
"""

import numpy as np

from .errors import BaseTrajectoryMissing
from .fields import StateTrajectory, sup_face_l2
from .mesh import net_flux_violation
from .state_solver import StateProblem, solve_state


class LinearizedProblem:
    """Direction data (f, g) around a base trajectory."""

    def __init__(self, state_problem: StateProblem, base: StateTrajectory, f, g):
        grid, tg = state_problem.grid, state_problem.time_grid
        self.state_problem = state_problem
        self.base = base
        self.f = np.asarray(f, dtype=float)
        self.g = np.asarray(g, dtype=float)
        if self.f.shape != (tg.nt + 1, grid.n_boundary) or self.g.shape != self.f.shape:
            raise ValueError("direction arrays must have shape (nt+1, n_boundary)")
        if base is None or len(base.y) != tg.nt + 1:
            raise BaseTrajectoryMissing("complete base trajectory required")
        bad = net_flux_violation(grid, self.f)
        if bad is not None:
            slice_, flux = bad
            raise ValueError("direction f has net flux %.3e at slice %d" % (flux, slice_))


def solve_linearized(problem: LinearizedProblem):
    """March the tangent system; returns z of shape (nt+1, N), laid out as
    StateTrajectory's y.

    The first slice is identically zero; slice k satisfies z.n = f(t_k)
    strongly and the same implicit operator as the forward step k, read in
    place from the base trajectory's StepStore where it holds that step.
    """
    sp_, y = problem.state_problem, problem.base.y
    tg, ops = sp_.time_grid, sp_.grid.ops
    z = np.zeros((tg.nt + 1, ops.N))
    lifts, loads = ops.boundary_lift(problem.f[1:]), ops.b_load(problem.g[1:])
    g_y, t_y = ops.state_products(y[1:])     # rows k = 1..nt
    solver = sp_.step_solver("linearized", problem.base.steps)
    for k in range(1, tg.nt + 1):
        rhs = (tg.explicit(ops.Wvec, z[k - 1])
               - ops.apply_adv_cross(y[k], z[k - 1], (g_y[k - 1], t_y[k - 1]))
               + loads[k - 1])
        with solver.at(k, sp_.friction.alpha[k], y[k - 1]) as step:
            z[k] = step.solve(rhs, lifts[k - 1])
    solver.pressures()      # the residual checks; no caller reads the tangent pressures
    return z


def linearized_step_apply(step, time_grid, y_new_vec, xi_free):
    """One homogeneous tangent step on the free unknowns: xi -> z_f.

    step is a StepSolver already stepped at (alpha, w) of the step, with
    time_grid's step length; y_new_vec is the state it produced.  This is
    the single-step propagator L whose transpose the adjoint sweep applies;
    used directly by the transpose-exactness checks.
    """
    ops = step.ops
    xi_full = np.zeros(ops.N)
    xi_full[ops.free_idx] = xi_free
    rhs = time_grid.explicit(ops.Wvec, xi_full) - ops.apply_adv_cross(y_new_vec, xi_full)
    z_vec = step.solve(rhs, np.zeros(ops.N))      # the lift of zero wall data
    step.pressures()
    return z_vec[ops.free_idx]


def adjoint_step_apply(step, time_grid, y_new_vec, eta_free):
    """Transpose of linearized_step_apply under the Euclidean pairing."""
    ops = step.ops
    rhs = np.zeros(ops.N)
    rhs[ops.free_idx] = eta_free
    lam_full = step.solve_transpose(rhs)
    step.pressures(trans=True)
    out_full = (time_grid.explicit(ops.Wvec, lam_full)
                - ops.apply_adv_cross_T(y_new_vec, lam_full))
    return out_full[ops.free_idx]


def gateaux_discrepancy(state_problem: StateProblem, base: StateTrajectory,
                        f, g, eps_list):
    """sup-in-time L2 distance between (y_eps - y)/eps and the tangent z.

    Re-solves the state at each epsilon; the discrepancies must decrease
    with epsilon down to the round-off floor of the re-solve.
    """
    f = np.asarray(f, dtype=float)
    g_arr = np.asarray(g, dtype=float)
    if np.abs(f[0]).max() > 0:
        raise ValueError("direction must leave the initial slice of a unchanged")
    lp = LinearizedProblem(state_problem, base, f, g_arr)
    z = solve_linearized(lp)
    rows = []
    for eps in eps_list:
        ctrl = state_problem.controls.copy()
        ctrl.a = ctrl.a + eps * f
        ctrl.b = ctrl.b + eps * g_arr
        pert = StateProblem(state_problem.grid, state_problem.time_grid,
                            state_problem.y0, ctrl, state_problem.friction,
                            state_problem.nu, validate=False)
        traj = solve_state(pert)
        disc = sup_face_l2(state_problem.grid, (traj.y - base.y) * (1.0 / eps) - z)
        rows.append((float(eps), disc))
    return rows, z
