"""Backward adjoint sweep: the exact transpose of the linearized stepping.

The adjoint is derived from the discrete Lagrangian of the space-time
linear map (f, g) -> z, so the duality pairing

    sum_k dt <U_k, z_k>  =  sum_k [<Ga_k, f_k> + <Gb_k, g_k>]

holds to solver precision.  The boundary kernels Ga, Gb are the columns of
the transposed system collected at the control entries; divided by the
space-time quadrature weights they are the discrete counterparts of the
normal-component kernel pi - p.y - 2(D(p)n).n and the tangential kernel
p.tau, and they feed the cost gradient directly.
"""

import numpy as np

from .errors import BaseTrajectoryMissing
from .fields import StateTrajectory, dissipation, dot, save_boundary_table, sup_face_l2
from .operators import _mv
from .state_solver import StateProblem

# the exactness contract's bound on duality_residual
DUALITY_TOL = 1e-9


class AdjointProblem:
    def __init__(self, state_problem: StateProblem, base: StateTrajectory, source):
        """source: face vectors of shape (nt+1, N) (slice 0 unused)."""
        if base is None or len(base.y) != state_problem.time_grid.nt + 1:
            raise BaseTrajectoryMissing("complete base trajectory required")
        self.state_problem = state_problem
        self.base = base
        self.source = source


class AdjointTrajectory:
    """Adjoint velocity/pressure plus integrated boundary kernels.

    p of shape (nt+1, N) holds face vectors, with p(T) identically zero and
    p.n = 0 on the walls; pi of shape (nt, ncell) the adjoint pressures.
    kernel_a/kernel_b hold the integrated pairings (slice 0 is zero), and
    normal_kernel/tangent_kernel the pointwise densities on Gamma.
    """

    def __init__(self, grid, time_grid, p, pi, kernel_a, kernel_b, config_hash):
        self.grid = grid
        self.time_grid = time_grid
        self.p = p
        self.pi = pi
        self.kernel_a = kernel_a
        self.kernel_b = kernel_b
        self.config_hash = config_hash

    def _point_density(self, integrated):
        out = np.zeros_like(integrated)
        self.time_grid.density(integrated[1:], self.grid.boundary_weight, out=out[1:])
        return out

    @property
    def normal_kernel(self):
        return self._point_density(self.kernel_a)

    @property
    def tangent_kernel(self):
        return self._point_density(self.kernel_b)

    def export_kernels_csv(self, prefix):
        """Write <prefix>_normal.csv and <prefix>_tangent.csv (t, s, value)."""
        times = self.time_grid.times()
        for name, kern in (("normal", self.normal_kernel),
                           ("tangent", self.tangent_kernel)):
            save_boundary_table("%s_%s.csv" % (prefix, name), "value",
                                times[1:], self.grid.boundary_s, kern[1:])


def solve_adjoint(problem: AdjointProblem) -> AdjointTrajectory:
    """Backward transpose sweep k = nt..1 around the stored base state.

    The march keeps only the recurrence: each step forms its right-hand
    side in place, solves the adjoint velocity lam_k and applies the
    frozen-advection derivative to it, writing lam_k, L^T lam_k, T lam_k
    and X(y_k)^T lam_k into rows of preallocated blocks.  What depends on
    the base state alone, dt W U_k and the factors of apply_adv_cross_T, is
    formed for all steps before the march.  After it come, as block
    operations, the adjoint pressures of all steps with every step's full
    residual check (StepSolver.pressures), the velocities p, the kernels
    and the pairing against f_k, before the trajectory is returned.  Step
    k transposes the state sweep's step, read in place from the base
    trajectory's StepStore where it holds it.
    """
    sp_ = problem.state_problem
    g, tg = sp_.grid, sp_.time_grid
    ops = g.ops
    nt, nb = tg.nt, g.n_boundary
    yvec, U, alpha = problem.base.y, problem.source, sp_.friction.alpha
    W, C = ops.Wvec, ops.cons_idx

    # row k - 1 is step k; lam and cross have a zero row nt, the terms of
    # step nt + 1 in step nt's right-hand side
    rhs = tg.weigh(W * U[1:])
    lam, cross = np.zeros((nt + 1, ops.N)), np.zeros((nt + 1, ops.N))
    lt_lam, t_lam = np.empty((nt, ops.N)), np.empty((nt, 2 * nb))
    w_g_y, w_y, w_t_y = ops.adjoint_factors(yvec[1:])
    solver = sp_.step_solver("adjoint", problem.base.steps)
    for k in range(nt, 0, -1):
        i = k - 1
        # dt W U_k + W lam_{k+1} / dt - X(y_{k+1})^T lam_{k+1}, wall rows +0.0
        r = rhs[i]
        r += tg.explicit(W, lam[k])
        r -= cross[k]
        r[C] = 0.0
        with solver.at(k, alpha[k], yvec[i]) as step:
            step.solve_transpose(r, lam[i], lt_lam[i])
        _mv(ops.T, lam[i], t_lam[i])               # [Tn; Ttau] lam
        ops.apply_adv_cross_T(yvec[k], lam[i], (w_g_y[i], w_y[i], w_t_y[i]), t_lam[i], cross[i])

    q = solver.pressures(trans=True)[::-1]             # rows k = 1..nt
    kernel_a = np.zeros((nt + 1, nb))
    kernel_b = np.zeros((nt + 1, nb))
    kernel_b[1:] = ops.w_gamma * t_lam[:, nb:]
    # pairing of f_{k-1} through the frozen-advection derivative of step k,
    # k >= 2: Tn is a signed permutation, one entry per row, so Tn @ x is
    # the gather sign * x[face], and adding 0.0 turns a -0.0 into 0.0, as
    # the product does
    kernel_a[1:nt] -= ops.Tn.data * cross[1:nt, ops.Tn.indices] + 0.0
    # pairing against f_k: direct cost term, implicit coupling, divergence,
    # on the wall faces C; (Tn @ x)[wall_node] = wall_sign * x[C]
    pair = tg.weigh(W[C] * U[1:, C]) - lt_lam[:, C] - (ops.DcT @ q.T).T
    kernel_a[1:, ops.wall_node] += ops.wall_sign * pair + 0.0
    pi = tg.density(-q, g.cell_area)
    tg.density(lam, out=lam)                           # p_{k-1} = lam_k / dt
    return AdjointTrajectory(g, tg, lam, pi, kernel_a, kernel_b, problem.base.config_hash)


def duality_residual(z, adjoint: AdjointTrajectory, source, f, g_dir,
                     base_hash=None):
    """Relative gap between the volume pairing of (z, U) and the boundary pairing;
    z and source are face vectors of shape (nt+1, N).

    Exact (up to linear-solve residuals) for the transpose construction.
    """
    if base_hash is not None and adjoint.config_hash != base_hash:
        raise ValueError("adjoint and linearized solves use different base trajectories")
    lhs = adjoint.time_grid.time_sum(adjoint.grid.ops.Wvec, source, z)
    rhs = (dot(adjoint.kernel_a[1:].ravel(), np.ravel(f[1:]))
           + dot(adjoint.kernel_b[1:].ravel(), np.ravel(g_dir[1:])))
    denom = abs(lhs) + abs(rhs) + np.finfo(float).eps
    return abs(lhs - rhs) / denom


def adjoint_energy_check(adjoint: AdjointTrajectory, source, friction):
    """Measured constant of the adjoint energy estimate.

    Ratio of sup-in-time kinetic energy plus strain and friction
    dissipation of p against the space-time L2 norm of the source, given as
    face vectors of shape (nt+1, N).
    """
    g, tg = adjoint.grid, adjoint.time_grid
    usq = tg.time_sum(g.ops.Wvec, source, source)
    if usq == 0.0:
        return 0.0
    # step k dissipates the adjoint velocity p[k-1] with the friction of slice k
    diss = dissipation(g, tg, adjoint.p[:-1], friction.alpha[1:], strain=0.5)
    return (sup_face_l2(g, adjoint.p) ** 2 + diss) / usq

