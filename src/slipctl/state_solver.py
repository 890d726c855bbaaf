"""Forward state solver: semi-implicit slip-Stokes stepping.

Each step freezes the advecting velocity at the previous slice and solves
one linear velocity-pressure system with the wall-normal faces set from
the injection-suction data (on the discrete stream function, see
operators.StepSolver).  The step operator is assembled from the symmetric
strain form and the skew-symmetrized advection, so the scheme satisfies a
discrete energy identity exactly; energy_identity_residual evaluates it
term by term.
"""

import hashlib

import numpy as np

from .errors import InitialStateError, SolverDivergence
from .fields import (BoundaryControl, FrictionField, StateTrajectory,
                     dissipation, dot, face_l2, hp_norm, sup_face_l2)
from .operators import StepSolver, StepStore

DIV_TOL = 1e-10
# the exactness contract's bound on energy_identity_residual
ENERGY_TOL = 1e-8


class StateProblem:
    """Data of one forward solve: grid, time grid, initial state, controls."""

    def __init__(self, grid, time_grid, y0, controls: BoundaryControl,
                 friction: FrictionField = None, nu=1.0, validate=True):
        self.grid = grid
        self.time_grid = time_grid
        self.y0 = y0
        self.controls = controls
        self.friction = friction if friction is not None else FrictionField.constant(grid, time_grid)
        self.nu = float(nu)
        if validate:
            self.validate()

    def validate(self):
        self.validate_initial_state()
        self.controls.check_flux()
        n = hp_norm(self.controls)
        if n > self.controls.radius * (1 + 1e-9):
            raise ValueError("controls leave the admissible ball: %.3e > %.3e"
                             % (n, self.controls.radius))

    def validate_initial_state(self):
        """The initial state is divergence-free (to DIV_TOL) and its normal
        trace is a(0) (to 1e-9), relative to max(1, max|y0|)."""
        scale = max(1.0, float(np.abs(self.y0).max()))
        div0 = np.abs(self.grid.ops.Dmat @ self.y0).max()
        if div0 > DIV_TOL * scale:
            raise InitialStateError("initial velocity is not divergence-free: %.3e" % div0)
        mism = np.abs(self.grid.ops.Tn @ self.y0 - self.controls.a[0]).max()
        if mism > 1e-9 * scale:
            raise InitialStateError("initial normal trace does not match a(0): %.3e" % mism)

    def step_solver(self, sweep, steps=None, keep=None):
        """The StepSolver of one sweep ("state", "linearized" or "adjoint");
        steps is the StepStore of the base trajectory of a tangent or
        adjoint sweep, if it has one, and keep the StepStore a state sweep
        fills (see operators.StepStore).

        On grids under operators.BAND_BOUND every step solves on a band LU
        of its own R.  Above it the steps refine against the problem's
        reference step factor: step 1 without advection, which depends on
        (dt, nu, alpha[1]) only, not on y0 or the controls, so the state,
        tangent and adjoint sweeps of every control share it.
        """
        ops, dt, lu = self.grid.ops, self.time_grid.dt, None
        if ops.band() is None:
            try:
                lu = ops.reference_lu(dt, self.nu, self.friction.alpha[1])
            except SolverDivergence as exc:
                raise SolverDivergence("%s step 1 (reference factor): %s" % (sweep, exc))
        return StepSolver(ops, dt, self.nu, lu, sweep, steps, keep)

    def content_hash(self):
        h = hashlib.sha256()
        h.update(repr(self.grid.key()).encode())
        h.update(repr((self.time_grid.T, self.time_grid.nt, self.nu)).encode())
        for arr in (self.y0, self.controls.a, self.controls.b,
                    self.friction.alpha):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


def solve_state(problem: StateProblem, steps: StepStore = None) -> StateTrajectory:
    """March the state forward; the full trajectory is kept for the adjoint.

    The march solves the velocities, each step guarded on its divergence;
    the pressures of all steps, and every step's full residual check,
    follow in one pass (StepSolver.pressures) before the trajectory is
    returned.  steps, a StepStore(ops, nt) that a caller passes where
    tangent or adjoint sweeps around the trajectory follow, is filled by
    the march (see operators.StepStore) and carried by the trajectory.
    Without one nothing is kept.
    """
    g, tg = problem.grid, problem.time_grid
    ops = g.ops
    ctrl, fric = problem.controls, problem.friction
    y = np.empty((tg.nt + 1, ops.N))
    y[0] = problem.y0
    lifts, loads = ops.boundary_lift(ctrl.a[1:]), ops.b_load(ctrl.b[1:])
    solver = problem.step_solver("state", keep=steps)
    solver.seed(y[0])
    for k in range(1, tg.nt + 1):
        rhs = tg.explicit(ops.Wvec, y[k - 1]) + loads[k - 1]
        with solver.at(k, fric.alpha[k], y[k - 1]) as step:
            y[k] = step.solve(rhs, lifts[k - 1])
            dv = np.abs(step.div).max()
            # the bound is at least 1e-9, so the norm is formed only past it
            if dv > 1e-9 and dv > 1e-9 * max(1.0, face_l2(g, y[k])):
                raise SolverDivergence("divergence %.3e" % dv)
    return StateTrajectory(g, tg, y, solver.pressures(), config_hash=problem.content_hash(),
                           steps=steps)


def energy_identity_terms(trajectory: StateTrajectory, problem: StateProblem):
    """Named terms of the discrete energy balance of every step, a list of
    dicts in step order (entry k - 1 is step k).

    Interior terms are quadratures of the solution (kinetic increment,
    numerical dissipation, strain and friction dissipation, advective
    boundary flux, slip work, pressure work); the boundary supply collects
    the work done through the wall-normal faces.  Their sum vanishes for
    the implemented scheme up to the linear-solve residual.  Each product
    of the trajectory is one product of its (nt, .) block, a row per step
    with the bits of that step's product alone; the boundary supply reads
    only the wall rows C of the step residual, and so of L_k y_k
    (operators.step_products).
    """
    g, tg = trajectory.grid, trajectory.time_grid
    ops = g.ops
    Y, alpha = trajectory.y, problem.friction.alpha

    def rows(M, X):
        return np.ascontiguousarray((M @ X.T).T)

    strain_y, tn_y = rows(ops.A_strain, Y[1:]), rows(ops.Tn, Y[1:])
    tau_sq = rows(ops.Ttau, Y[1:]) ** 2
    an = ops.w_gamma * rows(ops.Tn, Y[:-1])
    Gp = -(g.cell_area) * rows(ops.DmatT, trajectory.p)
    load = ops.b_load(problem.controls.b[1:])
    W, C = ops.Wvec, ops.cons_idx
    # wall rows of the step residual L_k y_k - W y_{k-1} / dt + G p_k - load_k
    R = (ops.step_products(tg.dt, problem.nu, alpha[1:], Y[:-1], Y[1:], C)
         - tg.explicit(W[C], Y[:-1, C]) + Gp[:, C] - load[:, C])
    out = []
    for k in range(1, tg.nt + 1):
        y, yo, i = Y[k], Y[k - 1], k - 1
        terms = tg.energy_terms(W, y, yo)
        terms.update({
            "strain_dissipation": problem.nu * dot(y, strain_y[i]),
            # y . Fric(alpha) y = sum(w_gamma alpha (Ttau y)^2)
            "friction_dissipation": dot(ops.w_gamma * alpha[k], tau_sq[i]),
            "advective_boundary_flux": 0.5 * dot(an[i], tn_y[i] ** 2 + tau_sq[i]),
            "pressure_work": dot(y, Gp[i]),
            "slip_work": -dot(y, load[i]),
            "boundary_supply": -dot(y[C], R[i]),
        })
        terms["imbalance"] = sum(terms.values())
        out.append(terms)
    return out


def energy_identity_residual(trajectory: StateTrajectory, problem: StateProblem):
    """Per-step relative imbalance of the discrete energy identity."""
    out = np.zeros(trajectory.time_grid.nt)
    for i, terms in enumerate(energy_identity_terms(trajectory, problem)):
        imbalance = terms.pop("imbalance")
        out[i] = abs(imbalance) / max(max(abs(v) for v in terms.values()), 1e-30)
    return out


def energy_bound_report(problem: StateProblem, trajectory: StateTrajectory):
    """Measured quantities of the a-priori energy bound.

    Returns the left side (sup kinetic + strain + friction dissipation
    accumulated in time) and the data size (initial energy + control norm),
    from which a stability constant can be fitted across control scalings.
    """
    g, y = problem.grid, trajectory.y
    lhs = (sup_face_l2(g, y) ** 2
           + dissipation(g, problem.time_grid, y[1:], problem.friction.alpha[1:]))
    hp = hp_norm(problem.controls)
    rhs_base = face_l2(g, problem.y0) ** 2 + hp ** 2 + 1.0
    return {"lhs": lhs, "data": rhs_base, "hp": hp}


def save_trajectory(directory, trajectory: StateTrajectory, cadence=1):
    """Persist a trajectory as snapshot files plus a JSON manifest."""
    import json
    import os
    from .fields import write_snapshot
    os.makedirs(directory, exist_ok=True)
    g, tg = trajectory.grid, trajectory.time_grid
    times = tg.times()
    saved = []
    for k in range(tg.nt + 1):
        if k % cadence and k != tg.nt:
            continue
        name = "y_%04d.snap" % k
        write_snapshot(os.path.join(directory, name), "velocity", g, times[k],
                       [trajectory.y[k]])
        saved.append(name)
        if k >= 1:
            write_snapshot(os.path.join(directory, "p_%04d.snap" % k), "pressure", g,
                           times[k], [trajectory.p[k - 1]])
    manifest = {
        "kind": "trajectory", "nx": g.nx, "ny": g.ny, "Lx": g.Lx, "Ly": g.Ly,
        "T": tg.T, "nt": tg.nt, "cadence": cadence,
        "config_hash": trajectory.config_hash, "velocity_snapshots": saved,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_trajectory(directory):
    """Read back a trajectory directory written with cadence 1; any other
    cadence left slices out, and is a ValueError."""
    import json
    import os
    from .fields import read_payload
    from .mesh import TimeGrid, build_grid
    with open(os.path.join(directory, "manifest.json")) as fh:
        man = json.load(fh)
    if man.get("cadence", 1) != 1:
        raise ValueError("trajectory written with snapshot cadence %r; only cadence 1 "
                         "keeps every slice" % man["cadence"])
    grid = build_grid(man["nx"], man["ny"], man["Lx"], man["Ly"])
    tg = TimeGrid(man["T"], man["nt"])
    y = [read_payload(os.path.join(directory, "y_%04d.snap" % k), grid)[0]
         for k in range(tg.nt + 1)]
    p = [read_payload(os.path.join(directory, "p_%04d.snap" % k), grid)[0]
         for k in range(1, tg.nt + 1)]
    return StateTrajectory(grid, tg, np.array(y), np.array(p),
                           config_hash=man.get("config_hash", ""))

