import numpy as np
import pytest
import scipy.sparse.linalg as spla

from slipctl.adjoint_solver import (AdjointProblem,
                                    adjoint_energy_check,
                                    duality_residual,
                                    solve_adjoint)
from slipctl.fields import BoundaryControl, face_l2, face_vector, sample_faces
from slipctl.linearized_solver import (LinearizedProblem, adjoint_step_apply,
                                       linearized_step_apply, solve_linearized)
from slipctl.mesh import TimeGrid, build_grid
from slipctl.operators import StepSolver, StepStore
from slipctl.state_solver import StateProblem, solve_state
from slipctl.control_opt import random_admissible_control

from oracles import continuum_normal_kernel, step_solve


def _setup():
    grid = build_grid(8, 8, 1.0, 1.0)
    tg = TimeGrid(0.5, 8)
    rng = np.random.default_rng(21)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=0.3)
    prob = StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)
    traj = solve_state(prob, StepStore(grid.ops, tg.nt))
    return grid, tg, prob, traj


@pytest.fixture
def setup():
    """An 8x8 problem and its trajectory, with the steps kept for the later
    sweeps: under the band rule's bound, so every step solves on a band LU
    of its own R."""
    return _setup()


@pytest.fixture
def refined_setup(refining):
    """setup on the refinement side of the band rule: its sweeps refine
    against the reference factor, as on every grid above the bound."""
    return _setup()


def _each_reference(monkeypatch, grid):
    """Yield, with an empty slot, SuperLU's reference type and then the
    sine-capacitance one, with SINE_BOUND set so that reference_lu builds
    that type on grid (8x8 has a vertex outside the two outer rings)."""
    from slipctl import operators
    for kind, bound in ((spla.SuperLU, operators.SINE_BOUND), (operators._SineLU, 0)):
        monkeypatch.setattr(operators, "SINE_BOUND", bound)
        grid.ops._reference = None
        yield kind


@pytest.fixture(params=["setup", "refined_setup"])
def either_setup(request):
    """setup, then refined_setup: both sides of the band rule."""
    return request.getfixturevalue(request.param)


def random_source(grid, tg, seed):
    rng = np.random.default_rng(seed)
    return np.array([face_vector(grid, rng.standard_normal(grid.shape_u),
                                 rng.standard_normal(grid.shape_v))
                     for _ in range(tg.nt + 1)])


def test_zero_source_zero_adjoint(setup):
    grid, tg, prob, traj = setup
    U = np.zeros((tg.nt + 1, grid.ops.N))
    adj = solve_adjoint(AdjointProblem(prob, traj, U))
    assert max(face_l2(grid, p) for p in adj.p) == 0.0
    assert np.abs(adj.kernel_a).max() == 0.0
    assert np.abs(adj.kernel_b).max() == 0.0


def test_linearity_in_source(setup):
    grid, tg, prob, traj = setup
    U = random_source(grid, tg, 1)
    adj1 = solve_adjoint(AdjointProblem(prob, traj, U))
    adj3 = solve_adjoint(AdjointProblem(prob, traj, U * 3.0))
    for k in range(tg.nt + 1):
        assert face_l2(grid, adj3.p[k] - adj1.p[k] * 3.0) < \
            1e-10 * max(1.0, face_l2(grid, adj3.p[k]))
    assert np.allclose(adj3.kernel_a, 3.0 * adj1.kernel_a, atol=1e-12)


def test_structural_invariants(setup):
    grid, tg, prob, traj = setup
    adj = solve_adjoint(AdjointProblem(prob, traj, random_source(grid, tg, 2)))
    ops = grid.ops
    assert face_l2(grid, adj.p[tg.nt]) == 0.0                # terminal condition
    for k in range(tg.nt):
        assert np.abs(ops.Tn @ adj.p[k]).max() == 0.0
        assert np.abs(ops.Dmat @ adj.p[k]).max() < 1e-9
        assert abs(adj.pi[k].sum() * grid.cell_area) < 1e-10


def test_transpose_exactness_single_step(setup):
    grid, tg, prob, traj = setup
    ops = grid.ops
    yk = traj.y
    rng = np.random.default_rng(3)
    step = StepSolver(ops, tg.dt, 1.0).step(prob.friction.alpha[4], yk[3])
    for _ in range(20):
        xi = rng.standard_normal(ops.free_idx.size)
        eta = rng.standard_normal(ops.free_idx.size)
        lhs = np.dot(linearized_step_apply(step, tg, yk[4], xi), eta)
        rhs = np.dot(xi, adjoint_step_apply(step, tg, yk[4], eta))
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs) + 1e-30)


def test_duality_relation(setup):
    grid, tg, prob, traj = setup
    for seed in range(3):
        d = random_admissible_control(grid, tg, np.random.default_rng(40 + seed),
                                      amplitude=1.0)
        z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
        U = random_source(grid, tg, 50 + seed)
        adj = solve_adjoint(AdjointProblem(prob, traj, U))
        res = duality_residual(z, adj, U, d.a, d.b, base_hash=traj.config_hash)
        assert res <= 1e-9


def test_duality_zero_over_zero_guarded(setup):
    grid, tg, prob, traj = setup
    zero_f = np.zeros((tg.nt + 1, grid.n_boundary))
    z = solve_linearized(LinearizedProblem(prob, traj, zero_f, zero_f))
    U0 = np.zeros((tg.nt + 1, grid.ops.N))
    adj = solve_adjoint(AdjointProblem(prob, traj, U0))
    assert duality_residual(z, adj, U0, zero_f, zero_f) == 0.0


def test_duality_base_mismatch_detected(setup):
    grid, tg, prob, traj = setup
    d = random_admissible_control(grid, tg, np.random.default_rng(60), amplitude=1.0)
    z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
    U = random_source(grid, tg, 61)
    adj = solve_adjoint(AdjointProblem(prob, traj, U))
    with pytest.raises(ValueError, match="base"):
        duality_residual(z, adj, U, d.a, d.b, base_hash="deadbeef")


def test_constant_pressure_shift_drops_out(setup):
    """f has zero boundary mean, so shifting the adjoint pressure by a
    constant leaves the boundary pairing unchanged."""
    grid, tg, prob, traj = setup
    d = random_admissible_control(grid, tg, np.random.default_rng(70), amplitude=1.0)
    z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
    U = random_source(grid, tg, 71)
    adj = solve_adjoint(AdjointProblem(prob, traj, U))
    rhs0 = sum(np.dot(adj.kernel_a[k], d.a[k]) + np.dot(adj.kernel_b[k], d.b[k])
               for k in range(1, tg.nt + 1))
    shift = 3.7
    rhs_shifted = rhs0
    for k in range(1, tg.nt + 1):
        # a constant pi shift changes the normal kernel by shift * dt * w_e
        kernel_shift = shift * tg.dt * grid.boundary_weight
        rhs_shifted += np.dot(kernel_shift, d.a[k])
    assert abs(rhs_shifted - rhs0) <= 1e-10 * max(1.0, abs(rhs0))


def test_stokes_semigroup_self_adjoint():
    """Around the null state, the backward adjoint sweep with time-reversed
    source equals the forward solve of the reversed problem."""
    grid = build_grid(8, 8, 1.0, 1.0)
    tg = TimeGrid(0.4, 6)
    ops = grid.ops
    prob = StateProblem(grid, tg, np.zeros(grid.ops.N), BoundaryControl(grid, tg))
    traj = solve_state(prob)
    U = random_source(grid, tg, 5)
    adj = solve_adjoint(AdjointProblem(prob, traj, U))
    x_prev = np.zeros(ops.N)
    for m in range(1, tg.nt + 1):
        step = StepSolver(ops, tg.dt, 1.0).step(prob.friction.alpha[0], np.zeros(ops.N))
        rhs = ops.Wvec * x_prev / tg.dt + ops.Wvec * U[tg.nt + 1 - m]
        x, _ = step_solve(step, rhs, np.zeros(grid.n_boundary))
        ref = max(1.0, face_l2(grid, adj.p[tg.nt - m]))
        assert face_l2(grid, x - adj.p[tg.nt - m]) <= 1e-9 * ref
        x_prev = x


def test_energy_check_homogeneous_and_stable(setup):
    grid, tg, prob, traj = setup
    U = random_source(grid, tg, 6)
    adj = solve_adjoint(AdjointProblem(prob, traj, U))
    r1 = adjoint_energy_check(adj, U, prob.friction)
    U2 = U * 2.0
    adj2 = solve_adjoint(AdjointProblem(prob, traj, U2))
    r2 = adjoint_energy_check(adj2, U2, prob.friction)
    assert r1 == pytest.approx(r2, rel=1e-9)
    zeroU = np.zeros((tg.nt + 1, grid.ops.N))
    adj0 = solve_adjoint(AdjointProblem(prob, traj, zeroU))
    assert adjoint_energy_check(adj0, zeroU, prob.friction) == 0.0

    ratios = []
    for seed in range(10):
        Us = random_source(grid, tg, 100 + seed)
        adjs = solve_adjoint(AdjointProblem(prob, traj, Us))
        ratios.append(adjoint_energy_check(adjs, Us, prob.friction))
    assert max(ratios) <= 3.0 * min(ratios)


def test_normal_kernel_consistent_with_field_formula(setup):
    """The exact-transpose kernel agrees with the direct discretization of
    the normal-component density at discretization order."""
    grid, tg, prob, traj = setup
    U = np.tile(sample_faces(
        grid, lambda X, Y: np.sin(2 * np.pi * X) * np.cos(np.pi * Y),
        lambda X, Y: np.cos(np.pi * X) * np.sin(2 * np.pi * Y)), (tg.nt + 1, 1))
    adj = solve_adjoint(AdjointProblem(prob, traj, U))
    k = tg.nt // 2
    direct = continuum_normal_kernel(adj, traj, k)
    kernel = adj.normal_kernel[k]
    scale = np.abs(direct).max() + 1e-30
    assert np.abs(kernel - direct).max() <= 0.1 * scale


def test_export_kernels_csv(tmp_path, setup):
    grid, tg, prob, traj = setup
    adj = solve_adjoint(AdjointProblem(prob, traj, random_source(grid, tg, 7)))
    adj.export_kernels_csv(str(tmp_path / "kernels"))
    t1 = tg.times()[1]
    for name, kern in (("normal", adj.normal_kernel), ("tangent", adj.tangent_kernel)):
        raw = (tmp_path / ("kernels_%s.csv" % name)).read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "t,s,value"
        assert len(lines) == 1 + tg.nt * grid.n_boundary
        assert lines[1] == "%.17g,%.17g,%.17g" % (t1, grid.boundary_s[0], kern[1, 0])


def test_sweeps_share_one_reference_factor(refined_setup, factor_spy, monkeypatch):
    """Once a problem's reference is in the slot, a state solve, an adjoint
    sweep and a tangent sweep at other controls construct no reference and
    factor nothing, with SuperLU's reference and with the sine-capacitance
    one."""
    from slipctl.operators import _SineLU
    grid, tg, prob, traj = refined_setup
    built, real = [], _SineLU.factor

    def counting(self, *args, **kwargs):
        built.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(_SineLU, "factor", counting)
    for kind in _each_reference(monkeypatch, grid):
        rng = np.random.default_rng(31)
        ctrl = random_admissible_control(grid, tg, rng, amplitude=0.3)
        other = StateProblem(grid, tg, prob.y0, ctrl, prob.friction, validate=False)
        solve_state(prob)           # fills the slot with this kind of reference
        ref = grid.ops._reference[1]
        assert isinstance(ref, kind)
        del built[:]
        factor_spy.calls = 0
        for p in (prob, other):
            base = solve_state(p)
            solve_adjoint(AdjointProblem(p, base, random_source(grid, tg, 32)))
            d = random_admissible_control(grid, tg, rng, amplitude=0.3)
            solve_linearized(LinearizedProblem(p, base, d.a, d.b))
        assert built == [] and factor_spy.calls == 0
        assert grid.ops._reference[1] is ref


def test_sweeps_bitwise_equal_for_cold_warm_and_fresh_slots(refined_setup, monkeypatch):
    """The reference is a pure function of the problem: a cold slot, a warm
    one and a fresh grid with the same key give the same bits, with
    SuperLU's reference and with the sine-capacitance one."""
    grid, tg, prob, traj = refined_setup
    U = random_source(grid, tg, 33)

    def run(p):
        t = solve_state(p)
        adj = solve_adjoint(AdjointProblem(p, t, U))
        return [t.y, t.p, adj.kernel_a, adj.kernel_b]

    for kind in _each_reference(monkeypatch, grid):
        run(prob)                   # fills the slot with this kind of reference
        assert isinstance(grid.ops._reference[1], kind)
        warm = run(prob)
        grid.ops._reference = None
        cold = run(prob)
        g2 = build_grid(8, 8, 1.0, 1.0)
        c = prob.controls
        fresh = run(StateProblem(g2, tg, np.zeros(g2.ops.N),
                                 BoundaryControl(g2, tg, c.a, c.b, c.p_exponent, c.radius),
                                 validate=False))
        for other in (cold, fresh):
            assert all(np.array_equal(x, y) for x, y in zip(warm, other))


def _sweep_outputs(p, U, d):
    """Every array the state, adjoint and tangent sweeps of p return: those
    the marches produce (y, lam, z and kernel_b), then those of the passes
    after them (p, pi and kernel_a)."""
    t = solve_state(p)
    adj = solve_adjoint(AdjointProblem(p, t, U))
    z = solve_linearized(LinearizedProblem(p, t, d.a, d.b))
    return [t.y, adj.p, z, adj.kernel_b], [t.p, adj.pi, adj.kernel_a]


def test_one_solver_per_sweep_matches_a_fresh_solver_per_step(refined_setup, monkeypatch,
                                                               factor_spy):
    """Each sweep builds one StepSolver, refreshes it in place and recovers
    its pressures in one pass after the march.  A fresh StepSolver per step,
    handed the sweep's solution history, with every step's pressures
    recovered by a pass of its own (the per-step single solves), gives the
    bits of the marched arrays, and the pressures and kernel_a to 1e-13
    relative: a multi-right-hand-side Neumann solve need not round as
    single solves do.
    The large controls make most steps fall back to their own factor, and in
    the adjoint sweep a fallback is followed by refined steps."""
    grid, tg, prob, traj = refined_setup
    rng = np.random.default_rng(36)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=10.0)
    p = StateProblem(grid, tg, prob.y0, ctrl, prob.friction, validate=False)
    U = random_source(grid, tg, 37)
    d = random_admissible_control(grid, tg, rng, amplitude=0.3)

    built = []
    real_init, real_at, real_pressures = StepSolver.__init__, StepSolver.at, StepSolver.pressures

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self.sweep)

    def fresh_at(self, k, alpha, w):
        fresh = StepSolver(self.ops, self.dt, self.nu, self.ref, self.sweep)
        fresh.history, fresh.pending = self.history, self.pending
        return real_at(fresh, k, alpha, w)

    def per_step_pressures(self, trans=False):
        rows, out = list(self.pending[trans]), []
        for row in rows:
            self.pending[trans][:] = [row]
            out.append(real_pressures(self, trans))
        return np.concatenate(out)

    monkeypatch.setattr(StepSolver, "__init__", counting_init)
    factor_spy.calls = 0
    marched, passed = _sweep_outputs(p, U, d)
    assert built == ["state", "adjoint", "linearized"]
    fallbacks = factor_spy.calls
    assert fallbacks > 0

    monkeypatch.setattr(StepSolver, "at", fresh_at)
    monkeypatch.setattr(StepSolver, "pressures", per_step_pressures)
    built.clear()
    factor_spy.calls = 0
    fresh_marched, fresh_passed = _sweep_outputs(p, U, d)
    assert len(built) == 3 * (tg.nt + 1)
    assert factor_spy.calls == fallbacks
    assert all(np.array_equal(x, y) for x, y in zip(marched, fresh_marched))
    assert len(passed) == len(fresh_passed)
    for x, y in zip(passed, fresh_passed):
        assert x.shape == y.shape
        assert np.abs(x - y).max() <= 1e-13 * np.abs(y).max()


def test_residual_failure_names_the_first_step_in_marching_order(setup, monkeypatch):
    """Every step's residual is checked in the pass after the march, and a
    failure names the first failing step in marching order: step 1 forward,
    step nt in the adjoint sweep.  A step failing inside the march is
    reported only if no step before it fails its residual check."""
    from slipctl import operators
    from slipctl.errors import SolverDivergence
    grid, tg, prob, traj = setup
    d = random_admissible_control(grid, tg, np.random.default_rng(38), amplitude=0.3)
    U = random_source(grid, tg, 39)
    sweeps = (
        ("state", 1, "linear", lambda: solve_state(prob)),
        ("linearized", 1, "linear",
         lambda: solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))),
        ("adjoint", tg.nt, "adjoint", lambda: solve_adjoint(AdjointProblem(prob, traj, U))),
    )
    tol = operators.LINEAR_RESIDUAL_TOL
    monkeypatch.setattr(operators, "LINEAR_RESIDUAL_TOL", -1.0)
    for name, k, kind, run in sweeps:
        with pytest.raises(SolverDivergence, match=r"^%s step %d: %s step residual "
                           % (name, k, kind)):
            run()

    real_step = StepSolver.step

    def failing_step(self, alpha, w):
        if self.k == 3:
            raise SolverDivergence("step matrix factorization failed")
        return real_step(self, alpha, w)

    monkeypatch.setattr(StepSolver, "step", failing_step)
    for name, k, kind, run in sweeps:
        with pytest.raises(SolverDivergence, match=r"^%s step %d: %s step residual "
                           % (name, k, kind)):
            run()
    monkeypatch.setattr(operators, "LINEAR_RESIDUAL_TOL", tol)
    for name, k, kind, run in sweeps:
        with pytest.raises(SolverDivergence, match=r"^%s step 3: step matrix factorization "
                           % name):
            run()


def test_reference_factor_failure_names_its_sweep(refined_setup, monkeypatch):
    """A reference whose construction fails is reported with its sweep and
    step, as a failure inside the step loop is: SuperLU's factorization of
    R0 (49 interior vertices at 8x8), and the LU of the sine reference's
    capacitance matrix (the |B| = 40 vertices of the two outer rings)."""
    from slipctl import operators
    from slipctl.errors import SolverDivergence
    grid, tg, prob, traj = refined_setup
    d = random_admissible_control(grid, tg, np.random.default_rng(34), amplitude=0.3)
    sweeps = {
        "state": lambda: solve_state(prob),
        "adjoint": lambda: solve_adjoint(
            AdjointProblem(prob, traj, random_source(grid, tg, 35))),
        "linearized": lambda: solve_linearized(LinearizedProblem(prob, traj, d.a, d.b)),
    }

    shapes = []

    class Singular:
        def splu(self, A, *args, **kwargs):
            shapes.append(A.shape)
            raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(operators, "spla", Singular())
    for kind, n in zip(_each_reference(monkeypatch, grid), (49, 40)):
        del shapes[:]
        for name, run in sweeps.items():
            with pytest.raises(SolverDivergence, match=r"^%s step 1 \(reference factor\): "
                               "step matrix factorization failed" % name):
                run()
        assert shapes == [(n, n)] * 3


class _CountingMap:
    """Counts the products with one of the sparse maps of DiscreteOperators
    (the matrix m itself) through operators._mv."""

    def __init__(self, m):
        self.m, self.calls = m, 0


def _spy_step_maps(monkeypatch, ops):
    """Count the products with the step map and the reduced map, the maps a
    step assembly applies once each through operators._mv."""
    from slipctl import operators
    spies = {name: _CountingMap(getattr(ops, name)) for name in ("_step_map", "_reduced_map")}
    real = operators._mv

    def counting(A, x, out=None):
        for spy in spies.values():
            if A is spy.m:
                spy.calls += 1
        return real(A, x, out)

    monkeypatch.setattr(operators, "_mv", counting)
    return spies


def _later_sweeps(p, t, U, d):
    """Every array the adjoint and tangent sweeps around t return."""
    adj = solve_adjoint(AdjointProblem(p, t, U))
    z = solve_linearized(LinearizedProblem(p, t, d.a, d.b))
    return [adj.p, adj.pi, adj.kernel_a, adj.kernel_b, z]


def _bits_equal(xs, ys):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


@pytest.mark.parametrize("amplitude", [0.3, 10.0])
def test_later_sweeps_read_the_state_sweeps_steps(either_setup, monkeypatch, tmp_path,
                                                  amplitude):
    """The adjoint and tangent sweeps around a trajectory solved with a
    StepStore assemble no step: they load the state sweep's L_k and its
    band LU of R_k, or L_k and R_k where they refine.  A copy of the
    trajectory without them, built from its arrays or read back from disk,
    assembles every step and gives the same bits (refining, at the larger
    controls most steps fall back to their own factor)."""
    from slipctl.fields import StateTrajectory
    from slipctl.state_solver import load_trajectory, save_trajectory
    grid, tg, prob, _ = either_setup
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(41), amplitude=amplitude)
    p = StateProblem(grid, tg, prob.y0, ctrl, prob.friction, validate=False)
    traj = solve_state(p, StepStore(grid.ops, tg.nt))
    U = random_source(grid, tg, 42)
    d = random_admissible_control(grid, tg, np.random.default_rng(43), amplitude=0.3)
    save_trajectory(tmp_path / "traj", traj)
    bare = [StateTrajectory(grid, tg, traj.y, traj.p, traj.config_hash),
            load_trajectory(tmp_path / "traj")]
    assert bare[1].steps is None

    spies = _spy_step_maps(monkeypatch, grid.ops)
    stored = _later_sweeps(p, traj, U, d)
    assert [s.calls for s in spies.values()] == [0, 0]
    for t in bare:
        assembled = _later_sweeps(p, t, U, d)
        assert [s.calls for s in spies.values()] == [2 * tg.nt] * 2
        assert _bits_equal(stored, assembled)
        for s in spies.values():
            s.calls = 0


@pytest.mark.parametrize("change", ["nu", "alpha"])
def test_store_is_read_only_at_its_dt_nu_and_alpha(either_setup, monkeypatch, change):
    """Paired with a problem of another viscosity, the later sweeps read no
    kept step; with the friction changed at one step, they assemble that
    step alone.  Either way they give the bits of a trajectory without
    kept steps."""
    from slipctl.fields import FrictionField, StateTrajectory
    grid, tg, prob, traj = either_setup
    nu, alpha = prob.nu, prob.friction.alpha.copy()
    if change == "nu":
        nu, assembled = 0.7, tg.nt
    else:
        alpha[3] *= 1.5
        assembled = 1
    other = StateProblem(grid, tg, prob.y0, prob.controls,
                         FrictionField(grid, tg, alpha), nu, validate=False)
    other.step_solver("state")          # its reference factor, if it refines
    U = random_source(grid, tg, 44)
    d = random_admissible_control(grid, tg, np.random.default_rng(45), amplitude=0.3)

    spies = _spy_step_maps(monkeypatch, grid.ops)
    mixed = _later_sweeps(other, traj, U, d)
    assert [s.calls for s in spies.values()] == [2 * assembled] * 2
    bare = StateTrajectory(grid, tg, traj.y, traj.p, traj.config_hash)
    assert _bits_equal(mixed, _later_sweeps(other, bare, U, d))


def test_capped_store_keeps_the_last_steps(either_setup, monkeypatch):
    """With room for K steps, the state sweep keeps steps nt-K+1..nt; each
    later sweep loads those K and assembles the other nt-K, with the bits
    of a full store."""
    grid, tg, prob, traj = either_setup
    K = 3
    capped = _capped_solve(monkeypatch, prob, K)
    assert capped.steps.first == tg.nt - K + 1
    assert _bits_equal([capped.y, capped.p], [traj.y, traj.p])
    U = random_source(grid, tg, 46)
    d = random_admissible_control(grid, tg, np.random.default_rng(47), amplitude=0.3)

    spies = _spy_step_maps(monkeypatch, grid.ops)
    out = _later_sweeps(prob, capped, U, d)
    assert [s.calls for s in spies.values()] == [2 * (tg.nt - K)] * 2
    assert _bits_equal(out, _later_sweeps(prob, traj, U, d))


def _store_row(ops):
    """The name of the budget of a StepStore on ops and the bytes of one of
    its rows: BAND_STORE_BYTES and L with a band LU under the band bound,
    STEP_STORE_BYTES and L with R above it."""
    band = ops.band()
    if band is None:
        return "STEP_STORE_BYTES", 8 * (ops.step_indices.size + ops.reduced_indices.size)
    return "BAND_STORE_BYTES", 8 * (ops.step_indices.size + band.n * band.ldab)


def _capped_solve(monkeypatch, prob, K):
    """The trajectory of prob solved with a StepStore whose budget has room
    for K rows and a half."""
    from slipctl import operators
    ops, nt = prob.grid.ops, prob.time_grid.nt
    budget, row = _store_row(ops)
    monkeypatch.setattr(operators, budget, K * row + row // 2)
    steps = StepStore(ops, nt)
    assert (steps.lu is None) is (ops.band() is None) and len(steps.keys) == K
    return solve_state(prob, steps)


def test_capped_band_store_factors_the_steps_it_does_not_cover(setup, monkeypatch,
                                                               factor_log):
    """Under the band bound, with room for K steps, the state sweep factors
    every step and the later sweeps factor exactly the nt-K steps the store
    does not keep, each once, in marching order."""
    grid, tg, prob, traj = setup
    K = 3
    capped = _capped_solve(monkeypatch, prob, K)
    assert factor_log == [("state", k) for k in range(1, tg.nt + 1)]
    factor_log.clear()
    d = random_admissible_control(grid, tg, np.random.default_rng(53), amplitude=0.3)
    _later_sweeps(prob, capped, random_source(grid, tg, 54), d)
    uncovered = list(range(1, tg.nt - K + 1))
    assert factor_log == ([("adjoint", k) for k in uncovered[::-1]]
                          + [("linearized", k) for k in uncovered])


@pytest.mark.parametrize("n, nt, whole", [(16, 39, True), (16, 40, False), (16, 41, False),
                                         (20, 21, True), (20, 22, False), (20, 96, False),
                                         (16, 400, False)])
def test_band_store_keeps_factors_only_within_its_bytes(n, nt, whole):
    """Under the band bound a store keeps band LUs, and only of the last
    steps whose rows take at most BAND_STORE_BYTES: 39 steps at 16x16,
    whose band rows take 212,248 bytes, 21 at 20x20.  It keeps every step
    (whole) only for a horizon within those; a longer one keeps no L and R
    of the steps before them."""
    from slipctl.operators import BAND_STORE_BYTES
    ops = build_grid(n, n, 1.0, 1.0).ops
    band, steps = ops.band(), StepStore(ops, nt)
    kept = min(nt, {16: 39, 20: 21}[n])
    assert steps.first == nt + 1 - kept and len(steps.keys) == len(steps.lu) == kept
    assert steps.R is None and (steps.first == 1) is whole
    row = 8 * (ops.step_indices.size + band.n * band.ldab)
    assert row == {16: 212248, 20: 395192}[n]
    assert steps.L.base.nbytes == kept * row <= BAND_STORE_BYTES


@pytest.mark.parametrize("n", [8, 16, 20, 22, 32, 64])
def test_store_stays_within_the_bytes_of_its_row_format(n):
    """At every horizon a store takes at most BAND_STORE_BYTES where its
    grid is under the band bound (rows of L and a band LU) and at most
    STEP_STORE_BYTES above it (rows of L and R), and keeps the last steps
    that fit."""
    from slipctl import operators
    ops = build_grid(n, n, 1.0, 1.0).ops
    budget, row = _store_row(ops)
    assert (budget == "BAND_STORE_BYTES") is (n < 22)
    budget = getattr(operators, budget)
    for nt in (1, 2, 21, 39, 40, 64, 96, 400, 5000):
        steps = StepStore(ops, nt)
        kept = min(nt, budget // row)
        assert (steps.R is None) is (n < 22)
        assert steps.first == nt + 1 - kept and len(steps.keys) == kept
        assert steps.L.base.nbytes == kept * row <= budget


def test_band_store_without_room_keeps_no_step(setup, monkeypatch, factor_log):
    """A band store with no room for a row (BAND_STORE_BYTES = 0) keeps no
    step: the later sweeps assemble and factor each step once, each in its
    marching order, with the bits of a store of band LUs."""
    from slipctl import operators
    grid, tg, prob, traj = setup
    monkeypatch.setattr(operators, "BAND_STORE_BYTES", 0)
    factor_log.clear()
    data = solve_state(prob, StepStore(grid.ops, tg.nt))
    assert data.steps.keys == data.steps.lu == [] and data.steps.first == tg.nt + 1
    assert data.steps.L.base.nbytes == 0
    assert factor_log == [("state", k) for k in range(1, tg.nt + 1)]
    assert _bits_equal([data.y, data.p], [traj.y, traj.p])
    U = random_source(grid, tg, 55)
    d = random_admissible_control(grid, tg, np.random.default_rng(56), amplitude=0.3)
    spies = _spy_step_maps(monkeypatch, grid.ops)
    factor_log.clear()
    out = _later_sweeps(prob, data, U, d)
    assert [s.calls for s in spies.values()] == [2 * tg.nt] * 2
    assert factor_log == ([("adjoint", k) for k in range(tg.nt, 0, -1)]
                          + [("linearized", k) for k in range(1, tg.nt + 1)])
    assert _bits_equal(out, _later_sweeps(prob, traj, U, d))


def test_refining_sweeps_load_no_band_lu(setup, monkeypatch):
    """Sweeps that refine (the band rule's bound lowered after the state
    sweep kept band LUs) load no step from that store: they assemble every
    step and give the bits of a trajectory without kept steps."""
    from slipctl import operators
    from slipctl.fields import StateTrajectory
    grid, tg, prob, traj = setup
    assert traj.steps.lu is not None
    monkeypatch.setattr(operators, "BAND_BOUND", 0)
    prob.step_solver("state")           # the reference factor, made once
    U = random_source(grid, tg, 57)
    d = random_admissible_control(grid, tg, np.random.default_rng(58), amplitude=0.3)
    spies = _spy_step_maps(monkeypatch, grid.ops)
    out = _later_sweeps(prob, traj, U, d)
    assert [s.calls for s in spies.values()] == [2 * tg.nt] * 2
    bare = StateTrajectory(grid, tg, traj.y, traj.p, traj.config_hash)
    assert _bits_equal(out, _later_sweeps(prob, bare, U, d))


def test_singular_band_factor_names_its_sweep_and_step(setup, monkeypatch):
    """A step whose R is exactly singular (zeroed at step 3) fails its band
    factorization; the sweep reports it with its name and the step."""
    from slipctl.errors import SolverDivergence
    from slipctl.fields import StateTrajectory
    grid, tg, prob, traj = setup
    real = StepSolver._factor

    def singular_at_step_3(self):
        if self.k == 3:
            self.R.data[:] = 0.0
        return real(self)

    monkeypatch.setattr(StepSolver, "_factor", singular_at_step_3)
    bare = StateTrajectory(grid, tg, traj.y, traj.p, traj.config_hash)   # factors every step
    d = random_admissible_control(grid, tg, np.random.default_rng(48), amplitude=0.3)
    sweeps = {
        # the state sweep factors step 3 into the store's row for it
        "state": lambda: solve_state(prob, StepStore(grid.ops, tg.nt)),
        "adjoint": lambda: solve_adjoint(AdjointProblem(prob, bare, random_source(grid, tg, 49))),
        "linearized": lambda: solve_linearized(LinearizedProblem(prob, bare, d.a, d.b)),
    }
    for name, run in sweeps.items():
        with pytest.raises(SolverDivergence, match=r"^%s step 3: step matrix factorization "
                           r"failed: band factor is exactly singular" % name):
            run()


def test_band_store_keeps_every_step_of_16x16_by_32(monkeypatch, factor_spy):
    """At 16x16, nt = 32 the state sweep factors every step into its store,
    which keeps L's data and the band LU of R of all 32 steps in one buffer
    of 6,791,936 bytes.  The adjoint and tangent sweeps apply no step map
    and no reduced map and factor nothing: they solve each step on the
    state sweep's factor, and give the bits of a trajectory without kept
    steps, whose sweeps factor every step."""
    from slipctl.fields import StateTrajectory
    grid, tg = build_grid(16, 16, 1.0, 1.0), TimeGrid(0.5, 32)
    ops = grid.ops
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(50), amplitude=0.5)
    prob = StateProblem(grid, tg, np.zeros(ops.N), ctrl, validate=False)
    ops.neumann()                       # the grid's Neumann factor, made once
    factor_spy.calls = 0
    traj = solve_state(prob, StepStore(ops, tg.nt))
    assert factor_spy.calls == tg.nt
    steps = traj.steps
    assert steps.first == 1 and len(steps.keys) == tg.nt and steps.R is None
    assert all(lu.flat.base is steps.L.base for lu in steps.lu)
    assert steps.L.base.nbytes == 6791936

    U = random_source(grid, tg, 51)
    d = random_admissible_control(grid, tg, np.random.default_rng(52), amplitude=0.3)
    spies = _spy_step_maps(monkeypatch, ops)
    factor_spy.calls = 0
    stored = _later_sweeps(prob, traj, U, d)
    assert factor_spy.calls == 0
    assert [s.calls for s in spies.values()] == [0, 0]
    bare = StateTrajectory(grid, tg, traj.y, traj.p, traj.config_hash)
    assert _bits_equal(stored, _later_sweeps(prob, bare, U, d))
    assert factor_spy.calls == 2 * tg.nt
    assert [s.calls for s in spies.values()] == [2 * tg.nt] * 2


@pytest.mark.parametrize("band", [True, False])
def test_step_loops_make_no_sparse_matmul(monkeypatch, band):
    """A 16x16 state, tangent and adjoint sweep makes as many scipy
    __matmul__ (and __rmatmul__) calls at nt = 4 as at nt = 8: every sparse
    product inside a step loop goes through operators._mv, band-factored
    or refining (the band rule's bound lowered)."""
    import scipy.sparse as sp
    from slipctl import operators
    if not band:
        monkeypatch.setattr(operators, "BAND_BOUND", 0)
    calls = []
    for name in ("__matmul__", "__rmatmul__"):
        real = getattr(sp._base._spbase, name)

        def counting(self, other, real=real):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(sp._base._spbase, name, counting)

    def count(nt):
        grid, tg = build_grid(16, 16, 1.0, 1.0), TimeGrid(0.5, nt)
        rng = np.random.default_rng(nt)
        ctrl, d = (random_admissible_control(grid, tg, rng, amplitude=amp) for amp in (0.5, 0.3))
        prob = StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)
        U = random_source(grid, tg, nt)
        del calls[:]
        traj = solve_state(prob)
        solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
        solve_adjoint(AdjointProblem(prob, traj, U))
        assert (grid.ops.band() is None) is not band
        return len(calls)

    assert 0 < count(4) == count(8)


def test_sweeps_make_and_read_kept_steps_in_the_store_rows(either_setup, monkeypatch):
    """The state sweep assembles each kept step straight into its store
    row, and the adjoint and tangent sweeps around the trajectory solve on
    that row in place: at every step the data of L and L^T, and of R and
    R^T where the rows keep R (above the band bound), is the row's memory,
    the factor is the row's band LU where the rows keep one, and the state
    sweep's product with the step map writes into the row."""
    from slipctl import operators
    grid, tg, prob, _ = either_setup
    ops = grid.ops
    real_step, real_mv, seen, outs = StepSolver.step, operators._mv, [], []

    def recording_step(self, alpha_nodes, w_adv_vec):
        real_step(self, alpha_nodes, w_adv_vec)
        seen.append((self.sweep, self.k, self.L.data, self.LT.data, self.R.data,
                     self.R_T.data, self.lu))
        return self

    def recording_mv(A, x, out=None):
        if A is ops._step_map:
            outs.append(out)
        return real_mv(A, x, out)

    monkeypatch.setattr(StepSolver, "step", recording_step)
    monkeypatch.setattr(operators, "_mv", recording_mv)
    traj = solve_state(prob, StepStore(ops, tg.nt))
    steps = traj.steps
    assert steps.first == 1 and len(outs) == tg.nt
    assert all(np.shares_memory(out, row) for out, row in zip(outs, steps.L))
    outs.clear()
    U = random_source(grid, tg, 59)
    d = random_admissible_control(grid, tg, np.random.default_rng(60), amplitude=0.3)
    _later_sweeps(prob, traj, U, d)
    assert outs == []
    assert [(sweep, k) for sweep, k, *_ in seen] == (
        [("state", k) for k in range(1, tg.nt + 1)]
        + [("adjoint", k) for k in range(tg.nt, 0, -1)]
        + [("linearized", k) for k in range(1, tg.nt + 1)])
    for sweep, k, L, LT, R, R_T, lu in seen:
        i = k - steps.first
        assert np.shares_memory(L, steps.L[i]) and np.shares_memory(LT, steps.L[i])
        if steps.R is None:
            assert lu is steps.lu[i]
        else:
            assert np.shares_memory(R, steps.R[i]) and np.shares_memory(R_T, steps.R[i])
