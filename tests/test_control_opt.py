import gc
import sys
import weakref

import numpy as np
import pytest

from slipctl.control_opt import (CostParams, GradientEngine, evaluate_cost,
                                 fd_gradient_oracle, optimality_parts, optimize,
                                 project_admissible, random_admissible_control)
from slipctl.fields import BoundaryControl, face_vector, hp_norm
from slipctl.mesh import TimeGrid, build_grid
from slipctl.state_solver import StateProblem, solve_state

from child import run_child


@pytest.fixture
def small():
    grid = build_grid(8, 8, 1.0, 1.0)
    tg = TimeGrid(0.5, 6)
    return grid, tg


def test_cost_examples(small):
    grid, tg = small
    tg1 = TimeGrid(1.0, 8)
    zero_ctrl = BoundaryControl(grid, tg1)
    prob = StateProblem(grid, tg1, np.zeros(grid.ops.N), zero_ctrl)
    traj = solve_state(prob)

    # tracking a uniform unit target from the zero state: J = 1/2
    target = np.tile(face_vector(grid, np.ones(grid.shape_u),
                                 np.zeros(grid.shape_v)), (tg1.nt + 1, 1))
    params = CostParams(y_d=target)
    assert evaluate_cost(zero_ctrl, traj, params) == pytest.approx(0.5, rel=1e-12)

    # boundary penalty only: b == 1, lambda2 = 2 on the unit square over T=1
    ctrl_b = BoundaryControl(grid, tg1, b=np.ones((tg1.nt + 1, grid.n_boundary)))
    params2 = CostParams(y_d=np.zeros((tg1.nt + 1, grid.ops.N)), lam2=2.0)
    assert evaluate_cost(ctrl_b, traj, params2) == pytest.approx(4.0, rel=1e-12)

    # perfect tracking with zero controls costs nothing
    params3 = CostParams(y_d=traj.y)
    assert evaluate_cost(zero_ctrl, traj, params3) == 0.0


def test_gradient_vanishes_at_realizable_target(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(0), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False))
    params = CostParams(y_d=traj.y, lam1=0.0, lam2=0.0)
    grad = GradientEngine(np.zeros(grid.ops.N), params).gradient(ctrl)[0]
    assert grad.norm() < 1e-12


def test_penalty_only_gradient_exact(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(1), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False))
    params = CostParams(y_d=traj.y, lam1=0.7, lam2=0.3)
    grad = GradientEngine(np.zeros(grid.ops.N), params).gradient(ctrl)[0]
    wg = grid.boundary_weight
    exp_a = 0.7 * ctrl.a.copy()
    exp_a[1:] -= (exp_a[1:] @ wg)[:, None] / grid.loop_length
    exp_a[0] = 0.0
    exp_b = 0.3 * ctrl.b.copy()
    exp_b[0] = 0.0
    assert np.abs(grad.ga - exp_a).max() < 1e-12
    assert np.abs(grad.gb - exp_b).max() < 1e-12


def test_gradient_matches_fd(small):
    grid, tg = small
    rng = np.random.default_rng(2)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=0.4)
    target = np.tile(face_vector(grid, 0.1 * np.ones(grid.shape_u),
                                 np.zeros(grid.shape_v)), (tg.nt + 1, 1))
    params = CostParams(y_d=target, lam1=0.05, lam2=0.02)
    engine = GradientEngine(np.zeros(grid.ops.N), params)
    grad, _ = engine.gradient(ctrl)
    for seed in range(3):
        d = random_admissible_control(grid, tg, np.random.default_rng(30 + seed),
                                      amplitude=1.0)
        adj_val = grad.pair(d.a, d.b)
        fd = fd_gradient_oracle(engine, ctrl, (d.a, d.b), [2e-3, 1e-3])
        assert abs(adj_val - fd["richardson"]) <= 1e-6 * max(abs(adj_val), 1e-12)


def test_engine_keeps_only_the_latest_solve(small):
    """cost then gradient at one control is one state and one adjoint solve;
    a new control releases the previous solve without the cycle collector."""
    grid, tg = small
    rng = np.random.default_rng(21)
    ctrl_a = random_admissible_control(grid, tg, rng, amplitude=0.3)
    ctrl_b = random_admissible_control(grid, tg, rng, amplitude=0.3)
    params = CostParams(y_d=np.zeros((tg.nt + 1, grid.ops.N)), lam1=0.1, lam2=0.1)
    engine = GradientEngine(np.zeros(grid.ops.N), params)
    gc.disable()
    try:
        J_a = engine.cost(ctrl_a)
        _, entry = engine.gradient(ctrl_a.copy())
        assert (engine.state_solves, engine.adjoint_solves) == (1, 1)
        assert entry["J"] == J_a
        traj_a = weakref.ref(entry["trajectory"])
        del entry
        engine.cost(ctrl_b)
        assert traj_a() is None
        assert engine.cost(ctrl_a) == J_a
        assert engine.state_solves == 3
    finally:
        gc.enable()


def test_fd_oracle_zero_direction_and_descent(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(3), amplitude=0.3)
    params = CostParams(y_d=np.zeros((tg.nt + 1, grid.ops.N)), lam1=0.0, lam2=0.0)
    engine = GradientEngine(np.zeros(grid.ops.N), params)
    zero_dir = (np.zeros_like(ctrl.a), np.zeros_like(ctrl.b))
    fd = fd_gradient_oracle(engine, ctrl, zero_dir, [1e-2, 1e-3])
    assert all(d == 0.0 for _, d in fd["estimates"])
    grad, _ = engine.gradient(ctrl)
    fd2 = fd_gradient_oracle(engine, ctrl, (grad.ga, grad.gb), [1e-3])
    assert fd2["estimates"][0][1] > 0.0  # the gradient is an ascent direction


def test_projection_properties(small):
    grid, tg = small
    rng = np.random.default_rng(4)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=1.0)
    # idempotence
    p1 = project_admissible(ctrl)
    p2 = project_admissible(p1)
    assert np.abs(p2.a - p1.a).max() < 1e-14
    assert np.abs(p2.b - p1.b).max() < 1e-14

    # constant offset per slice is removed exactly
    shifted = ctrl.copy()
    shifted.a = shifted.a + 0.8
    proj = project_admissible(shifted)
    assert np.abs(proj.a @ grid.boundary_weight).max() < 1e-12

    # radial scaling lands on the sphere
    big = ctrl.copy()
    big.radius = 0.5 * hp_norm(big)
    proj2 = project_admissible(big)
    assert hp_norm(proj2) == pytest.approx(big.radius, rel=1e-12)


def test_projection_nonexpansive_radial(small):
    grid, tg = small
    rng = np.random.default_rng(5)
    for _ in range(5):
        c1 = random_admissible_control(grid, tg, rng, amplitude=1.0)
        c2 = random_admissible_control(grid, tg, rng, amplitude=1.0)
        R = 0.75 * max(hp_norm(c1), hp_norm(c2))
        c1.radius = c2.radius = R
        p1, p2 = project_admissible(c1), project_admissible(c2)
        before = hp_norm(BoundaryControl(grid, tg, c1.a - c2.a, c1.b - c2.b))
        after = hp_norm(BoundaryControl(grid, tg, p1.a - p2.a, p1.b - p2.b))
        assert after <= before + 1e-12


def test_optimality_residual_zero_at_stationary_point(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(6), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False))
    params = CostParams(y_d=traj.y)
    y0 = np.zeros(grid.ops.N)
    engine = GradientEngine(y0, params)
    res = optimality_parts(ctrl, engine.gradient(ctrl)[0])
    assert res < 1e-10
    # a generic non-optimal point has positive residual
    other = random_admissible_control(grid, tg, np.random.default_rng(7), amplitude=0.3)
    res2 = optimality_parts(other, engine.gradient(other)[0])
    assert res2 > 1e-6


def test_gradient_slices_have_zero_boundary_mean(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(8), amplitude=0.4)
    params = CostParams(y_d=np.zeros((tg.nt + 1, grid.ops.N)), lam1=0.1)
    grad = GradientEngine(np.zeros(grid.ops.N), params).gradient(ctrl)[0]
    assert np.abs(grad.ga @ grid.boundary_weight).max() < 1e-12


def test_optimize_already_stationary(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(9), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False))
    params = CostParams(y_d=traj.y)
    rep = optimize(np.zeros(grid.ops.N), params, controls0=ctrl, tol=1e-8, max_iters=5)
    assert rep.status == "converged"
    assert len(rep.iterations) == 1


def test_optimize_small_recovery(small):
    grid, tg = small
    y0 = np.zeros(grid.ops.N)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(10), amplitude=0.4)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))
    params = CostParams(y_d=traj.y, radius=25.0)
    rep = optimize(y0, params, grid=grid, time_grid=tg, tol=0.0, max_iters=25)
    Js = [it["J"] for it in rep.iterations]
    assert Js[-1] <= 1e-2 * Js[0]
    assert all(Js[i + 1] <= Js[i] * (1 + 1e-12) for i in range(len(Js) - 1))
    final = rep.final_controls
    assert np.abs(final.a @ grid.boundary_weight).max() < 1e-12
    assert hp_norm(final) <= final.radius * (1 + 1e-12)


def test_penalty_monotonicity(small):
    grid, tg = small
    y0 = np.zeros(grid.ops.N)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(11), amplitude=0.4)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))

    def solve_with(lam1):
        params = CostParams(y_d=traj.y, lam1=lam1, radius=25.0)
        rep = optimize(y0, params, grid=grid, time_grid=tg, tol=1e-10, max_iters=20)
        a = rep.final_controls.a
        dt = tg.dt
        return np.sqrt(dt * float(((a ** 2) @ grid.boundary_weight)[1:].sum()))

    norm_small = solve_with(0.05)
    norm_big = solve_with(0.10)
    assert norm_big <= norm_small * (1 + 1e-9)


def test_fd_error_curve_truncation_vs_roundoff(small):
    """Central-difference error against the adjoint value falls like eps^2
    until round-off takes over: a V-shaped curve over the sweep."""
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(2), amplitude=0.4)
    target = np.tile(face_vector(grid, 0.1 * np.ones(grid.shape_u),
                                 np.zeros(grid.shape_v)), (tg.nt + 1, 1))
    params = CostParams(y_d=target, lam1=0.05, lam2=0.02)
    engine = GradientEngine(np.zeros(grid.ops.N), params)
    grad, _ = engine.gradient(ctrl)
    d = random_admissible_control(grid, tg, np.random.default_rng(31), amplitude=1.0)
    adj = grad.pair(d.a, d.b)
    errs = {}
    for eps in (1e-3, 1e-4, 1e-7):
        fd = fd_gradient_oracle(engine, ctrl, (d.a, d.b), [eps])
        errs[eps] = abs(fd["estimates"][0][1] - adj) / abs(adj)
    assert errs[1e-3] > errs[1e-4]     # truncation branch
    assert errs[1e-7] > errs[1e-4]     # round-off branch


def test_optimality_zero_for_outward_descent_on_ball(small):
    """On the norm sphere with the descent direction pointing radially
    outward, the projected step returns the same point."""
    grid, tg = small
    from slipctl.control_opt import ControlGradient
    c = random_admissible_control(grid, tg, np.random.default_rng(12), amplitude=1.0)
    c.radius = hp_norm(c)              # place the iterate on the sphere
    grad = ControlGradient(grid, tg, -0.5 * c.a, -0.5 * c.b)
    assert optimality_parts(c, grad) < 1e-10


def test_remainder_monitor_logged(small):
    grid, tg = small
    y0 = np.zeros(grid.ops.N)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(12), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))
    params = CostParams(y_d=traj.y, radius=25.0)
    rep = optimize(y0, params, grid=grid, time_grid=tg, tol=0.0, max_iters=5)
    assert len(rep.remainder_log) >= 1
    assert all(np.isfinite(r) for r in rep.remainder_log)


def test_optimize_records_state_and_adjoint_time(small):
    grid, tg = small
    y0 = np.zeros(grid.ops.N)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(12), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))
    params = CostParams(y_d=traj.y, radius=25.0)
    rep = optimize(y0, params, grid=grid, time_grid=tg, tol=0.0, max_iters=1)
    assert len(rep.iterations) == 1
    assert rep.wall_clock["state"] > 0.0
    assert rep.wall_clock["adjoint"] > 0.0
    assert rep.wall_clock["state"] + rep.wall_clock["adjoint"] <= rep.wall_clock["total"]


def test_gradient_factors_each_band_step_once(monkeypatch, factor_spy, factor_log):
    """A 16x16, nt = 32 gradient makes 32 band factorizations, all in the
    state sweep; its adjoint sweep solves on them.  Without the kept steps
    the adjoint sweep factors the 32 again, and every array of the state
    and adjoint solves and the gradient are the same bits."""
    from slipctl import control_opt
    grid, tg = build_grid(16, 16, 1.0, 1.0), TimeGrid(0.5, 32)
    assert grid.ops.band() is not None
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(4), amplitude=0.5)
    target = np.tile(face_vector(grid, 0.1 * np.ones(grid.shape_u),
                                 np.zeros(grid.shape_v)), (tg.nt + 1, 1))
    params = CostParams(y_d=target, lam1=0.05, lam2=0.02)
    grid.ops.neumann()                  # the grid's Neumann factor, made once

    def arrays():
        grad, entry = GradientEngine(np.zeros(grid.ops.N), params).gradient(ctrl)
        traj, adj = entry["trajectory"], entry["adjoint"]
        return [traj.y, traj.p, adj.p, adj.pi, adj.kernel_a, adj.kernel_b, grad.ga, grad.gb]

    factor_spy.calls = 0
    kept = arrays()
    assert factor_spy.calls == tg.nt
    assert [sweep for sweep, _ in factor_log] == ["state"] * tg.nt
    factor_log.clear()
    monkeypatch.setattr(control_opt, "StepStore", lambda ops, nt: None)
    bare = arrays()
    assert [sweep for sweep, _ in factor_log] == ["state"] * tg.nt + ["adjoint"] * tg.nt
    assert all(x.tobytes() == y.tobytes() for x, y in zip(kept, bare))


def test_gradient_drops_the_kept_steps_after_its_adjoint_sweep(small):
    """The engine's state solve keeps its steps until the gradient's adjoint
    sweep has read them; a tangent sweep around the trajectory then makes
    its steps again, with the bits of one that read them."""
    from slipctl.linearized_solver import LinearizedProblem, solve_linearized
    grid, tg = small
    rng = np.random.default_rng(5)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=0.4)
    d = random_admissible_control(grid, tg, rng, amplitude=0.3)
    params = CostParams(y_d=np.zeros((tg.nt + 1, grid.ops.N)), lam1=0.05, lam2=0.02)
    engine = GradientEngine(np.zeros(grid.ops.N), params)
    entry = engine.entry(ctrl)
    prob, traj = entry["problem"], entry["trajectory"]
    assert traj.steps is not None
    before = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
    engine.gradient(ctrl)
    assert traj.steps is None and engine.entry(ctrl) is entry
    after = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
    assert before.tobytes() == after.tobytes()


_GRADIENTS_16X32_RSS = """
import numpy as np
from slipctl.control_opt import CostParams, GradientEngine, random_admissible_control
from slipctl.fields import face_vector
from slipctl.mesh import TimeGrid, build_grid

grid = build_grid(16, 16, 1.0, 1.0)
tg = TimeGrid(0.5, 32)
rng = np.random.default_rng(3)
target = np.tile(face_vector(grid, 0.1 * np.ones(grid.shape_u),
                             np.zeros(grid.shape_v)), (tg.nt + 1, 1))
engine = GradientEngine(np.zeros(grid.ops.N), CostParams(y_d=target, lam1=0.05, lam2=0.02))
peaks = []
for _ in range(20):
    ctrl = random_admissible_control(grid, tg, rng, amplitude=0.4)
    engine.cost(ctrl)
    engine.gradient(ctrl)
    peaks.append(peak_kib())
print(peaks[1], peaks[19])
"""


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM")
def test_gradient_peak_rss_flat_over_fresh_controls():
    """Peak RSS after 20 gradients at distinct 16x16, nt = 32 controls is
    within 2 MB of the peak after 2: the engine keeps no older solves."""
    out = run_child(_GRADIENTS_16X32_RSS)
    after_2, after_20 = (int(v) / 1024.0 for v in out.split()[-2:])  # KiB
    assert after_20 - after_2 <= 2.0


_GRADIENT_64X4 = """
import numpy as np
from slipctl.control_opt import CostParams, GradientEngine, random_admissible_control
from slipctl.fields import face_vector
from slipctl.mesh import TimeGrid, build_grid
grid = build_grid(64, 64, 1.0, 1.0)
tg = TimeGrid(0.5, 4)
ctrl = random_admissible_control(grid, tg, np.random.default_rng(0), amplitude=0.4)
target = np.tile(face_vector(grid, 0.1 * np.ones(grid.shape_u),
                             np.zeros(grid.shape_v)), (tg.nt + 1, 1))
engine = GradientEngine(np.zeros(grid.ops.N), CostParams(y_d=target, lam1=0.05, lam2=0.02))
grad, _ = engine.gradient(ctrl)
assert np.isfinite(grad.ga).all() and np.isfinite(grad.gb).all()
print(peak_kib())
"""

# A 64x64, nt = 4 gradient peaked at 115-119 MB by ru_maxrss, which also
# counted the test runner, and the ceiling is that plus 25%; read as the
# child's own VmHWM it peaks at ~98 MB (Linux, numpy/scipy with one BLAS
# thread).  Fill or memory kept across steps or sweeps shows up here first.
GRADIENT_64X4_RSS_CEILING_MB = 150.0


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM")
def test_gradient_64x4_peak_rss_under_ceiling():
    peak_mb = int(run_child(_GRADIENT_64X4).split()[-1]) / 1024.0    # KiB
    assert peak_mb < GRADIENT_64X4_RSS_CEILING_MB
