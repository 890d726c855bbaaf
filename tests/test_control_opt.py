import os
import subprocess
import sys

import numpy as np
import pytest

import slipctl

from slipctl.control_opt import (CostParams, GradientEngine, cost_gradient,
                                 evaluate_cost, fd_gradient_oracle,
                                 optimality_residual, optimize,
                                 project_admissible,
                                 random_admissible_control)
from slipctl.fields import BoundaryControl, VelocityField, hp_norm
from slipctl.mesh import TimeGrid, build_grid
from slipctl.state_solver import StateProblem, solve_state


@pytest.fixture
def small():
    grid = build_grid(8, 8, 1.0, 1.0)
    tg = TimeGrid(0.5, 6)
    return grid, tg


def test_cost_examples(small):
    grid, tg = small
    tg1 = TimeGrid(1.0, 8)
    zero_ctrl = BoundaryControl(grid, tg1)
    prob = StateProblem(grid, tg1, VelocityField(grid), zero_ctrl)
    traj = solve_state(prob)

    # tracking a uniform unit target from the zero state: J = 1/2
    target = [VelocityField(grid, np.ones(grid.shape_u), np.zeros(grid.shape_v))
              for _ in range(tg1.nt + 1)]
    params = CostParams(y_d=target)
    assert evaluate_cost(zero_ctrl, traj, params) == pytest.approx(0.5, rel=1e-12)

    # boundary penalty only: b == 1, lambda2 = 2 on the unit square over T=1
    ctrl_b = BoundaryControl(grid, tg1, b=np.ones((tg1.nt + 1, grid.n_boundary)))
    params2 = CostParams(lam2=2.0)
    assert evaluate_cost(ctrl_b, traj, params2) == pytest.approx(4.0, rel=1e-12)

    # perfect tracking with zero controls costs nothing
    params3 = CostParams(y_d=traj.velocities)
    assert evaluate_cost(zero_ctrl, traj, params3) == 0.0


def test_gradient_vanishes_at_realizable_target(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(0), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, VelocityField(grid), ctrl, validate=False))
    params = CostParams(y_d=traj.velocities, lam1=0.0, lam2=0.0)
    grad = cost_gradient(ctrl, params, VelocityField(grid))
    assert grad.norm() < 1e-12


def test_penalty_only_gradient_exact(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(1), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, VelocityField(grid), ctrl, validate=False))
    params = CostParams(y_d=traj.velocities, lam1=0.7, lam2=0.3)
    grad = cost_gradient(ctrl, params, VelocityField(grid))
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
    target = [VelocityField(grid, 0.1 * np.ones(grid.shape_u), np.zeros(grid.shape_v))
              for _ in range(tg.nt + 1)]
    params = CostParams(y_d=target, lam1=0.05, lam2=0.02)
    engine = GradientEngine(VelocityField(grid), params)
    grad, _ = engine.gradient(ctrl)
    for seed in range(3):
        d = random_admissible_control(grid, tg, np.random.default_rng(30 + seed),
                                      amplitude=1.0)
        adj_val = grad.pair(d.a, d.b)
        fd = fd_gradient_oracle(ctrl, (d.a, d.b), [2e-3, 1e-3], params,
                                VelocityField(grid), engine=engine)
        assert abs(adj_val - fd["richardson"]) <= 1e-6 * max(abs(adj_val), 1e-12)


def test_fd_oracle_zero_direction_and_descent(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(3), amplitude=0.3)
    params = CostParams(y_d=None, lam1=0.0, lam2=0.0)
    engine = GradientEngine(VelocityField(grid), params)
    zero_dir = (np.zeros_like(ctrl.a), np.zeros_like(ctrl.b))
    fd = fd_gradient_oracle(ctrl, zero_dir, [1e-2, 1e-3], params,
                            VelocityField(grid), engine=engine)
    assert all(d == 0.0 for _, d in fd["estimates"])
    grad, _ = engine.gradient(ctrl)
    fd2 = fd_gradient_oracle(ctrl, (grad.ga, grad.gb), [1e-3], params,
                             VelocityField(grid), engine=engine)
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
    traj = solve_state(StateProblem(grid, tg, VelocityField(grid), ctrl, validate=False))
    params = CostParams(y_d=traj.velocities)
    res = optimality_residual(ctrl, params, VelocityField(grid), probe_count=4)
    assert res < 1e-10
    # a generic non-optimal point has positive residual
    other = random_admissible_control(grid, tg, np.random.default_rng(7), amplitude=0.3)
    res2 = optimality_residual(other, params, VelocityField(grid), probe_count=4)
    assert res2 > 1e-6


def test_gradient_slices_have_zero_boundary_mean(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(8), amplitude=0.4)
    params = CostParams(y_d=None, lam1=0.1)
    grad = cost_gradient(ctrl, params, VelocityField(grid))
    assert np.abs(grad.ga @ grid.boundary_weight).max() < 1e-12


def test_optimize_already_stationary(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(9), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, VelocityField(grid), ctrl, validate=False))
    params = CostParams(y_d=traj.velocities)
    rep = optimize(VelocityField(grid), params, controls0=ctrl, tol=1e-8, max_iters=5)
    assert rep.status == "converged"
    assert len(rep.iterations) == 1


def test_optimize_small_recovery(small):
    grid, tg = small
    y0 = VelocityField(grid)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(10), amplitude=0.4)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))
    params = CostParams(y_d=traj.velocities, radius=25.0)
    rep = optimize(y0, params, grid=grid, time_grid=tg, tol=0.0, max_iters=25, seed=3)
    Js = [it["J"] for it in rep.iterations]
    assert Js[-1] <= 1e-2 * Js[0]
    assert all(Js[i + 1] <= Js[i] * (1 + 1e-12) for i in range(len(Js) - 1))
    final = rep.final_controls
    assert np.abs(final.a @ grid.boundary_weight).max() < 1e-12
    assert hp_norm(final) <= final.radius * (1 + 1e-12)


def test_penalty_monotonicity(small):
    grid, tg = small
    y0 = VelocityField(grid)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(11), amplitude=0.4)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))

    def solve_with(lam1):
        params = CostParams(y_d=traj.velocities, lam1=lam1, radius=25.0)
        rep = optimize(y0, params, grid=grid, time_grid=tg, tol=1e-10, max_iters=20,
                       seed=3)
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
    target = [VelocityField(grid, 0.1 * np.ones(grid.shape_u), np.zeros(grid.shape_v))
              for _ in range(tg.nt + 1)]
    params = CostParams(y_d=target, lam1=0.05, lam2=0.02)
    engine = GradientEngine(VelocityField(grid), params)
    grad, _ = engine.gradient(ctrl)
    d = random_admissible_control(grid, tg, np.random.default_rng(31), amplitude=1.0)
    adj = grad.pair(d.a, d.b)
    errs = {}
    for eps in (1e-3, 1e-4, 1e-7):
        fd = fd_gradient_oracle(ctrl, (d.a, d.b), [eps], params,
                                VelocityField(grid), engine=engine)
        errs[eps] = abs(fd["estimates"][0][1] - adj) / abs(adj)
    assert errs[1e-3] > errs[1e-4]     # truncation branch
    assert errs[1e-7] > errs[1e-4]     # round-off branch


def test_optimality_zero_for_outward_descent_on_ball(small):
    """On the norm sphere with the descent direction pointing radially
    outward, the projected step returns the same point."""
    grid, tg = small
    from slipctl.control_opt import ControlGradient, optimality_parts
    c = random_admissible_control(grid, tg, np.random.default_rng(12), amplitude=1.0)
    c.radius = hp_norm(c)              # place the iterate on the sphere
    grad = ControlGradient(grid, tg, -0.5 * c.a, -0.5 * c.b)
    parts = optimality_parts(c, grad, probe_count=0)
    assert parts["step_norm"] < 1e-10
    assert parts["residual"] < 1e-10


def test_remainder_monitor_logged(small):
    grid, tg = small
    y0 = VelocityField(grid)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(12), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))
    params = CostParams(y_d=traj.velocities, radius=25.0)
    rep = optimize(y0, params, grid=grid, time_grid=tg, tol=0.0, max_iters=5, seed=3)
    assert len(rep.remainder_log) >= 1
    assert all(np.isfinite(r) for r in rep.remainder_log)


class _ClearOnStore(dict):
    """A cache that another thread empties right after every store."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.clear()


def test_engine_entry_survives_concurrent_cache_clear(small):
    grid, tg = small
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(13), amplitude=0.3)
    engine = GradientEngine(VelocityField(grid), CostParams(lam1=0.5, lam2=0.5))
    engine._cache = _ClearOnStore()
    J = engine.cost(ctrl)
    assert np.isfinite(J)
    grad, _ = engine.gradient(ctrl)
    assert np.isfinite(grad.norm())


def test_optimize_records_state_and_adjoint_time(small):
    grid, tg = small
    y0 = VelocityField(grid)
    c_star = random_admissible_control(grid, tg, np.random.default_rng(12), amplitude=0.3)
    traj = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))
    params = CostParams(y_d=traj.velocities, radius=25.0)
    rep = optimize(y0, params, grid=grid, time_grid=tg, tol=0.0, max_iters=1, seed=3)
    assert len(rep.iterations) == 1
    assert rep.wall_clock["state"] > 0.0
    assert rep.wall_clock["adjoint"] > 0.0
    assert rep.wall_clock["state"] + rep.wall_clock["adjoint"] <= rep.wall_clock["total"]


_GRADIENT_64X4 = """
import resource
import numpy as np
from slipctl.control_opt import CostParams, GradientEngine, random_admissible_control
from slipctl.fields import VelocityField
from slipctl.mesh import TimeGrid, build_grid
grid = build_grid(64, 64, 1.0, 1.0)
tg = TimeGrid(0.5, 4)
ctrl = random_admissible_control(grid, tg, np.random.default_rng(0), amplitude=0.4)
target = [VelocityField(grid, 0.1 * np.ones(grid.shape_u), np.zeros(grid.shape_v))
          for _ in range(tg.nt + 1)]
engine = GradientEngine(VelocityField(grid), CostParams(y_d=target, lam1=0.05, lam2=0.02))
grad, _ = engine.gradient(ctrl)
assert np.isfinite(grad.ga).all() and np.isfinite(grad.gb).all()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

# A 64x64, nt = 4 gradient peaks at 115-119 MB (Linux, numpy/scipy with one
# BLAS thread); the ceiling is that plus 25%.  Fill or memory kept across
# steps or sweeps shows up here first.
GRADIENT_64X4_RSS_CEILING_MB = 150.0


@pytest.mark.slow
def test_gradient_64x4_peak_rss_under_ceiling():
    src = os.path.dirname(os.path.dirname(os.path.abspath(slipctl.__file__)))
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _GRADIENT_64X4], env=env, check=True,
                         capture_output=True, text=True, timeout=600)
    peak_mb = int(out.stdout.split()[-1]) / 1024.0    # ru_maxrss is in KiB on Linux
    assert peak_mb < GRADIENT_64X4_RSS_CEILING_MB
