import numpy as np
import pytest

from slipctl.fields import BoundaryControl, face_l2
from slipctl.linearized_solver import (LinearizedProblem, gateaux_discrepancy,
                                       solve_linearized)
from slipctl.mesh import TimeGrid, build_grid
from slipctl.state_solver import StateProblem, solve_state
from slipctl.control_opt import random_admissible_control

from oracles import fric_matrix


@pytest.fixture
def setup():
    grid = build_grid(8, 8, 1.0, 1.0)
    tg = TimeGrid(0.5, 8)
    rng = np.random.default_rng(11)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=0.3)
    prob = StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)
    traj = solve_state(prob)
    return grid, tg, prob, traj


def direction(grid, tg, seed, amplitude=1.0):
    return random_admissible_control(grid, tg, np.random.default_rng(seed),
                                     amplitude=amplitude)


def test_zero_direction_zero_solution(setup):
    grid, tg, prob, traj = setup
    z = solve_linearized(LinearizedProblem(
        prob, traj, np.zeros_like(prob.controls.a), np.zeros_like(prob.controls.b)))
    assert z.shape == traj.y.shape
    assert max(face_l2(grid, zk) for zk in z) == 0.0


def test_superposition_exact(setup):
    grid, tg, prob, traj = setup
    d1 = direction(grid, tg, 1)
    d2 = direction(grid, tg, 2)
    z1 = solve_linearized(LinearizedProblem(prob, traj, d1.a, d1.b))
    z2 = solve_linearized(LinearizedProblem(prob, traj, d2.a, d2.b))
    z12 = solve_linearized(LinearizedProblem(
        prob, traj, 3.0 * d1.a - 0.5 * d2.a, 3.0 * d1.b - 0.5 * d2.b))
    ref = max(face_l2(grid, zk) for zk in z12)
    err = max(face_l2(grid, z12[k] - (3.0 * z1[k] - 0.5 * z2[k])) for k in range(tg.nt + 1))
    assert err <= 1e-10 * max(ref, 1.0)


def test_slices_satisfy_constraints(setup):
    grid, tg, prob, traj = setup
    d = direction(grid, tg, 3)
    z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
    assert face_l2(grid, z[0]) == 0.0
    for k in range(1, tg.nt + 1):
        assert np.abs(grid.ops.Dmat @ z[k]).max() < 1e-9
        assert np.abs(grid.ops.Tn @ z[k] - d.a[k]).max() < 1e-12


def test_matches_stokes_solver_around_null_state(stokes_slip_solve):
    """Around y == 0 the tangent step and the state step are the same map."""
    grid = build_grid(8, 8, 1.0, 1.0)
    tg = TimeGrid(0.4, 6)
    zero_prob = StateProblem(grid, tg, np.zeros(grid.ops.N), BoundaryControl(grid, tg))
    traj0 = solve_state(zero_prob)
    d = direction(grid, tg, 4)
    z = solve_linearized(LinearizedProblem(zero_prob, traj0, d.a, d.b))
    y_prev = np.zeros(grid.ops.N)
    for k in range(1, tg.nt + 1):
        y_k, _ = stokes_slip_solve(grid, np.zeros(grid.ops.N), y_prev, d.a[k],
                                   d.b[k], zero_prob.friction.alpha[k], tg.dt)
        assert face_l2(grid, y_k - z[k]) < 1e-10 * max(1.0, face_l2(grid, y_k))
        y_prev = y_k


def test_gateaux_discrepancy_zero_direction(setup):
    grid, tg, prob, traj = setup
    rows, _ = gateaux_discrepancy(prob, traj,
                                  np.zeros_like(prob.controls.a),
                                  np.zeros_like(prob.controls.b), [1e-1, 1e-2])
    assert all(d == 0.0 for _, d in rows)


def test_gateaux_discrepancy_first_order(setup):
    grid, tg, prob, traj = setup
    d = direction(grid, tg, 5)
    rows, _ = gateaux_discrepancy(prob, traj, d.a, d.b, [1e-1, 1e-2, 1e-3])
    discs = [disc for _, disc in rows]
    assert discs[0] > discs[1] > discs[2]
    ratios = [disc / eps for eps, disc in rows]
    assert max(ratios) <= 3.0 * min(ratios)


def test_gateaux_quadratic_remainder_scaling(setup):
    grid, tg, prob, traj = setup
    d = direction(grid, tg, 6)
    eps = 1e-2
    rows1, _ = gateaux_discrepancy(prob, traj, d.a, d.b, [eps])
    rows2, _ = gateaux_discrepancy(prob, traj, 2.0 * d.a, 2.0 * d.b, [eps])
    ratio = rows2[0][1] / rows1[0][1]
    assert 3.0 <= ratio <= 5.0  # second-order remainder: factor near 4


def test_energy_estimate_shape(setup):
    grid, tg, prob, traj = setup
    ops = grid.ops
    ratios = []
    from slipctl.fields import hp_norm
    from slipctl.control_opt import balanced_direction
    for seed in range(10):
        d = balanced_direction(grid, tg, np.random.default_rng(20 + seed))
        z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
        lhs = max(face_l2(grid, zk) ** 2 for zk in z)
        for k in range(1, tg.nt + 1):
            zv = z[k]
            lhs += tg.dt * 0.5 * float(zv @ (ops.A_strain @ zv))
            lhs += tg.dt * float(zv @ (fric_matrix(ops, prob.friction.alpha[k]) @ zv))
        ratios.append(lhs / hp_norm(d) ** 2)
    assert np.all(np.isfinite(ratios))
    assert max(ratios) <= 3.0 * min(ratios)


def test_direction_flux_validated(setup):
    grid, tg, prob, traj = setup
    f = np.ones((tg.nt + 1, grid.n_boundary))
    with pytest.raises(ValueError, match="net flux"):
        LinearizedProblem(prob, traj, f, np.zeros_like(f))
    # the error names the first slice with net flux, and its signed value
    f = np.zeros((tg.nt + 1, grid.n_boundary))
    f[3], f[5] = -0.5, 1.0
    with pytest.raises(ValueError, match=r"net flux -2\.000e\+00 at slice 3$"):
        LinearizedProblem(prob, traj, f, np.zeros_like(f))


def test_base_trajectory_required(setup):
    grid, tg, prob, _ = setup
    from slipctl.errors import BaseTrajectoryMissing
    with pytest.raises(BaseTrajectoryMissing):
        LinearizedProblem(prob, None, np.zeros_like(prob.controls.a),
                          np.zeros_like(prob.controls.b))
