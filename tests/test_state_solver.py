import numpy as np
import pytest

from slipctl.fields import (BoundaryControl, FrictionField, StateTrajectory,
                            face_l2, hp_norm, read_snapshot, sample_faces)
from slipctl.mesh import TimeGrid, build_grid
from slipctl.state_solver import (StateProblem, energy_bound_report,
                                  energy_identity_residual,
                                  energy_identity_terms, load_trajectory,
                                  save_trajectory, solve_state)
from slipctl.control_opt import random_admissible_control

from oracles import energy_terms_of_step, shear_oracle, trajectory_sup_l2


@pytest.fixture
def grid():
    return build_grid(8, 8, 1.0, 1.0)


@pytest.fixture
def tg():
    return TimeGrid(0.5, 8)


def random_problem(grid, tg, seed=0, amplitude=0.3):
    rng = np.random.default_rng(seed)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=amplitude)
    return StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)


def test_null_data_gives_null_solution(grid, tg):
    prob = StateProblem(grid, tg, np.zeros(grid.ops.N), BoundaryControl(grid, tg))
    traj = solve_state(prob)
    assert max(face_l2(grid, y) for y in traj.y) == 0.0
    assert max(abs(p).max() for p in traj.p) < 1e-12


def test_single_step_zero(grid, stokes_slip_solve):
    y, p = stokes_slip_solve(grid, np.zeros(grid.ops.N), np.zeros(grid.ops.N),
                             np.zeros(grid.n_boundary), np.zeros(grid.n_boundary),
                             np.ones(grid.n_boundary), 0.1)
    assert face_l2(grid, y) == 0.0 and abs(p).max() < 1e-13


def test_shear_profile_is_fixed_point(grid, tg):
    y0, ctrl, fric = shear_oracle(grid, tg, c1=0.4, c2=1.3, alpha_value=1.0)
    prob = StateProblem(grid, tg, y0, ctrl, fric)
    traj = solve_state(prob)
    for k in range(tg.nt + 1):
        assert face_l2(grid, traj.y[k] - y0) < 1e-9


def test_single_shear_step_returns_profile(grid, stokes_slip_solve):
    tg = TimeGrid(1.0, 4)
    y0, ctrl, fric = shear_oracle(grid, tg, c1=-0.2, c2=0.9, alpha_value=2.0)
    y1, p1 = stokes_slip_solve(grid, y0, y0, ctrl.a[1], ctrl.b[1],
                               fric.alpha[1], tg.dt)
    assert face_l2(grid, y1 - y0) < 1e-10
    assert abs(p1).max() < 1e-9


def test_energy_identity_random_controls(grid, tg):
    prob = random_problem(grid, tg, seed=2)
    traj = solve_state(prob)
    res = energy_identity_residual(traj, prob)
    assert res.max() < 1e-8
    for terms in energy_identity_terms(traj, prob):
        assert terms["strain_dissipation"] >= 0
        assert terms["friction_dissipation"] >= 0
        assert terms["numerical_dissipation"] >= 0


@pytest.mark.parametrize("shape", [(8, 8, 1.0), (7, 9, 1.2), (24, 24, 1.0)])
def test_energy_terms_have_the_bits_of_per_step_products(shape):
    """The block products of energy_identity_terms give every step the bits
    of that step's own products, on a band grid and a refining one."""
    nx, ny, Lx = shape
    g, tg = build_grid(nx, ny, Lx, 1.0), TimeGrid(0.5, 5)
    ctrl = random_admissible_control(g, tg, np.random.default_rng(7), amplitude=0.5)
    alpha = 1.0 + np.random.default_rng(8).random((tg.nt + 1, g.n_boundary))
    prob = StateProblem(g, tg, np.zeros(g.ops.N), ctrl, FrictionField(g, tg, alpha),
                        nu=0.05, validate=False)
    traj = solve_state(prob)
    for k, terms in enumerate(energy_identity_terms(traj, prob), start=1):
        assert terms == energy_terms_of_step(traj, prob, k)


def test_energy_identity_null_and_shear(grid, tg):
    null = StateProblem(grid, tg, np.zeros(grid.ops.N), BoundaryControl(grid, tg))
    assert energy_identity_residual(solve_state(null), null).max() == 0.0
    y0, ctrl, fric = shear_oracle(grid, tg)
    prob = StateProblem(grid, tg, y0, ctrl, fric)
    traj = solve_state(prob)
    assert energy_identity_residual(traj, prob).max() < 1e-9


def test_divergence_and_wall_flux_every_slice(grid, tg):
    prob = random_problem(grid, tg, seed=3)
    traj = solve_state(prob)
    for k in range(tg.nt + 1):
        y = traj.y[k]
        assert np.abs(grid.ops.Dmat @ y).max() < 1e-9
        assert np.abs(grid.ops.Tn @ y - prob.controls.a[k]).max() < 1e-12


def test_global_mass_balance(grid, tg):
    prob = random_problem(grid, tg, seed=4)
    traj = solve_state(prob)
    for k in range(1, tg.nt + 1):
        total_div = (grid.ops.Dmat @ traj.y[k]).sum() * grid.cell_area
        flux = np.dot(grid.boundary_weight, prob.controls.a[k])
        assert abs(total_div) < 1e-10
        assert abs(flux) < 1e-10


def test_determinism_bit_identical(grid, tg):
    prob1 = random_problem(grid, tg, seed=5)
    prob2 = random_problem(grid, tg, seed=5)
    t1 = solve_state(prob1)
    t2 = solve_state(prob2)
    assert np.array_equal(t1.y, t2.y) and np.array_equal(t1.p, t2.p)
    assert t1.config_hash == t2.config_hash


@pytest.mark.parametrize("between", [True, False])
def test_divergence_guard_bound(grid, tg, monkeypatch, between):
    """The state sweep's guard lets a step pass whose divergence lies
    between 1e-9 and 1e-9 |y_k|, and raises 'state step k: divergence ...'
    for one above that bound before step k + 1 is made.  The divergence the
    guard reads (step.div) is replaced after the solve; the residual check
    keeps the step's own."""
    from slipctl.errors import SolverDivergence
    from slipctl.operators import StepSolver
    prob = random_problem(grid, tg, seed=7, amplitude=20.0)
    k = 3
    want = solve_state(prob)
    norm = face_l2(grid, want.y[k])
    assert norm > 2.0
    dv = 1e-9 * (1.0 + norm) / 2 if between else 2e-9 * norm
    real_step, real_solve, made = StepSolver.step, StepSolver.solve, []

    def step(self, alpha, w):
        made.append(self.k)
        return real_step(self, alpha, w)

    def solve(self, rhs, lift):
        y = real_solve(self, rhs, lift)
        if self.k == k:
            self.div = self.div.copy()
            self.div[0] = dv
        return y

    monkeypatch.setattr(StepSolver, "step", step)
    monkeypatch.setattr(StepSolver, "solve", solve)
    if between:
        got = solve_state(prob)
        assert np.array_equal(got.y, want.y) and np.array_equal(got.p, want.p)
        assert made == list(range(1, tg.nt + 1))
    else:
        with pytest.raises(SolverDivergence, match=r"^state step 3: divergence %.3e$" % dv):
            solve_state(prob)
        assert made == [1, 2, 3]


def test_energy_bound_monotone_under_scaling(grid, tg):
    base = random_problem(grid, tg, seed=6)
    lhs = []
    for c in (0.5, 1.0, 2.0):
        ctrl = base.controls.copy()
        ctrl.a = c * ctrl.a
        ctrl.b = c * ctrl.b
        prob = StateProblem(grid, tg, base.y0, ctrl, base.friction, validate=False)
        rep = energy_bound_report(prob, solve_state(prob))
        assert np.isfinite(rep["lhs"]) and np.isfinite(rep["data"])
        lhs.append(rep["lhs"])
    assert lhs[0] <= lhs[1] <= lhs[2]


def test_lipschitz_ratio_stable(grid, tg):
    prob = random_problem(grid, tg, seed=7)
    traj = solve_state(prob)
    d = random_admissible_control(grid, tg, np.random.default_rng(17), amplitude=1.0)
    ratios = []
    for delta in (1e-1, 1e-2, 1e-3):
        ctrl2 = prob.controls.copy()
        ctrl2.a = ctrl2.a + delta * d.a
        ctrl2.b = ctrl2.b + delta * d.b
        prob2 = StateProblem(grid, tg, prob.y0, ctrl2, prob.friction, validate=False)
        traj2 = solve_state(prob2)
        dist = max(face_l2(grid, traj2.y[k] - traj.y[k]) for k in range(tg.nt + 1))
        ratios.append(dist / hp_norm(BoundaryControl(grid, tg, delta * d.a, delta * d.b)))
    assert max(ratios) <= 2.0 * min(ratios)


def test_invalid_initial_data_rejected(grid, tg):
    bad = sample_faces(grid, lambda X, Y: X, lambda X, Y: 0 * X)
    with pytest.raises(ValueError, match="divergence"):
        StateProblem(grid, tg, bad, BoundaryControl(grid, tg))
    mismatch = sample_faces(grid, lambda X, Y: 1.0 + 0 * X, lambda X, Y: 0 * X)
    with pytest.raises(ValueError, match="normal trace"):
        StateProblem(grid, tg, mismatch, BoundaryControl(grid, tg))


def test_inadmissible_controls_rejected(grid, tg):
    rng = np.random.default_rng(13)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=1.0)
    ctrl.radius = 0.5 * hp_norm(ctrl)
    with pytest.raises(ValueError, match="admissible"):
        StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl)


def test_sup_norm_monitor(grid, tg):
    prob = random_problem(grid, tg, seed=8)
    traj = solve_state(prob)
    assert trajectory_sup_l2(traj) >= face_l2(grid, traj.y[-1])


def continuum_controls(grid, tg, amp=0.3):
    """Controls sampled from fixed closed-form space-time profiles, so the
    same continuum data can be evaluated on any time grid."""
    s = grid.boundary_s / grid.loop_length
    t = tg.times()[:, None] / 0.5   # absolute time scale, not grid-relative
    a = amp * np.sin(2 * np.pi * s)[None, :] * (t * np.exp(-t))
    b = amp * np.cos(2 * np.pi * s)[None, :] * np.sin(2.0 * t)
    a = a - (a @ grid.boundary_weight)[:, None] / grid.loop_length
    return BoundaryControl(grid, tg, a, b)


def test_time_stepping_first_order():
    """The implicit stepping converges in time at the expected first order
    (measured against a fine-step reference, reported not assumed)."""
    grid = build_grid(12, 12, 1.0, 1.0)
    T = 0.5

    def final_slice(nt):
        tg = TimeGrid(T, nt)
        ctrl = continuum_controls(grid, tg)
        prob = StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)
        return solve_state(prob).y[-1]

    ref = final_slice(128)
    errs = [face_l2(grid, final_slice(nt) - ref) for nt in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert 0.7 <= min(orders)
    assert max(orders) <= 1.6


def test_larger_grid_smoke():
    """Direct factorization stays healthy at a finer desk resolution."""
    grid = build_grid(64, 64, 1.0, 1.0)
    tg = TimeGrid(0.1, 4)
    ctrl = random_admissible_control(grid, tg, np.random.default_rng(3),
                                     amplitude=0.3)
    prob = StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)
    traj = solve_state(prob)
    assert energy_identity_residual(traj, prob).max() < 1e-8
    assert max(np.abs(grid.ops.Dmat @ y).max() for y in traj.y) < 1e-9


def test_potential_flow_steady_oracle():
    """Potential flow (2x, -2y) with matched boundary data is a steady
    solution; the stepper reproduces it to discretization error with
    observed order >= 1 under refinement."""
    from slipctl.lifting import solve_neumann_lifting
    alpha = 1.0
    errs = []
    for n in (8, 16, 32):
        g = build_grid(n, n, 1.0, 1.0)
        tgn = TimeGrid(0.4, 16)
        a = np.zeros(g.n_boundary)
        a[g.wall_slice(1)] = 2.0
        a[g.wall_slice(2)] = -2.0
        _, y0 = solve_neumann_lifting(g, a)
        xb = (np.arange(g.nx) + 0.5) * g.hx
        yb = (np.arange(g.ny) + 0.5) * g.hy
        b = np.zeros(g.n_boundary)   # 2 D(y)n.tau = 0 here, so b = alpha y.tau
        b[g.wall_slice(0)] = alpha * (2 * xb)
        b[g.wall_slice(1)] = alpha * (-2 * yb)
        b[g.wall_slice(2)] = alpha * (-2 * xb[::-1])
        b[g.wall_slice(3)] = alpha * (2 * yb[::-1])
        nsl = tgn.nt + 1
        ctrl = BoundaryControl(g, tgn, np.tile(a, (nsl, 1)), np.tile(b, (nsl, 1)))
        prob = StateProblem(g, tgn, y0, ctrl,
                            FrictionField.constant(g, tgn, alpha))
        traj = solve_state(prob)
        # transient settled: consecutive slices nearly identical
        assert face_l2(g, traj.y[-1] - traj.y[-2]) < 1e-6
        exact = sample_faces(g, lambda X, Y: 2 * X, lambda X, Y: -2 * Y)
        errs.append(face_l2(g, traj.y[-1] - exact))
    assert errs[0] > errs[1] > errs[2]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


def test_trajectory_roundtrip(tmp_path, grid, tg):
    prob = random_problem(grid, tg, seed=9)
    traj = solve_state(prob)
    save_trajectory(tmp_path / "traj", traj)
    back = load_trajectory(tmp_path / "traj")
    assert back.config_hash == traj.config_hash
    assert back.y.shape == traj.y.shape and back.p.shape == traj.p.shape
    assert back.y.tobytes() == traj.y.tobytes()
    assert back.p.tobytes() == traj.p.tobytes()


def test_trajectory_at_a_sparser_cadence_is_refused_by_name(tmp_path, grid, tg):
    """A trajectory saved every 4th slice is missing slices; reading it
    back is a ValueError that names the cadence, not a missing file."""
    save_trajectory(tmp_path / "traj", solve_state(random_problem(grid, tg, seed=12)), cadence=4)
    assert not (tmp_path / "traj" / "y_0001.snap").exists()
    with pytest.raises(ValueError, match="cadence 4"):
        load_trajectory(tmp_path / "traj")


def test_trajectory_snapshot_is_the_velocity_snapshot(tmp_path, grid, tg):
    """A y_####.snap payload is u at the u points, row-major, then v at the
    v points, row-major; a p_####.snap payload is the cell pressure."""
    def fu(X, Y, t):
        return 1.0 + X + 3.0 * Y * Y + t

    def fv(X, Y, t):
        return X * Y - 2.0 * t

    times = tg.times()
    y = np.array([sample_faces(grid, lambda X, Y: fu(X, Y, t), lambda X, Y: fv(X, Y, t))
                  for t in times])
    p = np.random.default_rng(10).standard_normal((tg.nt, grid.nx * grid.ny))
    save_trajectory(tmp_path / "traj", StateTrajectory(grid, tg, y, p))
    for k in (0, 1, tg.nt):
        header, raw = read_snapshot(tmp_path / "traj" / ("y_%04d.snap" % k))
        assert header["kind"] == "velocity" and header["t"] == times[k]
        u = fu(*grid.u_points(), times[k])
        v = fv(*grid.v_points(), times[k])
        assert u.shape == grid.shape_u and v.shape == grid.shape_v
        assert raw.tobytes() == u.tobytes() + v.tobytes()
    header, raw = read_snapshot(tmp_path / "traj" / ("p_%04d.snap" % tg.nt))
    assert header["kind"] == "pressure" and raw.tobytes() == p[-1].tobytes()


def test_trajectory_rejects_wrong_shapes(grid, tg):
    traj = solve_state(random_problem(grid, tg, seed=11))
    StateTrajectory(grid, tg, traj.y, traj.p)
    for y, p in ((traj.y[1:], traj.p), (traj.y[:, 1:], traj.p),
                 (traj.y, traj.p[1:]), (traj.y, traj.p[:, 1:]),
                 (traj.y, traj.p.reshape(tg.nt, grid.nx, grid.ny))):
        with pytest.raises(ValueError, match="trajectory shapes"):
            StateTrajectory(grid, tg, y, p)
