"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for a desk machine.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from slipctl.adjoint_solver import (AdjointProblem, adjoint_energy_check,
                                    duality_residual, solve_adjoint)
from slipctl.control_opt import (CostParams, GradientEngine,
                                 balanced_direction, fd_gradient_oracle,
                                 optimize, project_admissible,
                                 random_admissible_control)
from slipctl.fields import (BoundaryControl, face_l2, face_vector, hp_norm,
                            sample_faces)
from slipctl.lifting import solve_neumann_lifting
from slipctl.linearized_solver import (LinearizedProblem, adjoint_step_apply,
                                       gateaux_discrepancy,
                                       linearized_step_apply, solve_linearized)
from slipctl.mesh import TimeGrid, build_grid
from slipctl.operators import StepSolver
from slipctl.state_solver import (StateProblem, energy_identity_residual,
                                  solve_state)
from slipctl.verify import (check_gns, check_korn, check_mean_zero,
                            check_trace, random_h1_field,
                            random_solenoidal_field)

from oracles import fric_matrix, shear_oracle


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %2d FAIL  %s" % (num, text))
        raise
    print("ACCEPTANCE %2d PASS  %s" % (num, text))


@pytest.fixture(scope="module")
def desk():
    """Shared 16^2, nt=32 configuration with random smooth controls."""
    grid = build_grid(16, 16, 1.0, 1.0)
    tg = TimeGrid(0.5, 32)
    rng = np.random.default_rng(101)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=0.3)
    prob = StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)
    traj = solve_state(prob)
    return grid, tg, prob, traj


def smooth_target_control(grid, tg, seed=42, kmax=3, amp=0.5):
    rng = np.random.default_rng(seed)
    s = grid.boundary_s / grid.loop_length
    t = tg.times()[:, None] / tg.T
    a = np.zeros((tg.nt + 1, grid.n_boundary))
    b = np.zeros_like(a)
    for k in range(1, kmax + 1):
        amp_t = np.sin(np.pi * t)
        a += (rng.normal() * np.sin(2 * np.pi * k * s)
              + rng.normal() * np.cos(2 * np.pi * k * s))[None, :] * amp_t / k
        b += (rng.normal() * np.sin(2 * np.pi * k * s)
              + rng.normal() * np.cos(2 * np.pi * k * s))[None, :] * amp_t / k
    a *= amp
    b *= amp
    a -= (a @ grid.boundary_weight)[:, None] / grid.loop_length
    a[0] = 0.0
    return project_admissible(BoundaryControl(grid, tg, a, b, radius=50.0))


@pytest.fixture(scope="module")
def recovery():
    """Control recovery run shared by criteria 12 and 13."""
    grid = build_grid(16, 16, 1.0, 1.0)
    tg = TimeGrid(0.5, 32)
    y0 = np.zeros(grid.ops.N)
    c_star = smooth_target_control(grid, tg)
    traj_star = solve_state(StateProblem(grid, tg, y0, c_star, validate=False))
    params = CostParams(y_d=traj_star.y, lam1=0.0, lam2=0.0, radius=50.0)

    probe = optimize(y0, params, grid=grid, time_grid=tg, tol=np.inf, max_iters=1)
    res0 = probe.iterations[0]["residual"]

    admissibility = {"max_mean": 0.0, "max_excess": 0.0, "count": 0}
    gradient = GradientEngine.gradient

    def audited_gradient(engine, c):
        """Audit every iterate: optimize takes the gradient at the start
        and at each accepted step."""
        admissibility["max_mean"] = max(admissibility["max_mean"],
                                        float(np.abs(c.a @ grid.boundary_weight).max()))
        admissibility["max_excess"] = max(admissibility["max_excess"],
                                          hp_norm(c) - c.radius)
        admissibility["count"] += 1
        return gradient(engine, c)

    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GradientEngine, "gradient", audited_gradient)
        rep = optimize(y0, params, grid=grid, time_grid=tg,
                       tol=0.98e-4 * res0, max_iters=260)
    elapsed = time.perf_counter() - t0
    return {"report": rep, "res0": res0, "elapsed": elapsed,
            "admissibility": admissibility}


def test_01_null_solution_uniqueness():
    with criterion(1, "null data keeps the null solution (<= 1e-12, < 5 s)"):
        grid = build_grid(16, 16, 1.0, 1.0)
        tg = TimeGrid(0.5, 32)
        t0 = time.perf_counter()
        prob = StateProblem(grid, tg, np.zeros(grid.ops.N), BoundaryControl(grid, tg))
        traj = solve_state(prob)
        elapsed = time.perf_counter() - t0
        sup = max(face_l2(grid, y) for y in traj.y)
        assert sup <= 1e-12
        assert elapsed < 5.0


def test_02_shear_steady_state():
    with criterion(2, "slip-consistent shear profile is a stepper fixed point"):
        grid = build_grid(16, 16, 1.0, 1.0)
        tg = TimeGrid(0.5, 32)
        y0, ctrl, fric = shear_oracle(grid, tg, c1=0.4, c2=1.3, alpha_value=1.0)
        t0 = time.perf_counter()
        traj = solve_state(StateProblem(grid, tg, y0, ctrl, fric))
        elapsed = time.perf_counter() - t0
        step_err = max(face_l2(grid, traj.y[k] - traj.y[k - 1])
                       for k in range(1, tg.nt + 1))
        profile_err = max(face_l2(grid, traj.y[k] - y0)
                          for k in range(tg.nt + 1))
        assert step_err <= 1e-9
        assert profile_err <= 1e-9
        assert elapsed < 10.0


def test_03_discrete_energy_identity(desk):
    with criterion(3, "discrete energy identity imbalance <= 1e-8 per step"):
        grid, tg, prob, traj = desk
        res = energy_identity_residual(traj, prob)
        assert res.max() <= 1e-8


def test_04_lifting_convergence():
    with criterion(4, "Neumann lifting converges on harmonic oracles (order >= 1)"):
        # quadratic oracle: centered stencils are exact on quadratics, so the
        # errors sit at the round-off floor at every resolution
        quad_errs = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 1.0, 1.0)
            a = np.zeros(g.n_boundary)
            a[g.wall_slice(1)] = 2.0
            a[g.wall_slice(2)] = -2.0
            _, grad = solve_neumann_lifting(g, a)
            exact = sample_faces(g, lambda X, Y: 2 * X, lambda X, Y: -2 * Y)
            quad_errs.append(face_l2(g, grad - exact))
        at_floor = max(quad_errs) <= 1e-10
        if not at_floor:
            orders = [np.log2(quad_errs[i] / quad_errs[i + 1]) for i in range(2)]
            assert quad_errs[0] > quad_errs[1] > quad_errs[2]
            assert min(orders) >= 1.0

        # a trigonometric harmonic exercises genuine discretization error and
        # pins the observed order
        import math
        k = 2 * np.pi
        trig_errs = []
        for n in (16, 32, 64):
            g = build_grid(n, n, 1.0, 1.0)
            a = np.zeros(g.n_boundary)
            xb = (np.arange(g.nx) + 0.5) * g.hx
            a[g.wall_slice(2)] = k * np.cos(k * xb[::-1]) * math.sinh(k)
            _, grad = solve_neumann_lifting(g, a)
            exact = sample_faces(
                g, lambda X, Y: -k * np.sin(k * X) * np.cosh(k * Y),
                lambda X, Y: k * np.cos(k * X) * np.sinh(k * Y))
            trig_errs.append(face_l2(g, grad - exact))
        orders = [np.log2(trig_errs[i] / trig_errs[i + 1]) for i in range(2)]
        assert trig_errs[0] > trig_errs[1] > trig_errs[2]
        assert min(orders) >= 1.0


def test_05_transpose_exactness():
    with criterion(5, "single-step transpose pairing exact to 1e-10 (20 pairs)"):
        grid = build_grid(8, 8, 1.0, 1.0)
        tg = TimeGrid(0.5, 8)
        rng = np.random.default_rng(7)
        ctrl = random_admissible_control(grid, tg, rng, amplitude=0.3)
        prob = StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl, validate=False)
        traj = solve_state(prob)
        ops = grid.ops
        yk = traj.y
        step = StepSolver(ops, tg.dt, 1.0).step(prob.friction.alpha[4], yk[3])
        worst = 0.0
        for _ in range(20):
            xi = rng.standard_normal(ops.free_idx.size)
            eta = rng.standard_normal(ops.free_idx.size)
            lhs = np.dot(linearized_step_apply(step, tg, yk[4], xi), eta)
            rhs = np.dot(xi, adjoint_step_apply(step, tg, yk[4], eta))
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
        assert worst <= 1e-10


def test_06_duality_relation(desk):
    with criterion(6, "duality residual <= 1e-9 for 5 direction/source pairs"):
        grid, tg, prob, traj = desk
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(5):
            d = random_admissible_control(grid, tg, np.random.default_rng(300 + seed),
                                          amplitude=1.0)
            z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
            rng = np.random.default_rng(400 + seed)
            U = np.array([face_vector(grid, rng.standard_normal(grid.shape_u),
                                      rng.standard_normal(grid.shape_v))
                          for _ in range(tg.nt + 1)])
            adj = solve_adjoint(AdjointProblem(prob, traj, U))
            worst = max(worst, duality_residual(z, adj, U, d.a, d.b,
                                                base_hash=traj.config_hash))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9
        assert elapsed < 60.0


def test_07_gradient_validation(desk):
    with criterion(7, "adjoint gradient matches Richardson FD to 1e-6 (10 dirs)"):
        grid, tg, prob, traj = desk
        target = np.tile(face_vector(grid, 0.1 * np.ones(grid.shape_u),
                                     np.zeros(grid.shape_v)), (tg.nt + 1, 1))
        params = CostParams(y_d=target, lam1=0.02, lam2=0.01)
        engine = GradientEngine(np.zeros(grid.ops.N), params)
        grad, _ = engine.gradient(prob.controls)
        worst = 0.0
        for seed in range(10):
            d = random_admissible_control(grid, tg, np.random.default_rng(500 + seed),
                                          amplitude=1.0)
            adj_val = grad.pair(d.a, d.b)
            fd = fd_gradient_oracle(engine, prob.controls, (d.a, d.b), [2e-3, 1e-3])
            worst = max(worst, abs(adj_val - fd["richardson"])
                        / max(abs(adj_val), abs(fd["richardson"]), 1e-300))
        assert worst <= 1e-6


def test_08_gateaux_limit(desk):
    with criterion(8, "tangent discrepancy decreases at observed O(eps)"):
        grid, tg, prob, traj = desk
        d = random_admissible_control(grid, tg, np.random.default_rng(600),
                                      amplitude=1.0)
        rows, _ = gateaux_discrepancy(prob, traj, d.a, d.b, [1e-1, 1e-2, 1e-3])
        discs = [disc for _, disc in rows]
        assert discs[0] > discs[1] > discs[2]
        ratios = [disc / eps for eps, disc in rows]
        assert max(ratios) <= 5.0 * min(ratios)


def test_09_lipschitz_bound(desk):
    with criterion(9, "control-to-state Lipschitz ratio stable within factor 2"):
        grid, tg, prob, traj = desk
        d = random_admissible_control(grid, tg, np.random.default_rng(700),
                                      amplitude=1.0)
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            ctrl2 = prob.controls.copy()
            ctrl2.a = ctrl2.a + delta * d.a
            ctrl2.b = ctrl2.b + delta * d.b
            prob2 = StateProblem(grid, tg, prob.y0, ctrl2, prob.friction,
                                 validate=False)
            traj2 = solve_state(prob2)
            dist = max(face_l2(grid, traj2.y[k] - traj.y[k]) for k in range(tg.nt + 1))
            ratios.append(dist / hp_norm(BoundaryControl(grid, tg, delta * d.a,
                                                         delta * d.b)))
        assert all(np.isfinite(r) for r in ratios)
        assert max(ratios) <= 2.0 * min(ratios)


def test_10_linearized_and_adjoint_estimates(desk):
    with criterion(10, "tangent/adjoint energy constants stable within factor 3"):
        grid, tg, prob, traj = desk
        ops = grid.ops
        lin_ratios = []
        for seed in range(10):
            d = balanced_direction(grid, tg, np.random.default_rng(800 + seed))
            z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
            lhs = max(face_l2(grid, zk) ** 2 for zk in z)
            for k in range(1, tg.nt + 1):
                zv = z[k]
                lhs += tg.dt * 0.5 * float(zv @ (ops.A_strain @ zv))
                lhs += tg.dt * float(zv @ (fric_matrix(ops, prob.friction.alpha[k]) @ zv))
            lin_ratios.append(lhs / hp_norm(d) ** 2)
        assert all(np.isfinite(r) for r in lin_ratios)
        assert max(lin_ratios) <= 3.0 * min(lin_ratios)

        adj_ratios = []
        for seed in range(10):
            rng = np.random.default_rng(900 + seed)
            U = np.array([random_h1_field(grid, rng) for _ in range(tg.nt + 1)])
            adj = solve_adjoint(AdjointProblem(prob, traj, U))
            adj_ratios.append(adjoint_energy_check(adj, U, prob.friction))
        assert all(np.isfinite(r) for r in adj_ratios)
        assert max(adj_ratios) <= 3.0 * min(adj_ratios)


def test_11_interpolation_inequality_suite():
    with criterion(11, "interpolation/trace/Korn ratios finite, drift < 50%"):
        results = {}
        for n in (16, 32):
            g = build_grid(n, n, 1.0, 1.0)
            rng = np.random.default_rng(1000)
            h1 = [random_h1_field(g, rng) for _ in range(20)]
            sol = [random_solenoidal_field(g, rng) for _ in range(20)]
            reps = {}
            for q in (3, 4, 6):
                reps["gns_q%d" % q] = check_gns(g, h1, q=q)
            reps["trace"] = check_trace(g, h1)
            reps["korn"] = check_korn(g, sol)
            mz = check_mean_zero(g, sol)
            assert mz.passed
            assert max(mz.ratios) <= 1e-10
            for name, rep in reps.items():
                assert rep.passed, name
                assert all(np.isfinite(r) for r in rep.ratios)
            results[n] = {name: max(rep.ratios) for name, rep in reps.items()}
        for name in results[16]:
            c16, c32 = results[16][name], results[32][name]
            drift = abs(c32 - c16) / c16
            assert drift < 0.5, (name, drift)


def test_12_control_recovery(recovery):
    with criterion(12, "projected gradient recovers a realizable target (>=100x)"):
        rep = recovery["report"]
        Js = [it["J"] for it in rep.iterations]
        assert len(Js) >= 2
        j_at_50 = Js[min(50, len(Js) - 1)]
        assert j_at_50 <= 1e-2 * Js[0]
        assert all(Js[i + 1] <= Js[i] * (1 + 1e-12) for i in range(len(Js) - 1))
        adm = recovery["admissibility"]
        assert adm["count"] >= 1
        assert adm["max_mean"] <= 1e-12
        assert adm["max_excess"] <= 1e-12
        assert recovery["elapsed"] < 600.0


def test_13_optimality_residual_reduction(recovery):
    with criterion(13, "optimality residual drops 1e4-fold at the recovered control"):
        rep = recovery["report"]
        assert rep.status == "converged"
        final_res = rep.iterations[-1]["residual"]
        assert final_res <= 1e-4 * recovery["res0"]


def test_14_determinism(tmp_path):
    with criterion(14, "identical config and seed give byte-identical reports"):
        from slipctl.cli import EXIT_BUDGET, EXIT_OK, main
        cfg_text = """
[domain]
nx = 8
ny = 8
Lx = 1.0
Ly = 1.0

[time]
T = 0.3
nt = 6

[physics]
alpha = constant:1.0

[control]
R = 50.0
a.bottom = sin:1:0.2
a.right = sin:1:0.1
a.tmod = poly:0:1
b.top = cos:1:0.3

[target]
y_d = zero

[optimizer]
tol = 1e-6
max_iters = 5

[run]
seed = 9
samples = 2
"""
        cfg = tmp_path / "det.ini"
        cfg.write_text(cfg_text)
        outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
        for out in outs:
            code = main(["optimize", "--config", str(cfg), "--out", out])
            assert code in (EXIT_OK, EXIT_BUDGET)
        for name in ("report.json", "history.csv", "controls_a.csv", "controls_b.csv"):
            b1 = open(os.path.join(outs[0], name), "rb").read()
            b2 = open(os.path.join(outs[1], name), "rb").read()
            assert b1 == b2, name
        vouts = [str(tmp_path / "v1"), str(tmp_path / "v2")]
        for out in vouts:
            assert main(["verify", "--config", str(cfg), "--out", out]) == EXIT_OK
        bv1 = open(os.path.join(vouts[0], "verify.json"), "rb").read()
        bv2 = open(os.path.join(vouts[1], "verify.json"), "rb").read()
        assert bv1 == bv2
