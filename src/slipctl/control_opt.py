"""Cost functional, adjoint gradient, admissible projection and optimizer.

The gradient couples the tracking misfit to the controls through the
boundary kernels of the exact discrete adjoint, so the directional
derivative agrees with central finite differences of the cost up to
truncation of the differences themselves.
"""

import time

import numpy as np

from .adjoint_solver import AdjointProblem, solve_adjoint
from .fields import BoundaryControl, hp_norm, slice_sum, zero_mean
from .operators import StepStore
from .state_solver import StateProblem, solve_state

_EPS = np.finfo(float).eps


class CostParams:
    """Target trajectory, penalty weights and admissible-set metadata."""

    def __init__(self, y_d, lam1=0.0, lam2=0.0, radius=1e6, p_exponent=4.0):
        if lam1 < 0 or lam2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if radius <= 0:
            raise ValueError("admissible radius must be positive")
        self.y_d = y_d           # face vectors of shape (nt+1, N)
        self.lam1 = float(lam1)
        self.lam2 = float(lam2)
        self.radius = float(radius)
        self.p_exponent = float(p_exponent)

    def misfit(self, trajectory):
        """Tracking misfit y - y_d as face vectors of shape (nt+1, N)."""
        return trajectory.y - self.y_d


def evaluate_cost(controls: BoundaryControl, trajectory, params: CostParams,
                  magnitude=False):
    """Quadrature of the tracking misfit plus the boundary penalties.

    With magnitude=True, |y| + |y_d| stands in for the misfit y - y_d: the
    cost of the values the misfit is formed from, which sets the round-off
    of J (the penalties are sums of squares and cancel nothing).
    """
    g, tg = controls.grid, controls.time_grid
    if magnitude:
        misfit = np.abs(trajectory.y) + np.abs(params.y_d)
    else:
        misfit = params.misfit(trajectory)
    wg, a, b = g.boundary_weight, controls.a, controls.b
    return 0.5 * (tg.time_sum(g.ops.Wvec, misfit, misfit)
                  + params.lam1 * tg.time_sum(wg, a, a) + params.lam2 * tg.time_sum(wg, b, b))


class ControlGradient:
    """Point-valued gradient pair on Gamma_T (slice 0 is structurally zero)."""

    def __init__(self, grid, time_grid, ga, gb):
        self.grid = grid
        self.time_grid = time_grid
        self.ga = ga
        self.gb = gb

    def pair(self, f, g_dir):
        """L2(Gamma_T) pairing of the gradient with a direction."""
        tg, wg = self.time_grid, self.grid.boundary_weight
        return tg.time_sum(wg, self.ga, f) + tg.time_sum(wg, self.gb, g_dir)

    def norm(self):
        return float(np.sqrt(self.pair(self.ga, self.gb)))


class GradientEngine:
    """Keeps the state and adjoint solves of the latest controls for reuse.

    Line searches and finite differences only revisit the controls they
    evaluated last, so one entry serves every reuse.  It is matched on the
    exact bytes of both control arrays; the cost parameters are fixed per
    engine.  Its state solve keeps its steps in a StepStore on the
    trajectory until gradient's adjoint sweep has read them, unless the
    caller says no gradient will follow (keep_steps=False, the
    finite-difference costs).
    """

    def __init__(self, y0, params: CostParams, friction=None, nu=1.0):
        self.y0 = y0
        self.params = params
        self.friction = friction
        self.nu = float(nu)
        self._last_key = None
        self._last = None
        self.state_solves = 0
        self.adjoint_solves = 0
        self.state_seconds = 0.0
        self.adjoint_seconds = 0.0

    def entry(self, controls, keep_steps=True):
        """The entry of the controls: their "problem", "trajectory" and cost
        "J", solved unless they are the last ones, and after gradient also
        their "gradient" and "adjoint".  A solve keeps its steps for the
        adjoint sweep only if keep_steps; a gradient of an entry solved
        without them makes its steps again, with the same bits."""
        key = (controls.a.tobytes(), controls.b.tobytes())
        if key != self._last_key:
            self._last_key = self._last = None  # free the old solve before the new one
            prob = StateProblem(controls.grid, controls.time_grid, self.y0, controls,
                                self.friction, self.nu, validate=False)
            t0 = time.perf_counter()
            steps = StepStore(controls.grid.ops, controls.time_grid.nt) if keep_steps else None
            traj = solve_state(prob, steps)
            self.state_seconds += time.perf_counter() - t0
            self.state_solves += 1
            J = evaluate_cost(controls, traj, self.params)
            self._last = {"problem": prob, "trajectory": traj, "J": J}
            self._last_key = key
        return self._last

    def cost(self, controls, keep_steps=True):
        return self.entry(controls, keep_steps)["J"]

    def cost_magnitude(self, controls):
        """evaluate_cost with magnitude=True at the controls' state solve."""
        return evaluate_cost(controls, self.entry(controls)["trajectory"], self.params,
                             magnitude=True)

    def gradient(self, controls):
        """The gradient at the controls and their entry.  The adjoint sweep
        is the last reader of the trajectory's kept steps, so it drops them
        (traj.steps is None after it): a tangent sweep around the
        trajectory afterwards makes its steps again, with the same bits."""
        entry = self.entry(controls)
        if "gradient" not in entry:
            prob, traj = entry["problem"], entry["trajectory"]
            g = controls.grid
            t0 = time.perf_counter()
            adj = solve_adjoint(AdjointProblem(prob, traj, self.params.misfit(traj)))
            traj.steps = None
            self.adjoint_seconds += time.perf_counter() - t0
            self.adjoint_solves += 1
            ga = np.zeros_like(controls.a)
            gb = np.zeros_like(controls.b)
            # admissible variations of a carry no boundary mean
            ga[1:] = zero_mean(g, adj.normal_kernel[1:] + self.params.lam1 * controls.a[1:])
            gb[1:] = adj.tangent_kernel[1:] + self.params.lam2 * controls.b[1:]
            entry["gradient"] = ControlGradient(g, controls.time_grid, ga, gb)
            entry["adjoint"] = adj
        return entry["gradient"], entry


def fd_gradient_oracle(engine, controls, direction, eps_list):
    """Central-difference directional derivatives with Richardson extrapolation.

    The costs are engine.cost, so the estimate is of the same cost, initial
    state, friction and viscosity as engine.gradient; no gradient follows
    them, so their state solves keep no steps.  direction is an
    (f, g) pair of arrays shaped like the controls; f must be zero-mean per
    slice with the initial slice untouched.

    round_off bounds the round-off of the Richardson estimate: each cost
    value is good to eps_mach times its magnitude (GradientEngine.
    cost_magnitude), so the difference at step eps to eps_mach times the
    larger magnitude over eps, and the extrapolation weighs those bounds by
    its weights' absolute values.
    """
    f, g_dir = direction
    estimates, noise = [], {}
    for eps in eps_list:
        cp = controls.copy(); cp.a = cp.a + eps * f; cp.b = cp.b + eps * g_dir
        cm = controls.copy(); cm.a = cm.a - eps * f; cm.b = cm.b - eps * g_dir
        (jp, mp), (jm, mm) = ((engine.cost(c, keep_steps=False), engine.cost_magnitude(c))
                              for c in (cp, cm))
        estimates.append((float(eps), float((jp - jm) / (2 * eps))))
        noise[float(eps)] = _EPS * max(mp, mm) / eps
    est = sorted(estimates, key=lambda t: t[0])
    if len(est) >= 2:
        e2, d2 = est[0]
        e1, d1 = est[1]
        r = (e1 / e2) ** 2
        richardson = (r * d2 - d1) / (r - 1.0)
        round_off = (r * noise[e2] + noise[e1]) / (r - 1.0)
    else:
        richardson, round_off = est[0][1], noise[est[0][0]]
    return {"estimates": estimates, "richardson": float(richardson),
            "round_off": float(round_off)}


def project_admissible(controls: BoundaryControl) -> BoundaryControl:
    """Closest admissible point: per-slice zero-mean a, then radial ball scaling."""
    out = controls.copy()
    out.a = zero_mean(out.grid, out.a)
    n = hp_norm(out)
    if n > out.radius:
        scale = out.radius / n
        out.a *= scale
        out.b *= scale
    return out


def random_admissible_control(grid, time_grid, rng, p_exponent=4.0, radius=1e6,
                              amplitude=1.0):
    """Band-limited random control pair, zero-mean a with a(0) = 0, inside the ball."""
    s = grid.boundary_s / grid.loop_length
    t = time_grid.times()[:, None] / time_grid.T
    a = np.zeros((time_grid.nt + 1, grid.n_boundary))
    b = np.zeros_like(a)
    for k in (1, 2, 3):
        ck = 1.0 / k
        a += ck * (rng.normal() * np.sin(2 * np.pi * k * s)[None, :]
                   + rng.normal() * np.cos(2 * np.pi * k * s)[None, :]) \
            * (t * np.cos(0.5 * np.pi * k * t))
        b += ck * (rng.normal() * np.sin(2 * np.pi * k * s)[None, :]
                   + rng.normal() * np.cos(2 * np.pi * k * s)[None, :]) * np.sin(np.pi * k * t + k)
    a *= amplitude
    b *= amplitude
    a = zero_mean(grid, a)
    a[0] = 0.0
    ctrl = BoundaryControl(grid, time_grid, a, b, p_exponent, radius)
    return project_admissible(ctrl)


def balanced_direction(grid, time_grid, rng, p_exponent=4.0):
    """Random control direction with equal injection and stress content.

    Each component is normalized to unit contribution in the control norm,
    so measured estimate constants are not dominated by the component mix.
    """
    raw = random_admissible_control(grid, time_grid, rng, p_exponent=p_exponent,
                                    amplitude=1.0)
    fa = BoundaryControl(grid, time_grid, raw.a, np.zeros_like(raw.b), p_exponent)
    fb = BoundaryControl(grid, time_grid, np.zeros_like(raw.a), raw.b, p_exponent)
    na, nb = hp_norm(fa), hp_norm(fb)
    a = raw.a / na if na > 0 else raw.a
    b = raw.b / nb if nb > 0 else raw.b
    return BoundaryControl(grid, time_grid, a, b, p_exponent, raw.radius)


def optimality_parts(controls, grad: ControlGradient):
    """Projected-gradient step norm ||c - P(c - g)||_hp, the stationarity test.

    P is project_admissible.  Inside the ball the norm is zero exactly when
    c meets the first-order optimality condition, <g, v - c> >= 0 for every
    admissible v.  On the ball's surface P scales radially, which is not
    the metric projection of the hp norm, so the norm can vanish short of
    that condition.
    """
    trial = controls.copy()
    trial.a = trial.a - grad.ga
    trial.b = trial.b - grad.gb
    proj = project_admissible(trial)
    diff = BoundaryControl(controls.grid, controls.time_grid,
                           controls.a - proj.a, controls.b - proj.b,
                           controls.p_exponent, controls.radius)
    return hp_norm(diff)


class OptimizationReport:
    """Per-iteration history plus the final controls and phase timings."""

    def __init__(self):
        self.iterations = []
        self.final_controls = None
        self.status = "running"
        self.wall_clock = {"state": 0.0, "adjoint": 0.0, "total": 0.0}
        self.remainder_log = []

    def record(self, **kw):
        self.iterations.append(kw)

    def history_rows(self):
        cols = ("iter", "J", "grad_norm", "residual", "step")
        rows = [cols]
        for it in self.iterations:
            rows.append(tuple(it.get(c) for c in cols))
        return rows

    def to_dict(self):
        return {
            "status": self.status,
            "iterations": [
                {k: (bool(v) if isinstance(v, (bool, np.bool_)) else
                     (int(v) if isinstance(v, (int, np.integer)) else float(v)))
                 for k, v in it.items()} for it in self.iterations],
            "n_iterations": len(self.iterations),
            "remainder_log": self.remainder_log,
        }


def optimize(y0, params: CostParams, controls0=None, friction=None, nu=1.0,
             tol=1e-8, max_iters=100, armijo_c1=1e-4, max_backtracks=30,
             grid=None, time_grid=None) -> OptimizationReport:
    """Projected gradient with Armijo backtracking over the admissible set.

    The initial trial step doubles after each accepted iterate and falls
    back to a secant (Barzilai-Borwein) estimate when that is available;
    Armijo halving enforces monotone decrease either way.  It stops when
    the projected-gradient step norm (optimality_parts) is at most tol, and
    draws no random numbers.
    """
    t_start = time.perf_counter()
    if controls0 is None:
        controls0 = BoundaryControl(grid, time_grid, p_exponent=params.p_exponent,
                                    radius=params.radius)
    c = project_admissible(controls0)
    engine = GradientEngine(y0, params, friction, nu)
    report = OptimizationReport()
    sigma_prev = None
    prev = None  # (a, b, ga, gb) of previous accepted iterate

    for it in range(max_iters):
        J = engine.cost(c)
        grad, _ = engine.gradient(c)
        residual = optimality_parts(c, grad)
        gnorm = grad.norm()
        report.record(iter=it, J=J, grad_norm=gnorm, residual=residual,
                      step=0.0 if sigma_prev is None else sigma_prev,
                      projected=False)
        if residual <= tol:
            report.status = "converged"
            break

        # initial trial step
        if sigma_prev is None:
            sigma = 2.0 * J / max(gnorm ** 2, 1e-300)
        else:
            sigma = 2.0 * sigma_prev
            da = c.a - prev[0]; db = c.b - prev[1]
            dga = grad.ga - prev[2]; dgb = grad.gb - prev[3]
            wg = c.grid.boundary_weight
            ss = slice_sum(wg, da, da) + slice_sum(wg, db, db)
            sy = slice_sum(wg, da, dga) + slice_sum(wg, db, dgb)
            yy = slice_sum(wg, dga, dga) + slice_sum(wg, dgb, dgb)
            # alternate the two secant step lengths
            bb = ss / sy if (it % 2 == 0 and sy > 0) else (
                sy / yy if yy > 0 else np.nan)
            if np.isfinite(bb) and bb > 0:
                sigma = bb
        prev = (c.a.copy(), c.b.copy(), grad.ga.copy(), grad.gb.copy())

        accepted = False
        for _ in range(max_backtracks + 1):
            trial = c.copy()
            trial.a = trial.a - sigma * grad.ga
            trial.b = trial.b - sigma * grad.gb
            trial = project_admissible(trial)
            pred = grad.pair(trial.a - c.a, trial.b - c.b)
            if pred >= 0.0:
                sigma *= 0.5
                continue
            J_trial = engine.cost(trial)
            if J_trial <= J + armijo_c1 * pred:
                # first-order remainder of the accepted step, for monitoring
                report.remainder_log.append(
                    float(abs(J_trial - J - pred) / max(abs(pred), 1e-300)))
                projected_flag = hp_norm(trial) >= trial.radius * (1 - 1e-12)
                c = trial
                sigma_prev = sigma
                report.iterations[-1]["step"] = sigma
                report.iterations[-1]["projected"] = projected_flag
                accepted = True
                break
            sigma *= 0.5
        if not accepted:
            report.status = "line_search_failure"
            break
    else:
        report.status = "max_iters"

    report.final_controls = c
    report.wall_clock["total"] = time.perf_counter() - t_start
    report.wall_clock["state"] = engine.state_seconds
    report.wall_clock["adjoint"] = engine.adjoint_seconds
    report.wall_clock["state_solves"] = engine.state_solves
    report.wall_clock["adjoint_solves"] = engine.adjoint_solves
    return report
