"""Numerical certification of the analytic inequalities and estimates.

Each check samples random discrete fields (band-limited trigonometric
combinations, so refinement studies track a fixed continuum object),
measures the ratio of the inequality's two sides and reports the spread.
Constants are certified as finite and stable, never as specific values.
"""

import json
import logging
import time

import numpy as np

from .adjoint_solver import (DUALITY_TOL, AdjointProblem, adjoint_energy_check,
                             duality_residual, solve_adjoint)
from .fields import (BoundaryControl, FrictionField, components, dissipation, face_l2,
                     face_vector, h1_seminorm, hp_norm, spatial_mean, strain_l2, sup_face_l2)
from .linearized_solver import LinearizedProblem, gateaux_discrepancy, solve_linearized
from .mesh import TimeGrid, build_grid, integrate_boundary
from .operators import StepStore
from .state_solver import (ENERGY_TOL, StateProblem, energy_bound_report,
                           energy_identity_residual, solve_state)
from .control_opt import balanced_direction, random_admissible_control

ZERO_LHS_TOL = 1e-12
# a check passes when its largest ratio stays within this factor of the median
STABILITY_FACTOR = 5.0
MEAN_ZERO_TOL = 1e-10
# highest wavenumber per direction of the random velocity samples
SAMPLE_KMAX = 3


class InequalityReport:
    def __init__(self, name, ratios, trivial_count, stability_factor, passed,
                 config_hash="", details=None):
        self.name = name
        self.ratios = list(map(float, ratios))
        self.sample_count = len(self.ratios) + trivial_count
        self.trivial_count = trivial_count
        self.stability_factor = stability_factor
        self.passed = bool(passed)
        self.config_hash = config_hash
        self.details = details or {}

    def summary(self):
        if self.ratios:
            rmin, rmed, rmax = (np.min(self.ratios), np.median(self.ratios),
                                np.max(self.ratios))
        else:
            rmin = rmed = rmax = 0.0
        return {"name": self.name, "samples": self.sample_count,
                "trivial": self.trivial_count,
                "ratio_min": float(rmin), "ratio_median": float(rmed),
                "ratio_max": float(rmax),
                "stability_factor": self.stability_factor,
                "pass": self.passed, "config_hash": self.config_hash,
                "details": self.details}


# ---------------------------------------------------------------------------
# sample generators


def random_h1_field(grid, rng):
    """Band-limited face vector; no boundary or divergence constraint."""
    def component(pts):
        X, Y = pts
        out = np.zeros_like(X)
        for kx in range(SAMPLE_KMAX + 1):
            for ky in range(SAMPLE_KMAX + 1):
                if kx == ky == 0:
                    continue
                c = 1.0 / (1.0 + kx * kx + ky * ky)
                out += c * rng.normal() * np.cos(2 * np.pi * (kx * X / grid.Lx)) \
                    * np.cos(2 * np.pi * (ky * Y / grid.Ly))
                out += c * rng.normal() * np.sin(2 * np.pi * (kx * X / grid.Lx)) \
                    * np.sin(2 * np.pi * (ky * Y / grid.Ly))
        return out
    u = component(grid.u_points())
    v = component(grid.v_points())
    return face_vector(grid, u, v)


def random_solenoidal_field(grid, rng):
    """Exactly divergence-free face vector with zero wall flux (stream function)."""
    X, Y = grid.vertex_points()
    psi = np.zeros_like(X)
    for kx in range(1, SAMPLE_KMAX + 1):
        for ky in range(1, SAMPLE_KMAX + 1):
            c = 1.0 / (kx * kx + ky * ky)
            psi += c * rng.normal() * np.sin(np.pi * kx * X / grid.Lx) \
                * np.sin(np.pi * ky * Y / grid.Ly)
    return grid.ops.curl @ psi.ravel()


def _cell_speed_norm(grid, y, q):
    """L_q norm of |y| with cell-centered component averages."""
    u, v = components(grid, y)
    uc = 0.5 * (u[1:, :] + u[:-1, :])
    vc = 0.5 * (v[:, 1:] + v[:, :-1])
    speed = np.sqrt(uc * uc + vc * vc)
    return float((np.sum(speed ** q) * grid.cell_area) ** (1.0 / q))


def _subtract_mean(grid, y):
    mean = spatial_mean(grid, y) / (grid.Lx * grid.Ly)
    u, v = components(grid, y)
    return face_vector(grid, u - mean[0], v - mean[1])


# ---------------------------------------------------------------------------
# inequality checks


def check_gns(grid, samples, q=4, config_hash=""):
    """Interpolation inequality: ||v - mean||_Lq vs ||v||^(2/q) ||grad v||^(1-2/q)."""
    if q < 2:
        raise ValueError("exponent q must be at least 2")
    ratios, trivial = [], 0
    for y in samples:
        lhs = _cell_speed_norm(grid, _subtract_mean(grid, y), q)
        scale = max(1.0, face_l2(grid, y))
        if lhs <= ZERO_LHS_TOL * scale:
            trivial += 1
            continue
        rhs = face_l2(grid, y) ** (2.0 / q) * h1_seminorm(grid, y) ** (1.0 - 2.0 / q)
        ratios.append(lhs / rhs)
    passed = _stable(ratios)
    return InequalityReport("gns_q%d" % q, ratios, trivial, STABILITY_FACTOR,
                            passed, config_hash)


def check_trace(grid, samples, config_hash=""):
    """Trace interpolation: boundary L2 of v - mean vs ||v||^1/2 ||grad v||^1/2."""
    ratios, trivial = [], 0
    for y in samples:
        centered = _subtract_mean(grid, y)
        tn = grid.ops.Tn @ centered
        tt = grid.ops.Ttau @ centered
        lhs = float(np.sqrt(integrate_boundary(grid, tn * tn + tt * tt)))
        scale = max(1.0, face_l2(grid, y))
        if lhs <= ZERO_LHS_TOL * scale:
            trivial += 1
            continue
        rhs = np.sqrt(face_l2(grid, y) * h1_seminorm(grid, y))
        ratios.append(lhs / rhs)
    passed = _stable(ratios)
    return InequalityReport("trace", ratios, trivial, STABILITY_FACTOR,
                            passed, config_hash)


def check_korn(grid, samples, config_hash=""):
    """Full H1 norm against the strain norm on the discrete slip space."""
    ratios, trivial = [], 0
    for y in samples:
        dv = np.abs(grid.ops.Dmat @ y).max()
        vn = np.abs(grid.ops.Tn @ y).max()
        scale = max(1.0, np.abs(y).max())
        if dv > 1e-9 * scale or vn > 1e-9 * scale:
            raise ValueError("Korn sample is not divergence-free with zero wall flux")
        lhs = np.sqrt(face_l2(grid, y) ** 2 + h1_seminorm(grid, y) ** 2)
        if lhs <= ZERO_LHS_TOL:
            trivial += 1
            continue
        ratios.append(lhs / strain_l2(grid, y))
    passed = _stable(ratios)
    return InequalityReport("korn", ratios, trivial, STABILITY_FACTOR,
                            passed, config_hash)


def check_mean_zero(grid, samples, config_hash=""):
    """Velocity mean of discretely solenoidal zero-flux fields vanishes."""
    residuals, trivial = [], 0
    for y in samples:
        m = spatial_mean(grid, y)
        scale = max(1.0, face_l2(grid, y))
        residuals.append(float(np.abs(m).max() / scale))
    passed = all(r <= MEAN_ZERO_TOL for r in residuals)
    return InequalityReport("mean_zero", residuals, trivial, MEAN_ZERO_TOL, passed,
                            config_hash, details={"tolerance": MEAN_ZERO_TOL})


def _stable(ratios):
    if not ratios:
        return True
    arr = np.asarray(ratios)
    if not np.all(np.isfinite(arr)):
        return False
    med = np.median(arr)
    return bool(arr.max() <= STABILITY_FACTOR * max(med, 1e-300))


# ---------------------------------------------------------------------------
# estimate suite over the solvers


def _suite_problem(grid, tg, rng, amplitude=0.3):
    ctrl = random_admissible_control(grid, tg, rng, amplitude=amplitude)
    return StateProblem(grid, tg, np.zeros(grid.ops.N), ctrl,
                        FrictionField.constant(grid, tg), validate=False)


def _solved_suite_problem(grid, tg, rng):
    """A suite problem and its trajectory, with the steps kept for the
    tangent and adjoint sweeps around it."""
    prob = _suite_problem(grid, tg, rng)
    return prob, solve_state(prob, StepStore(grid.ops, tg.nt))


def _line_item(name, bound, chash, measure):
    """Report one solver-level estimate; measure() returns (ratios, passed,
    details), and an item that fails to solve is reported failed."""
    try:
        ratios, passed, details = measure()
    except Exception as exc:  # keep the suite alive per line item
        logging.getLogger("slipctl").warning("line item %s failed", name, exc_info=True)
        return InequalityReport(name, [], 0, bound, False, chash,
                                details={"error": str(exc)})
    return InequalityReport(name, ratios, 0, bound, passed, chash, details=details)


def fit_energy_bound_constant(rows):
    """Smallest C with lhs <= C * data * exp(C * hp^2) across all scalings.

    The left side is monotone in C, so per-row bisection applies; the fit
    is reported as a measured constant, never asserted to a value.
    """
    def c_for(row):
        lhs, data, hp2 = row["lhs"], row["data"], row["hp"] ** 2
        if lhs <= 0:
            return 0.0
        lo, hi = 0.0, 1.0
        while data * hi * np.exp(hi * hp2) < lhs:
            hi *= 2.0
            if hi > 1e12:
                return np.inf
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if data * mid * np.exp(mid * hp2) < lhs:
                lo = mid
            else:
                hi = mid
        return hi

    return float(max(c_for(r) for r in rows))


def run_estimate_suite(config):
    """Orchestrated measurement of the solver-level estimates.

    config keys: nx, ny, Lx, Ly, T, nt, samples, seed, config_hash.
    Line items that fail to solve are reported failed without aborting.
    """
    t_start = time.perf_counter()
    nx = config.get("nx", 16); ny = config.get("ny", 16)
    Lx = config.get("Lx", 1.0); Ly = config.get("Ly", 1.0)
    T = config.get("T", 0.5); nt = config.get("nt", 32)
    nsamp = config.get("samples", 5)
    nfield = max(nsamp, 10)
    seed = config.get("seed", 1234)
    chash = config.get("config_hash", "")
    grid = build_grid(nx, ny, Lx, Ly)
    tg = TimeGrid(T, nt)
    rng = np.random.default_rng(seed)

    h1_samples = [random_h1_field(grid, rng) for _ in range(nfield)]
    sol_samples = [random_solenoidal_field(grid, rng) for _ in range(nfield)]
    reports = [check_gns(grid, h1_samples, q=q, config_hash=chash) for q in (3, 4, 6)]
    reports += [check_trace(grid, h1_samples, config_hash=chash),
                check_korn(grid, sol_samples, config_hash=chash),
                check_mean_zero(grid, sol_samples, config_hash=chash)]

    def state_energy_bound():
        """Energy bound shape under control scaling."""
        base = _suite_problem(grid, tg, rng)
        rows = []
        for c in (0.5, 1.0, 2.0):
            ctrl = base.controls.copy()
            ctrl.a = c * ctrl.a
            ctrl.b = c * ctrl.b
            prob = StateProblem(grid, tg, base.y0, ctrl, base.friction, validate=False)
            traj = solve_state(prob)
            rep = energy_bound_report(prob, traj)
            rep["scale"] = c
            rep["energy_residual"] = float(energy_identity_residual(traj, prob).max())
            rows.append(rep)
        ratios = [r["lhs"] / r["data"] for r in rows]
        monotone = all(rows[i]["lhs"] <= rows[i + 1]["lhs"] * (1 + 1e-9)
                       for i in range(len(rows) - 1))
        cstar = fit_energy_bound_constant(rows)
        passed = all(np.isfinite(ratios)) and monotone and np.isfinite(cstar) and \
            max(r["energy_residual"] for r in rows) <= ENERGY_TOL
        return ratios, passed, {"rows": rows, "monotone": monotone,
                                "fitted_constant": cstar}

    def lipschitz():
        """Lipschitz continuity of the control-to-state map."""
        prob = _suite_problem(grid, tg, rng)
        traj = solve_state(prob)
        d = random_admissible_control(grid, tg, rng, amplitude=1.0)
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            ctrl2 = prob.controls.copy()
            ctrl2.a = ctrl2.a + delta * d.a
            ctrl2.b = ctrl2.b + delta * d.b
            prob2 = StateProblem(grid, tg, prob.y0, ctrl2, prob.friction, validate=False)
            traj2 = solve_state(prob2)
            dist = sup_face_l2(grid, traj2.y - traj.y)
            dctrl = BoundaryControl(grid, tg, delta * d.a, delta * d.b)
            ratios.append(dist / hp_norm(dctrl))
        return ratios, np.all(np.isfinite(ratios)) and max(ratios) <= 2.0 * min(ratios), None

    def linearized_energy():
        """Linearized energy estimate; directions drawn up front."""
        prob, traj = _solved_suite_problem(grid, tg, rng)
        dirs = [balanced_direction(grid, tg, rng) for _ in range(nfield)]
        ratios = []
        for d in dirs:
            z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
            lhs = (sup_face_l2(grid, z) ** 2
                   + dissipation(grid, tg, z[1:], prob.friction.alpha[1:], strain=0.5))
            ratios.append(lhs / hp_norm(d) ** 2)
        return ratios, np.all(np.isfinite(ratios)) and max(ratios) <= 3.0 * min(ratios), None

    def random_source():
        return np.array([random_h1_field(grid, rng) for _ in range(tg.nt + 1)])

    def adjoint_energy():
        """Adjoint energy estimate."""
        prob, traj = _solved_suite_problem(grid, tg, rng)
        sources = [random_source() for _ in range(nfield)]
        ratios = [adjoint_energy_check(solve_adjoint(AdjointProblem(prob, traj, U)),
                                       U, prob.friction) for U in sources]
        return ratios, np.all(np.isfinite(ratios)) and max(ratios) <= 3.0 * min(ratios), None

    def gateaux_limit():
        """Tangent consistency of the state map."""
        prob, traj = _solved_suite_problem(grid, tg, rng)
        d = random_admissible_control(grid, tg, rng, amplitude=1.0)
        rows, _ = gateaux_discrepancy(prob, traj, d.a, d.b, [1e-1, 1e-2, 1e-3])
        descending = all(rows[i][1] > rows[i + 1][1] for i in range(len(rows) - 1))
        ratios = [disc / eps for eps, disc in rows]
        return ratios, descending and np.all(np.isfinite(ratios)), {"rows": rows}

    def duality():
        """Duality relation residuals."""
        prob, traj = _solved_suite_problem(grid, tg, rng)
        pairs = [(random_admissible_control(grid, tg, rng, amplitude=1.0), random_source())
                 for _ in range(nsamp)]
        residuals = []
        for d, U in pairs:
            z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
            adj = solve_adjoint(AdjointProblem(prob, traj, U))
            residuals.append(duality_residual(z, adj, U, d.a, d.b,
                                              base_hash=traj.config_hash))
        return residuals, max(residuals) <= DUALITY_TOL, {"tolerance": DUALITY_TOL}

    def refinement_drift():
        """Inequality constants must drift mildly under one refinement."""
        fine = build_grid(2 * nx, 2 * ny, Lx, Ly)
        rng_f = np.random.default_rng(seed)
        h1_f = [random_h1_field(fine, rng_f) for _ in range(nfield)]
        sol_f = [random_solenoidal_field(fine, rng_f) for _ in range(nfield)]
        coarse = {r.name: r for r in reports}
        drifts = {}
        for fine_rep in (check_gns(fine, h1_f, q=4), check_trace(fine, h1_f),
                         check_korn(fine, sol_f)):
            c = max(coarse[fine_rep.name].ratios)
            drifts[fine_rep.name] = abs(max(fine_rep.ratios) - c) / c
        return list(drifts.values()), max(drifts.values()) < 0.5, {"drifts": drifts}

    items = [("state_energy_bound", np.inf, state_energy_bound),
             ("lipschitz", 2.0, lipschitz),
             ("linearized_energy", 3.0, linearized_energy),
             ("adjoint_energy", 3.0, adjoint_energy),
             ("gateaux_limit", np.inf, gateaux_limit),
             ("duality", DUALITY_TOL, duality)]
    if config.get("refine", False):
        items.append(("refinement_drift", 0.5, refinement_drift))
    for name, bound, measure in items:
        reports.append(_line_item(name, bound, chash, measure))

    # wall clock is logged, never serialized: reports must be byte-stable
    logging.getLogger("slipctl").info(
        "estimate suite finished in %.1fs", time.perf_counter() - t_start)
    return reports


def reports_to_json(reports):
    return json.dumps([r.summary() for r in reports], indent=2, sort_keys=True,
                      default=float)


def format_table(reports):
    lines = ["%-22s %8s %8s %12s %12s %12s  %s" %
             ("check", "samples", "trivial", "min", "median", "max", "pass")]
    for r in reports:
        s = r.summary()
        lines.append("%-22s %8d %8d %12.4e %12.4e %12.4e  %s" %
                     (s["name"], s["samples"], s["trivial"], s["ratio_min"],
                      s["ratio_median"], s["ratio_max"],
                      "PASS" if s["pass"] else "FAIL"))
    return "\n".join(lines)
