"""Batch front end: config parsing, run orchestration, artifact persistence.

Config files are INI-style with sections [domain], [time], [physics],
[control], [target], [optimizer], [output], [run].  Boundary data are
per-wall term lists (polynomial/trigonometric in the normalized wall
coordinate, with an optional time factor), so runs are reproducible
bit-for-bit from the file plus the seed.

Exit codes: 0 ok, 1 config or usage error, 2 solver failure, 3 optimize
ended without converging (iteration budget exhausted or line search
failed), 4 check failed.
"""

import argparse
import configparser
import contextlib
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .adjoint_solver import DUALITY_TOL, duality_residual
from .control_opt import (CostParams, GradientEngine, fd_gradient_oracle,
                          optimize, random_admissible_control)
from .errors import ConfigError, IncompatibleFlux, InitialStateError, SlipctlError
from .fields import (BoundaryControl, FrictionField, face_vector, sample_faces,
                     save_boundary_table, write_snapshot)
from .lifting import solve_neumann_lifting
from .linearized_solver import LinearizedProblem, solve_linearized
from .mesh import WALL_NAMES, TimeGrid, build_grid, integrate_boundary, net_flux_violation
from .state_solver import (StateProblem, energy_identity_residual,
                           load_trajectory, save_trajectory, solve_state)
from .verify import format_table, reports_to_json, run_estimate_suite

log = logging.getLogger("slipctl")

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_BUDGET, EXIT_CHECK = 0, 1, 2, 3, 4
# grad-check: largest relative gap between the adjoint pairing and Richardson
GRAD_CHECK_TOL = 1e-6


def _eval_terms(spec, xi):
    """Evaluate a '+'-separated term list at normalized coordinates xi."""
    out = np.zeros_like(xi)
    for raw in spec.split("+"):
        term = raw.strip()
        if not term:
            continue
        parts = term.split(":")
        kind = parts[0]
        try:
            if kind == "const":
                out += float(parts[1])
            elif kind == "sin":
                out += float(parts[2]) * np.sin(2 * np.pi * float(parts[1]) * xi)
            elif kind == "cos":
                out += float(parts[2]) * np.cos(2 * np.pi * float(parts[1]) * xi)
            elif kind == "poly":
                coeffs = [float(c) for c in parts[1:]]
                acc = np.zeros_like(xi)
                for c in reversed(coeffs):
                    acc = acc * xi + c
                out += acc
            else:
                raise ConfigError("unknown term kind %r" % kind)
        except (IndexError, ValueError) as exc:
            raise ConfigError("malformed term %r: %s" % (term, exc))
    return out


def _wall_profile(cfg, section, prefix, grid):
    """Per-wall spatial profile at the boundary nodes (loop order)."""
    vals = np.zeros(grid.n_boundary)
    for wall, name in enumerate(WALL_NAMES):
        key = "%s.%s" % (prefix, name)
        if cfg.has_option(section, key):
            sl = grid.wall_slice(wall)
            n = sl.stop - sl.start
            xi = (grid.boundary_wall_index[sl] + 0.5) / n
            vals[sl] = _eval_terms(cfg.get(section, key), xi)
    return vals


def _time_factor(cfg, section, prefix, time_grid):
    key = "%s.tmod" % prefix
    tau = time_grid.times() / time_grid.T
    if cfg.has_option(section, key):
        return _eval_terms(cfg.get(section, key), tau)
    return np.ones_like(tau)


class RunConfig:
    """Parsed and validated run configuration."""

    def __init__(self, path, out_override=None, seed_override=None):
        if not os.path.exists(path):
            raise ConfigError("config file %r does not exist" % path)
        cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
        self._cfg = cfg
        self.path = path
        try:
            cfg.read(path)
            for section in cfg.sections():  # interpolate every value once
                cfg.items(section)
            self.nx = cfg.getint("domain", "nx", fallback=16)
            self.ny = cfg.getint("domain", "ny", fallback=16)
            self.Lx = cfg.getfloat("domain", "Lx", fallback=1.0)
            self.Ly = cfg.getfloat("domain", "Ly", fallback=1.0)
            self.T = cfg.getfloat("time", "T", fallback=1.0)
            self.nt = cfg.getint("time", "nt", fallback=32)
            self.nu = cfg.getfloat("physics", "nu", fallback=1.0)
            self.alpha_min = cfg.getfloat("physics", "alpha_min", fallback=1e-3)
            self.radius = cfg.getfloat("control", "R", fallback=1e6)
            self.p_exponent = cfg.getfloat("control", "p_exponent", fallback=4.0)
            self.lam1 = cfg.getfloat("control", "lambda1", fallback=0.0)
            self.lam2 = cfg.getfloat("control", "lambda2", fallback=0.0)
            self.tol = cfg.getfloat("optimizer", "tol", fallback=1e-6)
            self.max_iters = cfg.getint("optimizer", "max_iters", fallback=100)
            self.armijo_c1 = cfg.getfloat("optimizer", "armijo_c1", fallback=1e-4)
            self.max_backtracks = cfg.getint("optimizer", "max_backtracks", fallback=30)
            self.out_dir = out_override or cfg.get("output", "directory", fallback="out")
            self.cadence = cfg.getint("output", "snapshot_cadence", fallback=1)
            self.seed = int(seed_override if seed_override is not None
                            else cfg.getint("run", "seed", fallback=1234))
            self.samples = cfg.getint("run", "samples", fallback=5)
            self.refine = cfg.getboolean("run", "refine", fallback=False)
        except configparser.Error as exc:
            raise ConfigError("unreadable config file %r: %s" % (path, exc))
        except ValueError as exc:
            raise ConfigError("invalid numeric value: %s" % exc)
        if self.nt < 1:
            raise ConfigError("nt must be at least 1")
        if not self.nu > 0:
            raise ConfigError("nu must be positive: the state equation is viscous")
        if self.cadence < 1:
            raise ConfigError("snapshot_cadence must be at least 1")
        if self.radius <= 0:
            raise ConfigError("R must be positive")
        if not self.p_exponent > 2:
            raise ConfigError("p_exponent must exceed 2")
        if self.lam1 < 0 or self.lam2 < 0:
            raise ConfigError("penalty weights must be nonnegative")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        try:
            self.grid = build_grid(self.nx, self.ny, self.Lx, self.Ly)
            self.time_grid = TimeGrid(self.T, self.nt)
        except ValueError as exc:
            raise ConfigError(str(exc))
        self.target_spec = cfg.get("target", "y_d", fallback="zero")
        if self.target_spec.startswith("file:"):
            tpath = self.target_spec[5:]
            if not os.path.exists(os.path.join(tpath, "manifest.json")):
                raise ConfigError("target trajectory %r does not exist" % tpath)
        self.initial_spec = cfg.get("initial", "state", fallback="zero")

    def resolved_text(self, with_output=True):
        """Canonical serialization of every option, for hashing and records.

        The output directory is excluded from the hash basis: it locates the
        artifacts but does not change their content.
        """
        lines = []
        for section in sorted(self._cfg.sections()):
            opts = [k for k in sorted(self._cfg.options(section))
                    if not (section == "output" and k == "directory")]
            if not opts and section == "output":
                continue
            lines.append("[%s]" % section)
            for key in opts:
                lines.append("%s = %s" % (key, self._cfg.get(section, key)))
        lines.append("[resolved]")
        lines.append("seed = %d" % self.seed)
        if with_output:
            lines.append("out = %s" % self.out_dir)
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.resolved_text(with_output=False).encode()
                              ).hexdigest()[:16]

    def controls(self):
        a_prof = _wall_profile(self._cfg, "control", "a", self.grid)
        b_prof = _wall_profile(self._cfg, "control", "b", self.grid)
        a_t = _time_factor(self._cfg, "control", "a", self.time_grid)
        b_t = _time_factor(self._cfg, "control", "b", self.time_grid)
        a = a_t[:, None] * a_prof[None, :]
        b = b_t[:, None] * b_prof[None, :]
        ctrl = BoundaryControl(self.grid, self.time_grid, a, b,
                               self.p_exponent, self.radius)
        if net_flux_violation(self.grid, a) is not None:
            flux = np.abs(integrate_boundary(self.grid, a)).max()
            raise ConfigError(
                "normal control a has net boundary flux %.3e: the injection-"
                "suction data must integrate to zero over the boundary at "
                "every time (zero-mean flux compatibility condition)" % flux)
        return ctrl

    def friction(self):
        spec = self._cfg.get("physics", "alpha", fallback="constant:1.0")
        nslice = self.nt + 1
        try:
            if spec.startswith("constant:"):
                val = float(spec.split(":")[1])
                alpha = np.full((nslice, self.grid.n_boundary), val)
            elif spec.startswith("walls:"):
                vals = [float(v) for v in spec[6:].split(",")]
                if len(vals) != 4:
                    raise ConfigError("walls: friction needs 4 values (bottom,right,top,left)")
                alpha = np.empty((nslice, self.grid.n_boundary))
                for wall in range(4):
                    alpha[:, self.grid.wall_slice(wall)] = vals[wall]
            elif spec == "table":
                prof = _wall_profile(self._cfg, "physics", "alpha", self.grid)
                tmod = _time_factor(self._cfg, "physics", "alpha", self.time_grid)
                alpha = tmod[:, None] * prof[None, :]
            else:
                raise ConfigError("unknown friction specification %r" % spec)
        except ValueError as exc:
            raise ConfigError("malformed friction spec alpha = %s: %s" % (spec, exc))
        if alpha.min() < self.alpha_min:
            raise ConfigError("friction coefficient below alpha_min=%g" % self.alpha_min)
        return FrictionField(self.grid, self.time_grid, alpha, self.alpha_min)

    def target(self):
        """The target y_d as face vectors of shape (nt+1, N)."""
        spec = self.target_spec
        g, tg = self.grid, self.time_grid
        if spec == "zero":
            return np.zeros((tg.nt + 1, g.ops.N))
        if spec.startswith("file:"):
            try:
                traj = load_trajectory(spec[5:])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigError("unreadable target trajectory y_d = %s: %s"
                                  % (spec, exc))
            if traj.grid.key() != g.key() or traj.time_grid.nt != tg.nt:
                raise ConfigError("target trajectory does not match the run grids")
            return traj.y
        kind = spec.split(":", 1)[0]
        if kind not in ("uniform", "stream"):
            raise ConfigError("unknown target specification %r" % spec)
        try:
            c1, c2 = (float(v) for v in spec.split(":")[1:])
        except ValueError as exc:
            raise ConfigError("malformed target spec y_d = %s: %s" % (spec, exc))
        if kind == "uniform":
            y = face_vector(g, c1 * np.ones(g.shape_u), c2 * np.ones(g.shape_v))
        else:
            k, amp = c1, c2
            X, Y = g.vertex_points()
            psi = amp * np.sin(np.pi * k * X / g.Lx) * np.sin(np.pi * k * Y / g.Ly)
            y = g.ops.curl @ psi.ravel()
        return np.tile(y, (tg.nt + 1, 1))

    def initial_state(self):
        spec = self.initial_spec
        if spec == "zero":
            return np.zeros(self.grid.ops.N)
        if spec.startswith("shear:"):
            try:
                c1, c2 = (float(v) for v in spec[6:].split(":"))
            except ValueError as exc:
                raise ConfigError("malformed initial state %r: %s" % (spec, exc))
            return sample_faces(self.grid, lambda X, Y: c1 + c2 * Y,
                                lambda X, Y: 0.0 * X)
        raise ConfigError("unknown initial state %r" % spec)

    def state_problem(self):
        ctrl = self.controls()
        friction = self.friction()
        with _input_checks():
            return StateProblem(self.grid, self.time_grid, self.initial_state(),
                                ctrl, friction, self.nu)


@contextlib.contextmanager
def _input_checks():
    """A StateProblem input check that fails in the block as a ConfigError;
    an initial state error with the hint on how to pass it."""
    try:
        yield
    except InitialStateError as exc:
        raise ConfigError(
            "%s (the initial state must be divergence-free with normal "
            "trace matching a at t = 0; with the rest state use a time "
            "factor vanishing at 0, e.g. poly:0:1)" % exc)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return str(v)


def _prepare_out(rc: RunConfig):
    """Output directory and config.resolved, written once no input can reject the run."""
    os.makedirs(rc.out_dir, exist_ok=True)
    with open(os.path.join(rc.out_dir, "config.resolved"), "w") as fh:
        fh.write(rc.resolved_text())
        fh.write("config_hash = %s\n" % rc.config_hash())


def cmd_solve(rc: RunConfig):
    prob = rc.state_problem()
    _prepare_out(rc)
    traj = solve_state(prob)
    tdir = os.path.join(rc.out_dir, "trajectory")
    save_trajectory(tdir, traj, rc.cadence)
    res = energy_identity_residual(traj, prob)
    rows = [("step", "relative_imbalance")]
    rows += [(k + 1, float(r)) for k, r in enumerate(res)]
    _write_csv(os.path.join(rc.out_dir, "energy_residual.csv"), rows)
    _write_json(os.path.join(rc.out_dir, "solve.json"), {
        "config_hash": rc.config_hash(), "trajectory_hash": traj.config_hash,
        "max_energy_residual": float(res.max()) if res.size else 0.0,
        "snapshots": rc.time_grid.nt + 1})
    log.info("state solve complete, max energy imbalance %.3e", res.max())
    return EXIT_OK


def cmd_optimize(rc: RunConfig):
    y_d = rc.target()
    friction = rc.friction()
    ctrl0 = rc.controls()
    y0 = rc.initial_state()
    # the initial state's checks only: optimize projects onto the ball
    with _input_checks():
        StateProblem(rc.grid, rc.time_grid, y0, ctrl0, friction, rc.nu,
                     validate=False).validate_initial_state()
    _prepare_out(rc)
    params = CostParams(y_d=y_d, lam1=rc.lam1, lam2=rc.lam2,
                        radius=rc.radius, p_exponent=rc.p_exponent)
    report = optimize(y0, params, controls0=ctrl0,
                      friction=friction, nu=rc.nu, tol=rc.tol,
                      max_iters=rc.max_iters, armijo_c1=rc.armijo_c1,
                      max_backtracks=rc.max_backtracks,
                      grid=rc.grid, time_grid=rc.time_grid)
    payload = report.to_dict()
    payload["config_hash"] = rc.config_hash()
    _write_json(os.path.join(rc.out_dir, "report.json"), payload)
    _write_json(os.path.join(rc.out_dir, "timings.json"), report.wall_clock)
    _write_csv(os.path.join(rc.out_dir, "history.csv"), report.history_rows())
    final = report.final_controls
    for name, values in (("a", final.a), ("b", final.b)):
        save_boundary_table(os.path.join(rc.out_dir, "controls_%s.csv" % name), name,
                            rc.time_grid.times(), rc.grid.boundary_s, values)
    log.info("optimizer finished: %s after %d iterations",
             report.status, len(report.iterations))
    if report.status == "converged":
        return EXIT_OK
    return EXIT_BUDGET


def cmd_grad_check(rc: RunConfig, corrupt_adjoint=False):
    prob = rc.state_problem()
    y_d = rc.target()
    _prepare_out(rc)
    params = CostParams(y_d=y_d, lam1=rc.lam1, lam2=rc.lam2,
                        radius=rc.radius, p_exponent=rc.p_exponent)
    engine = GradientEngine(prob.y0, params, prob.friction, rc.nu)
    ctrl = prob.controls
    traj = engine.entry(ctrl)["trajectory"]
    rng = np.random.default_rng(rc.seed)
    dirs = [random_admissible_control(rc.grid, rc.time_grid, rng, amplitude=1.0)
            for _ in range(rc.samples)]
    # the tangent sweeps of the duality check run before the gradient, whose
    # adjoint sweep drops the steps they read from the trajectory
    zs = [solve_linearized(LinearizedProblem(prob, traj, d.a, d.b)) for d in dirs[:3]]
    grad, entry = engine.gradient(ctrl)
    results = []
    for d in dirs:
        adj_dd = grad.pair(d.a, d.b)
        if corrupt_adjoint:
            adj_dd *= 1.01  # test hook: deliberately broken pairing
        fd = fd_gradient_oracle(engine, ctrl, (d.a, d.b), [2e-3, 1e-3])
        rich, bound = fd["richardson"], fd["round_off"]
        # the Richardson estimate is known to GRAD_CHECK_TOL only above
        # bound / GRAD_CHECK_TOL: a difference within its round-off bound
        # reads as the tolerance at most (at a stationary point both sides
        # are round-off)
        denom = max(abs(adj_dd), abs(rich), bound / GRAD_CHECK_TOL)
        results.append((adj_dd, rich, bound, abs(adj_dd - rich) / denom))

    source = params.misfit(traj)
    adj = entry["adjoint"]
    dres = [duality_residual(z, adj, source, d.a, d.b, base_hash=traj.config_hash)
            for z, d in zip(zs, dirs)]

    entry["adjoint"].export_kernels_csv(os.path.join(rc.out_dir, "kernels"))
    rows = [("direction", "adjoint", "fd_richardson", "fd_round_off", "rel_error")]
    for i, (ad, fd, bound, err) in enumerate(results):
        rows.append((i, float(ad), float(fd), float(bound), float(err)))
    _write_csv(os.path.join(rc.out_dir, "gradcheck.csv"), rows)
    max_err = max(r[3] for r in results)
    max_dres = max(dres)
    _write_json(os.path.join(rc.out_dir, "gradcheck.json"), {
        "config_hash": rc.config_hash(), "max_rel_error": float(max_err),
        "max_duality_residual": float(max_dres),
        "directions": len(results)})
    print("%-10s %22s %22s %12s" % ("direction", "adjoint", "fd", "rel_error"))
    for i, (ad, fd, _, err) in enumerate(results):
        print("%-10d %22.15e %22.15e %12.3e" % (i, ad, fd, err))
    print("max duality residual: %.3e" % max_dres)
    ok = max_err <= GRAD_CHECK_TOL and max_dres <= DUALITY_TOL
    return EXIT_OK if ok else EXIT_CHECK


def cmd_verify(rc: RunConfig):
    _prepare_out(rc)
    reports = run_estimate_suite({
        "nx": rc.nx, "ny": rc.ny, "Lx": rc.Lx, "Ly": rc.Ly, "T": rc.T,
        "nt": rc.nt, "samples": rc.samples, "seed": rc.seed,
        "refine": rc.refine,
        "config_hash": rc.config_hash()})
    with open(os.path.join(rc.out_dir, "verify.json"), "w") as fh:
        fh.write(reports_to_json(reports))
        fh.write("\n")
    print(format_table(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK


def cmd_lift(rc: RunConfig):
    a_final = rc.controls().a[-1]
    h, grad = solve_neumann_lifting(rc.grid, a_final)
    _prepare_out(rc)
    write_snapshot(os.path.join(rc.out_dir, "potential.snap"), "pressure", rc.grid, rc.T, [h])
    write_snapshot(os.path.join(rc.out_dir, "lifting.snap"), "velocity", rc.grid, rc.T, [grad])
    _write_json(os.path.join(rc.out_dir, "lift.json"), {
        "config_hash": rc.config_hash(),
        "flux": float(integrate_boundary(rc.grid, a_final)),
        "max_divergence": float(np.abs(rc.grid.ops.Dmat @ grad).max()),
        "max_curl": float(np.abs(rc.grid.ops.CiT @ grad).max())})
    log.info("lifting solve complete")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="slipctl",
        description="forward/adjoint solves and boundary-control optimization "
                    "for slip-wall incompressible flow")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "optimize", "grad-check", "verify", "lift"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--log-level", default="INFO")
        if name == "grad-check":
            p.add_argument("--corrupt-adjoint", action="store_true",
                           help=argparse.SUPPRESS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 after --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, args.log_level.upper(), logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        rc = RunConfig(args.config, args.out, args.seed)
        if args.command == "solve":
            return cmd_solve(rc)
        if args.command == "optimize":
            return cmd_optimize(rc)
        if args.command == "grad-check":
            return cmd_grad_check(rc, corrupt_adjoint=args.corrupt_adjoint)
        if args.command == "verify":
            return cmd_verify(rc)
        return cmd_lift(rc)  # argparse admits no other command
    except (ConfigError, IncompatibleFlux) as exc:
        log.error("configuration rejected: %s", exc)
        return EXIT_CONFIG
    except SlipctlError as exc:
        log.error("solver failure: %s", exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
