"""Seeded inputs, closed-loop workloads and their result checks.

Every workload is one client that issues its next operation only after the
previous one returned (a closed loop, one worker).  The program sees only
the generated config file and control arrays; the checks run outside the
timed region, and an operation that fails one counts as failed, not as a
timing sample.
"""

import configparser
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from slipctl import cli
from slipctl.cli import RunConfig
from slipctl.control_opt import CostParams, GradientEngine, random_admissible_control
from slipctl.errors import SlipctlError
from slipctl.fields import BoundaryControl
from slipctl.state_solver import StateProblem, energy_identity_residual

# name -> (kind, cells per side, time steps)
WORKLOADS = {
    "grad-16x32": ("grad", 16, 32),
    "grad-64x4": ("grad", 64, 4),
    "cli-16x32": ("cli", 16, 32),
}

SETUPS = 3            # set-ups per run; setup_s is their median
POOL = 24             # distinct controls cycled by grad-*, more than the 9 the engine caches
OPT_ITERS = 3         # optimize iteration budget of cli-16x32
DIRECTIONS = 3        # grad-check directions of cli-16x32
REF_SECONDS = 0.009   # SpeedClock reference time on an unloaded 2-core Xeon VM
ENERGY_TOL = 1e-8
GRAD_CHECK_TOL = 1e-6
DUALITY_TOL = 1e-9


def write_config(path, demo_path, n, nt, seed, out_dir):
    """Run config with the demo physics and seeded zero-flux boundary data."""
    demo = configparser.ConfigParser(inline_comment_prefixes=("#",))
    demo.optionxform = str
    if not demo.read(demo_path):
        raise FileNotFoundError(demo_path)
    rng = np.random.default_rng([seed, n, nt])

    def amp():
        return repr(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.3)))

    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg["domain"] = {"nx": str(n), "ny": str(n),
                     "Lx": demo["domain"]["Lx"], "Ly": demo["domain"]["Ly"]}
    cfg["time"] = {"T": demo["time"]["T"], "nt": str(nt)}
    cfg["physics"] = dict(demo["physics"])
    control = {k: demo["control"][k] for k in ("R", "p_exponent", "lambda1", "lambda2")}
    # sines of whole wavenumbers carry no net flux over any wall; a.tmod
    # vanishes at t = 0 to match the rest initial state
    control.update({
        "a.bottom": "sin:1:%s" % amp(), "a.right": "sin:1:%s" % amp(),
        "a.top": "sin:2:%s" % amp(), "a.tmod": "poly:0:1",
        "b.top": "cos:1:%s" % amp(), "b.left": "sin:1:%s" % amp()})
    cfg["control"] = control
    cfg["target"] = dict(demo["target"])
    cfg["optimizer"] = dict(demo["optimizer"], max_iters=str(OPT_ITERS))
    cfg["output"] = {"directory": out_dir,
                     "snapshot_cadence": demo["output"].get("snapshot_cadence", "1")}
    cfg["run"] = {"seed": str(seed), "samples": str(DIRECTIONS), "workers": "1"}
    with open(path, "w") as fh:
        cfg.write(fh)


def write_controls(path, cfg_path, seed, count):
    """Seeded admissible perturbations of the config's controls, validated."""
    rc = RunConfig(cfg_path)
    base = rc.state_problem()
    rng = np.random.default_rng([seed, 7])
    a, b = [], []
    for _ in range(count):
        d = random_admissible_control(rc.grid, rc.time_grid, rng, rc.p_exponent,
                                      rc.radius, amplitude=0.5)
        ctrl = base.controls.copy()
        ctrl.a = ctrl.a + d.a
        ctrl.b = ctrl.b + d.b
        StateProblem(rc.grid, rc.time_grid, base.y0, ctrl, base.friction, rc.nu,
                     validate=False).validate()
        a.append(ctrl.a)
        b.append(ctrl.b)
    np.savez(path, a=np.array(a), b=np.array(b))


def generate(kind, n, nt, seed, work):
    """Write the inputs of one workload into work; return their paths."""
    here = os.path.dirname(os.path.abspath(__file__))
    demo = os.path.join(os.path.dirname(here), "configs", "demo.ini")
    cfg = os.path.join(work, "run.ini")
    write_config(cfg, demo, n, nt, seed, os.path.join(work, "out"))
    inputs = {"config": cfg}
    if kind == "grad":
        inputs["controls"] = os.path.join(work, "controls.npz")
        write_controls(inputs["controls"], cfg, seed, POOL)
    return inputs


class SpeedClock:
    """Wall time corrected for the changing speed of a shared host.

    On a host shared with other tenants the same code runs up to about 1.6x
    slower for tens of seconds at a time.  A fixed reference kernel (sparse
    LU plus interpreter work, independent of slipctl) is timed after every
    measured interval, and the interval's wall time is scaled by
    REF_SECONDS over the mean of the reference times just before and just
    after it.  On an unloaded host like the one REF_SECONDS was measured on,
    corrected time equals wall time.
    """

    def __init__(self):
        n = 40
        d2 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        skew = sp.diags([1.0, -1.0], [1, -1], shape=(n, n))
        eye = sp.eye(n)
        self._matrix = (sp.kron(eye, d2) + sp.kron(d2, eye) + 0.3 * sp.kron(skew, eye)).tocsc()
        self._rhs = np.ones(n * n)
        self._kernel()
        self._last = self._reference()

    def _kernel(self):
        t0 = time.perf_counter()
        for _ in range(2):
            spla.splu(self._matrix).solve(self._rhs)
        counts = {}
        for i in range(15000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        return time.perf_counter() - t0

    def _reference(self):
        # the fastest of three filters out short interruptions
        return min(self._kernel() for _ in range(3))

    def measure(self, fn, *args):
        """Return fn(*args), its corrected seconds and its wall seconds."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        before, self._last = self._last, self._reference()
        return result, wall * REF_SECONDS / (0.5 * (before + self._last)), wall


def _traced(tracer, op_id):
    return tracer.op(op_id) if tracer is not None else contextlib.nullcontext()


def closed_loop(seconds, min_ops, body):
    """Call body(i) until seconds have passed and at least min_ops ran."""
    ops = []
    t_end = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < t_end:
        ops.append(body(len(ops)))
    return ops


def run_grad(inputs, seconds, tracer=None, trace_every=0, min_ops=3):
    """Closed loop of gradients (state + adjoint) at fresh admissible controls.

    An operation is GradientEngine.cost, which solves the state, followed by
    GradientEngine.gradient, which adds the adjoint sweep: the order the
    optimizer uses.

    Each set-up parses the config, builds the operators and computes one
    warm-up gradient; the loop then reuses the last set-up's engine.  With a
    tracer, every trace_every-th operation (from the first) is traced.
    """
    def setup():
        rc = RunConfig(inputs["config"])
        rc.grid.ops
        prob = rc.state_problem()
        params = CostParams(y_d=rc.target(), lam1=rc.lam1, lam2=rc.lam2,
                            radius=rc.radius, p_exponent=rc.p_exponent)
        engine = GradientEngine(prob.y0, params, prob.friction, rc.nu)
        engine.gradient(prob.controls)
        return rc, engine

    clock = SpeedClock()
    setups = []
    for s in range(SETUPS):
        with _traced(tracer, "setup%d" % s):
            (rc, engine), dt, wall = clock.measure(setup)
        setups.append({"seconds": dt, "wall": wall})
    pool = np.load(inputs["controls"])
    kept = {}

    def body(i):
        ctrl = BoundaryControl(rc.grid, rc.time_grid, pool["a"][i % POOL],
                               pool["b"][i % POOL], rc.p_exponent, rc.radius)
        traced = tracer is not None and i % trace_every == 0
        errors = []
        dt = wall = None
        with _traced(tracer if traced else None, i):
            try:
                # the state solve (cost) and the adjoint sweep that gradient()
                # adds, timed apart so the host speed is sampled between them
                _, dt_state, wall_state = clock.measure(engine.cost, ctrl)
                (grad, entry), dt_adj, wall_adj = clock.measure(engine.gradient, ctrl)
                dt, wall = dt_state + dt_adj, wall_state + wall_adj
            except SlipctlError as exc:
                errors.append("gradient raised %r" % exc)
        if not errors:
            kept.setdefault("first", (i, entry))
            if not (np.isfinite(grad.ga).all() and np.isfinite(grad.gb).all()):
                errors.append("gradient is not finite")
        return {"op": i, "seconds": dt, "wall": wall, "traced": traced, "errors": errors}

    ops = closed_loop(seconds, min_ops, body)
    if "first" in kept:
        i, entry = kept["first"]
        res = float(energy_identity_residual(entry["trajectory"], entry["problem"]).max())
        if not res <= ENERGY_TOL:
            ops[i]["errors"].append("energy identity residual %.3e" % res)
    return setups, ops


def artifact_hashes(out):
    """sha256 of every CSV/JSON artifact except the wall-clock timings."""
    hashes = {}
    for root, _, files in os.walk(out):
        for name in files:
            if name.endswith((".csv", ".json")) and name != "timings.json":
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    hashes[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def check_cli_pass(out, codes):
    """Errors found in one solve/optimize/grad-check pass."""
    errors = []
    if codes != (cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_OK) and \
            codes != (cli.EXIT_OK, cli.EXIT_BUDGET, cli.EXIT_OK):
        errors.append("exit codes %r" % (codes,))
    try:
        with open(os.path.join(out, "solve.json")) as fh:
            res = json.load(fh)["max_energy_residual"]
        if not res <= ENERGY_TOL:
            errors.append("energy identity residual %.3e" % res)
        with open(os.path.join(out, "report.json")) as fh:
            status = json.load(fh)["status"]
        if status not in ("converged", "max_iters"):
            errors.append("optimize status %s" % status)
        with open(os.path.join(out, "history.csv")) as fh:
            J = [float(row["J"]) for row in csv.DictReader(fh)]
        if not J or any(b > a for a, b in zip(J, J[1:])):
            errors.append("cost history does not decrease: %r" % J)
        with open(os.path.join(out, "gradcheck.json")) as fh:
            gc = json.load(fh)
        if not gc["max_rel_error"] <= GRAD_CHECK_TOL:
            errors.append("grad-check relative error %.3e" % gc["max_rel_error"])
        if not gc["max_duality_residual"] <= DUALITY_TOL:
            errors.append("duality residual %.3e" % gc["max_duality_residual"])
    except (OSError, KeyError, ValueError) as exc:
        errors.append("missing or malformed artifact: %s" % exc)
    return errors


def run_cli(inputs, seconds, tracer=None, trace_every=0, min_ops=4,
            corrupt_adjoint=False):
    """Closed loop of `solve`, `optimize` and `grad-check` on one config.

    Each set-up parses the config, builds the operators and runs one
    `solve` as warm-up.  Every pass writes to a cleared directory, and its
    CSV/JSON artifacts must match the first pass's byte for byte.
    """
    cfg = inputs["config"]
    work = os.path.dirname(cfg)
    warm = os.path.join(work, "warmup")

    def setup():
        RunConfig(cfg).grid.ops
        return cli.main(["solve", "--config", cfg, "--out", warm])

    clock = SpeedClock()
    setups = []
    for s in range(SETUPS):
        shutil.rmtree(warm, ignore_errors=True)
        with _traced(tracer, "setup%d" % s), contextlib.redirect_stdout(io.StringIO()):
            code, dt, wall = clock.measure(setup)
        if code != cli.EXIT_OK:
            raise RuntimeError("warm-up solve exited with %d" % code)
        setups.append({"seconds": dt, "wall": wall})
    reference = {}
    out = os.path.join(work, "pass")
    extra = ["--corrupt-adjoint"] if corrupt_adjoint else []

    def body(i):
        shutil.rmtree(out, ignore_errors=True)
        traced = tracer is not None and i % trace_every == 0
        args = ["--config", cfg, "--out", out]
        codes, parts, walls = [], {}, []
        with _traced(tracer if traced else None, i), \
                contextlib.redirect_stdout(io.StringIO()):
            for name, cmd in (("solve_s", ["solve"] + args),
                              ("optimize_s", ["optimize"] + args),
                              ("grad_check_s", ["grad-check"] + args + extra)):
                code, parts[name], wall = clock.measure(cli.main, cmd)
                codes.append(code)
                walls.append(wall)
        errors = check_cli_pass(out, tuple(codes))
        hashes = artifact_hashes(out)
        reference.setdefault("hashes", hashes)
        if hashes != reference["hashes"]:
            errors.append("artifacts differ from the first pass")
        return {"op": i, "seconds": sum(parts.values()), "wall": sum(walls),
                "traced": traced, "errors": errors, "parts": parts}

    return setups, closed_loop(seconds, min_ops, body)
