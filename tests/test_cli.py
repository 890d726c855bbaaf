import configparser
import json
import logging
import os
import shutil

import numpy as np
import pytest

from slipctl.cli import (EXIT_BUDGET, EXIT_CHECK, EXIT_CONFIG, EXIT_OK,
                         EXIT_SOLVER, RunConfig, main)
from slipctl.errors import ConfigError, IncompatibleFlux, SolverDivergence

from child import run_child

DEMO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
                    "demo.ini")

BASE_CONFIG = """
[domain]
nx = 8
ny = 8
Lx = 1.0
Ly = 1.0

[time]
T = 0.3
nt = 6

[physics]
nu = 1.0
alpha = constant:1.0

[control]
R = 50.0
p_exponent = 4.0
lambda1 = 0.0
lambda2 = 0.0
a.bottom = sin:1:0.2
a.right = sin:1:0.1
a.tmod = poly:0:1
b.top = cos:1:0.3

[target]
y_d = zero

[optimizer]
tol = 1e-5
max_iters = 6

[output]
directory = {out}

[run]
seed = 7
samples = 3
"""


def write_config(tmp_path, text=None, name="run.ini"):
    path = tmp_path / name
    path.write_text((text or BASE_CONFIG).format(out=tmp_path / "out"))
    return str(path)


def test_missing_config_is_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_usage_errors_are_config_errors(tmp_path, capsys):
    """Usage errors exit 1 like other config errors, not argparse's 2,
    which is EXIT_SOLVER; --help and --version still exit 0."""
    cfg = write_config(tmp_path)
    assert main(["solve"]) == EXIT_CONFIG
    assert main(["bogus", "--config", cfg]) == EXIT_CONFIG
    assert main(["solve", "--config", cfg, "--workers", "2"]) == EXIT_CONFIG
    assert main(["solve", "--help"]) == EXIT_OK
    assert "--workers" not in capsys.readouterr().out
    assert main(["--version"]) == EXIT_OK


def test_run_workers_key_is_ignored(tmp_path):
    """Configs written for the removed thread pool still run; the key is
    kept in the resolved config, so their config hash is unchanged."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace("[run]\n", "[run]\nworkers = 4\n"))
    out = str(tmp_path / "o")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert "workers = 4" in open(os.path.join(out, "config.resolved")).read()


def test_solve_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "solve_out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "trajectory", "manifest.json"))
    assert os.path.exists(os.path.join(out, "energy_residual.csv"))
    assert os.path.exists(os.path.join(out, "config.resolved"))
    rows = open(os.path.join(out, "energy_residual.csv")).read().splitlines()
    assert rows[0] == "step,relative_imbalance"
    assert max(float(r.split(",")[1]) for r in rows[1:]) < 1e-8


def test_linear_solve_failure_is_solver_exit(tmp_path, monkeypatch, caplog):
    """A step solve that misses the residual guard ends the run with
    EXIT_SOLVER and a log line naming the sweep and the step."""
    from slipctl import operators
    monkeypatch.setattr(operators, "LINEAR_RESIDUAL_TOL", -1.0)
    cfg = write_config(tmp_path)
    for command in ("solve", "grad-check"):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="slipctl"):
            code = main([command, "--config", cfg, "--out", str(tmp_path / command)])
        assert code == EXIT_SOLVER
        assert any("state step 1: linear step residual" in r.getMessage()
                   for r in caplog.records)


def test_nonzero_flux_rejected_with_named_condition(tmp_path, caplog):
    bad = BASE_CONFIG.replace("a.bottom = sin:1:0.2", "a.bottom = const:0.2")
    cfg = write_config(tmp_path, bad)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_nonzero_initial_a_rejected(tmp_path):
    bad = BASE_CONFIG.replace("a.tmod = poly:0:1", "a.tmod = const:1")
    cfg = write_config(tmp_path, bad)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_lift_roundtrip_and_incompatible(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "lift_out")
    assert main(["lift", "--config", cfg, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "lifting.snap"))
    bad = BASE_CONFIG.replace("a.bottom = sin:1:0.2", "a.bottom = const:0.2")
    cfg2 = write_config(tmp_path, bad, name="bad.ini")
    assert main(["lift", "--config", cfg2, "--out", str(tmp_path / "l2")]) == EXIT_CONFIG
    assert not (tmp_path / "l2").exists()


def test_lifting_incompatible_flux_is_config_exit(tmp_path, monkeypatch):
    """Flux the lifting solve rejects exits 1 through main, like a config error."""
    from slipctl import cli

    def reject(grid, a):
        raise IncompatibleFlux("boundary data has net flux")
    monkeypatch.setattr(cli, "solve_neumann_lifting", reject)
    cfg = write_config(tmp_path)
    assert main(["lift", "--config", cfg, "--out", str(tmp_path / "l")]) == EXIT_CONFIG


def test_failed_verify_item_is_check_exit(tmp_path, monkeypatch):
    """A line item whose solve fails is reported failed with its error, the
    other items still run and pass, and verify writes verify.json and exits 4."""
    from slipctl import verify

    def diverge(problem):
        raise SolverDivergence("adjoint step 2: linear step residual above guard")
    monkeypatch.setattr(verify, "solve_adjoint", diverge)
    cfg = write_config(tmp_path)
    out = str(tmp_path / "verify")
    assert main(["verify", "--config", cfg, "--out", out]) == EXIT_CHECK
    with open(os.path.join(out, "verify.json")) as fh:
        items = {r["name"]: r for r in json.load(fh)}
    failed = {"adjoint_energy", "duality"}
    assert failed < set(items)
    for name, item in items.items():
        assert item["pass"] == (name not in failed), name
    for name in failed:
        assert "linear step residual" in items[name]["details"]["error"]


def test_grad_check_pass_and_corrupt_hook(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["grad-check", "--config", cfg,
                 "--out", str(tmp_path / "gc")]) == EXIT_OK
    captured = capsys.readouterr()
    assert "rel_error" in captured.out
    assert main(["grad-check", "--config", cfg, "--out", str(tmp_path / "gc2"),
                 "--corrupt-adjoint"]) == EXIT_CHECK


def test_grad_check_passes_at_a_stationary_point(tmp_path):
    """configs/demo.ini tracking its own solve trajectory, with lambda = 0,
    is a stationary point: the adjoint pairings are 0 and the Richardson
    estimates round-off, within the bound gradcheck.csv reports, so every
    direction passes."""
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.ini")
    text = open(demo).read().replace("directory = out", "directory = {out}")
    sol = tmp_path / "sol"
    assert main(["solve", "--config", write_config(tmp_path, text), "--out", str(sol)]) == EXIT_OK
    tracking = text.replace("y_d = zero", "y_d = file:%s" % (sol / "trajectory"))
    cfg = write_config(tmp_path, tracking, name="track.ini")
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "gradcheck.csv").read_text().splitlines()
    assert rows[0] == "direction,adjoint,fd_richardson,fd_round_off,rel_error"
    for row in rows[1:]:
        _, adj, fd, bound, err = (float(v) for v in row.split(","))
        assert adj == 0.0 and abs(fd) <= bound and err <= 1e-6


def test_optimize_budget_and_history(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "opt")
    code = main(["optimize", "--config", cfg, "--out", out])
    assert code in (EXIT_OK, EXIT_BUDGET)
    hist = open(os.path.join(out, "history.csv")).read().splitlines()
    assert hist[0] == "iter,J,grad_norm,residual,step"
    assert os.path.exists(os.path.join(out, "report.json"))
    assert os.path.exists(os.path.join(out, "controls_a.csv"))
    # an unreachable tolerance exhausts the budget but still writes the report
    strict = BASE_CONFIG.replace("tol = 1e-5", "tol = 0.0")
    cfg2 = write_config(tmp_path, strict, name="strict.ini")
    out2 = str(tmp_path / "opt2")
    assert main(["optimize", "--config", cfg2, "--out", out2]) == EXIT_BUDGET
    assert os.path.exists(os.path.join(out2, "report.json"))


def test_verify_command(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "verify")
    assert main(["verify", "--config", cfg, "--out", out]) == EXIT_OK
    assert "duality" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "verify.json"))


def _assert_same_bytes(out1, out2, names):
    for name in names:
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    assert main(["optimize", "--config", cfg, "--out", out1]) in (EXIT_OK, EXIT_BUDGET)
    assert main(["optimize", "--config", cfg, "--out", out2]) in (EXIT_OK, EXIT_BUDGET)
    _assert_same_bytes(out1, out2, ("history.csv", "report.json", "controls_a.csv",
                                    "controls_b.csv"))
    out1, out2 = str(tmp_path / "v1"), str(tmp_path / "v2")
    assert main(["verify", "--config", cfg, "--out", out1]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--out", out2]) == EXIT_OK
    _assert_same_bytes(out1, out2, ("verify.json",))


def _files(root):
    """Paths of the files under root, relative to it, sorted."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def _same_bytes_under_one_and_two_blas_threads(tmp_path, settings, commands, codes):
    """Run commands on the demo config with settings {(section, key): value}
    in fresh interpreters under one and under two BLAS threads; each run
    exits with codes and both write the same files with the same bytes, the
    wall-clock record timings.json aside.  Returns the files compared."""
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read(DEMO)
    for (section, key), value in settings.items():
        cfg[section][key] = value
    path = tmp_path / "demo.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    calls = ", ".join("main([%r, '--config', %r, '--out', 'out'])" % (c, str(path))
                      for c in commands)
    outs = []
    for threads in (1, 2):
        run = tmp_path / ("threads%d" % threads)
        run.mkdir()
        # the same relative --out in both runs, so config.resolved compares too
        out = run_child("import os\nfrom slipctl.cli import main\nos.chdir(%r)\nprint(%s)"
                        % (str(run), calls), threads=threads)
        # the exit codes, after the table grad-check prints
        assert out.splitlines()[-1].split() == [str(c) for c in codes]
        outs.append(str(run / "out"))
    names = [n for n in _files(outs[0]) if n != "timings.json"]
    assert names == [n for n in _files(outs[1]) if n != "timings.json"]
    _assert_same_bytes(*outs, names)
    return names


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The demo physics on 72x72 cells (10,512 faces: OpenBLAS splits a dot
    product of more than about 10,000 entries between threads), nt = 2, a
    nonzero target and 2 optimize iterations: solve and optimize in fresh
    interpreters under one and under two BLAS threads write the same bytes,
    the wall-clock record timings.json aside."""
    names = _same_bytes_under_one_and_two_blas_threads(
        tmp_path, {("domain", "nx"): "72", ("domain", "ny"): "72", ("time", "nt"): "2",
                   ("target", "y_d"): "stream:1:0.2", ("optimizer", "max_iters"): "2"},
        ("solve", "optimize"), (EXIT_OK, EXIT_BUDGET))
    assert "solve.json" in names and "report.json" in names


def test_band_factored_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The demo on its 16x16 cells with nt = 4, whose steps solve on band LUs
    (dgbtrf and dgbtrs call BLAS): solve and grad-check in fresh
    interpreters under one and under two BLAS threads write the same bytes,
    the wall-clock record timings.json aside."""
    names = _same_bytes_under_one_and_two_blas_threads(
        tmp_path, {("time", "nt"): "4"}, ("solve", "grad-check"), (EXIT_OK, EXIT_OK))
    assert "solve.json" in names and "gradcheck.json" in names


def test_grad_check_with_a_capped_band_store_writes_the_same_bytes(tmp_path, monkeypatch):
    """The demo on 8x8 cells (nt = 32): grad-check with room for 3 band rows
    in BAND_STORE_BYTES, whose store keeps steps 30-32 and whose later
    sweeps factor the other 29, writes the bytes of a run whose store keeps
    all 32, the wall-clock record timings.json aside."""
    from slipctl import operators
    from slipctl.mesh import build_grid
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read(DEMO)
    cfg["domain"]["nx"] = cfg["domain"]["ny"] = "8"
    path = tmp_path / "demo.ini"
    with open(path, "w") as fh:
        cfg.write(fh)
    real_store, firsts = operators.StepStore.__init__, []

    def store(self, ops, nt):
        real_store(self, ops, nt)
        firsts.append(self.first)

    monkeypatch.setattr(operators.StepStore, "__init__", store)
    outs = []
    for capped in (False, True):
        if capped:
            ops = build_grid(8, 8, 1.0, 1.0).ops
            band = ops.band()
            row = 8 * (ops.step_indices.size + band.n * band.ldab)
            monkeypatch.setattr(operators, "BAND_STORE_BYTES", 3 * row)
        run = tmp_path / ("capped" if capped else "default")
        run.mkdir()
        monkeypatch.chdir(run)
        # the same relative --out in both runs, so config.resolved compares too
        assert main(["grad-check", "--config", str(path), "--out", "out"]) == EXIT_OK
        outs.append(str(run / "out"))
    assert firsts == [1, 30]
    names = [n for n in _files(outs[0]) if n != "timings.json"]
    assert "gradcheck.json" in names and names == [n for n in _files(outs[1])
                                                   if n != "timings.json"]
    _assert_same_bytes(*outs, names)


def test_target_from_file(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "solve_for_target")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    target_cfg = BASE_CONFIG.replace(
        "y_d = zero", "y_d = file:%s" % os.path.join(out, "trajectory"))
    # recover from a zero start (strip the initial control tables)
    for line in ("a.bottom = sin:1:0.2", "a.right = sin:1:0.1", "b.top = cos:1:0.3"):
        target_cfg = target_cfg.replace(line, "")
    cfg2 = write_config(tmp_path, target_cfg, name="rec.ini")
    code = main(["optimize", "--config", cfg2, "--out", str(tmp_path / "rec")])
    assert code in (EXIT_OK, EXIT_BUDGET)
    hist = open(os.path.join(tmp_path / "rec", "history.csv")).read().splitlines()
    first = float(hist[1].split(",")[1])
    last = float(hist[-1].split(",")[1])
    assert last < first


def test_unreadable_target_file_is_blamed_on_y_d(tmp_path, caplog):
    """A y_d = file: trajectory with a missing snapshot, a damaged
    snapshot, a truncated manifest or a mistyped manifest entry is a config
    error naming y_d, in optimize and grad-check."""
    cfg = write_config(tmp_path)
    out = str(tmp_path / "solve_for_target")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    missing = tmp_path / "missing_snapshot"
    shutil.copytree(os.path.join(out, "trajectory"), missing)
    os.remove(missing / "y_0005.snap")
    damaged = tmp_path / "damaged_snapshot"
    shutil.copytree(os.path.join(out, "trajectory"), damaged)
    for snap in damaged.glob("y_*.snap"):   # every slice one face value short
        snap.write_bytes(snap.read_bytes()[:-8])
    truncated = tmp_path / "truncated_manifest"
    shutil.copytree(os.path.join(out, "trajectory"), truncated)
    manifest = (truncated / "manifest.json").read_text()
    (truncated / "manifest.json").write_text(manifest[:len(manifest) // 2])
    mistyped = tmp_path / "mistyped_manifest"
    shutil.copytree(os.path.join(out, "trajectory"), mistyped)
    entries = json.loads(manifest)
    entries["nx"] = str(entries["nx"])
    (mistyped / "manifest.json").write_text(json.dumps(entries))
    for tdir in (missing, damaged, truncated, mistyped):
        spec = "y_d = file:%s" % tdir
        cfg2 = write_config(tmp_path, BASE_CONFIG.replace("y_d = zero", spec),
                            name="target.ini")
        for command in ("optimize", "grad-check"):
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="slipctl"):
                code = main([command, "--config", cfg2, "--out", str(tmp_path / command)])
            assert code == EXIT_CONFIG
            assert any(spec in r.getMessage() for r in caplog.records)


def test_target_file_at_a_sparser_cadence_is_blamed_on_its_cadence(tmp_path, caplog):
    """A y_d = file: trajectory solved with snapshot_cadence = 4 lacks
    slices: grad-check exits 1 with a message naming y_d and the cadence."""
    text = BASE_CONFIG.replace("directory = {out}", "directory = {out}\nsnapshot_cadence = 4")
    out = str(tmp_path / "solve_for_target")
    assert main(["solve", "--config", write_config(tmp_path, text), "--out", out]) == EXIT_OK
    spec = "y_d = file:%s" % os.path.join(out, "trajectory")
    cfg = write_config(tmp_path, BASE_CONFIG.replace("y_d = zero", spec), name="target.ini")
    with caplog.at_level(logging.ERROR, logger="slipctl"):
        code = main(["grad-check", "--config", cfg, "--out", str(tmp_path / "gc")])
    assert code == EXIT_CONFIG
    assert any(spec in m and "cadence 4" in m for m in (r.getMessage() for r in caplog.records))


SHEAR_CONFIG = """
[domain]
nx = 12
ny = 12
Lx = 1.0
Ly = 1.0

[time]
T = 0.5
nt = 16

[physics]
alpha = constant:1.0

[initial]
state = shear:0.4:1.3

[control]
R = 100.0
a.right = poly:0.4:1.3
a.left = poly:-0.4:-1.3
a.tmod = const:1
b.bottom = const:-0.9
b.top = const:-3.0
b.right = const:1.3
b.left = const:1.3

[target]
y_d = zero

[output]
directory = {out}

[run]
seed = 3
"""


def test_null_data_solve(tmp_path):
    cfg_text = BASE_CONFIG
    for line in ("a.bottom = sin:1:0.2", "a.right = sin:1:0.1", "b.top = cos:1:0.3"):
        cfg_text = cfg_text.replace(line, "")
    cfg = write_config(tmp_path, cfg_text, name="null.ini")
    out = str(tmp_path / "null_out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    from slipctl.state_solver import load_trajectory
    from slipctl.fields import face_l2
    traj = load_trajectory(os.path.join(out, "trajectory"))
    assert max(face_l2(traj.grid, y) for y in traj.y) == 0.0


def test_shear_oracle_config_is_steady(tmp_path):
    cfg = write_config(tmp_path, SHEAR_CONFIG, name="shear.ini")
    out = str(tmp_path / "shear_out")
    assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
    from slipctl.state_solver import load_trajectory
    from slipctl.fields import face_l2
    traj = load_trajectory(os.path.join(out, "trajectory"))
    drift = max(face_l2(traj.grid, traj.y[k] - traj.y[0]) for k in range(len(traj.y)))
    assert drift < 1e-9


def test_lift_zero_data(tmp_path):
    cfg_text = BASE_CONFIG.replace("a.bottom = sin:1:0.2", "").replace(
        "a.right = sin:1:0.1", "")
    cfg = write_config(tmp_path, cfg_text, name="zl.ini")
    out = str(tmp_path / "zl_out")
    assert main(["lift", "--config", cfg, "--out", out]) == EXIT_OK
    from slipctl.fields import read_payload
    from slipctl.mesh import build_grid
    y, _ = read_payload(os.path.join(out, "lifting.snap"), build_grid(8, 8, 1.0, 1.0))
    assert abs(y).max() == 0.0


def test_runconfig_validation(tmp_path):
    bad = BASE_CONFIG.replace("nt = 6", "nt = 0")
    with pytest.raises(ConfigError):
        RunConfig(write_config(tmp_path, bad, name="bad1.ini"))
    bad2 = BASE_CONFIG.replace("p_exponent = 4.0", "p_exponent = 2.0")
    with pytest.raises(ConfigError):
        RunConfig(write_config(tmp_path, bad2, name="bad2.ini"))
    bad3 = BASE_CONFIG.replace("alpha = constant:1.0", "alpha = constant:1e-9")
    rc = RunConfig(write_config(tmp_path, bad3, name="bad3.ini"))
    with pytest.raises(ConfigError):
        rc.friction()
    bad4 = BASE_CONFIG.replace("directory = {out}", "directory = {out}\nsnapshot_cadence = 0")
    with pytest.raises(ConfigError, match="snapshot_cadence"):
        RunConfig(write_config(tmp_path, bad4, name="bad4.ini"))
    bad5 = BASE_CONFIG.replace("nu = 1.0", "nu = -1.0")
    with pytest.raises(ConfigError, match="nu"):
        RunConfig(write_config(tmp_path, bad5, name="bad5.ini"))


@pytest.mark.parametrize("text", [
    "nx = 8\n",
    BASE_CONFIG.replace("b.top = cos:1:0.3", "b.top = cos:1:0.3%"),
], ids=["no_section_header", "bad_interpolation"])
def test_unparsable_config_file_is_config_error(tmp_path, text):
    cfg = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="unreadable config file"):
        RunConfig(cfg)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_zero_samples_is_config_error(tmp_path):
    """grad-check and verify need at least one sample direction."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace("samples = 3", "samples = 0"))
    with pytest.raises(ConfigError, match="samples"):
        RunConfig(cfg)
    for command in ("grad-check", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == EXIT_CONFIG


@pytest.mark.parametrize("spec", ["constant:abc", "walls:1,1,x,1"])
def test_malformed_friction_is_blamed_on_alpha(tmp_path, caplog, spec):
    """A friction spec that does not parse is reported as such, not as an
    incompatible initial state."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace("alpha = constant:1.0", "alpha = " + spec))
    with caplog.at_level(logging.ERROR, logger="slipctl"):
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    messages = [r.getMessage() for r in caplog.records]
    assert any("alpha = " + spec in m for m in messages)
    assert not any("initial state" in m for m in messages)


@pytest.mark.parametrize("command", ["solve", "optimize", "grad-check"])
def test_rejected_run_writes_no_output(tmp_path, command):
    """A run rejected with exit 1 creates no output directory, so no
    config.resolved claims it ran."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace("alpha = constant:1.0",
                                                     "alpha = constant:abc"))
    out = tmp_path / "rejected"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("directory = {out}", "directory = {out}\nsnapshot_cadence = 0"),
    ("directory = {out}", "directory = {out}\nsnapshot_cadence = -1"),
    ("nu = 1.0", "nu = -1.0"),
    ("nu = 1.0", "nu = 0.0"),
], ids=["zero_cadence", "negative_cadence", "negative_nu", "zero_nu"])
@pytest.mark.parametrize("command", ["solve", "optimize", "grad-check"])
def test_out_of_range_value_writes_no_output(tmp_path, command, old, new):
    """A snapshot cadence below 1 or a viscosity that is not positive is a
    config error (exit 1) raised before the output directory is made, not
    a traceback or a solver failure after it."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    out = tmp_path / "rejected"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("spec", ["uniform:1:x", "uniform:1", "stream:1:2:3"])
def test_malformed_target_is_blamed_on_y_d(tmp_path, caplog, spec):
    """A target spec that does not parse is a config error naming y_d."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace("y_d = zero", "y_d = " + spec))
    with caplog.at_level(logging.ERROR, logger="slipctl"):
        code = main(["grad-check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert any("y_d = " + spec in r.getMessage() for r in caplog.records)
    with pytest.raises(ConfigError, match="y_d"):
        RunConfig(cfg).target()


def test_config_hash_stable(tmp_path):
    cfg = write_config(tmp_path)
    rc1 = RunConfig(cfg)
    rc2 = RunConfig(cfg)
    assert rc1.config_hash() == rc2.config_hash()
    rc3 = RunConfig(cfg, seed_override=99)
    assert rc3.config_hash() != rc1.config_hash()


def test_grad_check_byte_identical(tmp_path):
    """Two grad-check runs write the same artifacts byte for byte.  Four
    directions make 17 state solves, each replacing the engine's one entry."""
    cfg = write_config(tmp_path, BASE_CONFIG.replace("samples = 3", "samples = 4"))
    out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
    for out in (out1, out2):
        assert main(["grad-check", "--config", cfg, "--out", out]) == EXIT_OK
    _assert_same_bytes(out1, out2, ("gradcheck.csv", "gradcheck.json",
                                    "kernels_normal.csv", "kernels_tangent.csv"))


HINT = "the initial state must be divergence-free"


@pytest.mark.parametrize("command", ["solve", "grad-check"])
def test_controls_outside_the_ball_are_not_blamed_on_the_initial_state(tmp_path, caplog,
                                                                       command):
    """configs/demo.ini with R = 0.7 puts its controls outside the admissible
    ball: exit 1 naming the ball, without the initial-state hint."""
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.ini")
    with open(demo) as fh:
        text = fh.read()
    assert "R = 50.0" in text
    cfg = tmp_path / "ball.ini"
    cfg.write_text(text.replace("R = 50.0", "R = 0.7"))
    with caplog.at_level(logging.ERROR, logger="slipctl"):
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    messages = [r.getMessage() for r in caplog.records]
    assert any("controls leave the admissible ball" in m for m in messages)
    assert not any(HINT in m for m in messages)


def _divergent_state(rc):
    """The rest state with one interior u face set: its two cells diverge."""
    y = np.zeros(rc.grid.ops.N)
    y[rc.grid.ops.free_idx[0]] = 1.0
    return y


@pytest.mark.parametrize("initial, message", [
    (_divergent_state, "initial velocity is not divergence-free"),
    (None, "initial normal trace does not match a(0)"),
], ids=["divergent", "normal_trace"])
def test_initial_state_errors_carry_the_hint(tmp_path, monkeypatch, caplog, initial, message):
    """A divergent initial state, and one whose normal trace misses a(0),
    exit 1 with the initial-state hint."""
    text = BASE_CONFIG
    if initial is None:
        text = text.replace("a.tmod = poly:0:1", "a.tmod = const:1")
    else:
        monkeypatch.setattr(RunConfig, "initial_state", initial)
    cfg = write_config(tmp_path, text)
    with caplog.at_level(logging.ERROR, logger="slipctl"):
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert any(message in m and HINT in m for m in (r.getMessage() for r in caplog.records))


def _uniform_flow_config(tmp_path, name, speed):
    """BASE_CONFIG with the uniform flow u = 3 as its initial state and the
    steady wall data a = speed on the right wall and -speed on the left."""
    text = BASE_CONFIG
    for old, new in (("a.bottom = sin:1:0.2\n", ""), ("a.tmod = poly:0:1\n", ""),
                     ("a.right = sin:1:0.1", "a.right = const:%s\na.left = const:-%s"
                      % (speed, speed)),
                     ("[target]", "[initial]\nstate = shear:3:0\n\n[target]")):
        assert old in text
        text = text.replace(old, new)
    return write_config(tmp_path, text, name)


@pytest.mark.parametrize("command", ["solve", "grad-check", "optimize"])
def test_every_command_checks_the_initial_trace_relative_to_the_state(tmp_path, caplog,
                                                                      command):
    """A uniform flow of speed 3 whose normal trace a(0) misses by 1.5e-9,
    within 1e-9 max(1, max|y0|), passes every command's initial-state
    check; a miss of 1e-4 fails each with the initial-state hint."""
    ok = _uniform_flow_config(tmp_path, "ok.ini", "3.0000000015")
    code = main([command, "--config", ok, "--out", str(tmp_path / "ok")])
    assert code in (EXIT_OK, EXIT_BUDGET)
    bad = _uniform_flow_config(tmp_path, "bad.ini", "3.0001")
    with caplog.at_level(logging.ERROR, logger="slipctl"):
        code = main([command, "--config", bad, "--out", str(tmp_path / "bad")])
    assert code == EXIT_CONFIG
    assert any("initial normal trace does not match a(0)" in m and HINT in m
               for m in (r.getMessage() for r in caplog.records))


def test_singular_band_factor_is_solver_exit(tmp_path, monkeypatch, caplog):
    """An exactly singular step (R zeroed at step 3) on the 8x8 band side
    ends solve, whose state sweep factors into the solver's own buffer, and
    grad-check, whose state sweep factors into its step store, with
    EXIT_SOLVER and a log line naming the sweep and step."""
    from slipctl.operators import StepSolver
    real = StepSolver._factor

    def singular_at_step_3(self):
        if self.k == 3:
            self.R.data[:] = 0.0
        return real(self)

    monkeypatch.setattr(StepSolver, "_factor", singular_at_step_3)
    cfg = write_config(tmp_path)
    for command in ("solve", "grad-check"):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="slipctl"):
            code = main([command, "--config", cfg, "--out", str(tmp_path / command)])
        assert code == EXIT_SOLVER
        assert any("state step 3: step matrix factorization failed: band factor is exactly "
                   "singular" in r.getMessage() for r in caplog.records)


def test_solve_keeps_no_steps_and_grad_check_factors_each_step_once(tmp_path, monkeypatch,
                                                                   factor_log):
    """solve builds no StepStore: no sweep reads its steps.  In grad-check
    (8x8, nt = 6, 3 directions) only the state sweeps factor, once per
    step: the gradient's and the 12 of the finite differences.  Its
    adjoint sweep and the duality check's tangent sweeps solve on the
    factors of the gradient's state sweep."""
    from slipctl.operators import StepStore
    real_store, stores = StepStore.__init__, []

    def store(self, *args):
        stores.append(args)
        real_store(self, *args)

    monkeypatch.setattr(StepStore, "__init__", store)
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == EXIT_OK
    assert stores == [] and [sweep for sweep, _ in factor_log] == ["state"] * 6
    factor_log.clear()
    assert main(["grad-check", "--config", cfg, "--out", str(tmp_path / "gc")]) == EXIT_OK
    assert [sweep for sweep, _ in factor_log] == ["state"] * (6 * 13)


def test_grad_check_keeps_the_steps_of_the_base_control_only(tmp_path, monkeypatch):
    """A 3-direction grad-check builds one StepStore, for the base control,
    whose tangent and adjoint sweeps read it; its 12 finite-difference
    costs keep no steps.  gradcheck.csv and gradcheck.json are byte for
    byte those of a run whose finite-difference costs keep their steps."""
    from slipctl import control_opt
    from slipctl.operators import StepStore
    real_store, stores = StepStore.__init__, []

    def store(self, *args):
        stores.append(args)
        real_store(self, *args)

    monkeypatch.setattr(StepStore, "__init__", store)
    cfg = write_config(tmp_path)
    out = tmp_path / "gc"
    assert main(["grad-check", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(stores) == 1

    real_entry = control_opt.GradientEngine.entry

    def keeping(self, controls, keep_steps=True):
        return real_entry(self, controls)

    monkeypatch.setattr(control_opt.GradientEngine, "entry", keeping)
    stores.clear()
    kept = tmp_path / "kept"
    assert main(["grad-check", "--config", cfg, "--out", str(kept)]) == EXIT_OK
    assert len(stores) == 13
    _assert_same_bytes(str(out), str(kept), ["gradcheck.csv", "gradcheck.json"])
