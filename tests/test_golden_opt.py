"""Regression of the optimizer's iterates on one small tracking problem.

test_golden.py pins one gradient; this test pins what the projected-
gradient loop does with it: J, grad_norm, residual and step of every
iteration and the final controls of `optimize` on the configs/demo.ini
physics at 8x8, nt = 8, tracking y_d = stream:1:0.2 with
lambda1 = lambda2 = 1e-4 (so J stays away from 0), for 12 iterations.
The values are stored in tests/data/golden_opt_8x8x8.npz.

Each iterate is the previous one moved by a computed step, so round-off
in the gradient carries into every later iterate: scaling the starting
controls by 1 +- 2^-52 moves these values by up to 6e-12 relative.
REL_TOL is 1e-9, relative to each value (to the largest entry for the
control arrays): above that amplified round-off, below any change of the
discrete problem or of the step rule.

Regenerate the file (python tests/test_golden_opt.py) only in a change
that says why the optimizer's iterates changed.
"""

import configparser
import os
import tempfile

import numpy as np

from slipctl.cli import RunConfig
from slipctl.control_opt import CostParams, optimize

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO = os.path.join(HERE, os.pardir, "configs", "demo.ini")
GOLDEN = os.path.join(HERE, "data", "golden_opt_8x8x8.npz")
REL_TOL = 1e-9
ITERATIONS = 12
HISTORY = ("J", "grad_norm", "residual", "step")


def _compute(workdir):
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read(DEMO)
    cfg["domain"]["nx"] = cfg["domain"]["ny"] = "8"
    cfg["time"]["nt"] = "8"
    cfg["target"]["y_d"] = "stream:1:0.2"
    cfg["control"]["lambda1"] = cfg["control"]["lambda2"] = "1e-4"
    path = os.path.join(workdir, "golden_opt.ini")
    with open(path, "w") as fh:
        cfg.write(fh)
    rc = RunConfig(path)
    params = CostParams(y_d=rc.target(), lam1=rc.lam1, lam2=rc.lam2,
                        radius=rc.radius, p_exponent=rc.p_exponent)
    report = optimize(rc.initial_state(), params, controls0=rc.controls(),
                      friction=rc.friction(), nu=rc.nu, tol=0.0,
                      max_iters=ITERATIONS, armijo_c1=rc.armijo_c1,
                      max_backtracks=rc.max_backtracks,
                      grid=rc.grid, time_grid=rc.time_grid)
    assert report.status == "max_iters"
    out = {name: np.array([it[name] for it in report.iterations]) for name in HISTORY}
    out["a"] = report.final_controls.a
    out["b"] = report.final_controls.b
    return out


def test_matches_golden_file(tmp_path):
    got = _compute(str(tmp_path))
    with np.load(GOLDEN) as gold:
        assert sorted(gold.files) == sorted(got)
        for name in HISTORY:
            assert gold[name].shape == (ITERATIONS,), name
            np.testing.assert_allclose(got[name], gold[name], rtol=REL_TOL, atol=0,
                                       err_msg=name)
        for name in ("a", "b"):
            want = gold[name]
            assert got[name].shape == want.shape, name
            scale = np.abs(want).max()
            assert scale > 0, name
            assert np.abs(got[name] - want).max() <= REL_TOL * scale, name


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        np.savez(GOLDEN, **_compute(tmp))
