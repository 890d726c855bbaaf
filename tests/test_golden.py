"""Regression against a committed solution of one small fixed problem.

The acceptance suite checks that the scheme is self-consistent (energy
identity, exact transpose, duality, FD gradient); a changed stencil or
quadrature that stays consistent passes all of it.  This test pins the
discrete problem itself: the adjoint gradient (ga, gb), the cost J and the
final state slice of the configs/demo.ini physics on an 8x8 grid with
nt = 8, stored in tests/data/golden_8x8x8.npz.

Regenerate the file (python tests/test_golden.py) only in a change that
says why the discrete problem changed.
"""

import configparser
import os
import tempfile

import numpy as np

from slipctl.cli import RunConfig
from slipctl.control_opt import CostParams, GradientEngine

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO = os.path.join(HERE, os.pardir, "configs", "demo.ini")
GOLDEN = os.path.join(HERE, "data", "golden_8x8x8.npz")
REL_TOL = 1e-11


def _compute(workdir):
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read(DEMO)
    cfg["domain"]["nx"] = cfg["domain"]["ny"] = "8"
    cfg["time"]["nt"] = "8"
    path = os.path.join(workdir, "golden.ini")
    with open(path, "w") as fh:
        cfg.write(fh)
    rc = RunConfig(path)
    prob = rc.state_problem()
    params = CostParams(y_d=rc.target(), lam1=rc.lam1, lam2=rc.lam2,
                        radius=rc.radius, p_exponent=rc.p_exponent)
    engine = GradientEngine(prob.y0, params, prob.friction, rc.nu)
    grad, entry = engine.gradient(prob.controls)
    return {"ga": grad.ga, "gb": grad.gb, "J": np.array(entry["J"]),
            "y_final": entry["trajectory"].y[-1]}


def test_matches_golden_file(tmp_path):
    got = _compute(str(tmp_path))
    with np.load(GOLDEN) as gold:
        assert sorted(gold.files) == sorted(got)
        for name, want in gold.items():
            assert got[name].shape == want.shape, name
            scale = np.abs(want).max()
            assert scale > 0, name
            assert np.abs(got[name] - want).max() <= REL_TOL * scale, name


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        np.savez(GOLDEN, **_compute(tmp))
