import numpy as np
import pytest

from slipctl.fields import face_vector, sample_faces, spatial_mean
from slipctl.mesh import build_grid
from slipctl.verify import (check_gns, check_korn, check_mean_zero,
                            check_trace, format_table, random_h1_field,
                            random_solenoidal_field, reports_to_json,
                            run_estimate_suite)


@pytest.fixture
def grid():
    return build_grid(12, 12, 1.0, 1.0)


def test_constant_field_is_trivial_sample(grid):
    const = face_vector(grid, 2.0 * np.ones(grid.shape_u), np.zeros(grid.shape_v))
    rep = check_gns(grid, [const], q=4)
    assert rep.trivial_count == 1
    assert rep.passed


def test_gns_ensemble(grid):
    rng = np.random.default_rng(0)
    samples = [random_h1_field(grid, rng) for _ in range(20)]
    for q in (3, 4, 6):
        rep = check_gns(grid, samples, q=q)
        assert rep.passed
        assert all(np.isfinite(r) for r in rep.ratios)
        assert max(rep.ratios) <= 5.0 * np.median(rep.ratios)


def test_gns_rejects_bad_exponent(grid):
    with pytest.raises(ValueError):
        check_gns(grid, [], q=1)


def test_gns_single_mode_stable_under_refinement():
    ratios = []
    for n in (16, 32):
        g = build_grid(n, n, 1.0, 1.0)
        y = sample_faces(
            g, lambda X, Y: np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y),
            lambda X, Y: 0 * X)
        rep = check_gns(g, [y], q=4)
        ratios.append(rep.ratios[0])
    assert abs(ratios[1] - ratios[0]) <= 0.1 * ratios[0]


def test_trace_ensemble_and_linear_field(grid):
    rng = np.random.default_rng(1)
    rep = check_trace(grid, [random_h1_field(grid, rng) for _ in range(15)])
    assert rep.passed
    lin = sample_faces(grid, lambda X, Y: X, lambda X, Y: -Y)
    rep2 = check_trace(grid, [lin])
    assert rep2.passed and np.isfinite(rep2.ratios[0])


def test_korn_ensemble(grid):
    rng = np.random.default_rng(2)
    samples = [random_solenoidal_field(grid, rng) for _ in range(20)]
    rep = check_korn(grid, samples)
    assert rep.passed
    assert all(np.isfinite(r) for r in rep.ratios)


def test_korn_rejects_nonsolenoidal(grid):
    bad = face_vector(grid, np.ones(grid.shape_u), np.zeros(grid.shape_v))
    with pytest.raises(ValueError):
        check_korn(grid, [bad])


def test_korn_stable_under_refinement():
    vals = []
    for n in (16, 32):
        g = build_grid(n, n, 1.0, 1.0)
        rng = np.random.default_rng(3)
        samples = [random_solenoidal_field(g, rng) for _ in range(10)]
        rep = check_korn(g, samples)
        vals.append(max(rep.ratios))
    assert abs(vals[1] - vals[0]) <= 0.2 * vals[0]


def test_mean_zero_check_and_counterexample(grid):
    rng = np.random.default_rng(4)
    good = [random_solenoidal_field(grid, rng) for _ in range(10)]
    rep = check_mean_zero(grid, good)
    assert rep.passed
    # a field with nonzero wall flux has a nonzero mean, and the check sees it
    leak = sample_faces(grid, lambda X, Y: X * (1 - Y), lambda X, Y: 0 * X)
    assert np.abs(spatial_mean(grid, leak)).max() > 1e-3
    rep2 = check_mean_zero(grid, [leak])
    assert not rep2.passed


def test_suite_runs_and_serializes():
    reports = run_estimate_suite({"nx": 8, "ny": 8, "T": 0.3, "nt": 6,
                                  "samples": 2, "seed": 11, "refine": True})
    names = [r.name for r in reports]
    for expected in ("gns_q3", "gns_q4", "gns_q6", "trace", "korn", "mean_zero",
                     "state_energy_bound", "lipschitz", "linearized_energy",
                     "adjoint_energy", "gateaux_limit", "duality", "refinement_drift"):
        assert expected in names
    assert all(r.passed for r in reports)
    txt = reports_to_json(reports)
    assert "duality" in txt
    table = format_table(reports)
    assert "PASS" in table and "FAIL" not in table


def test_suite_deterministic():
    r1 = run_estimate_suite({"nx": 8, "ny": 8, "T": 0.3, "nt": 4,
                             "samples": 2, "seed": 5})
    r2 = run_estimate_suite({"nx": 8, "ny": 8, "T": 0.3, "nt": 4,
                             "samples": 2, "seed": 5})
    for a, b in zip(r1, r2):
        assert a.ratios == b.ratios
