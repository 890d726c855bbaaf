import numpy as np
import pytest

from slipctl.errors import IncompatibleFlux
from slipctl.fields import face_l2, sample_faces
from slipctl.lifting import solve_neumann_lifting
from slipctl.mesh import build_grid, integrate_boundary

from oracles import time_lifting


def harmonic_quad_data(grid):
    """Normal derivative of x^2 - y^2 on the walls, in loop order."""
    a = np.zeros(grid.n_boundary)
    a[grid.wall_slice(1)] = 2.0 * grid.Lx
    a[grid.wall_slice(2)] = -2.0 * grid.Ly
    return a


def test_zero_data(tmp_path=None):
    g = build_grid(8, 8, 1.0, 1.0)
    h, grad = solve_neumann_lifting(g, np.zeros(g.n_boundary))
    assert np.abs(h).max() < 1e-12
    assert face_l2(g, grad) < 1e-12


def test_quadratic_harmonic_oracle():
    g = build_grid(16, 16, 1.0, 1.0)
    _, grad = solve_neumann_lifting(g, harmonic_quad_data(g))
    exact = sample_faces(g, lambda X, Y: 2 * X, lambda X, Y: -2 * Y)
    # centered differences are exact on quadratics, so the discrete solve
    # reproduces this oracle to solver precision
    assert face_l2(g, grad - exact) < 1e-11
    assert np.abs(g.ops.Dmat @ grad).max() < 1e-10
    assert np.abs(g.ops.CiT @ grad).max() < 1e-12


def test_trig_harmonic_convergence_order():
    import math
    k = 2 * np.pi
    errs = []
    for n in (16, 32, 64):
        g = build_grid(n, n, 1.0, 1.0)
        a = np.zeros(g.n_boundary)
        xb = (np.arange(g.nx) + 0.5) * g.hx
        a[g.wall_slice(2)] = k * np.cos(k * xb[::-1]) * math.sinh(k)
        _, grad = solve_neumann_lifting(g, a)
        exact = sample_faces(
            g, lambda X, Y: -k * np.sin(k * X) * np.cosh(k * Y),
            lambda X, Y: k * np.cos(k * X) * np.sinh(k * Y))
        errs.append(face_l2(g, grad - exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


def test_cosine_loop_data_accepted_and_trace_exact():
    g = build_grid(12, 12, 1.0, 1.0)
    a = np.cos(2 * np.pi * g.boundary_s / g.loop_length)
    a -= (a @ g.boundary_weight) / g.loop_length
    assert abs(integrate_boundary(g, a)) < 1e-14
    _, grad = solve_neumann_lifting(g, a)
    assert np.abs(g.ops.Tn @ grad - a).max() < 1e-13


def test_incompatible_flux_rejected():
    g = build_grid(8, 8, 1.0, 1.0)
    with pytest.raises(IncompatibleFlux):
        solve_neumann_lifting(g, np.ones(g.n_boundary))


def test_linearity_and_time_lifting():
    g = build_grid(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(0)
    a1 = rng.standard_normal(g.n_boundary)
    a1 -= (a1 @ g.boundary_weight) / g.loop_length
    a2 = rng.standard_normal(g.n_boundary)
    a2 -= (a2 @ g.boundary_weight) / g.loop_length
    _, g1 = solve_neumann_lifting(g, a1)
    _, g2 = solve_neumann_lifting(g, a2)
    _, g12 = solve_neumann_lifting(g, 2.0 * a1 - 0.5 * a2)
    combo = 2.0 * g1 - 0.5 * g2
    assert np.abs(g12 - combo).max() < 1e-11

    grads = [grad for _, grad in time_lifting(g, [a1, 2.0 * a1, 3.0 * a1])]
    assert np.abs(grads[1] - 2.0 * grads[0]).max() < 1e-11
    # the lifting of a time difference quotient is the quotient of liftings
    dt = 0.1
    dq = (grads[1] - grads[0]) / dt
    _, direct = solve_neumann_lifting(g, (2.0 * a1 - a1) / dt)
    assert np.abs(dq - direct).max() < 1e-9


def test_time_lifting_constant_data_identical_slices():
    g = build_grid(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(1)
    a = rng.standard_normal(g.n_boundary)
    a -= (a @ g.boundary_weight) / g.loop_length
    (h0, grad0), (h1, grad1) = time_lifting(g, [a, a.copy()])
    assert np.array_equal(h0, h1)
    assert np.array_equal(grad0, grad1)


def test_gradient_of_constant_potential_is_divergence_free():
    g = build_grid(8, 8, 1.0, 1.0)
    grad_vec = g.ops.neumann()[0] @ np.full(g.nx * g.ny, 3.7)
    assert np.abs(grad_vec).max() == 0.0
    assert np.abs(g.ops.Dmat @ grad_vec).max() == 0.0


def test_time_lifting_error_carries_slice_index():
    g = build_grid(8, 8, 1.0, 1.0)
    good = np.zeros(g.n_boundary)
    with pytest.raises(IncompatibleFlux, match="slice 1"):
        time_lifting(g, [good, np.ones(g.n_boundary)])


def test_mean_zero_potential():
    g = build_grid(10, 6, 2.0, 1.0)
    rng = np.random.default_rng(4)
    a = rng.standard_normal(g.n_boundary)
    a -= (a @ g.boundary_weight) / g.loop_length
    h, _ = solve_neumann_lifting(g, a)
    assert abs(h.sum() * g.cell_area) < 1e-10
