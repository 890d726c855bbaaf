import numpy as np
import pytest

from slipctl.mesh import FLUX_TOL, TimeGrid, build_grid, integrate_boundary, net_flux_violation

from oracles import integrate_interior


def test_build_grid_spacings():
    g = build_grid(4, 4, 1.0, 1.0)
    assert g.hx == 0.25 and g.hy == 0.25
    assert g.n_boundary == 16
    assert len(g.boundary_s) == 16


def test_build_grid_rectangular_perimeter():
    g = build_grid(8, 4, 2.0, 1.0)
    assert g.hx == 0.25 and g.hy == 0.25
    assert g.loop_length == 6.0
    assert integrate_boundary(g, np.ones(g.n_boundary)) == pytest.approx(6.0)


def test_frames_right_handed():
    g = build_grid(4, 4, 1.0, 1.0)
    n = g.boundary_normal
    t = g.boundary_tangent
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
    assert np.allclose(np.linalg.norm(t, axis=1), 1.0)
    assert np.allclose(np.sum(n * t, axis=1), 0.0)
    # tau is n rotated by +90 degrees
    rot = np.column_stack([-n[:, 1], n[:, 0]])
    assert np.allclose(rot, t)


def test_right_wall_frame():
    g = build_grid(4, 4, 1.0, 1.0)
    sl = g.wall_slice(1)
    assert np.allclose(g.boundary_normal[sl], [1.0, 0.0])
    assert np.allclose(g.boundary_tangent[sl], [0.0, 1.0])


def test_boundary_s_is_increasing_and_closed():
    g = build_grid(5, 7, 2.0, 3.0)
    s = g.boundary_s
    assert np.all(np.diff(s) > 0)
    assert s[-1] < g.loop_length
    assert g.loop_length == pytest.approx(2 * (2.0 + 3.0))


def test_reject_bad_arguments():
    with pytest.raises(ValueError):
        build_grid(3, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(8, 8, -1.0, 1.0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)


def test_integrate_boundary_examples():
    g = build_grid(4, 4, 1.0, 1.0)
    assert integrate_boundary(g, np.ones(16)) == pytest.approx(4.0)
    assert integrate_boundary(g, np.zeros(16)) == 0.0
    # +1 on the right wall, -1 on the left wall
    f = np.zeros(16)
    f[g.wall_slice(1)] = 1.0
    f[g.wall_slice(3)] = -1.0
    assert integrate_boundary(g, f) == pytest.approx(0.0, abs=1e-15)


def test_integrate_boundary_linearity_and_orientation():
    g = build_grid(6, 5, 1.5, 0.7)
    rng = np.random.default_rng(0)
    f1 = rng.standard_normal(g.n_boundary)
    f2 = rng.standard_normal(g.n_boundary)
    lhs = integrate_boundary(g, 2.0 * f1 - 3.0 * f2)
    rhs = 2.0 * integrate_boundary(g, f1) - 3.0 * integrate_boundary(g, f2)
    assert lhs == pytest.approx(rhs, rel=1e-14)
    # traversing the loop the other way leaves the quadrature unchanged
    order = np.arange(g.n_boundary)[::-1]
    assert integrate_boundary(g, f1) == pytest.approx(
        float(np.dot(g.boundary_weight[order], f1[order])), rel=1e-14)


def test_integrate_boundary_of_a_block_has_the_bits_of_its_rows():
    """A (nt + 1, n_boundary) block integrates row by row with the bits of
    each row integrated alone and of the "i,ki->k" einsum."""
    g = build_grid(6, 5, 1.5, 0.7)
    a = np.random.default_rng(1).standard_normal((9, g.n_boundary))
    block = integrate_boundary(g, a)
    rows = [integrate_boundary(g, row) for row in a]
    assert all(type(r) is float for r in rows)
    assert block.shape == (9,)
    assert block.tobytes() == np.array(rows).tobytes()
    assert block.tobytes() == np.einsum("i,ki->k", g.boundary_weight, a).tobytes()
    assert integrate_boundary(g, a[:1]).shape == (1,)


def test_net_flux_violation_names_the_first_slice_and_its_signed_flux():
    """net_flux_violation returns the first slice whose net flux passes
    FLUX_TOL times max(1, max |a|) over the whole block, with that flux
    signed, and None where no slice does; one vector is slice 0."""
    g = build_grid(8, 4, 2.0, 1.0)
    a = np.zeros((5, g.n_boundary))
    assert net_flux_violation(g, a) is None
    a[3, 0] = -1.0                     # edge weight 0.25: flux -0.25
    a[4, 0] = 2.0
    assert net_flux_violation(g, a) == (3, -0.25)
    assert net_flux_violation(g, a[4]) == (0, 0.5)
    # a flux within the tolerance of the block's largest sample passes,
    # scaled by that sample, not by the slice's own
    a = np.zeros((2, g.n_boundary))
    a[0, 0] = 8e-10
    assert net_flux_violation(g, a) == (0, 0.25 * 8e-10)
    a[1, 1:3] = [1e3, -1e3]
    assert FLUX_TOL < 0.25 * 8e-10 <= FLUX_TOL * 1e3
    assert net_flux_violation(g, a) is None
    assert net_flux_violation(g, a[0]) == (0, 0.25 * 8e-10)


def test_integrate_interior_examples():
    g = build_grid(4, 4, 1.0, 1.0)
    assert integrate_interior(g, np.ones(g.shape_p)) == pytest.approx(1.0)
    g2 = build_grid(5, 4, 2.0, 0.5)
    assert integrate_interior(g2, 3.0 * np.ones(g2.shape_p)) == pytest.approx(3.0)
    # midpoint rule is exact for linear integrands
    X, _ = g.cell_centers()
    assert integrate_interior(g, X) == pytest.approx(0.5, rel=1e-14)


def test_integrate_shape_errors():
    g = build_grid(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_boundary(g, np.ones(7))
    with pytest.raises(ValueError):
        integrate_boundary(g, np.ones((3, 7)))
    with pytest.raises(ValueError):
        integrate_interior(g, np.ones((3, 3)))


def test_grid_operators_freed_by_reference_count(refining):
    """Grid and operators hold no cycle: with the collector off, dropping
    the last reference to a grid that has solved frees its operators."""
    import gc
    import weakref
    from slipctl.fields import BoundaryControl
    from slipctl.lifting import solve_neumann_lifting
    from slipctl.state_solver import StateProblem, solve_state
    gc.disable()
    try:
        grid = build_grid(8, 8, 1.0, 1.0)
        tg = TimeGrid(0.2, 2)
        solve_state(StateProblem(grid, tg, np.zeros(grid.ops.N), BoundaryControl(grid, tg)))
        solve_neumann_lifting(grid, np.zeros(grid.n_boundary))
        ops = weakref.ref(grid.ops)
        assert ops()._reference is not None
        del grid
        assert ops() is None
    finally:
        gc.enable()
