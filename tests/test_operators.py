"""Structural identities of the assembled operators.

These are the load-bearing properties: symmetry of the viscous form, exact
skew-reduction of the advection quadratic form, the advection cross
identity, and the wall telescoping that makes linear shear profiles exact.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from slipctl.fields import VelocityField
from slipctl.mesh import build_grid
from slipctl.state_solver import shear_oracle
from slipctl.mesh import TimeGrid


@pytest.fixture
def grid():
    return build_grid(7, 5, 1.2, 0.8)


def test_strain_form_symmetric_psd(grid):
    ops = grid.ops
    A = ops.A_strain
    assert abs(A - A.T).max() == 0.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(ops.N)
        assert x @ (A @ x) >= -1e-12


def test_divergence_matrix_matches_field_op(grid):
    ops = grid.ops
    rng = np.random.default_rng(1)
    y = VelocityField(grid, rng.standard_normal(grid.shape_u),
                      rng.standard_normal(grid.shape_v))
    from slipctl.fields import divergence
    assert np.allclose((ops.Dmat @ y.to_vec()).reshape(grid.shape_p), divergence(y))


def test_normal_trace_roundtrip(grid):
    ops = grid.ops
    rng = np.random.default_rng(2)
    a = rng.standard_normal(grid.n_boundary)
    assert np.allclose(ops.Tn @ (ops.Mbc @ a), a)


def _advection_part(ops, w, dt=0.05, nu=1.0, alpha=1.3):
    """Advection part K(w) of the step operator."""
    a = np.full(ops.grid.n_boundary, alpha)
    return ops.step_matrix(dt, nu, a, w) - ops.step_matrix(dt, nu, a, np.zeros(ops.N))


def _step_matrix_oracle(ops, dt, nu, alpha_nodes, w_vec):
    """Term-by-term sp.diags assembly of the step operator, the reference."""
    wx = ops.Px @ w_vec
    wy = ops.Py @ w_vec
    Nmat = sp.diags(ops.Wvec * wx) @ ops.Gx + sp.diags(ops.Wvec * wy) @ ops.Gy
    wn = ops.Tn @ w_vec
    S_n = ops.Tn.T @ sp.diags(0.5 * ops.w_gamma * wn) @ ops.Tn
    return (sp.diags(ops.Wvec / dt) + nu * ops.A_strain
            + ops.fric_matrix(alpha_nodes + 0.5 * wn) + S_n
            + 0.5 * (Nmat - Nmat.T)).tocsr()


def _same_arrays(a, b, fmt):
    a, b = a.asformat(fmt), b.asformat(fmt)
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("indptr", "indices", "data"))


def test_step_matrix_matches_term_by_term_oracle():
    """The affine data map reproduces the sp.diags assembly on a fixed
    pattern, and StepSolver's gathered blocks equal the sliced ones."""
    from slipctl.operators import StepSolver
    grid = build_grid(7, 9, 1.2, 0.8)
    ops = grid.ops
    rng = np.random.default_rng(11)
    F, C = ops.free_idx, ops.cons_idx
    for w in (rng.standard_normal(ops.N), np.zeros(ops.N)):
        alpha = rng.uniform(0.2, 2.0, grid.n_boundary)
        L = ops.step_matrix(0.05, 0.7, alpha, w)
        ref = _step_matrix_oracle(ops, 0.05, 0.7, alpha, w)
        assert abs(L - ref).max() <= 1e-14 * abs(ref).max()
        # the pattern does not depend on the data; at w = 0 it holds zeros
        assert np.array_equal(L.indptr, ops.step_indptr)
        assert np.array_equal(L.indices, ops.step_indices)

        step = StepSolver(ops, 0.05, 0.7, alpha, w)
        LF = L[F]
        Df = ops.Dmat[:, F]
        Gf = (-grid.cell_area) * Df.T
        big = sp.bmat([[LF[:, F], Gf[:, 1:]], [Df[1:], None]], format="csc")
        big.sort_indices()
        assert _same_arrays(step._big, big, "csc")
        assert _same_arrays(step.M_fc, LF[:, C], "csr")


def test_advection_cross_identity(grid):
    ops = grid.ops
    rng = np.random.default_rng(3)
    for _ in range(4):
        w = rng.standard_normal(ops.N)
        y = rng.standard_normal(ops.N)
        K = _advection_part(ops, w)
        assert np.abs(K @ y - ops.apply_adv_cross(y, w)).max() < 1e-13
        lam = rng.standard_normal(ops.N)
        assert abs(ops.apply_adv_cross(y, w) @ lam
                   - w @ ops.apply_adv_cross_T(y, lam)) < 1e-13


def test_advection_energy_reduces_to_boundary_flux(grid):
    ops = grid.ops
    rng = np.random.default_rng(4)
    for _ in range(4):
        w = rng.standard_normal(ops.N)
        y = rng.standard_normal(ops.N)
        K = _advection_part(ops, w)
        an = ops.w_gamma * (ops.Tn @ w)
        flux = 0.5 * an @ ((ops.Tn @ y) ** 2 + (ops.Ttau @ y) ** 2)
        assert abs(y @ (K @ y) - flux) < 1e-10


def test_shear_profile_is_exact_steady_state(grid):
    """The wall stencils telescope so the slip-consistent linear profile
    annihilates the steady residual at every free unknown."""
    tg = TimeGrid(1.0, 2)
    alpha = 1.3
    y, ctrl, fric = shear_oracle(grid, tg, c1=0.37, c2=2.1, alpha_value=alpha)
    ops = grid.ops
    yv = y.to_vec()
    resid = (ops.step_matrix(tg.dt, 1.0, fric.alpha[0], yv) @ yv
             - ops.Wvec * yv / tg.dt - ops.b_load(ctrl.b[0]))
    assert np.abs(resid[ops.free_idx]).max() < 1e-12


def _one_sided_pad(diff):
    """Extend centered differences to the walls by copying the nearest row."""
    return np.concatenate([diff[:1], diff, diff[-1:]], axis=0)


def test_strain_matrices_match_hand_stencils(grid):
    """Independent slicing-based evaluation of every strain sample."""
    rng = np.random.default_rng(9)
    from slipctl.fields import VelocityField, strain_tensor
    y = VelocityField(grid, rng.standard_normal(grid.shape_u),
                      rng.standard_normal(grid.shape_v))
    d11, d22, d12 = strain_tensor(y)
    hx, hy = grid.hx, grid.hy
    u, v = y.u, y.v
    assert np.allclose(d11, (u[1:, :] - u[:-1, :]) / hx)
    assert np.allclose(d22, (v[:, 1:] - v[:, :-1]) / hy)
    # vertex samples: centered inside, nearest-stencil copies on the walls
    dyu = _one_sided_pad(((u[:, 1:] - u[:, :-1]) / hy).T).T
    dxv = _one_sided_pad((v[1:, :] - v[:-1, :]) / hx)
    assert np.allclose(d12, 0.5 * (dyu + dxv))


def _node_average(c, axis):
    """Cell values to nodes along axis: neighbour mean, nearest value at the ends."""
    c = np.moveaxis(c, axis, 0)
    mid = 0.5 * (c[1:] + c[:-1])
    return np.moveaxis(np.concatenate([c[:1], mid, c[-1:]], axis=0), 0, axis)


def test_advection_stencils_match_hand_stencils(grid):
    """Independent slicing-based evaluation of Gx, Gy, Px and Py."""
    ops = grid.ops
    rng = np.random.default_rng(10)
    y = VelocityField(grid, rng.standard_normal(grid.shape_u),
                      rng.standard_normal(grid.shape_v))
    u, v = y.u, y.v
    yv = y.to_vec()
    hx, hy = grid.hx, grid.hy
    # centred differences, one-sided at the ends
    for G, h, axis in ((ops.Gx, hx, 0), (ops.Gy, hy, 1)):
        got = VelocityField.from_vec(grid, G @ yv)
        assert np.allclose(got.u, np.gradient(u, h, axis=axis))
        assert np.allclose(got.v, np.gradient(v, h, axis=axis))
    px = VelocityField.from_vec(grid, ops.Px @ yv)
    assert np.array_equal(px.u, u)
    assert np.allclose(px.v, _node_average(0.5 * (u[1:, :] + u[:-1, :]), 1))
    py = VelocityField.from_vec(grid, ops.Py @ yv)
    assert np.array_equal(py.v, v)
    assert np.allclose(py.u, _node_average(0.5 * (v[:, 1:] + v[:, :-1]), 0))


def test_quadrature_weights_integrate_constants(grid):
    ops = grid.ops
    ones_u = VelocityField(grid, np.ones(grid.shape_u), np.zeros(grid.shape_v))
    area = grid.Lx * grid.Ly
    assert np.dot(ops.Wvec, ones_u.to_vec() ** 2) == pytest.approx(area, rel=1e-14)
    assert ops.w_cell.sum() == pytest.approx(area, rel=1e-14)
    assert ops.w_vert.sum() == pytest.approx(area, rel=1e-14)


def test_step_solver_residual_guard(grid, monkeypatch):
    ops = grid.ops
    rng = np.random.default_rng(5)
    from slipctl import operators
    from slipctl.errors import SolverDivergence
    step = operators.StepSolver(ops, 0.05, 1.0, np.ones(grid.n_boundary),
                                rng.standard_normal(ops.N))
    a = rng.standard_normal(grid.n_boundary)
    a -= (a @ grid.boundary_weight) / grid.loop_length
    rhs = rng.standard_normal(ops.N)
    y, p = step.solve(rhs, a)
    assert np.abs(ops.Tn @ y - a).max() < 1e-13
    assert np.abs(ops.Dmat @ y).max() < 1e-9
    assert abs((ops.Dmat @ y)[0]) < 1e-9          # the pinned cell's dropped row
    assert abs(p.sum() * grid.cell_area) < 1e-9

    F = ops.free_idx
    lam, q = step.solve_transpose(rng.standard_normal(F.size))
    assert np.all(lam[ops.cons_idx] == 0.0)
    assert np.abs(ops.Dmat[:, F] @ lam[F]).max() <= 1e-9
    assert abs(q.sum()) < 1e-9

    monkeypatch.setattr(operators, "LINEAR_RESIDUAL_TOL", -1.0)
    with pytest.raises(SolverDivergence, match="linear step residual"):
        step.solve(rhs, a)
    with pytest.raises(SolverDivergence, match="adjoint step residual"):
        step.solve_transpose(rng.standard_normal(F.size))


def test_step_saddle_stays_sparse_at_128():
    """No dense row or column in the step matrix, and bounded LU fill."""
    from slipctl.operators import StepSolver
    grid = build_grid(128, 128, 1.0, 1.0)
    ops = grid.ops
    rng = np.random.default_rng(9)
    step = StepSolver(ops, 0.05, 1.0, np.ones(grid.n_boundary),
                      rng.standard_normal(ops.N))
    big = step._big.tocsc()
    assert big.shape == (ops.free_idx.size + ops.ncell - 1,) * 2
    assert np.diff(big.indptr).max() <= 16
    assert np.bincount(big.indices, minlength=big.shape[0]).max() <= 16
    assert step.lu.L.nnz + step.lu.U.nnz < 10_000_000
