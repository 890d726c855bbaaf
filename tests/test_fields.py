import numpy as np
import pytest

from slipctl import fields
from slipctl.fields import (BoundaryControl, FrictionField, components,
                            face_l2, face_vector, h1_seminorm, hp_norm,
                            sample_faces, spatial_mean, strain_l2)
from slipctl.mesh import TimeGrid, build_grid

from oracles import strain_tensor


@pytest.fixture
def grid():
    return build_grid(8, 8, 1.0, 1.0)


def solenoidal_sample(grid, seed=0, kmax=3):
    rng = np.random.default_rng(seed)
    X, Y = grid.vertex_points()
    psi = np.zeros_like(X)
    for kx in range(1, kmax + 1):
        for ky in range(1, kmax + 1):
            psi += rng.normal() / (kx * kx + ky * ky) * \
                np.sin(np.pi * kx * X / grid.Lx) * np.sin(np.pi * ky * Y / grid.Ly)
    u = (psi[:, 1:] - psi[:, :-1]) / grid.hy
    v = -(psi[1:, :] - psi[:-1, :]) / grid.hx
    return face_vector(grid, u, v)


def test_face_vector_rejects_component_shapes(grid):
    u, v = np.zeros(grid.shape_u), np.zeros(grid.shape_v)
    with pytest.raises(ValueError, match="do not match"):
        face_vector(grid, v, v)
    with pytest.raises(ValueError, match="do not match"):
        face_vector(grid, u, u)
    with pytest.raises(ValueError, match="do not match"):
        face_vector(grid, u.ravel(), v.ravel())


def test_face_vector_of_components_is_the_vector(grid):
    rng = np.random.default_rng(4)
    y = rng.standard_normal(grid.ops.N)
    u, v = components(grid, y)
    assert u.shape == grid.shape_u and v.shape == grid.shape_v
    assert np.shares_memory(u, y) and np.shares_memory(v, y)
    back = face_vector(grid, *components(grid, y))
    assert back.dtype == y.dtype and np.array_equal(back, y)
    assert back.tobytes() == y.tobytes()


def test_divergence_constant_and_linear(grid):
    y = sample_faces(grid, lambda X, Y: 1.0 + 0 * X, lambda X, Y: 0 * X)
    assert np.abs(grid.ops.Dmat @ y).max() == 0.0
    y2 = sample_faces(grid, lambda X, Y: X, lambda X, Y: -Y)
    assert np.abs(grid.ops.Dmat @ y2).max() < 1e-14
    y3 = sample_faces(grid, lambda X, Y: X, lambda X, Y: 0 * X)
    assert np.allclose(grid.ops.Dmat @ y3, 1.0)


def test_strain_examples(grid):
    y = sample_faces(grid, lambda X, Y: 2.0 + 0 * X, lambda X, Y: 3.0 + 0 * X)
    d11, d22, d12 = strain_tensor(grid, y)
    assert np.abs(d11).max() == 0 and np.abs(d22).max() == 0 and np.abs(d12).max() == 0

    gamma = 1.8
    shear = sample_faces(grid, lambda X, Y: gamma * Y, lambda X, Y: 0 * X)
    d11, d22, d12 = strain_tensor(grid, shear)
    assert np.abs(d11).max() < 1e-14
    assert np.allclose(d12, gamma / 2)

    lin = sample_faces(grid, lambda X, Y: X, lambda X, Y: -Y)
    d11, d22, d12 = strain_tensor(grid, lin)
    assert np.allclose(d11, 1.0) and np.allclose(d22, -1.0)
    assert np.abs(d12).max() < 1e-13


def test_norms(grid):
    zero = np.zeros(grid.ops.N)
    assert face_l2(grid, zero) == 0.0
    const = sample_faces(grid, lambda X, Y: -2.0 + 0 * X, lambda X, Y: 0 * X)
    assert face_l2(grid, const) == pytest.approx(2.0, rel=1e-14)
    shear = sample_faces(grid, lambda X, Y: Y, lambda X, Y: 0 * X)
    assert strain_l2(grid, shear) ** 2 == pytest.approx(0.5, rel=1e-13)
    assert h1_seminorm(grid, shear) == pytest.approx(1.0, rel=1e-13)


def test_norm_homogeneity_and_triangle(grid):
    rng = np.random.default_rng(3)
    for _ in range(5):
        y1 = face_vector(grid, rng.standard_normal(grid.shape_u),
                         rng.standard_normal(grid.shape_v))
        y2 = face_vector(grid, rng.standard_normal(grid.shape_u),
                         rng.standard_normal(grid.shape_v))
        c = rng.normal()
        assert face_l2(grid, y1 * c) == pytest.approx(abs(c) * face_l2(grid, y1), rel=1e-12)
        assert face_l2(grid, y1 + y2) <= face_l2(grid, y1) + face_l2(grid, y2) + 1e-12


def test_traces(grid):
    ex = sample_faces(grid, lambda X, Y: 1.0 + 0 * X, lambda X, Y: 0 * X)
    tt = grid.ops.Ttau @ ex
    # tau follows the counterclockwise loop: +x on the bottom, -x on the top
    assert np.allclose(tt[grid.wall_slice(0)], 1.0)
    assert np.allclose(tt[grid.wall_slice(2)], -1.0)
    assert np.allclose(tt[grid.wall_slice(1)], 0.0)
    assert np.allclose(tt[grid.wall_slice(3)], 0.0)
    tn = grid.ops.Tn @ ex
    assert np.allclose(tn[grid.wall_slice(1)], 1.0)
    assert np.allclose(tn[grid.wall_slice(3)], -1.0)


def test_trace_linearity(grid):
    rng = np.random.default_rng(1)
    y1 = face_vector(grid, rng.standard_normal(grid.shape_u),
                     rng.standard_normal(grid.shape_v))
    y2 = face_vector(grid, rng.standard_normal(grid.shape_u),
                     rng.standard_normal(grid.shape_v))
    Ttau = grid.ops.Ttau
    lhs = Ttau @ (y1 + 2.0 * y2)
    rhs = Ttau @ y1 + 2.0 * (Ttau @ y2)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_spatial_mean(grid):
    assert np.allclose(spatial_mean(grid, np.zeros(grid.ops.N)), 0.0)
    const = sample_faces(grid, lambda X, Y: 1.0 + 0 * X, lambda X, Y: 2.0 + 0 * X)
    assert np.allclose(spatial_mean(grid, const), [1.0, 2.0])
    # solenoidal fields with zero wall flux integrate to zero exactly
    for seed in range(5):
        y = solenoidal_sample(grid, seed)
        assert np.abs(spatial_mean(grid, y)).max() < 1e-10 * max(1.0, face_l2(grid, y))


def test_hp_norm_examples(grid):
    tg = TimeGrid(1.0, 8)
    zero = BoundaryControl(grid, tg)
    assert hp_norm(zero) == 0.0
    b = np.ones((tg.nt + 1, grid.n_boundary))
    ctrl = BoundaryControl(grid, tg, b=b)
    assert hp_norm(ctrl) == pytest.approx(2.0, rel=1e-12)


def test_hp_norm_homogeneity(grid):
    tg = TimeGrid(0.7, 6)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((tg.nt + 1, grid.n_boundary))
    a -= (a @ grid.boundary_weight)[:, None] / grid.loop_length
    b = rng.standard_normal((tg.nt + 1, grid.n_boundary))
    ctrl = BoundaryControl(grid, tg, a, b)
    scaled = BoundaryControl(grid, tg, -2.5 * a, -2.5 * b)
    assert hp_norm(scaled) == pytest.approx(2.5 * hp_norm(ctrl), rel=1e-12)


def test_hp_norm_triangle_inequality(grid):
    tg = TimeGrid(0.6, 5)
    rng = np.random.default_rng(6)
    def sample():
        a = rng.standard_normal((tg.nt + 1, grid.n_boundary))
        a -= (a @ grid.boundary_weight)[:, None] / grid.loop_length
        b = rng.standard_normal((tg.nt + 1, grid.n_boundary))
        return BoundaryControl(grid, tg, a, b)
    for _ in range(4):
        c1, c2 = sample(), sample()
        c12 = BoundaryControl(grid, tg, c1.a + c2.a, c1.b + c2.b)
        assert hp_norm(c12) <= hp_norm(c1) + hp_norm(c2) + 1e-12


def test_hp_norm_definiteness(grid):
    tg = TimeGrid(1.0, 4)
    a = np.zeros((tg.nt + 1, grid.n_boundary))
    a[2, 5] = 1e-9
    a[2] -= (a[2] @ grid.boundary_weight) / grid.loop_length
    ctrl = BoundaryControl(grid, tg, a)
    assert hp_norm(ctrl) > 0.0


def _hp_norm_per_slice(control):
    """hp_norm evaluated one time slice at a time, with the full pairwise
    Gagliardo kernel and |x|^p taken directly."""
    grid, tg, p = control.grid, control.time_grid, control.p_exponent
    s, L, w = grid.boundary_s, grid.loop_length, grid.boundary_weight
    ds = np.abs(s[:, None] - s[None, :])
    d = np.minimum(ds, L - ds)
    np.fill_diagonal(d, 1.0)
    ker = (w[:, None] * w[None, :]) / d ** p
    np.fill_diagonal(ker, 0.0)
    F, mu, mult = grid.fourier_matrix()
    theta = np.full(tg.nt + 1, tg.dt)
    theta[[0, -1]] *= 0.5

    def wp(a):
        lp = np.dot(w, np.abs(a) ** p) ** (1.0 / p)
        return lp + float((ker * np.abs(a[:, None] - a[None, :]) ** p).sum()) ** (1.0 / p)

    def hminus_half(q):
        return np.sqrt((mult * mu * np.abs(F @ q) ** 2).sum() / L)

    a = control.a
    da = (a[1:] - a[:-1]) / tg.dt
    term1 = np.sqrt(sum(theta[k] * wp(a[k]) ** 2 for k in range(tg.nt + 1)))
    term2 = np.sqrt(sum(tg.dt * hminus_half(da[k]) ** 2 for k in range(tg.nt)))
    term3 = np.sqrt(np.dot(theta, (control.b ** 2) @ w))
    return term1 + term2 + term3


@pytest.mark.parametrize("p", [4.0, 3.0, 2.5])
@pytest.mark.parametrize("shape", [(8, 8, 1.0, 1.0, 8), (12, 6, 1.5, 0.8, 5)])
def test_hp_norm_matches_per_slice_oracle(p, shape):
    nx, ny, Lx, Ly, nt = shape
    grid = build_grid(nx, ny, Lx, Ly)
    tg = TimeGrid(0.6, nt)
    rng = np.random.default_rng(nx * ny + int(10 * p))
    for scale in (1e-3, 1.0, 40.0):
        a = scale * rng.standard_normal((tg.nt + 1, grid.n_boundary))
        a -= (a @ grid.boundary_weight)[:, None] / grid.loop_length
        b = scale * rng.standard_normal((tg.nt + 1, grid.n_boundary))
        ctrl = BoundaryControl(grid, tg, a, b, p_exponent=p)
        assert hp_norm(ctrl) == pytest.approx(_hp_norm_per_slice(ctrl), rel=1e-13)


def test_friction_positivity(grid):
    tg = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        FrictionField(grid, tg, np.zeros((tg.nt + 1, grid.n_boundary)))
    fr = FrictionField.constant(grid, tg, 2.0)
    assert fr.alpha.shape == (tg.nt + 1, grid.n_boundary)


def test_control_flux_check(grid):
    tg = TimeGrid(1.0, 4)
    a = np.ones((tg.nt + 1, grid.n_boundary))
    ctrl = BoundaryControl(grid, tg, a)
    from slipctl.errors import IncompatibleFlux
    with pytest.raises(IncompatibleFlux):
        ctrl.check_flux()


def test_snapshot_roundtrip(tmp_path, grid):
    rng = np.random.default_rng(8)
    y = face_vector(grid, rng.standard_normal(grid.shape_u),
                    rng.standard_normal(grid.shape_v))
    path = tmp_path / "y.snap"
    fields.write_snapshot(path, "velocity", grid, 0.25, [y])
    back, t = fields.read_payload(path, grid)
    assert t == 0.25
    assert np.array_equal(back, y)
    header, _ = fields.read_snapshot(path)
    assert header["kind"] == "velocity" and header["nx"] == grid.nx

    p = rng.standard_normal(grid.nx * grid.ny)
    ppath = tmp_path / "p.snap"
    fields.write_snapshot(ppath, "pressure", grid, 0.5, [p])
    pback, _ = fields.read_payload(ppath, grid)
    assert np.array_equal(pback, p)


def test_snapshots_rejected_on_a_transposed_grid(tmp_path):
    # an 8x4 snapshot has as many cells as a 4x8 grid, so only the header
    # check tells them apart
    wide, tall = build_grid(8, 4, 1.0, 1.0), build_grid(4, 8, 1.0, 1.0)
    fields.write_snapshot(tmp_path / "p.snap", "pressure", wide, 0.0, [np.ones(wide.nx * wide.ny)])
    fields.write_snapshot(tmp_path / "y.snap", "velocity", wide, 0.0, [np.zeros(wide.ops.N)])
    with pytest.raises(ValueError, match="does not match"):
        fields.read_payload(tmp_path / "p.snap", tall)
    with pytest.raises(ValueError, match="does not match"):
        fields.read_payload(tmp_path / "y.snap", tall)
