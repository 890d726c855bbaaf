"""Discrete fields, norms and traces on the staggered grid.

Velocity components sit at face midpoints (u on vertical faces, v on
horizontal faces), pressures at cell centers, boundary scalars at wall-edge
midpoints in loop order.  All quadratures here are the same ones used
inside the solvers, so energy identities close to round-off.
"""

import json

import numpy as np

from .errors import IncompatibleFlux
from .mesh import Grid

DEFAULT_ALPHA_MIN = 1e-3
# hp_norm forms the Gagliardo pair differences for blocks of time slices of
# about this many entries (32 KiB): one array for all slices (530 KiB at
# 16x16, nt = 32) raised the peak RSS of four in-process solve, optimize and
# grad-check passes by 1.6 MB
_GAGLIARDO_BLOCK = 4096


class VelocityField:
    """Staggered velocity: u of shape (nx+1, ny), v of shape (nx, ny+1)."""

    def __init__(self, grid, u=None, v=None):
        self.grid = grid
        self.u = np.zeros(grid.shape_u) if u is None else np.asarray(u, dtype=float)
        self.v = np.zeros(grid.shape_v) if v is None else np.asarray(v, dtype=float)
        if self.u.shape != grid.shape_u or self.v.shape != grid.shape_v:
            raise ValueError("velocity component shapes %r, %r do not match grid %r"
                             % (self.u.shape, self.v.shape, grid))

    def to_vec(self):
        return np.concatenate([self.u.ravel(), self.v.ravel()])

    @classmethod
    def from_vec(cls, grid, vec):
        nu = (grid.nx + 1) * grid.ny
        u = vec[:nu].reshape(grid.shape_u)
        v = vec[nu:].reshape(grid.shape_v)
        return cls(grid, u.copy(), v.copy())

    @classmethod
    def from_functions(cls, grid, fu, fv):
        """Sample callables fu(x, y), fv(x, y) at the staggered points."""
        xu, yu = grid.u_points()
        xv, yv = grid.v_points()
        return cls(grid, fu(xu, yu), fv(xv, yv))


class PressureField:
    """Cell-centered scalar q of shape (nx, ny)."""

    def __init__(self, grid, q=None):
        self.grid = grid
        self.q = np.zeros(grid.shape_p) if q is None else np.asarray(q, dtype=float)
        if self.q.shape != grid.shape_p:
            raise ValueError("pressure shape %r does not match grid" % (self.q.shape,))


class BoundaryControl:
    """Time-indexed boundary pair (a, b) with admissible-set metadata.

    a and b have shape (nt+1, n_boundary); a must have zero boundary mean on
    every time slice.  radius is the admissible-set bound on hp_norm.
    """

    def __init__(self, grid, time_grid, a=None, b=None, p_exponent=4.0, radius=1e6):
        nslice = time_grid.nt + 1
        self.grid = grid
        self.time_grid = time_grid
        self.a = np.zeros((nslice, grid.n_boundary)) if a is None else np.asarray(a, dtype=float)
        self.b = np.zeros((nslice, grid.n_boundary)) if b is None else np.asarray(b, dtype=float)
        if self.a.shape != (nslice, grid.n_boundary) or self.b.shape != (nslice, grid.n_boundary):
            raise ValueError("control arrays must have shape (nt+1, n_boundary)")
        if not (p_exponent > 2.0):
            raise ValueError("p_exponent must exceed 2")
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.p_exponent = float(p_exponent)
        self.radius = float(radius)

    def copy(self):
        return BoundaryControl(self.grid, self.time_grid, self.a.copy(), self.b.copy(),
                               self.p_exponent, self.radius)

    def flux_residuals(self):
        """Net boundary flux of a per time slice (all must vanish)."""
        return self.a @ self.grid.boundary_weight

    def check_flux(self, tol=1e-10):
        res = np.abs(self.flux_residuals()).max()
        scale = max(1.0, np.abs(self.a).max())
        if res > tol * scale:
            raise IncompatibleFlux(
                "normal control violates the zero net flux condition: max |flux| = %.3e" % res)


class FrictionField:
    """Time-indexed boundary friction coefficient, strictly positive."""

    def __init__(self, grid, time_grid, alpha=None, alpha_min=DEFAULT_ALPHA_MIN):
        nslice = time_grid.nt + 1
        if alpha is None:
            alpha = np.ones((nslice, grid.n_boundary))
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape == (grid.n_boundary,):
            alpha = np.tile(alpha, (nslice, 1))
        if alpha.shape != (nslice, grid.n_boundary):
            raise ValueError("alpha must have shape (nt+1, n_boundary)")
        if alpha.min() < alpha_min:
            raise ValueError("friction coefficient below alpha_min=%g" % alpha_min)
        self.grid = grid
        self.time_grid = time_grid
        self.alpha = alpha
        self.alpha_min = alpha_min

    @classmethod
    def constant(cls, grid, time_grid, value=1.0):
        return cls(grid, time_grid, value * np.ones((time_grid.nt + 1, grid.n_boundary)))


class StateTrajectory:
    """Full space-time storage of the state: y of shape (nt+1, N) holds the
    face vectors of every slice, p of shape (nt, ncell) the pressure of every
    step (row k-1 belongs to step k)."""

    def __init__(self, grid, time_grid, y, p, config_hash=""):
        nt, ncell = time_grid.nt, grid.nx * grid.ny
        nface = (grid.nx + 1) * grid.ny + grid.nx * (grid.ny + 1)
        if np.shape(y) != (nt + 1, nface) or np.shape(p) != (nt, ncell):
            raise ValueError("trajectory shapes %r, %r do not match (%d, %d), (%d, %d)"
                             % (np.shape(y), np.shape(p), nt + 1, nface, nt, ncell))
        self.grid = grid
        self.time_grid = time_grid
        self.y = y
        self.p = p
        self.config_hash = config_hash


# ---------------------------------------------------------------------------
# differential operators and traces


def divergence(y: VelocityField):
    """MAC cell divergence (u_{i+1,j}-u_{i,j})/hx + (v_{i,j+1}-v_{i,j})/hy."""
    g = y.grid
    return (y.u[1:, :] - y.u[:-1, :]) / g.hx + (y.v[:, 1:] - y.v[:, :-1]) / g.hy


def face_l2(grid, vec):
    """Quadrature-weighted L2 norm of a face vector (u then v)."""
    return float(np.sqrt(np.dot(grid.ops.Wvec, vec * vec)))


def l2_norm(field, grid=None):
    """Quadrature-weighted L2 norm of a velocity, pressure or boundary field."""
    if isinstance(field, VelocityField):
        return face_l2(field.grid, field.to_vec())
    if isinstance(field, PressureField):
        return float(np.sqrt((field.q ** 2).sum() * field.grid.cell_area))
    # boundary scalar as plain array
    f = np.asarray(field, dtype=float)
    if grid is None:
        raise ValueError("boundary scalars need an explicit grid")
    return float(np.sqrt(np.dot(grid.boundary_weight, f * f)))


def h1_seminorm(y: VelocityField):
    """Discrete ||grad y||_{L2} with the staggered gradient samples."""
    ops = y.grid.ops
    vec = y.to_vec()
    acc = np.dot(ops.w_cell, (ops.Gxu_cell @ vec) ** 2)
    acc += np.dot(ops.w_cell, (ops.Gyv_cell @ vec) ** 2)
    acc += np.dot(ops.w_vert, (ops.Gyu_vert @ vec) ** 2)
    acc += np.dot(ops.w_vert, (ops.Gxv_vert @ vec) ** 2)
    return float(np.sqrt(acc))


def strain_l2(y: VelocityField):
    """||D(y)||_{L2}: Frobenius norm of the strain with vertex quadrature."""
    ops = y.grid.ops
    vec = y.to_vec()
    return float(np.sqrt(0.5 * np.dot(vec, ops.A_strain @ vec)))


def tangential_trace(y: VelocityField):
    """Wall-parallel velocity dotted with tau at the boundary nodes.

    Linear extrapolation of the parallel component onto the wall, averaged
    onto the edge midpoints; exact for profiles linear in the wall-normal
    coordinate.
    """
    return y.grid.ops.Ttau @ y.to_vec()


def normal_trace(y: VelocityField):
    """y·n at the boundary nodes (reads the wall face unknowns directly)."""
    return y.grid.ops.Tn @ y.to_vec()


def spatial_mean(y: VelocityField):
    """Component-wise interior integral of the velocity."""
    ops = y.grid.ops
    nu = (y.grid.nx + 1) * y.grid.ny
    vec = y.to_vec()
    wu = np.dot(ops.Wvec[:nu], vec[:nu])
    wv = np.dot(ops.Wvec[nu:], vec[nu:])
    return np.array([wu, wv])


# ---------------------------------------------------------------------------
# control norm


def hp_norm(control: BoundaryControl):
    """Discrete control norm: three-term sum mirroring the admissible space.

    term 1: time-L2 of the W_p^{1-1/p}(Gamma) surrogate of a: the L_p norm
            plus the Gagliardo seminorm.  For fractional order s = 1-1/p the
            Gagliardo exponent 1+sp collapses to p, so the double sum uses
            |a_e - a_e'|^p / d^p;
    term 2: time-L2 of the H^{-1/2}(Gamma) surrogate, spectrally weighted
            over the loop Fourier modes, of the forward difference quotient
            of a;
    term 3: space-time L2 norm of b.

    Each term is computed for many time slices at once, and |x|^p is taken
    as (x*x)^(p/2).  The Gagliardo double sum runs over the pairs e < e'
    with a doubled kernel (Grid.gagliardo_pairs).
    """
    grid, tg = control.grid, control.time_grid
    a = control.a
    if a.shape[0] < 2:
        raise ValueError("hp_norm needs at least two time slices of a")
    p = control.p_exponent
    dt = tg.dt
    theta = np.full(tg.nt + 1, dt)
    theta[0] *= 0.5
    theta[-1] *= 0.5

    lp = ((a * a) ** (0.5 * p) @ grid.boundary_weight) ** (1.0 / p)
    i, j, ker2 = grid.gagliardo_pairs(p)
    semi = np.empty(a.shape[0])
    rows = max(1, _GAGLIARDO_BLOCK // i.size)
    for k in range(0, a.shape[0], rows):
        d = np.take(a[k:k + rows], i, axis=1)
        d -= np.take(a[k:k + rows], j, axis=1)
        d *= d
        d **= 0.5 * p
        semi[k:k + rows] = d @ ker2
    semi **= 1.0 / p
    term1 = np.sqrt(np.dot(theta, (lp + semi) ** 2))

    F, mu, mult = grid.fourier_matrix()
    c = ((a[1:] - a[:-1]) / dt) @ F.T
    term2 = np.sqrt(dt * ((c.real ** 2 + c.imag ** 2) @ (mult * mu)).sum()
                    / grid.loop_length)

    bsq = (control.b ** 2) @ grid.boundary_weight
    term3 = np.sqrt(float(np.dot(theta, bsq)))
    return float(term1 + term2 + term3)


# ---------------------------------------------------------------------------
# snapshot format: one-line JSON header then raw little-endian float64


def write_snapshot(path, kind, grid, t, arrays):
    header = {"kind": kind, "nx": grid.nx, "ny": grid.ny,
              "Lx": grid.Lx, "Ly": grid.Ly, "t": float(t)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("ascii"))
        raw = np.frombuffer(fh.read(), dtype="<f8")
    return header, raw


def read_payload(path, grid: Grid):
    """Payload and time of a snapshot, which must have been written on grid's
    (nx, ny).  A velocity payload is the face vector (u then v, row-major),
    a pressure payload the cell values (row-major)."""
    header, raw = read_snapshot(path)
    if (header["nx"], header["ny"]) != (grid.nx, grid.ny):
        raise ValueError("snapshot grid %r does not match" % ((header["nx"], header["ny"]),))
    return raw, header["t"]


def save_velocity(path, y: VelocityField, t=0.0):
    write_snapshot(path, "velocity", y.grid, t, [y.u, y.v])


def load_velocity(path, grid: Grid):
    raw, t = read_payload(path, grid)
    return VelocityField.from_vec(grid, raw), t


def save_pressure(path, p: PressureField, t=0.0):
    write_snapshot(path, "pressure", p.grid, t, [p.q])


def load_pressure(path, grid: Grid):
    raw, t = read_payload(path, grid)
    return PressureField(grid, raw.reshape(grid.shape_p).copy()), t


def save_boundary_table(path, column, times, s, values):
    """CSV with header t,s,<column> and one %.17g row per (time, boundary node)."""
    with open(path, "w") as fh:
        fh.write("t,s,%s\n" % column)
        for t, row in zip(times, values):
            fh.write("".join("%.17g,%.17g,%.17g\n" % (t, se, v) for se, v in zip(s, row)))
