"""Discrete fields, norms and snapshots on the staggered grid.

A velocity is one face vector: u on the vertical faces then v on the
horizontal faces, each row-major, length ops.N.  A pressure is one cell
vector (row-major, length ncell), and boundary scalars sit at wall-edge
midpoints in loop order.  This module alone knows the u/v layout
(face_vector, sample_faces, components), and it is the one home of the
space quadrature that the cost, the gradient pairing, the energy identity
and the duality check share with the adjoint: dot, slice_sum, sup_face_l2
and dissipation, each one np.einsum in numpy's own loops, whose bits,
unlike a BLAS dot's of over ~10,000 entries, do not depend on the thread
count; boundary integrals, zero_mean's and the control checks' included,
are mesh.integrate_boundary's, one such einsum.  The time rule is
mesh.TimeGrid's, which also weighs dissipation's sum.
The divergence and curl are the solver's own matrices, ops.Dmat and
ops.CiT.  Sparse products, hp_norm's Fourier product (one thread's dot
per entry), SuperLU and LAPACK use BLAS.
"""

import json

import numpy as np

from .errors import IncompatibleFlux
from .mesh import Grid, integrate_boundary, net_flux_violation

DEFAULT_ALPHA_MIN = 1e-3
# hp_norm forms the Gagliardo pair differences for blocks of time slices of
# about this many entries (32 KiB): one array for all slices (530 KiB at
# 16x16, nt = 32) raised the peak RSS of four in-process solve, optimize and
# grad-check passes by 1.6 MB
_GAGLIARDO_BLOCK = 4096


def face_vector(grid, u, v):
    """Face vector (u then v, row-major) of components u of shape (nx+1, ny)
    and v of shape (nx, ny+1)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != grid.shape_u or v.shape != grid.shape_v:
        raise ValueError("velocity component shapes %r, %r do not match grid %r"
                         % (u.shape, v.shape, grid))
    return np.concatenate([u.ravel(), v.ravel()])


def sample_faces(grid, fu, fv):
    """Face vector of callables fu(x, y), fv(x, y) sampled at the staggered points."""
    return face_vector(grid, fu(*grid.u_points()), fv(*grid.v_points()))


def components(grid, y):
    """Views u of shape (nx+1, ny) and v of shape (nx, ny+1) of a face vector."""
    nu = (grid.nx + 1) * grid.ny
    return y[:nu].reshape(grid.shape_u), y[nu:].reshape(grid.shape_v)


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

    def check_flux(self):
        if net_flux_violation(self.grid, self.a) is not None:
            res = np.abs(integrate_boundary(self.grid, self.a)).max()
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
    step (row k-1 belongs to step k).

    steps is the operators.StepStore of the sweep that solved y, or None:
    the tangent and adjoint sweeps around y read its steps in place instead
    of making them.  solve_state fills one only when its caller passes one,
    and GradientEngine.gradient drops it after its adjoint sweep; a
    trajectory built from arrays, or read back from disk, has none, and
    its sweeps make every step.
    """

    def __init__(self, grid, time_grid, y, p, config_hash="", steps=None):
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
        self.steps = steps


# ---------------------------------------------------------------------------
# space-time quadrature


def dot(x, y):
    """x . y of two vectors, without BLAS."""
    return float(np.einsum("i,i->", x, y))


def slice_sum(w, x, y):
    """sum over every row k and entry i of w[i] x[k, i] y[k, i]."""
    return float(np.einsum("i,ki,ki->", w, x, y))


def sup_face_l2(grid, y):
    """max over the rows y[k] of face_l2(grid, y[k])."""
    return float(np.sqrt(np.einsum("i,ki,ki->k", grid.ops.Wvec, y, y).max()))


def dissipation(grid, time_grid, y, alpha, strain=1.0):
    """time_grid.weigh of the sum over the rows k of y and alpha of
    strain * y_k . A_strain y_k + sum_e w_e alpha[k, e] (Ttau y_k)_e^2."""
    ops = grid.ops
    t = (ops.Ttau @ y.T).T
    return time_grid.weigh(strain * float(np.einsum("ki,ki->", y, (ops.A_strain @ y.T).T))
                           + float(np.einsum("i,ki,ki,ki->", ops.w_gamma, alpha, t, t)))


def zero_mean(grid, a):
    """Boundary rows a less their boundary mean, row by row."""
    return a - integrate_boundary(grid, a)[:, None] / grid.loop_length


# ---------------------------------------------------------------------------
# norms


def face_l2(grid, vec):
    """Quadrature-weighted L2 norm of a face vector (u then v)."""
    return float(np.sqrt(np.einsum("i,i,i->", grid.ops.Wvec, vec, vec)))


def h1_seminorm(grid, y):
    """Discrete ||grad y||_{L2} with the staggered gradient samples."""
    ops = grid.ops
    acc = dot(ops.w_cell, (ops.Gxu_cell @ y) ** 2)
    acc += dot(ops.w_cell, (ops.Gyv_cell @ y) ** 2)
    acc += dot(ops.w_vert, (ops.Gyu_vert @ y) ** 2)
    acc += dot(ops.w_vert, (ops.Gxv_vert @ y) ** 2)
    return float(np.sqrt(acc))


def strain_l2(grid, y):
    """||D(y)||_{L2}: Frobenius norm of the strain with vertex quadrature."""
    return float(np.sqrt(0.5 * dot(y, grid.ops.A_strain @ y)))


def spatial_mean(grid, y):
    """Component-wise interior integral of the velocity."""
    nu = (grid.nx + 1) * grid.ny
    w = grid.ops.Wvec
    return np.array([dot(w[:nu], y[:nu]), dot(w[nu:], y[nu:])])


# ---------------------------------------------------------------------------
# control norm


def hp_norm(control: BoundaryControl):
    """Discrete control norm: three-term sum mirroring the admissible space.

    Its time quadrature (trapezoid weights, forward differences of a) is
    the norm's own, part of the admissible set, not the time scheme's.

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

    lp = integrate_boundary(grid, (a * a) ** (0.5 * p)) ** (1.0 / p)
    i, j, ker2 = grid.gagliardo_pairs(p)
    semi = np.empty(a.shape[0])
    rows = max(1, _GAGLIARDO_BLOCK // i.size)
    for k in range(0, a.shape[0], rows):
        d = np.take(a[k:k + rows], i, axis=1)
        d -= np.take(a[k:k + rows], j, axis=1)
        d *= d
        d **= 0.5 * p
        semi[k:k + rows] = np.einsum("ki,i->k", d, ker2)
    semi **= 1.0 / p
    term1 = np.sqrt(dot(theta, (lp + semi) ** 2))

    F, mu, mult = grid.fourier_matrix()
    c = ((a[1:] - a[:-1]) / dt) @ F.T
    term2 = np.sqrt(dt * np.einsum("ki,i->", c.real ** 2 + c.imag ** 2, mult * mu)
                    / grid.loop_length)

    term3 = np.sqrt(np.einsum("k,ki,ki,i->", theta, control.b, control.b, grid.boundary_weight))
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


def save_boundary_table(path, column, times, s, values):
    """CSV with header t,s,<column> and one %.17g row per (time, boundary node)."""
    with open(path, "w") as fh:
        fh.write("t,s,%s\n" % column)
        for t, row in zip(times, values):
            fh.write("".join("%.17g,%.17g,%.17g\n" % (t, se, v) for se, v in zip(s, row)))
