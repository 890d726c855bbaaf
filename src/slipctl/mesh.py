"""Rectangular domain, MAC staggered grid and boundary loop geometry.

The domain is the rectangle [0, Lx] x [0, Ly] split into nx x ny cells.
Velocity unknowns live on cell faces (u on vertical faces, v on horizontal
faces), pressure at cell centers.  The boundary is sampled at wall-edge
midpoints, ordered counterclockwise starting at the bottom-left edge, so
every boundary sample coincides with exactly one wall-normal velocity
unknown.  Walls are indexed 0=bottom, 1=right, 2=top, 3=left.
"""

import numpy as np

WALL_BOTTOM, WALL_RIGHT, WALL_TOP, WALL_LEFT = 0, 1, 2, 3
WALL_NAMES = ("bottom", "right", "top", "left")
# normal boundary data carries no net flux where the integral of every
# slice is within FLUX_TOL times max(1, max |a|) (net_flux_violation)
FLUX_TOL = 1e-10


class Grid:
    """Immutable staggered grid with a counterclockwise boundary loop.

    Boundary frame convention: n is the outward unit normal and tau is n
    rotated by +90 degrees, so (n, tau) is right-handed and tau follows the
    counterclockwise loop direction.
    """

    def __init__(self, nx, ny, Lx, Ly):
        if nx < 4 or ny < 4:
            raise ValueError("cell counts must be at least 4, got %r" % ((nx, ny),))
        if Lx <= 0 or Ly <= 0:
            raise ValueError("domain lengths must be positive, got %r" % ((Lx, Ly),))
        self.nx = int(nx)
        self.ny = int(ny)
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.hx = self.Lx / self.nx
        self.hy = self.Ly / self.ny
        self.n_boundary = 2 * (self.nx + self.ny)
        self._build_loop()
        self._ops = None
        self._gagliardo = {}
        self._fourier = None

    def _build_loop(self):
        nx, ny, hx, hy = self.nx, self.ny, self.hx, self.hy
        Lx, Ly = self.Lx, self.Ly
        # per wall, in loop order: wall-local cell index of each node, edge
        # length, arc length at the wall's start, outward normal
        walls = ((np.arange(nx), hx, 0.0, (0.0, -1.0)),               # bottom, left to right
                 (np.arange(ny), hy, Lx, (1.0, 0.0)),                  # right, bottom to top
                 (np.arange(nx)[::-1], hx, Lx + Ly, (0.0, 1.0)),       # top, right to left
                 (np.arange(ny)[::-1], hy, 2 * Lx + Ly, (-1.0, 0.0)))  # left, top to bottom
        self.boundary_normal = np.concatenate(
            [np.tile(w[3], (w[0].size, 1)) for w in walls])
        # tau = n rotated by +90 degrees
        self.boundary_tangent = np.column_stack(
            [-self.boundary_normal[:, 1], self.boundary_normal[:, 0]])
        self.boundary_s = np.concatenate(
            [start + (np.arange(idx.size) + 0.5) * h for idx, h, start, _ in walls])
        self.boundary_wall_index = np.concatenate([w[0] for w in walls])
        self.boundary_weight = np.concatenate([np.full(w[0].size, w[1]) for w in walls])
        self.loop_length = 2.0 * (self.Lx + self.Ly)

    def wall_slice(self, wall):
        """Index range of a wall's nodes inside the loop ordering."""
        nx, ny = self.nx, self.ny
        starts = (0, nx, nx + ny, 2 * nx + ny)
        sizes = (nx, ny, nx, ny)
        return slice(starts[wall], starts[wall] + sizes[wall])

    @property
    def shape_u(self):
        return (self.nx + 1, self.ny)

    @property
    def shape_v(self):
        return (self.nx, self.ny + 1)

    @property
    def shape_p(self):
        return (self.nx, self.ny)

    @property
    def cell_area(self):
        return self.hx * self.hy

    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def u_points(self):
        x = np.arange(self.nx + 1) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def v_points(self):
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    def vertex_points(self):
        x = np.arange(self.nx + 1) * self.hx
        y = np.arange(self.ny + 1) * self.hy
        return np.meshgrid(x, y, indexing="ij")

    @property
    def ops(self):
        """Lazily built discrete operators shared by all solvers."""
        if self._ops is None:
            from . import operators
            self._ops = operators.DiscreteOperators(self)
        return self._ops

    def gagliardo_pairs(self, p):
        """Node pairs e < e' and the doubled kernel 2 w_e w_e' / d(e,e')^p with
        geodesic loop distance d (cached): the symmetric double sum of the
        Gagliardo seminorm taken over the upper triangle."""
        if p not in self._gagliardo:
            i, j = np.triu_indices(self.n_boundary, 1)
            s, L, w = self.boundary_s, self.loop_length, self.boundary_weight
            ds = np.abs(s[i] - s[j])
            d = np.minimum(ds, L - ds)
            self._gagliardo[p] = (i, j, 2.0 * (w[i] * w[j]) / d ** p)
        return self._gagliardo[p]

    def fourier_matrix(self):
        """Quadrature DFT onto loop modes exp(2 pi i k s / L), k = 0..n//2 (cached)."""
        if self._fourier is None:
            kmax = self.n_boundary // 2
            k = np.arange(kmax + 1)
            F = (np.exp(-2j * np.pi * np.outer(k, self.boundary_s) / self.loop_length)
                 * self.boundary_weight[None, :])
            mu = (1.0 + k) ** (-0.5)
            mult = np.full(kmax + 1, 2.0)
            mult[0] = 1.0
            self._fourier = (F, mu, mult)
        return self._fourier

    def key(self):
        return (self.nx, self.ny, self.Lx, self.Ly)

    def __repr__(self):
        return "Grid(nx=%d, ny=%d, Lx=%g, Ly=%g)" % (self.nx, self.ny, self.Lx, self.Ly)


class TimeGrid:
    """Uniform partition of [0, T] into nt steps, and the one home of the
    time scheme, backward Euler with the rectangle rule over the slices
    1..nt: a step's explicit part and its transpose, the time rule and its
    weights, and the energy identity's time terms.  operators takes dt only
    as the implicit step's length; hp_norm's time quadrature is its own."""

    def __init__(self, T, nt):
        if nt < 1:
            raise ValueError("nt must be at least 1")
        if T <= 0:
            raise ValueError("T must be positive")
        self.T = float(T)
        self.nt = int(nt)
        self.dt = self.T / self.nt

    def times(self):
        return np.linspace(0.0, self.T, self.nt + 1)

    def explicit(self, W, y):
        """W y / dt, a step's explicit part from the previous slice (or
        slices) y; W is diagonal, so this is its transpose too."""
        return W * y / self.dt

    def weigh(self, x):
        """dt x: x times the time rule's weight of a slice."""
        return self.dt * x

    def density(self, x, w=1.0, out=None):
        """x / (dt w), into out if given: x per unit time and weight w."""
        return np.divide(x, self.dt * w, out=out)

    def time_sum(self, w, x, y):
        """The time rule: dt times slice_sum over the slices k = 1..nt."""
        from .fields import slice_sum
        return self.weigh(slice_sum(w, x[1:], y[1:]))

    def energy_terms(self, W, y, yo):
        """A step's kinetic increment and numerical dissipation from y, yo."""
        from .fields import dot
        return {"kinetic_increment": (dot(W, y * y) - dot(W, yo * yo)) / (2 * self.dt),
                "numerical_dissipation": dot(W, (y - yo) ** 2) / (2 * self.dt)}

    def __repr__(self):
        return "TimeGrid(T=%g, nt=%d)" % (self.T, self.nt)


def build_grid(nx, ny, Lx, Ly):
    return Grid(nx, ny, Lx, Ly)


def integrate_boundary(grid, f):
    """Quadrature of boundary samples over the closed loop: the midpoint rule
    per wall edge, exact for data constant on each edge.

    f is one sample vector, whose integral is returned as a float, or a
    block whose last axis holds the samples, one integral per row.  The sum
    is one np.einsum in numpy's own loops, not a BLAS dot, so its bits do
    not depend on the thread count, and each row of a block is summed with
    the bits of that row alone.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.n_boundary,):
        raise ValueError(
            "expected %d boundary samples, got shape %r" % (grid.n_boundary, f.shape))
    out = np.einsum("i,...i->...", grid.boundary_weight, f)
    return float(out) if out.ndim == 0 else out


def net_flux_violation(grid, a):
    """The first slice of the normal data a whose net flux is not zero, and
    that flux, signed, as (slice, flux); None if every slice carries none.

    a is one sample vector (slice 0) or a block, a slice per row.  The
    flux of each slice is integrate_boundary's, and it is zero within
    FLUX_TOL times max(1, max |a|), the largest sample of the whole of a.
    """
    a = np.asarray(a, dtype=float)
    flux = np.atleast_1d(integrate_boundary(grid, a))
    bad = np.flatnonzero(np.abs(flux) > FLUX_TOL * max(1.0, float(np.abs(a).max())))
    return (int(bad[0]), float(flux[bad[0]])) if bad.size else None
