"""Assembled sparse operators for the staggered slip discretization.

Everything downstream (state, linearized and adjoint solves, energy
identities, duality pairings) is expressed through the matrices built here:

* the viscous-plus-friction operator is a symmetric quadrature form
  2 nu int D(y):D(psi) + int_Gamma alpha (y.tau)(psi.tau), so discrete
  energy balances hold by matrix symmetry, not by cancellation of
  truncation errors;
* advection is the skew-symmetrized form
  0.5[(w.grad y, psi) - (w.grad psi, y)] + 0.5 int_Gamma (w.n)(y.psi),
  whose quadratic form reduces exactly to the boundary flux term;
* the pressure gradient is minus the transpose of the cell divergence
  against the quadrature weights, so pressure work telescopes against the
  incompressibility constraint.

Wall-normal face velocities are constrained degrees of freedom, set
strongly from the normal boundary data.  One-sided stencils at the walls
are chosen so that the strain quadrature telescopes exactly to the
extrapolated boundary traces; this makes profiles linear in the
wall-normal coordinate exact steady states of the stepper.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverDivergence

LINEAR_RESIDUAL_TOL = 1e-9


class DiscreteOperators:
    """Per-grid operator cache; built once, shared read-only."""

    def __init__(self, grid):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        self.NU = (nx + 1) * ny
        self.NV = nx * (ny + 1)
        self.N = self.NU + self.NV
        self.ncell = nx * ny
        self.nvert = (nx + 1) * (ny + 1)
        self._build_indexing()
        self._build_weights()
        self._build_divergence()
        self._build_gradients()
        self._build_traces()
        self._build_advection_stencils()
        self.A_strain = self._assemble_strain_form()
        self._gagliardo = {}
        self._fourier = None

    # -- indexing ----------------------------------------------------------

    def _build_indexing(self):
        nx, ny = self.grid.nx, self.grid.ny
        self._iu = np.arange(self.NU).reshape(nx + 1, ny)
        self._iv = self.NU + np.arange(self.NV).reshape(nx, ny + 1)
        constrained = np.zeros(self.N, dtype=bool)
        constrained[self._iu[0, :]] = True
        constrained[self._iu[nx, :]] = True
        constrained[self._iv[:, 0]] = True
        constrained[self._iv[:, ny]] = True
        self.constrained = constrained
        self.free = ~constrained
        self.free_idx = np.flatnonzero(self.free)
        self.cons_idx = np.flatnonzero(constrained)

    # -- quadrature weights --------------------------------------------------

    def _build_weights(self):
        g = self.grid
        nx, ny = g.nx, g.ny
        area = g.cell_area
        W = np.full(self.N, area)
        W[self._iu[0, :]] *= 0.5
        W[self._iu[nx, :]] *= 0.5
        W[self._iv[:, 0]] *= 0.5
        W[self._iv[:, ny]] *= 0.5
        self.Wvec = W
        self.w_cell = np.full(self.ncell, area)
        fx = np.ones(nx + 1); fx[0] = fx[-1] = 0.5
        fy = np.ones(ny + 1); fy[0] = fy[-1] = 0.5
        self.w_vert = (area * np.outer(fx, fy)).ravel()
        self.w_gamma = g.boundary_weight

    # -- divergence ----------------------------------------------------------

    def _build_divergence(self):
        g = self.grid
        nx, ny = g.nx, g.ny
        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        rows = (ii * ny + jj).ravel()
        data, rr, cc = [], [], []
        for col, coef in (
                (self._iu[ii + 1, jj], 1.0 / g.hx), (self._iu[ii, jj], -1.0 / g.hx),
                (self._iv[ii, jj + 1], 1.0 / g.hy), (self._iv[ii, jj], -1.0 / g.hy)):
            rr.append(rows); cc.append(col.ravel()); data.append(np.full(rows.size, coef))
        self.Dmat = sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rr), np.concatenate(cc))),
            shape=(self.ncell, self.N))

    # -- gradient / strain sample matrices ------------------------------------

    def _build_gradients(self):
        g = self.grid
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy

        # du/dx at cell centers
        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        rows = (ii * ny + jj).ravel()
        self.Gxu_cell = sp.csr_matrix(
            (np.concatenate([np.full(rows.size, 1 / hx), np.full(rows.size, -1 / hx)]),
             (np.concatenate([rows, rows]),
              np.concatenate([self._iu[ii + 1, jj].ravel(), self._iu[ii, jj].ravel()]))),
            shape=(self.ncell, self.N))
        # dv/dy at cell centers
        self.Gyv_cell = sp.csr_matrix(
            (np.concatenate([np.full(rows.size, 1 / hy), np.full(rows.size, -1 / hy)]),
             (np.concatenate([rows, rows]),
              np.concatenate([self._iv[ii, jj + 1].ravel(), self._iv[ii, jj].ravel()]))),
            shape=(self.ncell, self.N))

        # du/dy at vertices; one row per vertex (i, j), j = 0..ny
        vi, vj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
        vrows = (vi * (ny + 1) + vj).ravel()
        jhi = np.clip(vj, 1, ny - 1)          # wall rows copy the nearest interior stencil
        chi = self._iu[vi, jhi]
        clo = self._iu[vi, jhi - 1]
        self.Gyu_vert = sp.csr_matrix(
            (np.concatenate([np.full(vrows.size, 1 / hy), np.full(vrows.size, -1 / hy)]),
             (np.concatenate([vrows, vrows]),
              np.concatenate([chi.ravel(), clo.ravel()]))),
            shape=(self.nvert, self.N))
        # dv/dx at vertices
        ihi = np.clip(vi, 1, nx - 1)
        chi = self._iv[ihi, vj]
        clo = self._iv[ihi - 1, vj]
        self.Gxv_vert = sp.csr_matrix(
            (np.concatenate([np.full(vrows.size, 1 / hx), np.full(vrows.size, -1 / hx)]),
             (np.concatenate([vrows, vrows]),
              np.concatenate([chi.ravel(), clo.ravel()]))),
            shape=(self.nvert, self.N))

    def _assemble_strain_form(self):
        """Symmetric PSD matrix of the form 2 int D(y):D(psi) dx."""
        mix = self.Gyu_vert + self.Gxv_vert
        A = 2.0 * (self.Gxu_cell.T @ sp.diags(self.w_cell) @ self.Gxu_cell)
        A = A + 2.0 * (self.Gyv_cell.T @ sp.diags(self.w_cell) @ self.Gyv_cell)
        A = A + mix.T @ sp.diags(self.w_vert) @ mix
        return A.tocsr()

    # -- boundary traces -------------------------------------------------------

    def _build_traces(self):
        nx, ny = self.grid.nx, self.grid.ny
        iu, iv = self._iu, self._iv
        ngb = self.grid.n_boundary
        # per wall, in loop order: the wall-normal faces, the tangential faces
        # next to the wall and one row in, each ordered along the loop, and
        # the signs of y.n and of y.tau in those components
        walls = ((iv[:, 0], iu[:, 0], iu[:, 1], -1.0, 1.0),                     # bottom
                 (iu[nx, :], iv[nx - 1, :], iv[nx - 2, :], 1.0, 1.0),           # right
                 (iv[::-1, ny], iu[::-1, ny - 1], iu[::-1, ny - 2], 1.0, -1.0),  # top
                 (iu[0, ::-1], iv[0, ::-1], iv[1, ::-1], -1.0, -1.0))           # left
        rows = np.arange(ngb)
        # normal trace: one signed face unknown per node
        cols = np.concatenate([w[0] for w in walls])
        sn = np.concatenate([np.full(w[0].size, w[3]) for w in walls])
        self.Tn = sp.csr_matrix((sn, (rows, cols)), shape=(ngb, self.N))
        self.Mbc = self.Tn.T.tocsr()              # Tn @ Mbc = identity

        # tangential trace: linear wall extrapolation averaged to midpoints
        cols = np.concatenate([np.column_stack([w[1][:-1], w[1][1:], w[2][:-1], w[2][1:]])
                               for w in walls])
        st = np.concatenate([np.full(w[1].size - 1, w[4]) for w in walls])
        data = np.column_stack([0.75 * st, 0.75 * st, -0.25 * st, -0.25 * st])
        self.Ttau = sp.csr_matrix((data.ravel(), (np.repeat(rows, 4), cols.ravel())),
                                  shape=(ngb, self.N))

    # -- advection -------------------------------------------------------------

    def _build_advection_stencils(self):
        g = self.grid
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy
        NU, NV = self.NU, self.NV
        # Gx, Gy: derivative of each component at its own points
        self.Gx = sp.block_diag([sp.kron(_centred_diff(nx + 1, hx), sp.eye(ny)),
                                 sp.kron(_centred_diff(nx, hx), sp.eye(ny + 1))],
                                format="csr")
        self.Gy = sp.block_diag([sp.kron(sp.eye(nx + 1), _centred_diff(ny, hy)),
                                 sp.kron(sp.eye(nx), _centred_diff(ny + 1, hy))],
                                format="csr")
        # Px, Py: each component of the advecting field at every unknown's location
        u_at_v = sp.kron(_pair_average(nx), _edge_to_node(ny))
        v_at_u = sp.kron(_edge_to_node(nx), _pair_average(ny))
        self.Px = sp.bmat([[sp.eye(NU), sp.csr_matrix((NU, NV))], [u_at_v, None]],
                          format="csr")
        self.Py = sp.bmat([[sp.csr_matrix((NU, NU)), v_at_u], [None, sp.eye(NV)]],
                          format="csr")

    def step_matrix(self, dt, nu, alpha_nodes, w_vec):
        """The implicit step operator W/dt + nu*A_strain + Fric(alpha) + K(w).

        K(w) is the skew-symmetrized advection 0.5*(N - N^T) plus half the
        boundary flux form; the tangential half of that flux is folded into
        the friction trace term.
        """
        wx = self.Px @ w_vec
        wy = self.Py @ w_vec
        Nmat = sp.diags(self.Wvec * wx) @ self.Gx + sp.diags(self.Wvec * wy) @ self.Gy
        wn = self.Tn @ w_vec
        S_n = self.Tn.T @ sp.diags(0.5 * self.w_gamma * wn) @ self.Tn
        return (sp.diags(self.Wvec / dt) + nu * self.A_strain
                + self.fric_matrix(alpha_nodes + 0.5 * wn) + S_n
                + 0.5 * (Nmat - Nmat.T)).tocsr()

    def apply_adv_cross(self, y_vec, w_vec):
        """Matrix-free X(y) w = K(w) y (derivative of advection in w)."""
        gx_y = self.Gx @ y_vec
        gy_y = self.Gy @ y_vec
        wx = self.Px @ w_vec
        wy = self.Py @ w_vec
        n_wy = self.Wvec * (wx * gx_y + wy * gy_y)
        nt_wy = self.Gx.T @ (self.Wvec * wx * y_vec) + self.Gy.T @ (self.Wvec * wy * y_vec)
        an = self.w_gamma * (self.Tn @ w_vec)
        s_wy = self.Tn.T @ (an * (self.Tn @ y_vec)) + self.Ttau.T @ (an * (self.Ttau @ y_vec))
        return 0.5 * (n_wy - nt_wy) + 0.5 * s_wy

    def apply_adv_cross_T(self, y_vec, lam_vec):
        """Matrix-free X(y)^T lam."""
        gx_y = self.Gx @ y_vec
        gy_y = self.Gy @ y_vec
        x1t = self.Px.T @ (self.Wvec * gx_y * lam_vec) \
            + self.Py.T @ (self.Wvec * gy_y * lam_vec)
        x2t = self.Px.T @ (self.Wvec * y_vec * (self.Gx @ lam_vec)) \
            + self.Py.T @ (self.Wvec * y_vec * (self.Gy @ lam_vec))
        tny = self.w_gamma * (self.Tn @ y_vec)
        tty = self.w_gamma * (self.Ttau @ y_vec)
        xst = self.Tn.T @ (tny * (self.Tn @ lam_vec) + tty * (self.Ttau @ lam_vec))
        return 0.5 * (x1t - x2t) + 0.5 * xst

    def fric_matrix(self, alpha_nodes):
        return (self.Ttau.T @ sp.diags(self.w_gamma * alpha_nodes) @ self.Ttau).tocsr()

    @property
    def reduced(self):
        """Free/constrained sub-blocks shared by every step factorization."""
        if not hasattr(self, "_reduced"):
            self._reduced = _ReducedBlocks(self)
        return self._reduced

    def b_load(self, b_nodes):
        """Momentum load of the tangential stress data, integrated form."""
        return self.Ttau.T @ (self.w_gamma * b_nodes)

    def bc_vec(self, a_nodes):
        """Full velocity vector with the wall-normal faces set from a."""
        return self.Mbc @ a_nodes

    # -- control-norm helpers ---------------------------------------------------

    def gagliardo_kernel(self, p):
        if p not in self._gagliardo:
            from .fields import _gagliardo_kernel
            self._gagliardo[p] = _gagliardo_kernel(self.grid, p)
        return self._gagliardo[p]

    def fourier_matrix(self):
        if self._fourier is None:
            from .fields import _fourier_matrix
            self._fourier = _fourier_matrix(self.grid)
        return self._fourier


def _centred_diff(n, h):
    """Centred first difference on n points, one-sided at both ends."""
    D = sp.diags([np.full(n - 1, 0.5 / h), np.full(n - 1, -0.5 / h)], [1, -1],
                 shape=(n, n), format="lil")
    D[0, :2] = [-1 / h, 1 / h]
    D[n - 1, n - 2:] = [-1 / h, 1 / h]
    return D.tocsr()


def _pair_average(n):
    """Midpoint average, n+1 points -> n."""
    return sp.diags([np.full(n, 0.5), np.full(n, 0.5)], [0, 1], shape=(n, n + 1))


def _edge_to_node(n):
    """n cell values -> n+1 nodes: neighbour average, nearest value at the ends."""
    E = sp.diags([np.full(n, 0.5), np.full(n, 0.5)], [0, -1], shape=(n + 1, n),
                 format="lil")
    E[0, 0] = E[n, n - 1] = 1.0
    return E.tocsr()


class _ReducedBlocks:
    """Constant sub-blocks of the step system on the free/constrained split."""

    def __init__(self, ops):
        self.Df = ops.Dmat[:, ops.free_idx].tocsr()
        self.Dc = ops.Dmat[:, ops.cons_idx].tocsr()
        self.Gf = ((-ops.grid.cell_area) * self.Df.T).tocsr()
        self._template = None

    def assemble_big(self, A_ff):
        """Saddle matrix [[A_ff, Gf[:, 1:]], [Df[1:], 0]] with cell 0 pinned.

        The pressure of cell 0 is fixed to zero, which removes the constant
        null space of Gf, and the divergence row of cell 0 is dropped.  That
        row is redundant: Df.T @ 1 = 0 on free faces, so the cell rows sum to
        the net wall flux of the data, which callers keep at zero.  Every row
        and column stays short, so COLAMD orders the matrix well.  The
        sparsity pattern is reused across steps whose A_ff pattern matches.
        """
        A = A_ff.tocsc()
        A.sort_indices()
        if self._template is not None:
            indptr, indices, base, amap, pat_indptr, pat_indices = self._template
            if (A.indptr.size == pat_indptr.size
                    and np.array_equal(A.indptr, pat_indptr)
                    and np.array_equal(A.indices, pat_indices)):
                data = base.copy()
                data[amap] = A.data
                return sp.csc_matrix((data, indices, indptr), shape=(indptr.size - 1,
                                                                     indptr.size - 1))
        big = sp.bmat([[A, self.Gf[:, 1:]], [self.Df[1:], None]], format="csc")
        big.sort_indices()
        nf = A.shape[0]
        amap = np.flatnonzero(big.indices[:big.indptr[nf]] < nf)
        self._template = (big.indptr.copy(), big.indices.copy(), big.data.copy(), amap,
                          A.indptr.copy(), A.indices.copy())
        return big


class StepSolver:
    """One implicit slip-Stokes step: pinned-pressure saddle system and its LU.

    Solves, for the free face unknowns y_f and the cell pressure p,

        (W/dt + nu*A_strain + Fric(alpha) + K(w)) y + G p = rhs_mom
        div y = 0 in cells 1..ncell-1,   p[0] = 0

    with the wall-normal faces of y fixed to the supplied data.  There is no
    mean multiplier: the divergence of cell 0 follows from the others
    because the data carry zero net flux, and a constant pressure shift
    leaves the momentum rows unchanged, so p is returned shifted to mean
    zero.  The same factorization solves the transposed system for adjoint
    sweeps.
    """

    def __init__(self, ops, dt, nu, alpha_nodes, w_adv_vec):
        self.ops = ops
        self.dt = dt
        rb = ops.reduced
        F, C = ops.free_idx, ops.cons_idx
        self.F, self.C = F, C
        self.nf = F.size

        L = ops.step_matrix(dt, nu, alpha_nodes, w_adv_vec)[F]
        A_ff = L[:, F]
        self.M_fc = L[:, C]
        self.Dc = rb.Dc
        big = rb.assemble_big(A_ff)
        try:
            self.lu = spla.splu(big)
        except RuntimeError as exc:
            raise SolverDivergence("step matrix factorization failed: %s" % exc)
        self._big = big

    def _check(self, sol, rhs, trans=False):
        big = self._big.T if trans else self._big
        res = big @ sol - rhs
        scale = max(np.linalg.norm(rhs), 1e-30)
        rel = np.linalg.norm(res) / scale
        if not np.isfinite(rel) or rel > LINEAR_RESIDUAL_TOL:
            raise SolverDivergence("%s step residual %.3e above tolerance"
                                   % ("adjoint" if trans else "linear", rel))

    def _split(self, sol):
        """Free-face block and mean-zero cell block, the pinned cell put back."""
        cell = np.concatenate([[0.0], sol[self.nf:]])
        return sol[:self.nf], cell - cell.mean()

    def solve(self, rhs_mom_full, a_nodes):
        """Forward/linearized step.  rhs_mom_full excludes boundary coupling."""
        ops = self.ops
        y_c = (ops.Mbc @ a_nodes)[self.C]
        rhs_f = rhs_mom_full[self.F] - self.M_fc @ y_c
        rhs_div = -(self.Dc @ y_c)
        rhs = np.concatenate([rhs_f, rhs_div[1:]])
        sol = self.lu.solve(rhs)
        self._check(sol, rhs)
        y = np.empty(ops.N)
        y[self.F], p = self._split(sol)
        y[self.C] = y_c
        return y, p

    def solve_transpose(self, rhs_free):
        """Adjoint step: solve Big^T (lam, q) = (rhs_free, 0)."""
        ops = self.ops
        rhs = np.concatenate([rhs_free, np.zeros(ops.ncell - 1)])
        sol = self.lu.solve(rhs, trans="T")
        self._check(sol, rhs, trans=True)
        lam_full = np.zeros(ops.N)
        lam_full[self.F], q = self._split(sol)
        return lam_full, q
