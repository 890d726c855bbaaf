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

import copy
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgetrs
from scipy.sparse import _sparsetools

from .errors import SolverDivergence
from .fields import dot

LINEAR_RESIDUAL_TOL = 1e-9
# iterative refinement against a nearby factor (StepSolver._refine): a solve
# is accepted at REFINE_TARGET times its round-off bound; each correction
# must cut the residual norm by REFINE_RATE, unless the residual is already
# within the bound, and the average rate must reach the target within
# REFINE_MAX_STEPS corrections
REFINE_TARGET = 0.5
REFINE_RATE = 0.5
REFINE_MAX_STEPS = 20
# bytes of step data (L and R) a state sweep keeps for the later sweeps
# around its trajectory above BAND_BOUND (StepStore): 1.0 MB a step at 64x64
STEP_STORE_BYTES = 32 * 2 ** 20
# bytes of the rows a StepSolver's steps keep for its residual pass, per
# direction (see StepSolver): a forward step writes 2 N + ncell + its wall
# faces' values, 11 KB at 16x16, 43 KB at 32x32 and 168 KB at 64x64, so a
# chunk holds up to 372, 97 and 24 steps.  One 64x64, nt = 256 gradient
# peaked at 361 MB with every step's rows pending (VmHWM, one BLAS thread),
# at 327 MB with 8 MB chunks and at 319 MB with 4 MB and with 2 MB chunks
# when the pass read the transposed rows in place, and at 324 MB with 4 MB
# chunks whose transposed rows it stacks
PASS_BYTES = 4 * 2 ** 20
# bytes a StepStore keeps under BAND_BOUND, whose rows hold L and a band LU:
# 212 KB a step at 16x16 (kl = 32, ku = 30, 39 steps), 395 KB at 20x20
# (kl = ku = 38, 21 steps); the later sweeps factor the steps before those,
# so the store adds at most this to a process of ~77 MB at 16x16
BAND_STORE_BYTES = 8 * 2 ** 20
# every step factors its own R by a LAPACK band LU, without a reference,
# where the reduced step's n * ku^2, with ku its bandwidth, is below this
# bound (see DiscreteOperators.band); measured crossover of the gradient
# time on square grids, demo physics, nt = 32: 20x20 (521,284) inside,
# 22x22 (777,924) outside
BAND_BOUND = 6e5
# the reference of the refining sweeps solves R0 by sine transforms and a
# wall capacitance matrix (_SineLU) where the grid has at least this many
# interior vertices, and on a SuperLU factor below it; measured on square
# grids, demo physics, nt = 32, sine over SuperLU, gradient time (medians
# of 10-16 alternations) and one solve: 32x32 1.00-1.04 and 1.16, 34x34
# 1.00 and 1.08, 36x36 (1,225) 1.04-1.06 and 0.97 outside; 38x38 (1,369)
# 0.91 and 0.93, 40x40 0.87 and 0.83, 48x48 0.83-0.91 and 0.67 inside.
# SuperLU stays below it because the sine reference is slower there: with
# y_d = stream:1:0.2 and lambda = 1e-4, both references interleaved in one
# process (medians of 4 processes), nt = 32, nu = 1: 22x22 1.20, 26x26 1.12,
# 30x30 1.05, 34x34 1.02; nu = 0.01: 1.28, 1.17, 1.08, 1.00; nt = 8, nu = 1:
# 22x22 1.19, 24x24 1.15, 28x28 1.08, 32x32 1.02, 36x36 0.98; one solve,
# SuperLU and sine: 22x22 28 and 46 us, 34x34 74 and 70 us, 64x64 390 and
# 221 us
SINE_BOUND = 1300
# OpenBLAS computes a matrix product of at most this many multiply-adds on
# one thread, whatever its thread count (_mm)
_ONE_THREAD = 2 ** 18
# dgbtrf factors every band under BAND_BOUND one column at a time: LAPACK's
# ilaenv gives it block size 1 for ku <= 64, so it runs the unblocked
# dgbtf2, whose update of each column is a dger of its kl rows below the
# pivot.  OpenBLAS's x86-64 dger kernel updates whole blocks of this many
# rows in vector code and the rest one row at a time, so a band with
# ku < 2 _GER_ROWS declares kl = ku rounded up to a multiple of _GER_ROWS
# (see DiscreteOperators.band); padding kl = 34 to 48 (18x18) was slower
_GER_ROWS = 16
# terms of the inner index that one product sums in _SineLU's last product
_SUM_BLOCK = 16
_EPS = np.finfo(float).eps
_F64 = np.dtype(np.float64)
# the compiled kernels that A @ x ends in for a CSR or CSC matrix A, of a
# vector and of a block of vectors (_mv)
_MATVEC = {fmt: (getattr(_sparsetools, fmt + "_matvec"), getattr(_sparsetools, fmt + "_matvecs"))
           for fmt in ("csr", "csc")}


class DiscreteOperators:
    """Per-grid operator cache; built once, shared read-only.

    No reference to the grid is kept: the grid owns its operators, and
    without a cycle between them both are freed by reference count.  The
    mutable members are the reference-factor slot (see reference_lu) and
    what is made on first use and kept: the step solvers' templates (see
    workspace), the band layout (see band) and the Neumann matrix with its
    cosine-transform solver (see neumann).
    """

    def __init__(self, grid):
        nx, ny = grid.nx, grid.ny
        self.NU = (nx + 1) * ny
        self.NV = nx * (ny + 1)
        self.N = self.NU + self.NV
        self.ncell = nx * ny
        self.nvert = (nx + 1) * (ny + 1)
        self.n_boundary = grid.n_boundary
        self._build_indexing(grid)
        self._build_weights(grid)
        strain = self._build_gradients(grid)
        self._build_traces(grid)
        self._build_advection_stencils(grid)
        self.A_strain = self._assemble_strain_form(*strain)
        self._build_step_map()
        self._build_curl(grid)
        self._build_reduced_map()
        self._workspace = None
        self._reference = None
        self._neumann = None
        self._band = None

    # -- indexing ----------------------------------------------------------

    def _build_indexing(self, grid):
        nx, ny = grid.nx, grid.ny
        self._iu = np.arange(self.NU).reshape(nx + 1, ny)
        self._iv = self.NU + np.arange(self.NV).reshape(nx, ny + 1)
        constrained = np.zeros(self.N, dtype=bool)
        constrained[self._iu[0, :]] = True
        constrained[self._iu[nx, :]] = True
        constrained[self._iv[:, 0]] = True
        constrained[self._iv[:, ny]] = True
        self.free = ~constrained
        self.free_idx = np.flatnonzero(self.free)
        self.cons_idx = np.flatnonzero(constrained)

    # -- quadrature weights --------------------------------------------------

    def _build_weights(self, g):
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
        self.cell_area, self.hy = area, g.hy

    # -- stencils: each matrix one CSR from index arithmetic (see _csr) ---------

    def _build_gradients(self, g):
        """Cell and vertex strain samples and the divergence; returns the row
        stencils of the three terms of the strain form."""
        nx, ny, hx, hy, iu, iv, N = g.nx, g.ny, g.hx, g.hy, self._iu, self._iv, self.N
        # du/dx and dv/dy at cell centers, du/dy and dv/dx at vertices (where
        # wall rows copy the nearest interior stencil): x[lo + 1] - x[lo] over h
        lx, ly = np.arange(nx), np.arange(ny)
        dux = _tensor(iu, _two(lx, lx + 1, -1 / hx, 1 / hx), _eye(ny))
        dvy = _tensor(iv, _eye(nx), _two(ly, ly + 1, -1 / hy, 1 / hy))
        lx, ly = np.clip(np.arange(-1, nx), 0, nx - 2), np.clip(np.arange(-1, ny), 0, ny - 2)
        duy = _tensor(iu, _eye(nx + 1), _two(ly, ly + 1, -1 / hy, 1 / hy))
        dvx = _tensor(iv, _two(lx, lx + 1, -1 / hx, 1 / hx), _eye(ny + 1))
        self.Gxu_cell, self.Gyv_cell, self.Gyu_vert, self.Gxv_vert = (
            _csr([st], N) for st in (dux, dvy, duy, dvx))
        div = tuple(np.hstack(a) for a in zip(dux, dvy))
        self.Dmat = _csr([div], N)
        self.Dc = self.Dmat[:, self.cons_idx].tocsr()
        self.DmatT, self.DcT = self.Dmat.T, self.Dc.T
        return dux, dvy, tuple(np.hstack(a) for a in zip(duy, dvx))

    def _assemble_strain_form(self, dux, dvy, mix):
        """Symmetric PSD matrix of the form 2 int D(y):D(psi) dx.

        Entry (p, q) of L^T diag(w) L sums L[k, q] * (w[k] L[k, p]) over
        increasing rows k; the cell terms are doubled, the vertex terms added
        and exact zeros dropped, which is how the sp.diags products round.
        """
        p, q, v = (np.concatenate(t) for t in zip(
            _outer(dux, self.w_cell), _outer(dvy, self.w_cell), _outer(mix, self.w_vert)))
        indptr, indices, pos = self._pattern(p, q)
        n = 8 * self.ncell              # the cell triplets, 2 x 2 per cell from each
        data = 2.0 * np.bincount(pos[:n], v[:n], minlength=indices.size)
        data += np.bincount(pos[n:], v[n:], minlength=indices.size)
        keep = data != 0
        indptr = np.concatenate([[0], np.cumsum(keep)])[indptr]
        return sp.csr_matrix((data[keep], indices[keep], indptr), shape=(self.N, self.N))

    # -- boundary traces -------------------------------------------------------

    def _build_traces(self, grid):
        nx, ny = grid.nx, grid.ny
        iu, iv = self._iu, self._iv
        ngb = grid.n_boundary
        # per wall, in loop order: the wall-normal faces, the tangential faces
        # next to the wall and one row in, each ordered along the loop, and
        # the signs of y.n and of y.tau in those components
        walls = ((iv[:, 0], iu[:, 0], iu[:, 1], -1.0, 1.0),                     # bottom
                 (iu[nx, :], iv[nx - 1, :], iv[nx - 2, :], 1.0, 1.0),           # right
                 (iv[::-1, ny], iu[::-1, ny - 1], iu[::-1, ny - 2], 1.0, -1.0),  # top
                 (iu[0, ::-1], iv[0, ::-1], iv[1, ::-1], -1.0, -1.0))           # left
        # normal trace: one signed face unknown per node
        face = np.concatenate([w[0] for w in walls])
        sn = np.concatenate([np.full(w[0].size, w[3]) for w in walls])
        # tangential trace: linear wall extrapolation averaged to midpoints
        cols = np.concatenate([np.column_stack([w[1][:-1], w[1][1:], w[2][:-1], w[2][1:]])
                               for w in walls])
        st = np.concatenate([np.full(w[1].size - 1, w[4]) for w in walls])
        data = np.column_stack([0.75 * st, 0.75 * st, -0.25 * st, -0.25 * st])
        order = np.argsort(cols, axis=1)
        tau = np.take_along_axis(cols, order, 1), np.take_along_axis(data, order, 1)
        # T = [Tn; Ttau]; Tn and Ttau are views on its rows
        self.T = _csr([(face[:, None], sn[:, None]), tau], self.N)
        self.Tn, self.Ttau = _row_blocks(self.T, (ngb, ngb))
        self.TT, self.TtauT = self.T.T, self.Ttau.T
        self.Mbc = self.Tn.T.tocsr()              # Tn @ Mbc = identity; Mbc is Tn^T
        # Mbc is a signed permutation, one entry in each constrained row:
        # wall-normal face cons_idx[i] takes wall_sign[i] * a[wall_node[i]]
        self.wall_node, self.wall_sign = self.Mbc.indices, self.Mbc.data

    # -- advection -------------------------------------------------------------

    def _build_advection_stencils(self, g):
        nx, ny, hx, hy, iu, iv = g.nx, g.ny, g.hx, g.hy, self._iu, self._iv
        ex, ey, ex1, ey1 = _eye(nx), _eye(ny), _eye(nx + 1), _eye(ny + 1)
        # the matrix-free advection derivatives apply the stacks G = [Gx; Gy]
        # and P = [Px; Py] and their transposes (CSC views on the same
        # arrays), one product for both components.  Gx, Gy: centred
        # derivative of each component at its own points, one-sided at the
        # ends
        self.G = _csr([_tensor(iu, _centred(nx + 1, hx), ey), _tensor(iv, _centred(nx, hx), ey1),
                       _tensor(iu, ex1, _centred(ny, hy)), _tensor(iv, ex, _centred(ny + 1, hy))],
                      self.N)
        # Px, Py: each component of the advecting field at every unknown's
        # location, averaged over the nearest faces of that component
        rx, ry = np.arange(nx), np.arange(ny)
        self.P = _csr([_tensor(iu, ex1, ey), _tensor(iu, _two(rx, rx + 1, 0.5, 0.5), _node(ny)),
                       _tensor(iv, _node(nx), _two(ry, ry + 1, 0.5, 0.5)), _tensor(iv, ex, ey1)],
                      self.N)
        self.GT, self.PT = self.G.T, self.P.T

    def _build_step_map(self):
        """Fixed CSR pattern of the step operator and the linear map onto its data.

        With x = [alpha_nodes; w_vec; 1/dt; nu], W/dt and nu*A_strain each
        scale one source, and every other term of step_matrix has the form
        L^T diag(c * (S @ x)) R, which expands row by row into (row, col,
        source, coefficient) triplets.  The triplets are summed into a sparse
        map from x to the data of the union pattern; no (row, col, source)
        gets more than two, so their order does not change the sums.
        """
        N, nb = self.N, self.n_boundary
        nsrc = nb + N + 2
        # wall terms Tn^T diag(0.5 w_gamma wn) Tn + Ttau^T diag(w_gamma (alpha + 0.5 wn)) Ttau
        face, sn = nb + self.Tn.indices, self.Tn.data
        S = _csr([(face[:, None], sn[:, None]), (np.column_stack([np.arange(nb), face]),
                                                 np.column_stack([np.ones(nb), 0.5 * sn]))], nsrc)
        wall = _face_split(self.T, self.T, np.concatenate([0.5 * self.w_gamma, self.w_gamma]), S)
        # advection N = diag(W Px w) Gx + diag(W Py w) Gy, entered as 0.5*(N - N^T),
        # whose diagonal cancels exactly
        P = sp.csr_matrix((self.P.data, nb + self.P.indices, self.P.indptr), shape=(2 * N, nsrc))
        eye = _csr([_eye(N), _eye(N)], N)
        i, j, k, c = _face_split(eye, self.G, np.tile(0.5 * self.Wvec, 2), P)
        off = i != j
        i, j, k, c = i[off], j[off], k[off], c[off]
        A, diag = self.A_strain, np.arange(N, dtype=np.int32)
        rows, cols, src, coef = (np.concatenate(t) for t in zip(
            wall, (i, j, k, c), (j, i, k, -c),
            (diag, diag, np.full(N, nsrc - 2, dtype=np.int32), self.Wvec),          # W/dt
            (np.repeat(diag, np.diff(A.indptr)), A.indices,
             np.full(A.nnz, nsrc - 1, dtype=np.int32), A.data)))                   # nu*A_strain
        self.step_indptr, self.step_indices, pos = self._pattern(rows, cols)
        self._step_map = sp.csr_matrix((coef, (pos, src)),
                                       shape=(self.step_indices.size, nsrc))

    def _build_curl(self, g):
        """Discrete curl u = dpsi/dy, v = -dpsi/dx of vertex stream values.

        curl acts on all vertices, Ci on the interior ones only (its
        wall-normal rows are empty); Dmat @ curl is exactly zero, and a
        divergence-free face vector with zero wall-normal faces is Ci psi.
        loop_vertex lists the boundary vertices in loop order: boundary node
        k is the wall edge from loop_vertex[k] to loop_vertex[k + 1].
        """
        nx, ny = g.nx, g.ny
        vert = np.arange(self.nvert).reshape(nx + 1, ny + 1)
        inner = np.full((nx + 1, ny + 1), -1)
        inner[1:nx, 1:ny] = np.arange((nx - 1) * (ny - 1)).reshape(nx - 1, ny - 1)
        lx, ly = np.arange(nx), np.arange(ny)
        dy, dx = _two(ly, ly + 1, -1 / g.hy, 1 / g.hy), _two(lx, lx + 1, 1 / g.hx, -1 / g.hx)
        self.curl, self.Ci = (
            _csr([_tensor(t, _eye(nx + 1), dy), _tensor(t, dx, _eye(ny + 1))], t.max() + 1)
            for t in (vert, inner))
        self.CiT = self.Ci.T
        self.loop_vertex = np.concatenate([vert[:, 0], vert[nx, 1:], vert[nx - 1::-1, ny],
                                           vert[0, ny - 1:0:-1]])

    def _build_reduced_map(self):
        """Fixed CSR pattern of the reduced step matrix R = Ci^T L Ci and the
        sparse map onto its data from the step data L.data, a row per entry
        of R in R's order, so that reduced_data is one product.

        Entry (a, b) of R sums Ci[i, a] * Ci[j, b] * L[i, j] over the step
        entries (i, j), and R[b, a] sums the same coefficients times the
        mirrored entries L[j, i].  So the rows of the entries a <= b, one
        term per step entry in increasing order (Q), give the rows below
        the diagonal too: row (b, a) is row (a, b) with the mirrored
        columns, summed in the same order, and R is exactly symmetric
        whenever L is (no advection).
        Interior vertices are keyed by their offset (dx, dy), |dx|, |dy| <= 3.
        """
        N, C = self.N, self.Ci
        nnz = self.step_indices.size
        # vertex k of each face (-1: none) and its curl coefficient, k = 0, 1
        vert, cf = np.full((2, N), -1, dtype=np.int32), np.zeros((2, N))
        for k in (0, 1):
            has = np.diff(C.indptr) > k
            vert[k, has] = C.indices[C.indptr[:-1][has] + k]
            cf[k, has] = C.data[C.indptr[:-1][has] + k]
        i = np.repeat(np.arange(N), np.diff(self.step_indptr))
        j = self.step_indices.astype(np.intp)
        # the terms of the entries a <= b: vertex ka of face i with vertex kb
        # of face j, one slot (ka, kb) at a time
        terms = []
        for ka, kb in np.ndindex(2, 2):
            a, b = vert[ka][i], vert[kb][j]
            q = np.flatnonzero((a >= 0) & (a <= b)).astype(np.int32)
            terms.append((q, a[q], b[q], cf[ka][i[q]] * cf[kb][j[q]]))
        del i, j, a, b
        q, va, vb, coef = (np.concatenate(t) for t in zip(*terms))
        del terms
        nx, ny = self._iv.shape[0], self._iu.shape[1]
        xy = np.add.outer(7 * np.arange(nx - 1), np.arange(ny - 1)).ravel()
        up_indptr, up_indices, pos = _keyed_pattern(va, vb, xy, xy + 24, 49)
        del va, vb
        # the conversion sorts each row of Q by step entry
        Q = sp.csr_matrix((coef, (pos, q)), shape=(up_indices.size, nnz))
        del q, coef, pos
        # R's pattern: the entries a <= b and their mirrors, and the row of Q
        # that each entry reads (a diagonal entry is both)
        a = np.repeat(np.arange(xy.size, dtype=np.int32), np.diff(up_indptr))
        self.reduced_indptr, self.reduced_indices, pos = _keyed_pattern(
            np.concatenate([a, up_indices]), np.concatenate([up_indices, a]), xy, xy + 24, 49)
        src = np.empty(self.reduced_indices.size, dtype=np.int32)
        src[pos] = np.tile(np.arange(a.size, dtype=np.int32), 2)
        del a, up_indices, pos
        # the map, on int32 index arrays: row e is row src[e] of Q; each of
        # Q's arrays is freed once gathered
        count = np.diff(Q.indptr)[src]
        indptr = np.zeros(src.size + 1, dtype=np.int32)
        np.cumsum(count, out=indptr[1:])
        take = np.repeat(Q.indptr[:-1][src] - indptr[:-1], count)
        take += np.arange(indptr[-1], dtype=np.int32)
        q_data, q_indices = Q.data, Q.indices
        del Q
        data = q_data[take]
        del q_data
        cols = q_indices[take]
        del q_indices, take
        # below the diagonal the mirrored columns; the step pattern is
        # symmetric, and mirror[s] is the position of (j, i)
        row = np.repeat(np.arange(xy.size, dtype=np.int32), np.diff(self.reduced_indptr))
        lower = np.repeat(row > self.reduced_indices, count)
        del row, count
        mirror = sp.csr_matrix((np.arange(nnz, dtype=np.int32), self.step_indices,
                                self.step_indptr), shape=(N, N)).T.tocsr().data
        cols[lower] = mirror[cols[lower]]
        self._reduced_map = sp.csr_matrix((data, cols, indptr), shape=(src.size, nnz))

    def _pattern(self, rows, cols):
        """_keyed_pattern of face pairs.  No operator couples faces more than
        two cells apart, so a column is keyed by its offset (type, dx, dy)
        from the row's face, in column order."""
        xy = np.concatenate([(5 * x + y).ravel() for x, y in
                             (np.indices(self._iu.shape), np.indices(self._iv.shape))])
        return _keyed_pattern(rows, cols, xy, xy + 25 * (np.arange(self.N) >= self.NU) + 12, 50)

    def step_matrix(self, dt, nu, alpha_nodes, w_vec):
        """The implicit step operator W/dt + nu*A_strain + Fric(alpha) + K(w).

        K(w) is the skew-symmetrized advection 0.5*(N - N^T) plus half the
        boundary flux form; the tangential half of that flux is folded into
        the friction trace term:

            Fric(alpha + 0.5 wn) + Tn^T diag(0.5 w_gamma wn) Tn + 0.5 (N - N^T),
            wn = Tn w,   N = diag(W Px w) Gx + diag(W Py w) Gy.

        The operator is affine in (alpha, w) and linear in (1/dt, nu), so it
        is stored on one fixed pattern (the union of all terms, explicit zeros
        included) whose data is one sparse mat-vec M @ [alpha; w; 1/dt; nu],
        with M built once per grid.  StepSolver refills its workspace with
        this data.
        """
        data = self._step_map @ np.concatenate([alpha_nodes, w_vec, [1.0 / dt, nu]])
        return sp.csr_matrix((data, self.step_indices, self.step_indptr), shape=(self.N, self.N))

    def step_products(self, dt, nu, alpha_nodes, w, y, rows):
        """The entries rows of step_matrix(dt, nu, alpha_k, w_k) @ y_k for
        each row k of the blocks alpha_nodes, w and y, a row per step with
        the bits of that product: one product of the step map's rows that
        hold those entries with the block of sources, then a CSR per step."""
        pos = sp.csr_matrix((np.arange(self.step_indices.size), self.step_indices,
                             self.step_indptr), shape=(self.N, self.N))[rows]
        src = np.vstack([alpha_nodes.T, w.T, np.full(len(y), 1.0 / dt), np.full(len(y), nu)])
        data = np.ascontiguousarray(_mv(self._step_map[pos.data], src).T)
        M = sp.csr_matrix((data[0], pos.indices, pos.indptr), shape=pos.shape)
        out = np.empty((len(y), rows.size))
        for k, y_k in enumerate(y):
            M.data = data[k]
            _mv(M, y_k, out[k])
        return out

    def reduced_data(self, data):
        """Data of R = Ci^T L Ci from step_matrix data: one product with the
        map of _build_reduced_map, a row per entry of R in its order (a
        StepSolver's step makes the same product into R's data)."""
        return _mv(self._reduced_map, data)

    def reference_lu(self, dt, nu, alpha_nodes):
        """Direct solver of the advection-free reduced step matrix R0 at
        (dt, nu, alpha), kept in a one-entry slot.

        Without advection the step operator is symmetric, and so is R0, bit
        for bit (see _build_reduced_map), so StepSolver solves with R0 in
        both directions through one kernel.  On grids of at least
        SINE_BOUND interior vertices the solver is a _SineLU: two sine
        transforms and the LU of a capacitance matrix on the two outer
        rings of vertices, unless R0 has not that structure.  Otherwise it
        is SuperLU's factor of R0; its CSR arrays are also its CSC arrays,
        and its transposed kernel is the faster of its two.

        The slot is keyed by the exact bits of (dt, nu, alpha), which fix
        R0's entries bit for bit, so a hit returns the same solver a fresh
        construction would, and no result depends on what was solved
        before.  A hit compares the key only; R0 is assembled just to be
        factored.
        """
        key = _step_key(dt, nu, alpha_nodes)
        if self._reference is None or self._reference[0] != key:
            data = self.reduced_data(self._step_map @ np.concatenate(
                [alpha_nodes, np.zeros(self.N), [1.0 / dt, nu]]))
            n = self.reduced_indptr.size - 1
            R0 = sp.csc_matrix((data, self.reduced_indices, self.reduced_indptr), shape=(n, n))
            nx, ny = self._iv.shape[0], self._iu.shape[1]
            sine = _SineLU(nx - 1, ny - 1) if n >= SINE_BOUND else None
            self._reference = (key, _factor(R0, into=sine))
        return self._reference[1]

    def band(self):
        """The band layout of the reduced step pattern where its n * ku^2 is
        below BAND_BOUND, else None; made on first use and kept.

        In the x-major order of the interior vertices R couples vertices at
        most two columns apart, so both its bandwidths are ku = 2 (ny - 1):
        the rule reads the grid's dimensions, and above the bound no index
        array is built.  The layout keeps the upper bandwidth ku and
        declares the lower bandwidth kl = ku rounded up to a multiple of
        _GER_ROWS where ku < 2 _GER_ROWS, else ku: the added subdiagonals
        are structural zeros that let each column update run at full vector
        width (at 16x16, kl = 32 for ku = 30, a factorization takes 0.12
        instead of 0.17 ms; _BandLU says which solves keep their bits).
        """
        nx, ny = self._iv.shape[0], self._iu.shape[1]
        n, ku = (nx - 1) * (ny - 1), 2 * (ny - 1)
        if n * ku * ku >= BAND_BOUND:
            return None
        if self._band is None:
            kl = ku if ku >= 2 * _GER_ROWS else -(-ku // _GER_ROWS) * _GER_ROWS
            self._band = _Band(self.reduced_indptr, self.reduced_indices, ku, kl)
        return self._band

    def workspace(self):
        """The step solvers' templates, made on first use and kept: (L, L^T)
        on the step pattern and (R, R^T) on the reduced one, each transpose
        a CSC view on its matrix's arrays.  A StepSolver takes shallow
        copies of them on data arrays of its own (_on_data), so no solver
        builds or checks a pattern."""
        if self._workspace is None:
            n = self.reduced_indptr.size - 1
            L = sp.csr_matrix((np.zeros(self.step_indices.size), self.step_indices,
                               self.step_indptr), shape=(self.N, self.N))
            R = sp.csr_matrix((np.zeros(self.reduced_indices.size), self.reduced_indices,
                               self.reduced_indptr), shape=(n, n))
            self._workspace = ((L, L.T), (R, R.T))
        return self._workspace

    def neumann(self):
        """The interior gradient grad (CSR), the pinned Neumann Laplacian
        L_pin (CSC) and its cosine-transform solver (_CosineNeumann), made
        on first use and kept.

        grad = -Dmat^T on the free faces and zero on the wall faces maps a
        cell potential to its face gradient.  L_pin = cell_area Dmat grad
        without cell 0's row and column, which is -Gf^T W_f^-1 Gf for
        Gf = -cell_area Df^T and W_f = cell_area on the free faces: the
        normal equations of the pressure gradient.  The step solves recover
        pressures from it, and lifting solves its potential with it, both
        through the cosine solver; no factor of L_pin is made.
        """
        if self._neumann is None:
            grad = -(sp.diags(self.free.astype(float)) @ self.DmatT).tocsr()
            L = ((self.cell_area * self.Dmat) @ grad).tocsr()
            nx, ny = self._iv.shape[0], self._iu.shape[1]
            # the couplings of cell 0 to its neighbours in x and in y
            cosine = _CosineNeumann(nx, ny, L[0, ny], L[0, 1])
            self._neumann = (grad, L[1:, 1:].tocsc(), cosine)
        return self._neumann

    def boundary_lift(self, a_nodes):
        """Face vector with the wall-normal faces set from a and the free
        faces the curl of the loop integral of a at the boundary vertices
        (zero inside): divergence-free to round-off when a carries no net
        flux, and y - boundary_lift(Tn y) = Ci psi for every such y.

        An (n, n_boundary) array of wall data gives the (n, N) array of
        their lifts, each row bit for bit the lift of that row alone.
        """
        psi = np.zeros(a_nodes.shape[:-1] + (self.nvert,))
        psi[..., self.loop_vertex[1:]] = np.cumsum(self.w_gamma[:-1] * a_nodes[..., :-1], axis=-1)
        y = np.ascontiguousarray((self.curl @ psi.T).T)
        # (Mbc @ a)[C], read off the signed permutation that Mbc is; adding
        # 0.0 turns a -0.0 into 0.0, as the product does
        y[..., self.cons_idx] = self.wall_sign * a_nodes[..., self.wall_node] + 0.0
        return y

    def stream_function(self, y_vec):
        """Interior stream values psi of a divergence-free face vector y with
        y = boundary_lift(Tn y) + Ci psi: the loop integral of the normal
        flux along the bottom wall, then the flux of u upwards."""
        nx, ny = self._iv.shape[0], self._iu.shape[1]
        u = y_vec[:self.NU].reshape(nx + 1, ny)
        bottom = np.cumsum(self.w_gamma[:nx - 1] * -y_vec[self._iv[:nx - 1, 0]])
        return (bottom[:, None] + self.hy * np.cumsum(u[1:nx, :ny - 1], axis=1)).ravel()

    def state_products(self, y):
        """(G @ y, T @ y) of a face vector y, the products of the state that
        apply_adv_cross and apply_adv_cross_T read.  An (n, N) array of face
        vectors gives both products for every row in one product each, a
        row per face vector, each bit for bit the product of that row alone
        (a column of a multi-vector product rounds as the single product)."""
        return (np.ascontiguousarray((self.G @ y.T).T),
                np.ascontiguousarray((self.T @ y.T).T))

    def apply_adv_cross(self, y_vec, w_vec, y_products=None):
        """Matrix-free X(y) w = K(w) y (derivative of advection in w);
        y_products is state_products(y_vec), if the caller formed it."""
        N, nb, W = self.N, self.n_boundary, self.Wvec
        _vectors(N, w_vec)
        g_y, t_y = self.state_products(y_vec) if y_products is None else y_products
        g_y = g_y.reshape(2, N)                          # Gx y, Gy y
        w_xy = _kmv(self.P, w_vec).reshape(2, N)         # Px w, Py w
        n_wy = W * (w_xy[0] * g_y[0] + w_xy[1] * g_y[1])
        # columns Gx^T (W wx y), Gy^T (W wy y)
        nt_wy = _kmv(self.GT, _split_columns(W * w_xy * y_vec))
        an = self.w_gamma * _kmv(self.Tn, w_vec)
        # columns Tn^T (an Tn y), Ttau^T (an Ttau y)
        s_wy = _kmv(self.TT, _split_columns(an * t_y.reshape(2, nb)))
        return 0.5 * (n_wy - (nt_wy[:, 0] + nt_wy[:, 1])) + 0.5 * (s_wy[:, 0] + s_wy[:, 1])

    def adjoint_factors(self, y):
        """The factors of the state that apply_adv_cross_T multiplies lam's
        products by: (W * (G y), W * y, w_gamma * (T y)) of a face vector y,
        shaped (2, N), (N,) and (2, n_boundary), or of every row of an
        (n, N) block, a leading axis per row, each bit for bit the factors
        of that row alone (see state_products)."""
        g_y, t_y = self.state_products(y)
        lead = y.shape[:-1]
        g_y, t_y = g_y.reshape(lead + (2, self.N)), t_y.reshape(lead + (2, self.n_boundary))
        g_y *= self.Wvec
        t_y *= self.w_gamma
        return g_y, self.Wvec * y, t_y

    def apply_adv_cross_T(self, y_vec, lam_vec, factors=None, t_lam=None, out=None):
        """Matrix-free X(y)^T lam, into out if given; factors is
        adjoint_factors(y_vec) and t_lam is T @ lam_vec, if the caller
        formed them."""
        N, nb = self.N, self.n_boundary
        _vectors(N, lam_vec)
        w_g_y, w_y, w_t_y = self.adjoint_factors(y_vec) if factors is None else factors
        if t_lam is None:
            t_lam = _kmv(self.T, lam_vec)                # [Tn; Ttau] lam
        g_lam = _kmv(self.G, lam_vec).reshape(2, N)
        # Px^T (.) + Py^T (.) of both terms in one product; the sum is exact,
        # since Px^T is nonzero only in the u rows and Py^T only in the v rows
        terms = np.empty((2, N, 2))
        np.multiply(w_g_y, lam_vec, out=terms[..., 0])
        np.multiply(w_y, g_lam, out=terms[..., 1])
        x = _kmv(self.PT, terms.reshape(2 * N, 2))
        xst = _kmv(self.Mbc, w_t_y[0] * t_lam[:nb] + w_t_y[1] * t_lam[nb:])
        # 0.5 (x[:, 0] - x[:, 1]) + 0.5 xst, each operation rounded as written
        out = np.subtract(x[:, 0], x[:, 1], out=out)
        out *= 0.5
        xst *= 0.5
        out += xst
        return out

    def b_load(self, b_nodes):
        """Momentum load of the tangential stress data, integrated form; an
        (n, n_boundary) array gives one load per row, as boundary_lift."""
        return np.ascontiguousarray((self.TtauT @ (self.w_gamma * b_nodes).T).T)

    def bc_vec(self, a_nodes):
        """Full velocity vector with the wall-normal faces set from a."""
        return self.Mbc @ a_nodes


def _factor(A, what="step matrix", into=None):
    """Factor of a CSC matrix A with a symmetric pattern, with SuperLU's
    solve(b, trans).  Given into, a _BandLU on A's pattern or a _SineLU of
    A's grid, the factor is made there: A's band LU written into its
    buffer, or the sine-capacitance solve of the symmetric A, unless the
    _SineLU refuses A's structure.  Otherwise it is SuperLU's, with minimum
    degree ordering on the pattern of A^T + A, in symmetric mode.

    The matrices factored by SuperLU, reduced steps, have symmetric
    patterns, and the advection-free reference is symmetric.  Symmetric
    mode makes SuperLU prefer the diagonal of the reordered matrix as pivot,
    which keeps that structure, and minimum degree on A^T + A then stores
    fewer entries than the default COLAMD ordering, so every triangular
    solve reads less (at 64x64, L + U falls from 573,891 to 402,604 entries
    on the reduced reference step).
    """
    if into is not None:
        lu = into.factor(A, what)
        if lu is not None:
            return lu
    try:
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverDivergence("%s factorization failed: %s" % (what, exc))


class _SineLU:
    """A direct solver of the advection-free reduced step R0 on the (mx, my)
    interior vertices by sine transforms and a wall capacitance matrix
    (Buzbee, Dorr, George & Golub, SIAM J. Numer. Anal. 8, 1971), with
    SuperLU's solve(b, trans) interface.

    factor(R0) splits R0 = S + P_B E P_B^T.  S is R0's interior stencil,
    read off the middle vertex and closed by odd reflection across the
    boundary vertices, so the orthonormal 2-D DST-I Phi diagonalizes it:
    S = Phi diag(lam) Phi, Phi x = sx x sy for the symmetric 1-D sine
    matrices sx, sy.  B (ring, x-major within its two parts) holds the two
    outer rings of vertices, where the walls' one-sided stencils and the
    friction put R0's corrections E.  With C = P_B^T S^-1 P_B, built block
    by block from the sine matrices, a solve is

        x0 = S^-1 b,   z = (I + E C)^-1 E x0_B,   x = x0 - S^-1 P_B z:

    one forward DST-I, the values on B by thin products with the sine
    matrices, z on the LU of the capacitance matrix I + E C (|B| = 488 at
    64x64, 1000 at 128x128), the rings' correction subtracted in transform
    space and one inverse DST-I.  The transforms are matrix products:
    O(m^3) against an FFT's O(m^2 log m), but on grids up to 128x128 they
    are the faster (at 64x64 under half of pocketfft's time), and they
    import no FFT module.  The last product sums its inner index in blocks
    (_last), which keeps the solve's backward error near SuperLU's.  No
    bits follow the BLAS thread count: every product goes through _mm,
    which keeps each BLAS call on one thread; the capacitance matrix is
    factored by SuperLU, not LAPACK's threaded dgetrf, and solved by
    dgetrs (two triangular solves).

    factor() refuses, returning None, a matrix whose stencil reaches past
    two vertices or is not even in both directions, or whose E has an entry
    outside B x B (a grid with no vertex outside B).
    """

    def __init__(self, mx, my):
        self.mx, self.my = mx, my

    def factor(self, A, what="step matrix"):
        """Self, with the solve of the symmetric A set up, or None if A has
        not this structure; a singular capacitance system raises
        SolverDivergence."""
        mx, my = self.mx, self.my
        ring = np.zeros((mx, my), dtype=bool)
        ring[:2] = ring[-2:] = ring[:, :2] = ring[:, -2:] = True
        if ring.all():
            return None
        A = A.tocsr()
        # the stencil of the middle vertex, on offsets |dx|, |dy| <= 2
        mid = (mx // 2) * my + my // 2
        cols, vals = (a[A.indptr[mid]:A.indptr[mid + 1]] for a in (A.indices, A.data))
        cols = cols[vals != 0.0]
        dx, dy = cols // my - mx // 2, cols % my - my // 2
        if max(np.abs(dx).max(), np.abs(dy).max()) > 2:
            return None
        st = np.zeros((5, 5))
        st[dx + 2, dy + 2] = vals[vals != 0.0]
        if not (np.array_equal(st, st[::-1]) and np.array_equal(st, st[:, ::-1])):
            return None
        E = (A - _odd_stencil(st, mx, my)).tocoo()
        ring = ring.ravel()
        if not (ring[E.row].all() and ring[E.col].all()):
            return None
        # the eigenvalues of S, sum_pq st[p, q] cos(p t) cos(q u) over the
        # modes (t, u), as a polynomial in sin^2(t / 2) and sin^2(u / 2)
        # whose coefficients are summed exactly: the sum of cosines cancels
        # to ~eps sum|st| in the smooth modes, where lam is smallest, and
        # the solve's error there, which the residual hardly shows, grew
        # with it (1.4e-10 against 4e-13 relative at 96x96)
        c = _sin2_coefficients(st[2:, 2:])
        sx2, sy2 = (np.sin(np.pi * np.arange(1, m + 1) / (2 * m + 2)) ** 2 for m in (mx, my))
        lam = sum(c[a, b] * sx2[:, None] ** a * sy2 ** b for a, b in np.ndindex(3, 3))
        if not np.all(np.isfinite(lam) & (lam != 0.0)):
            return None
        self.inv_lam = 1.0 / lam
        # B in two parts: the rows rx (every y) and, of the other rows ox,
        # the columns ry; each x-major
        rx, ry = np.array([0, 1, mx - 2, mx - 1]), np.array([0, 1, my - 2, my - 1])
        ox = np.arange(2, mx - 2)
        self.sx, self.sy = sx, sy = _sine_matrix(mx), _sine_matrix(my)
        self.sx_r, self.sx_o, self.sy_r = sx[rx], sx[ox], sy[ry]
        self.sx_rT, self.sx_oT, self.sy_rT = (np.ascontiguousarray(m.T) for m in
                                              (self.sx_r, self.sx_o, self.sy_r))
        self.nr = 4 * my
        self.ring = b = np.concatenate([(rx[:, None] * my + np.arange(my)).ravel(),
                                        (ox[:, None] * my + ry).ravel()])
        where = np.empty(mx * my, dtype=np.intp)
        where[b] = np.arange(b.size)
        E = sp.csr_matrix((E.data, (where[E.row], where[E.col])), shape=(b.size, b.size))
        # the capacitance matrix M = I + E C; its C-order array is the CSC
        # arrays of M^T, whose partial-pivoting LU by SuperLU, P M^T = L U,
        # unlike LAPACK's, does not follow the BLAS thread count.  So
        # M z = y is z = P^T (L U)^-T y, by dgetrs with L and U in one array
        m = b.size
        M = E @ self._capacitance()
        M.flat[::m + 1] += 1.0
        Mt = sp.csc_matrix((M.ravel(), np.tile(np.arange(m, dtype=np.int32), m),
                            np.arange(0, m * m + 1, m, dtype=np.int32)), shape=(m, m))
        try:
            lu = spla.splu(Mt, permc_spec="NATURAL", diag_pivot_thresh=1.0)
        except RuntimeError as exc:
            raise SolverDivergence("%s factorization failed: capacitance matrix: %s"
                                   % (what, exc))
        del M, Mt
        # L's unit diagonal overwritten by U's; perm_r is copied, since the
        # array SuperLU hands out keeps its whole factor alive
        self.lu = np.empty((m, m), order="F")
        flat = self.lu.reshape(-1, order="F")
        for f in (lu.L, lu.U):
            cols = np.repeat(np.arange(m, dtype=np.int32), np.diff(f.indptr))
            flat[f.indices + m * cols] = f.data
        self.piv, self.perm, self.E = np.arange(m, dtype=np.int32), lu.perm_r.copy(), E
        return self

    def _capacitance(self):
        """C = P_B^T S^-1 P_B, block by block.  S^-1 couples vertices (i, j)
        and (k, l) by sum_pq sx[i, p] sx[k, p] sy[j, q] sy[l, q] inv[p, q],
        with inv = 1 / lam: each block is one sum by einsum and products
        with the sine matrices, laid out in B's order."""
        inv, mx, my, nr = self.inv_lam, self.mx, self.my, self.nr
        sxr, syr, sy, no = self.sx_r, self.sy_r, self.sy, mx - 4
        C = np.empty((nr + 4 * no,) * 2)
        # rows a, b with rows: sum_q sy[j, q] w[a, b, q] sy[l, q], (a, j, b, l)
        w = np.einsum("ap,bp,pq->abq", sxr, sxr, inv)
        C[:nr, :nr] = _mm((sy[None, :, None, :] * w[:, None]).reshape(-1, my),
                          sy).reshape(nr, nr)
        # rows a with columns c of the other rows: sum_q sy[j, q] syr[c, q]
        # sum_p sxr[a, p] inv[p, q] sx[k, p], (a, j, k, c) from (j, a, k, c)
        y = _mm((sxr[:, None, :] * inv.T).reshape(-1, mx), self.sx_oT).reshape(4, my, no)
        z = (y.transpose(1, 0, 2)[..., None] * syr.T[:, None, None, :]).reshape(my, -1)
        C[:nr, nr:] = _mm(sy, z).reshape(my, 4, -1).transpose(1, 0, 2).reshape(nr, -1)
        C[nr:, :nr] = C[:nr, nr:].T
        # columns c, d of the other rows with each other: sum_p sx[i, p]
        # v[c, d, p] sx[k, p], (i, c, k, d) from (i, c, d, k)
        v = np.einsum("cq,dq,pq->cdp", syr, syr, inv)
        oo = _mm((self.sx_o[:, None, None, :] * v).reshape(-1, mx), self.sx_oT)
        C[nr:, nr:] = oo.reshape(no, 4, 4, no).transpose(0, 1, 3, 2).reshape(4 * no, -1)
        return C

    def _last(self, w):
        """w @ sy, the last product of a solve, in blocks of _SUM_BLOCK
        terms of its inner index, one _mm each, added in order.  One
        product sums each entry in a chain of my terms, and in the last
        product that rounding set the solve's backward error: 0.72 of the
        round-off floor at 64x64 against 0.45 so and SuperLU's 0.32.  The
        refinement's reference solves per step follow it (5.92 against
        5.68 and 5.67 a step at 64x64, nt = 4)."""
        sy = self.sy
        out = _mm(w[:, :_SUM_BLOCK], sy[:_SUM_BLOCK])
        for i in range(_SUM_BLOCK, self.my, _SUM_BLOCK):
            out += _mm(w[:, i:i + _SUM_BLOCK], sy[i:i + _SUM_BLOCK])
        return out

    def solve(self, b, trans="N"):
        """x with A x = b; A is symmetric, so trans changes nothing."""
        sx, sy, inv_lam = self.sx, self.sy, self.inv_lam
        xh = _mm(_mm(sx, b.reshape(self.mx, self.my)), sy)
        xh *= inv_lam
        x0 = np.concatenate([_mm(_mm(self.sx_r, xh), sy).ravel(),
                             _mm(self.sx_o, _mm(xh, self.sy_rT)).ravel()])
        z = dgetrs(self.lu, self.piv, _kmv(self.E, x0), trans=1)[0][self.perm]
        xh -= (_mm(self.sx_rT, _mm(z[:self.nr].reshape(4, -1), sy))
               + _mm(_mm(self.sx_oT, z[self.nr:].reshape(-1, 4)), self.sy_r)) * inv_lam
        return self._last(_mm(sx, xh)).ravel()


class _CosineNeumann:
    """Solves with the pinned Neumann Laplacian of an (nx, ny) cell grid
    by the orthonormal 2-D DCT-II, which diagonalizes the cell-centred
    Neumann Laplacian exactly (Schumann & Sweet, J. Comput. Phys. 75,
    1988): the full Laplacian, with couplings wx in x and wy in y, is
    Phi^T diag(lam) Phi for Phi x = cx x cy^T, cx and cy the DCT-II
    matrices, and lam[p, q] = -(4 wx sin^2(pi p / 2 nx)
    + 4 wy sin^2(pi q / 2 ny)), zero only at p = q = 0, the constants.

    The pinned system L_pin s = b[1:] drops cell 0's row, which is minus
    the sum of the others, so its solution s, with x = [0; s], solves the
    full system with b[0] replaced by -sum(b[1:]); shifted to mean zero,
    x is that system's pseudo-inverse solution, which the transforms give
    with lam's zero mode dropped.

    The transforms are matrix products through _mm, so no bits follow the
    BLAS thread count, and under OpenBLAS each row of a block gets the
    bits of its own solve (the tests check both), so the residual pass's
    chunks do not change them.  One solve, one BLAS thread, against
    scipy.fft's DCT and SuperLU's factor of L_pin: 67 / 129 / 147 us at
    16x16 with 32 right-hand sides, 227 / 231 / 496 us at 64x64 with 4;
    from 128x128 the FFT is the faster (2.1 / 0.96 / 2.6 ms with 4).
    """

    def __init__(self, nx, ny, wx, wy):
        self.nx, self.ny = nx, ny
        self.cx, self.cy = _cosine_matrix(nx), _cosine_matrix(ny)
        self.cxT, self.cyT = np.ascontiguousarray(self.cx.T), np.ascontiguousarray(self.cy.T)
        sx, sy = (np.sin(np.pi * np.arange(n) / (2 * n)) ** 2 for n in (nx, ny))
        lam = -4.0 * (wx * sx[:, None] + wy * sy)
        lam[0, 0] = np.inf
        # 1 / lam in the (q, p) order of the transformed rows
        self.inv_lam = np.ascontiguousarray((1.0 / lam).T)

    def solve(self, b):
        """The mean-zero rows x, a row per row of the (k, ncell) block b,
        with L_pin (x - x[0])[1:] = b[1:]: the pinned solutions shifted to
        mean zero."""
        k, nx, ny = b.shape[0], self.nx, self.ny
        t = b.copy()
        t[:, 0] = -t[:, 1:].sum(axis=1)
        # x-major cells (i, j): transform j, then i, on the last axis
        t = _mm(t.reshape(k * nx, ny), self.cyT)
        t = _mm(t.reshape(k, nx, ny).transpose(0, 2, 1).reshape(k * ny, nx), self.cxT)
        t = t.reshape(k, ny, nx)
        t *= self.inv_lam
        t = _mm(t.reshape(k * ny, nx), self.cx)
        t = _mm(t.reshape(k, ny, nx).transpose(0, 2, 1).reshape(k * nx, ny), self.cy)
        return t.reshape(k, nx * ny)


def _mm(a, b):
    """a @ b of 2-D arrays, in blocks of a's rows of at most _ONE_THREAD
    multiply-adds each: OpenBLAS computes such a product on one thread and
    splits a larger one between threads, which changed its last bits under
    1 and 2 threads (a 127x127 square product did).  A row whose product
    alone is past the bound (b larger than 512 x 512) is not split."""
    m, (k, n) = a.shape[0], b.shape
    rows = max(1, _ONE_THREAD // (k * n))
    if rows >= m:
        return a @ b
    out = np.empty((m, n))
    for i in range(0, m, rows):
        np.matmul(a[i:i + rows], b, out=out[i:i + rows])
    return out


def _mv(A, x, out=None):
    """A @ x of a CSR or CSC matrix A and a float64 vector or (n, k) block
    x, into out if given, by the compiled kernel that A @ x itself calls
    (csr_matvec, csc_matvec or their block forms), so every result has the
    bits of A @ x.  It skips the dispatch around the kernel, which at 16x16
    costs more than the product (scipy 1.17.1 on a 2-core x86-64 host:
    Dmat @ y 6.4-9.0 us, _mv 3.9 us, the bare kernel 2.6 us).  The kernel
    checks no length, so a wrong shape or dtype raises ValueError here; a
    block's out must be C-contiguous."""
    m, n = A.shape
    shape = (m,) + x.shape[1:]
    if (x.dtype != _F64 or A.data.dtype != _F64 or x.shape[:1] != (n,) or x.ndim > 2
            or out is not None and (out.dtype != _F64 or out.shape != shape
                                    or x.ndim == 2 and not out.flags.c_contiguous)):
        raise ValueError("_mv: a %s float64 vector or block of %d rows and out of shape %s "
                         "expected" % (A.format, n, shape))
    return _kmv(A, x, out)


def _kmv(A, x, out=None):
    """_mv without its checks, for the products inside a step loop, whose
    matrices, shapes and dtypes are fixed when the sweep starts: the checks
    cost ~0.7 us a call, a third of a 16x16 product (~450 calls a state
    plus adjoint sweep at nt = 32)."""
    m, n = A.shape
    if out is None:
        out = np.zeros((m,) + x.shape[1:])
    else:
        out.fill(0.0)               # the kernels add to out
    vec, vecs = _MATVEC[A.format]
    if x.ndim == 1:
        vec(m, n, A.indptr, A.indices, A.data, x, out)
    else:
        vecs(m, n, x.shape[1], A.indptr, A.indices, A.data, x.ravel(), out.ravel())
    return out


def _vectors(n, *xs):
    """Raise ValueError unless each x given (not None) is a float64 vector
    of n entries: the check of a step's inputs that an unchecked kernel
    (_kmv) reads or writes, made once per call where _mv would make it per
    product."""
    for x in xs:
        if x is not None and (x.dtype != _F64 or x.shape != (n,)):
            raise ValueError("a float64 vector of %d entries expected, not %s %s"
                             % (n, x.dtype, x.shape))


def _sin2_coefficients(quarter):
    """c with sum_pq m_p m_q q[p, q] cos(p t) cos(q u) = sum_ab c[a, b]
    sin^2(t / 2)^a sin^2(u / 2)^b for an even stencil, quarter[p, q] its
    coefficient at offsets (+-p, +-q), p, q <= 2, counted m_0 = 1 and
    m_1 = m_2 = 2 times.  cos(p t) is 1, 1 - 2 s and 1 - 8 s + 8 s^2 in
    s = sin^2(t / 2); every term is a stencil entry times a power of two,
    so each coefficient is the correctly rounded sum (math.fsum)."""
    t = np.array([[1, 0, 0], [2, -4, 0], [2, -16, 16]])
    return np.array([[math.fsum((quarter * np.outer(t[:, a], t[:, b])).ravel())
                      for b in range(3)] for a in range(3)])


def _cosine_matrix(n):
    """The orthonormal DCT-II matrix of n points: entry (p, i) is
    sqrt((2 - [p = 0]) / n) cos(pi p (2 i + 1) / (2 n))."""
    p, i = np.arange(n)[:, None], np.arange(n)
    # the angle reduced mod 2 pi in integers first, as in _sine_matrix
    c = math.sqrt(2.0 / n) * np.cos(np.pi * ((p * (2 * i + 1)) % (4 * n)) / (2 * n))
    c[0] = math.sqrt(1.0 / n)
    return c


def _sine_matrix(m):
    """The orthonormal DST-I matrix of m points, symmetric and its own
    inverse: entry (i, k) is sqrt(2 / (m + 1)) sin(pi (i + 1)(k + 1) / (m + 1))."""
    k = np.arange(1, m + 1)
    # the angle reduced mod 2 pi in integers first: sin of pi i k / (m + 1)
    # itself would lose ~ i k eps of accuracy
    return math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * m + 2)) / (m + 1))


def _odd_stencil(st, mx, my):
    """CSR matrix of the (5, 5) stencil st, entry (dx + 2, dy + 2) the
    coefficient of x[i + dx, j + dy], on the (mx, my) x-major points,
    reading x past its ends by odd reflection across the zero points -1
    and m: x[-1 - k] = -x[k - 1] and x[m + k] = -x[m - k]."""
    def reflect(m):
        """The point and sign read for x[i + d], a row per d = -2..2."""
        j = np.arange(m) + np.arange(-2, 3)[:, None]
        sign = np.where((j < -1) | (j > m), -1.0, 1.0)
        j = np.where(j < -1, -2 - j, np.where(j > m, 2 * m - j, j))
        return j, np.where((j >= 0) & (j < m), sign, 0.0)

    (ci, si), (cj, sj) = reflect(mx), reflect(my)
    p, q = np.nonzero(st)
    v = st[p, q][:, None, None] * si[p][:, :, None] * sj[q][:, None, :]
    keep = v != 0.0
    rows = np.broadcast_to(np.arange(mx * my).reshape(mx, my), v.shape)
    cols = ci[p][:, :, None] * my + cj[q][:, None, :]
    return sp.csr_matrix((v[keep], (rows[keep], cols[keep])), shape=(mx * my,) * 2)


class _Band:
    """LAPACK general band storage of a square sparse pattern with upper
    bandwidth ku and declared lower bandwidth kl, at least the pattern's
    (Golub & Van Loan, Matrix Computations, 4th ed., 4.3; dgbtrf's layout).

    Entry (i, j) of the matrix is entry (kl + ku + i - j, j) of an
    (ldab, n) Fortran array, ldab = 2 kl + ku + 1; its first kl rows take
    the fill of partial pivoting.  pos is the flat position of each entry
    of the pattern, given as the CSR arrays (indptr, indices).
    """

    def __init__(self, indptr, indices, ku, kl):
        n = indptr.size - 1
        self.n, self.ku, self.kl, self.ldab = n, ku, kl, 2 * kl + ku + 1
        rows = np.repeat(np.arange(n), np.diff(indptr))
        self.pos = indices.astype(np.intp) * self.ldab + (kl + ku + rows - indices)


class _BandLU:
    """The band LU of one matrix on a _Band layout, in place in its buffer
    flat (one of its own if not given), with SuperLU's solve(b, trans).

    factor(A) takes A as CSC, whose arrays are those of A^T as CSR, and
    factors A^T: a StepSolver passes R^T (R_T), so its forward solves with
    R go through dgbtrs without transposition, the faster kernel (11
    against 16 us a solve at 16x16).  On a layout whose declared kl exceeds
    the pattern's, the factor has the same pivots as on the pattern's own
    bandwidth and the solves with A^T give the same bits; the solves with
    A, whose sums run over the kl declared rows, agree to round-off.
    """

    def __init__(self, band, flat=None):
        self.band = band
        self.flat = np.empty(band.n * band.ldab) if flat is None else flat
        self.ab = self.flat.reshape(band.n, band.ldab).T      # a Fortran (ldab, n) view
        self.piv = None

    def factor(self, A, what="step matrix"):
        """Write the band LU into the buffer; an exactly zero pivot raises
        SolverDivergence."""
        band = self.band
        self.flat[:] = 0.0
        self.flat[band.pos] = A.data
        # ab is Fortran-contiguous, so overwrite_ab factors it in place
        _, self.piv, info = dgbtrf(self.ab, band.kl, band.ku, overwrite_ab=1)
        if info > 0:
            raise SolverDivergence("%s factorization failed: band factor is exactly "
                                   "singular (pivot %d)" % (what, info))
        return self

    def solve(self, b, trans="N"):
        """x with A x = b, or A^T x = b if trans is "T"."""
        band = self.band
        return dgbtrs(self.ab, band.kl, band.ku, b, self.piv, trans=int(trans == "N"))[0]


def _step_key(dt, nu, alpha_nodes):
    """The exact bits of (dt, nu, alpha): with the advecting field they fix
    the step's entries bit for bit (see DiscreteOperators.step_matrix)."""
    return (np.array([dt, nu], dtype=float).tobytes()
            + np.asarray(alpha_nodes, dtype=float).tobytes())


def _keyed_pattern(rows, cols, xy, box, span):
    """CSR pattern (indptr, indices) of the distinct (row, col) pairs and the
    position of each pair in it.

    A pair is flagged at span * row + box[col] - xy[row]; box[col] - xy[row]
    must lie in [0, span) and increase with col within a row (box is xy
    shifted by the offset of the key's origin, plus the type of col, if any).
    """
    n = xy.size
    key = box[cols]
    key += (span * np.arange(n, dtype=np.int32) - xy)[rows]
    flags = np.zeros(span * n, dtype=bool)
    flags[key] = True
    flat = np.flatnonzero(flags)
    slots = np.empty(span * n, dtype=np.int32)
    slots[key] = cols
    indices = slots[flat]
    slots[flat] = np.arange(flat.size)
    return (np.searchsorted(flat, span * np.arange(n + 1)).astype(np.int32), indices,
            slots[key])


def _row_blocks(stack, sizes):
    """CSR views on consecutive row blocks of a CSR matrix, sharing its data
    and indices.

    The arrays are set after construction: the constructor would copy a
    view that holds less than half of the array it views.
    """
    out, r = [], 0
    for n in sizes:
        lo, hi = stack.indptr[r], stack.indptr[r + n]
        m = sp.csr_matrix((n, stack.shape[1]))
        m.data, m.indices = stack.data[lo:hi], stack.indices[lo:hi]
        m.indptr = stack.indptr[r:r + n + 1] - lo
        out.append(m)
        r += n
    return out


def _split_columns(x):
    """The rows x[0], x[1] as the two columns of [[x[0], 0], [0, x[1]]].

    One product of a stacked transpose [A; B]^T with this block gives
    A^T x[0] and B^T x[1] as separate columns (the zero halves add exact
    zeros), so their sum is rounded as the two products summed would be.
    """
    n = x.shape[1]
    out = np.zeros((2 * n, 2))
    out[:n, 0] = x[0]
    out[n:, 1] = x[1]
    return out


def _face_split(Lm, Rm, c, Sm):
    """Triplets (i, j, k, coef) of L^T diag(c * (S @ x)) R, for CSR L, R, S.

    Entry (i, j) of the product gains coef * x[k] for each triplet; row b of
    L, R and S contributes every combination of one entry from each.
    """
    nl, nr, ns = (np.diff(m.indptr) for m in (Lm, Rm, Sm))
    cnt = nl * nr * ns
    b = np.repeat(np.arange(cnt.size), cnt)
    t = np.arange(b.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    ps = Sm.indptr[b] + t % ns[b]
    t //= ns[b]
    pr = Rm.indptr[b] + t % nr[b]
    pl = Lm.indptr[b] + t // nr[b]
    return (Lm.indices[pl], Rm.indices[pr], Sm.indices[ps],
            Lm.data[pl] * c[b] * Rm.data[pr] * Sm.data[ps])


def _csr(blocks, ncol):
    """CSR matrix of row stencils stacked in order: 2-D arrays (cols, data),
    a row per matrix row, columns increasing, -1 marking an absent entry."""
    data, cols, count = zip(*((d[c >= 0], c[c >= 0], (c >= 0).sum(axis=1))
                              for c, d in blocks))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(count))])
    return sp.csr_matrix((np.concatenate(data), np.concatenate(cols), indptr),
                         shape=(indptr.size - 1, ncol))


def _tensor(idx, sx, sy):
    """Row stencil of the tensor product of 1-D stencils on the index table
    idx: row (a, b) holds idx[sx columns of a, sy columns of b], x-major."""
    (cx, dx), (cy, dy) = sx, sy
    X, Y = np.s_[:, None, :, None], np.s_[None, :, None, :]
    cols = np.where((cx[X] >= 0) & (cy[Y] >= 0), idx[cx[X], cy[Y]], -1)
    n = cols.shape[0] * cols.shape[1]
    return cols.reshape(n, -1), (dx[X] * dy[Y]).reshape(n, -1)


def _outer(stencil, w):
    """Triplets (p, q, L[k, q] * (w[k] L[k, p])) of L^T diag(w) L, from a row
    stencil of L, in increasing k."""
    cols, data = stencil
    m = cols.shape[1]
    return (np.repeat(cols, m, axis=1).ravel(), np.tile(cols, m).ravel(),
            (data[:, None, :] * (w[:, None, None] * data[:, :, None])).ravel())


# 1-D stencils for _tensor, one row per point


def _eye(n):
    return np.arange(n)[:, None], np.ones((n, 1))


def _two(lo, hi, a, b):
    """a * x[lo] + b * x[hi] per row (a column of -1: no entry)."""
    lo, hi, a, b = np.broadcast_arrays(lo, hi, a, b)
    return np.column_stack([lo, hi]), np.column_stack([a, b])


def _centred(n, h):
    """Centred first difference on n points, one-sided at both ends."""
    lo, hi = np.clip(np.arange(-1, n - 1), 0, n - 2), np.clip(np.arange(1, n + 1), 1, n - 1)
    d = np.where(hi - lo == 2, 0.5 / h, 1 / h)
    return _two(lo, hi, -d, d)


def _node(n):
    """n cell values -> n+1 nodes: neighbour average, nearest value at the ends."""
    r = np.arange(n + 1)
    w = np.where((r > 0) & (r < n), 0.5, 1.0)
    return _two(r - 1, np.where(r < n, r, -1), w, w)


def _norm(x):
    """Euclidean norm of a vector: sqrt(x . x), summed without BLAS."""
    return math.sqrt(dot(x, x))


def _extrapolate(hist):
    """Next term of the polynomial through the last 1-3 solutions, oldest first."""
    if len(hist) == 1:
        return hist[0]
    if len(hist) == 2:
        return 2.0 * hist[1] - hist[0]
    return 3.0 * (hist[2] - hist[1]) + hist[0]


class StepStore:
    """The steps of a state sweep, kept for the tangent and adjoint sweeps
    around its trajectory: a table of rows that the sweeps' StepSolvers
    make and read in place.

    Step k of all three sweeps has the same L(alpha_k, y_{k-1}) and
    R = Ci^T L Ci (the adjoint solves with their transposes).  The store
    has a row for each of the last steps that fit in its bytes, from step
    first on (the adjoint sweep, which runs backwards, reads those first),
    all in one preallocated buffer.  The grid picks the row format: under
    BAND_BOUND a row holds the data of L and the band LU of R (dgbtrf's
    array on the row's _BandLU, which also holds the pivots), within
    BAND_STORE_BYTES; above it, the data of L and of R, within
    STEP_STORE_BYTES.  The state sweep (StepSolver's keep) assembles step
    k straight into its row, band-factors R into the row's _BandLU, and
    then sets the row's key, the exact bits of its (dt, nu, alpha_k).  A
    later sweep (StepSolver's steps) reads the row in place, with no
    assembly, no factorization and no copy, only where its operators are
    the store's, its (dt, nu, alpha_k) match the key and, for a band LU, it
    does not refine; its advecting field is the trajectory's own y_{k-1}.
    It solves with L and that very factor, or refines with L and R, and
    makes the steps before first, and any step it does not read, itself.
    """

    def __init__(self, ops, nt):
        nl, nr = ops.step_indices.size, ops.reduced_indices.size
        band = ops.band()
        if band is None:
            n = min(nt, STEP_STORE_BYTES // (8 * (nl + nr)))
        else:
            nr = band.n * band.ldab
            n = min(nt, BAND_STORE_BYTES // (8 * (nl + nr)))
        self.ops = ops
        self.first = nt + 1 - n
        # one allocation: in a loop of solves on one grid, malloc then
        # serves each store from the memory the last one freed, where
        # separate allocations went back to the system and were faulted in
        # again on every solve (~1,200 page faults per 64x64, nt = 4 state
        # solve)
        buf = np.empty((n, nl + nr))
        self.L = buf[:, :nl]
        if band is None:
            self.R, self.lu = buf[:, nl:], None
        else:
            self.R, self.lu = None, [_BandLU(band, row) for row in buf[:, nl:]]
        self.keys = [None] * n

    def row(self, k):
        """The row that keeps step k, or None."""
        i = -1 if k is None else k - self.first
        return i if 0 <= i < len(self.keys) else None


class StepSolver:
    """The implicit slip-Stokes steps of one sweep, solved on the discrete
    stream function.

    Solves, for the face velocity y and the cell pressure p,

        (W/dt + nu*A_strain + Fric(alpha) + K(w)) y + G p = rhs_mom
        div y = 0,   y = the supplied data on the wall-normal faces

    on the free rows, with G = -cell_area Dmat^T; the transposed system is
    solved for adjoint sweeps.  The divergence-free y are exactly
    y = boundary_lift(a) + Ci psi, and Ci^T G = 0, so each step solves the
    reduced system R psi = Ci^T (rhs_mom - L boundary_lift(a)) with
    R = Ci^T L Ci, of one unknown per interior vertex.

    The time recurrence reads only the velocities, so a step (solve or
    solve_transpose) ends with its velocity and computes nothing else for
    the residual pass.  A forward step writes its rows for the pass
    straight into preallocated chunk blocks (_PassRows): its data r (the
    momentum data after the lift, zero on the wall rows), L dy, the
    divergence of its velocity (also div, which the state sweep's guard
    reads) and the lift's wall rows, the wall data.  A transposed step
    keeps references to its data r, L^T lam and lam, which the pass
    stacks.  A chunk holds min(nt, PASS_BYTES / the bytes of a forward
    step's rows) steps in either direction.  The pass runs on a full chunk
    once the step that fills it leaves at(), and on the rest in
    pressures(), once after the march, before the sweep returns; its
    memory does not grow with nt.  It forms in block products the squared
    norms of the data and of the divergence (the transposed divergence
    first), the momentum residuals without the pressure term,
    m = r - L dy or r - L^T lam with zero wall rows, and the divergence the
    wall data put into the wall cells.  It recovers the pressures of the
    chunk's steps from m by the normal equations of G, the pinned Neumann
    matrix of DiscreteOperators.neumann, in one cosine-transform solve of
    all their right-hand sides, which gives each step's pressure with the
    bits of its own solve, shifted to mean zero; so the chunks do not
    change the bits.  It checks every step's full residual, momentum with pressure
    and divergence, against LINEAR_RESIDUAL_TOL.  pressures() returns the
    pressures of every step passed since its last call.  A single step is
    a pass of one row.

    One solver serves a whole sweep at fixed (dt, nu).  It holds the step
    matrix L and R and their transposes, shallow copies of the grid's
    templates (DiscreteOperators.workspace) on data arrays of its own,
    shared by each matrix and its transpose; step(alpha, w) fills that
    data for the next step, one product with the step map into L's data
    and one with the reduced map into R's, so no sparse matrix is built
    per step.  Every sparse product of a step goes straight to scipy's
    compiled kernel through _kmv, without _mv's per-product checks: solve,
    solve_transpose and the advection products check their inputs once
    per call.  The state sweep passes the StepStore it fills, if any, as
    keep, and the tangent and adjoint sweeps pass the StepStore of their
    base trajectory as steps: step() inside at(k, ...) then points the
    data of L and R at the store's row for step k, which it makes or reads
    there (see StepStore), and at the solver's own arrays for every other
    step.  Call step() (or at()) before solving.

    Without a reference (lu=None) every step solves directly on a factor
    of its R; on grids under BAND_BOUND that is a LAPACK band LU (see
    DiscreteOperators.band), in the store's row for step k or in one
    buffer the solver holds.

    Given a direct solver of an advection-free reduced step (the sweeps
    above the bound pass the problem's reference, see
    DiscreteOperators.reference_lu), each solve is refined iteratively
    against the current step's own R, which replaces a factorization per
    step; the solver then also holds |R| (for the round-off floor).  The
    reference is symmetric and is applied in both directions through one
    kernel, solve(b, trans="T").  Refinement starts from the polynomial
    extrapolation of the sweep's last three accepted psi in that direction
    (history; seed() starts the forward one), if that guess's residual is
    below |rhs|, and from zero otherwise.  When refinement does not reach
    round-off, the step factors its own R and solves directly; the next
    step() goes back to the reference.
    """

    def __init__(self, ops, dt, nu, lu=None, sweep="step", steps=None, keep=None, nt=1):
        self.ops = ops
        self.dt, self.nu = dt, nu
        self.sweep = sweep
        # the store a sweep makes rows of (keep) or reads them from (steps);
        # not one on other operators, nor one of band LUs for a refining
        # sweep
        store = steps if keep is None else keep
        if store is not None and (store.ops is not ops or lu is not None and store.lu is not None):
            store = None
        self.store, self.keeps = store, keep is not None
        self.C = ops.cons_idx
        self.ref = lu
        self.lu = None
        band = ops.band()
        self._own = None if band is None else _BandLU(band)
        self.neumann = ops.neumann()[2]
        # sources [alpha; w; 1/dt; nu] of the step map, and the bytes of
        # (dt, nu) that begin the key of every step (_step_key)
        self._src = np.concatenate([np.zeros(ops.n_boundary + ops.N), [1.0 / dt, nu]])
        self._key = _step_key(dt, nu, ())
        (L, LT), (R, R_T) = ops.workspace()
        self.L, self.LT = _on_data(L, LT, np.zeros(ops.step_indices.size))
        self.R, self.R_T = _on_data(R, R_T, np.zeros(ops.reduced_indices.size))
        self._data = (self.L.data, self.R.data)
        self._into = self._own
        if lu is not None:
            self.abs_R, self.abs_R_T = _on_data(R, R_T, np.zeros(ops.reduced_indices.size))
        # a step's work vectors: Ci^T of its data, and dy
        self._ci_rhs, self._dy = np.empty(R.shape[0]), np.empty(ops.N)
        # accepted psi of the forward and the transposed solves, oldest first
        self.history = ([], [])
        self.pending = _PassRows(ops, nt)
        self.k = None

    def seed(self, y_vec):
        """Start the forward history at the stream function of velocity
        y_vec, if the solver refines."""
        if self.ref is not None:
            self.history[0][:] = [self.ops.stream_function(y_vec)]

    def step(self, alpha_nodes, w_adv_vec):
        """Point L and R at the data of the step at (alpha, w), made or read
        there, and set its factor; returns self.

        The data is the store's row for the current step k where the sweep
        keeps that step, or reads it made at its (dt, nu, alpha), and the
        solver's own arrays otherwise; only a row read is not assembled.
        Refining, the factor is the reference; otherwise it is the read
        band LU, or the step's own R is factored.  A kept step's key is set
        once it is made.
        """
        ops, store = self.ops, self.store
        i = None if store is None else store.row(self.k)
        if i is not None:
            key = self._key + np.asarray(alpha_nodes, dtype=float).tobytes()
            if not self.keeps and store.keys[i] != key:
                i = None
        if i is None:
            L, R = self._data
        else:
            L, R = store.L[i], self._data[1] if store.R is None else store.R[i]
        self.L.data = self.LT.data = L
        self.R.data = self.R_T.data = R
        band_row = i is not None and store.lu is not None
        self._into = store.lu[i] if band_row else self._own
        self.lu = self._into if band_row and not self.keeps else None
        if i is None or self.keeps:
            src, nb = self._src, ops.n_boundary
            src[:nb] = alpha_nodes
            src[nb:-2] = w_adv_vec
            _kmv(ops._step_map, src, L)
            _kmv(ops._reduced_map, L, R)
        if self.ref is not None:
            np.abs(R, out=self.abs_R.data)
            self.lu = self.ref
        elif self.lu is None:
            self.lu = self._factor()
        if i is not None and self.keeps:
            store.keys[i] = key
        return self

    def _factor(self):
        """The step's own factor of R: on grids under BAND_BOUND a band LU,
        written into the store's row for step k if the step is there, else
        into the solver's buffer; SuperLU's above.  R_T is R^T as CSC, so a
        SuperLU factor solves with R through the transposed kernel."""
        return _factor(self.R_T, into=self._into)

    def at(self, k, alpha_nodes, w_adv_vec):
        """Step k of the sweep, a context manager: step(alpha, w), the
        solves in the block numbered k, and a SolverDivergence raised in
        either reported as '<sweep> step k: ...', unless a step solved
        before it fails its residual check, which is reported instead, as
        the pass would.  A chunk the block fills is passed once it ends."""
        self.k = k
        try:
            self.step(alpha_nodes, w_adv_vec)
        except SolverDivergence as exc:
            self._fail(exc)
        return self

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None:
            for trans, steps in enumerate(self.pending.steps):
                if len(steps) == self.pending.size:
                    self._pass(trans)
        elif issubclass(kind, SolverDivergence):
            self._fail(exc)
        return False

    def _fail(self, exc):
        """Raise the SolverDivergence exc of step k as '<sweep> step k: ...',
        after the passes over the steps solved before it."""
        for trans in (False, True):
            self._pass(trans)
        raise SolverDivergence("%s step %d: %s" % (self.sweep, self.k, exc))

    def _refine(self, rhs, rhs_norm, big, abs_big, trans):
        """Solution refined against the reference factor, or None.

        The first solve corrects the extrapolated guess, if its residual is
        below |rhs|, and zero otherwise.  The round-off bound is
        eps * || |big| |x| + |rhs| || (a backward-stable direct solve meets
        it, the step's own LU of R at about a third of it).  The solve is
        accepted once its residual is at most REFINE_TARGET times that bound,
        or when a correction fails to cut a residual already within the
        bound by REFINE_RATE.  It is abandoned as soon as a correction fails
        to cut the residual by REFINE_RATE above the bound, or the average
        rate so far could not reach the target within the corrections left.
        """
        sol, hist = None, self.history[trans]
        if hist:
            guess = _extrapolate(hist)
            res = rhs - _kmv(big, guess)
            if _norm(res) < rhs_norm:
                sol = self.ref.solve(res, trans="T")
                sol += guess
        if sol is None:
            sol = self.ref.solve(rhs, trans="T")
        floor = _EPS * _norm(_kmv(abs_big, abs(sol)) + abs(rhs))
        target = REFINE_TARGET * floor
        res = rhs - _kmv(big, sol)
        rn0 = rn = _norm(res)
        k = 0
        while not rn <= target:
            k += 1
            sol += self.ref.solve(res, trans="T")
            np.subtract(rhs, _kmv(big, sol), out=res)
            rn, last = _norm(res), rn
            if not rn <= REFINE_RATE * last:
                return sol if rn <= floor else None
            if not rn * (rn / rn0) ** ((REFINE_MAX_STEPS - k) / k) <= target:
                return None
        return sol

    def _solve(self, rhs, trans=False):
        """psi with R psi = rhs, or R^T psi = rhs if trans: on the step's own
        factor without a reference, else refined and kept in the history."""
        mode = "N" if trans else "T"
        if self.ref is None:
            return self.lu.solve(rhs, trans=mode)
        if trans:
            big, abs_big = self.R_T, self.abs_R_T
        else:
            big, abs_big = self.R, self.abs_R
        sol = None if self.lu is not self.ref else self._refine(rhs, _norm(rhs), big,
                                                                 abs_big, trans)
        if sol is None:
            if self.lu is self.ref:
                self.lu = self._factor()
            sol = self.lu.solve(rhs, trans=mode)
        hist = self.history[trans]
        hist.append(sol)
        del hist[:-3]
        return sol

    def solve(self, rhs_mom_full, lift):
        """Forward/linearized step: the velocity y with the wall data of
        lift = boundary_lift(a).  rhs_mom_full excludes boundary coupling.

        Its pressure and residual check follow in the pass; the residual
        is relative to the data of the system for (y - lift, p): the
        momentum rows left after the lift, and the divergence the wall data
        put into the wall cells.
        """
        ops, rows = self.ops, self.pending
        _vectors(ops.N, lift)
        if len(rows.steps[0]) == rows.size:
            self._pass(False)
        r, lr, div, wall = rows.forward()
        _kmv(self.L, lift, r)
        np.subtract(rhs_mom_full, r, out=r)
        r[self.C] = 0.0
        dy = _kmv(ops.Ci, self._solve(_kmv(ops.CiT, r, self._ci_rhs)), self._dy)
        y = lift + dy
        _kmv(self.L, dy, lr)
        self.div = _kmv(ops.Dmat, y, div)
        lift.take(self.C, out=wall)
        rows.steps[0].append(self.k)
        return y

    def solve_transpose(self, rhs, out=None, lt_out=None):
        """Adjoint step: lam of Big^T (lam, q) = (rhs[F], 0), with Big the
        step's velocity-pressure system on the free faces F; q follows in
        the pass (pressures(trans=True)).  rhs is full-length with its wall
        rows +0.0.  lam, zero on the wall rows, is written into out and
        L^T lam into lt_out, where given; the pass reads rhs, lam and
        L^T lam, so none of them may change before it."""
        ops, rows = self.ops, self.pending
        _vectors(ops.N, rhs, out, lt_out)
        if len(rows.steps[1]) == rows.size:
            self._pass(True)
        lam = _kmv(ops.Ci, self._solve(_kmv(ops.CiT, rhs, self._ci_rhs), trans=True), out)
        rows.steps[1].append((self.k, rhs, _kmv(self.LT, lam, lt_out), lam))
        return lam

    def pressures(self, trans=False):
        """The pressures p (q if trans) of the steps solved since the last
        call, a row per step in solve order, once the pass has checked
        every step's residual (see _pass)."""
        self._pass(trans)
        done = self.pending.done[trans]
        x = done[0] if len(done) == 1 else np.concatenate(done)
        done.clear()
        return x

    def _pass(self, trans):
        """The pass over the rows of the steps solved since the last pass
        (transposed ones if trans): their pressures, kept for pressures(),
        once every step's full residual is within LINEAR_RESIDUAL_TOL of
        its data.  Otherwise SolverDivergence names the first failing step
        in solve order, which is marching order."""
        rows = self.pending
        steps = rows.steps[trans]
        if not steps:
            return
        ops, area, C = self.ops, self.ops.cell_area, self.C
        if trans:
            k, r, lr, lam = zip(*steps)
            r, lr, lam = np.stack(r), np.stack(lr), np.stack(lam)
        else:
            k = tuple(steps)
            r, lr, div, wall = (b[:len(k)] for b in rows.blocks)
        steps.clear()
        # squared norms of the rows of a block, each summed as dot sums one
        # vector; numpy's iterator splits a row of over 8,192 entries at its
        # buffer (64x64 and up), whose sum then differs from dot's in its
        # last bits
        rhs_sq = np.einsum("ki,ki->k", r, r)
        # the momentum residuals without the pressure term, rhs - L y (or
        # rhs - L^T lam) on the free rows, a column per step
        m = np.empty(r.shape[::-1])
        np.subtract(r.T, lr.T, out=m)
        m[C] = 0.0
        if trans:
            # the divergence of lam, cell_area Dmat lam, a row per step
            div = np.ascontiguousarray(_mv(ops.Dmat, np.ascontiguousarray(lam.T)).T)
            div *= area
            x = self._pressure(-area * _mv(ops.Dmat, m))
            m -= _mv(ops.DmatT, np.ascontiguousarray(x.T))
        else:
            x = self._pressure(_mv(ops.Dmat, m))
            m += area * _mv(ops.DmatT, np.ascontiguousarray(x.T))
            # the divergence the wall data put into the wall cells
            rhs_sq += np.square(_mv(ops.Dc, np.ascontiguousarray(wall.T))).sum(axis=0)
        div_sq = np.einsum("ki,ki->k", div, div)
        m[C] = 0.0
        rel = (np.sqrt(np.einsum("ij,ij->j", m, m) + div_sq)
               / np.maximum(np.sqrt(rhs_sq), 1e-30))
        bad = np.flatnonzero(~np.isfinite(rel) | (rel > LINEAR_RESIDUAL_TOL))
        if bad.size:
            i = bad[0]
            msg = "%s step residual %.3e above tolerance" % ("adjoint" if trans else "linear",
                                                            rel[i])
            raise SolverDivergence(msg if k[i] is None else
                                   "%s step %d: %s" % (self.sweep, k[i], msg))
        rows.done[trans].append(x)

    def _pressure(self, rhs_cells):
        """Mean-zero rows x, one per column of rhs_cells, with
        L_pin (x - x[0])[1:] = rhs_cells[1:]."""
        return self.neumann.solve(np.ascontiguousarray(rhs_cells.T))


class _PassRows:
    """The rows that the steps of a StepSolver keep for its residual pass,
    and the pressures of the steps passed since its last pressures(), per
    direction.  A chunk holds size steps, min(nt, PASS_BYTES over the
    bytes of a forward step's rows).  The forward rows (r, L dy, div and
    the lift's wall rows) are rows of blocks, one allocation made on the
    first forward step, and rows holds their views, a tuple per step;
    steps lists the step numbers forward and (k, r, L^T lam, lam)
    transposed."""

    def __init__(self, ops, nt):
        self.widths = (ops.N, ops.N, ops.ncell, ops.cons_idx.size)
        self.size = max(1, min(nt, PASS_BYTES // (8 * sum(self.widths))))
        self.blocks = self.rows = None
        self.steps, self.done = ([], []), ([], [])

    def forward(self):
        """The rows (r, L dy, div, wall) of the next forward step."""
        if self.blocks is None:
            ends = np.cumsum((0,) + self.widths) * self.size
            buf = np.empty(ends[-1])
            self.blocks = [buf[a:b].reshape(self.size, -1) for a, b in zip(ends[:-1], ends[1:])]
            self.rows = list(zip(*self.blocks))
        return self.rows[len(self.steps[0])]


def _on_data(m, mT, data):
    """Shallow copies of a template matrix and its transpose (see
    DiscreteOperators.workspace) on the one data array data."""
    m, mT = copy.copy(m), copy.copy(mT)
    m.data = mT.data = data
    return m, mT
