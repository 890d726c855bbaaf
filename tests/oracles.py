"""Reference quantities the tests compare slipctl against.

Each one evaluates something slipctl computes another way (or from field
quantities instead of the assembled operators), so a test can check the
two against each other.  Nothing in slipctl calls them.  step_solve and
step_solve_transpose run one StepSolver step and its one-row pressure pass,
as a single-step caller does; step_solve_transpose gives it the data on
the free faces.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from slipctl.adjoint_solver import AdjointTrajectory
from slipctl.errors import IncompatibleFlux, SolverDivergence
from slipctl.fields import (BoundaryControl, FrictionField, components, dot,
                            face_l2, hp_norm, sample_faces, sup_face_l2)
from slipctl.lifting import solve_neumann_lifting
from slipctl.mesh import WALL_BOTTOM, WALL_LEFT, WALL_RIGHT, WALL_TOP
from slipctl.operators import (LINEAR_RESIDUAL_TOL, DiscreteOperators, StepSolver, _mv,
                               _row_blocks)


def reduced_matrix(ops, data):
    """R = Ci^T L Ci (CSR) from step_matrix data, as StepSolver fills it."""
    n = ops.reduced_indptr.size - 1
    return sp.csr_matrix((ops.reduced_data(data), ops.reduced_indices, ops.reduced_indptr),
                         shape=(n, n))


def step_solve(step, rhs_mom_full, a_nodes):
    """(y, p) of one forward step with wall data a: StepSolver.solve on the
    lift of a, then the pass over that one step."""
    y = step.solve(rhs_mom_full, step.ops.boundary_lift(np.asarray(a_nodes, dtype=float)))
    return y, step.pressures()[0]


def step_solve_transpose(step, rhs_free):
    """(lam, q) of one transposed step with data rhs_free on the free faces,
    as step_solve."""
    rhs = np.zeros(step.ops.N)
    rhs[step.ops.free_idx] = rhs_free
    lam = step.solve_transpose(rhs)
    return lam, step.pressures(trans=True)[0]


def fric_matrix(ops, alpha_nodes):
    """Friction form Ttau^T diag(w_gamma alpha) Ttau, assembled."""
    return (ops.Ttau.T @ sp.diags(ops.w_gamma * alpha_nodes) @ ops.Ttau).tocsr()


class ReferenceOperators(DiscreteOperators):
    """DiscreteOperators built by sparse algebra: Kronecker products, block
    stacks, lil edits and sp.diags products, each stencil summed by scipy,
    and the step and reduced patterns found by sorting their keys.

    DiscreteOperators builds the same matrices from index arithmetic; every
    attribute of the two must agree bit for bit.
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
        self._build_divergence(grid)
        self._build_gradients(grid)
        self._build_traces(grid)
        self._build_advection_stencils(grid)
        self.A_strain = self._assemble_strain_form()
        self._build_step_map()
        self._build_curl(grid)
        self._build_reduced_map()
        self._workspace = None
        self._reference = None
        self._neumann = None
        self._band = None

    def _build_divergence(self, g):
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
        self.Dc = self.Dmat[:, self.cons_idx].tocsr()
        self.DmatT, self.DcT = self.Dmat.T, self.Dc.T

    def _build_gradients(self, g):
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
        rows = np.arange(ngb)
        # normal trace: one signed face unknown per node
        cols = np.concatenate([w[0] for w in walls])
        sn = np.concatenate([np.full(w[0].size, w[3]) for w in walls])
        Tn = sp.csr_matrix((sn, (rows, cols)), shape=(ngb, self.N))

        # tangential trace: linear wall extrapolation averaged to midpoints
        cols = np.concatenate([np.column_stack([w[1][:-1], w[1][1:], w[2][:-1], w[2][1:]])
                               for w in walls])
        st = np.concatenate([np.full(w[1].size - 1, w[4]) for w in walls])
        data = np.column_stack([0.75 * st, 0.75 * st, -0.25 * st, -0.25 * st])
        Ttau = sp.csr_matrix((data.ravel(), (np.repeat(rows, 4), cols.ravel())),
                             shape=(ngb, self.N))
        # T = [Tn; Ttau]; Tn and Ttau are views on its rows
        self.T = sp.vstack([Tn, Ttau], format="csr")
        self.Tn, self.Ttau = _row_blocks(self.T, (ngb, ngb))
        self.TT, self.TtauT = self.T.T, self.Ttau.T
        self.Mbc = self.Tn.T.tocsr()              # Tn @ Mbc = identity; Mbc is Tn^T
        # Mbc is a signed permutation: wall-normal face cons_idx[i] takes
        # wall_sign[i] * a[wall_node[i]]
        Mc = self.Mbc[self.cons_idx]
        self.wall_node, self.wall_sign = Mc.indices, Mc.data

    def _build_advection_stencils(self, g):
        nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy
        NU, NV = self.NU, self.NV
        # Gx, Gy: derivative of each component at its own points
        Gx = sp.block_diag([sp.kron(_centred_diff(nx + 1, hx), sp.eye(ny)),
                            sp.kron(_centred_diff(nx, hx), sp.eye(ny + 1))], format="csr")
        Gy = sp.block_diag([sp.kron(sp.eye(nx + 1), _centred_diff(ny, hy)),
                            sp.kron(sp.eye(nx), _centred_diff(ny + 1, hy))], format="csr")
        # sp.kron stores a factor at least half full as dense blocks, whose
        # explicit zeros (ny = 4) would stay in the step pattern
        Gy.eliminate_zeros()
        # Px, Py: each component of the advecting field at every unknown's location
        u_at_v = sp.kron(_pair_average(nx), _edge_to_node(ny))
        v_at_u = sp.kron(_edge_to_node(nx), _pair_average(ny))
        Px = sp.bmat([[sp.eye(NU), sp.csr_matrix((NU, NV))], [u_at_v, None]], format="csr")
        Py = sp.bmat([[sp.csr_matrix((NU, NU)), v_at_u], [None, sp.eye(NV)]], format="csr")
        # the matrix-free advection derivatives apply the stacks G = [Gx; Gy]
        # and P = [Px; Py] and their transposes (CSC views on the same
        # arrays), one product for both components
        self.G = sp.vstack([Gx, Gy], format="csr")
        self.P = sp.vstack([Px, Py], format="csr")
        self.GT, self.PT = self.G.T, self.P.T

    def _build_step_map(self):
        """Fixed CSR pattern of the step operator and the linear map onto its data.

        With x = [alpha_nodes; w_vec; 1/dt; nu], W/dt and nu*A_strain each
        scale one source, and every other term of step_matrix has the form
        L^T diag(c * (S @ x)) R, which expands row by row into (row, col,
        source, coefficient) triplets.  The triplets are summed into a sparse
        map from x to the data of the union pattern.
        """
        N, nb = self.N, self.n_boundary
        nsrc = nb + N + 2
        # wall terms Ttau^T diag(w_gamma (alpha + 0.5 wn)) Ttau + Tn^T diag(0.5 w_gamma wn) Tn
        T = sp.vstack([self.Ttau, self.Tn])
        wall = _face_split(T, T, np.concatenate([self.w_gamma, 0.5 * self.w_gamma]),
                           sp.bmat([[sp.eye(nb), 0.5 * self.Tn, None],
                                    [None, self.Tn, sp.csr_matrix((nb, 2))]]))
        # advection N = diag(W Px w) Gx + diag(W Py w) Gy, entered as 0.5*(N - N^T),
        # whose diagonal cancels exactly
        eye = sp.eye(N)
        i, j, k, c = _face_split(
            sp.vstack([eye, eye]), self.G, np.concatenate([0.5 * self.Wvec, 0.5 * self.Wvec]),
            sp.hstack([sp.csr_matrix((2 * N, nb)), self.P, sp.csr_matrix((2 * N, 2))]))
        off = i != j
        i, j, k, c = i[off], j[off], k[off], c[off]
        A = self.A_strain.tocoo()
        diag = np.arange(N)
        rows, cols, src, coef = (np.concatenate(t) for t in zip(
            wall, (i, j, k, c), (j, i, k, -c),
            (diag, diag, np.full(N, nsrc - 2), self.Wvec),                # W/dt
            (A.row, A.col, np.full(A.nnz, nsrc - 1), A.data)))            # nu*A_strain
        keys = rows.astype(np.int64) * N + cols
        # with return_inverse, np.unique sorts and gives each key's position
        # in the pattern; without it, numpy 2.4 hashes, slower on these keys
        pattern, pos = np.unique(keys, return_inverse=True)
        self.step_indices = (pattern % N).astype(np.int32)
        self.step_indptr = np.searchsorted(pattern, np.arange(N + 1) * N).astype(np.int32)
        self._step_map = sp.csr_matrix((coef, (pos, src)), shape=(pattern.size, nsrc))

    def _build_curl(self, g):
        nx, ny = g.nx, g.ny
        # u = dpsi/dy on each vertical face, v = -dpsi/dx on each horizontal one
        dy = sp.diags([np.full(ny, -1 / g.hy), np.full(ny, 1 / g.hy)], [0, 1],
                      shape=(ny, ny + 1))
        dx = sp.diags([np.full(nx, 1 / g.hx), np.full(nx, -1 / g.hx)], [0, 1],
                      shape=(nx, nx + 1))
        self.curl = sp.vstack([sp.kron(sp.eye(nx + 1), dy), sp.kron(dx, sp.eye(ny + 1))],
                              format="csr")
        self.curl.eliminate_zeros()
        inner = np.arange(self.nvert).reshape(nx + 1, ny + 1)[1:nx, 1:ny].ravel()
        self.Ci = self.curl[:, inner].tocsr()
        self.Ci.eliminate_zeros()
        self.CiT = self.Ci.T
        i = np.concatenate([np.arange(nx + 1), np.full(ny, nx), np.arange(nx - 1, -1, -1),
                            np.zeros(ny - 1, dtype=int)])
        j = np.concatenate([np.zeros(nx + 1, dtype=int), np.arange(1, ny + 1), np.full(nx, ny),
                            np.arange(ny - 1, 0, -1)])
        self.loop_vertex = i * (ny + 1) + j

    def _build_reduced_map(self):
        """Pattern of R = Ci^T L Ci and its map, a row per entry of R, by
        sorting: every term (a, b, step entry) of an entry a <= b of R is
        listed, and again at (b, a) with the mirrored step entry where
        a < b; the pattern is the distinct (row, col) in order, and a row
        of the map holds its terms ordered by the unmirrored step entry."""
        N, C = self.N, self.Ci.tocoo()
        rows = np.repeat(np.arange(N), np.diff(self.step_indptr))
        cols = self.step_indices
        keys = rows.astype(np.int64) * N + cols
        mirror = np.searchsorted(keys, cols.astype(np.int64) * N + rows).astype(np.int32)
        by_face = [[] for _ in range(N)]
        for face, vert, val in zip(C.row, C.col, C.data):
            by_face[face].append((vert, val))
        a, b, src, coef = [], [], [], []
        for s_, (i, j) in enumerate(zip(rows, cols)):
            for va, ca in by_face[i]:
                for vb, cb in by_face[j]:
                    if va <= vb:
                        a.append(va); b.append(vb); src.append(s_); coef.append(ca * cb)
        a, b, src, coef = (np.array(x) for x in (a, b, src, coef))
        n, off = self.Ci.shape[1], a != b
        key = np.concatenate([a * n + b, b[off] * n + a[off]])
        col = np.concatenate([src, mirror[src[off]]])
        order_by = np.concatenate([src, src[off]])
        coef = np.concatenate([coef, coef[off]])
        pattern, pos = np.unique(key, return_inverse=True)
        order = np.lexsort((order_by, pos))
        self._reduced_map = sp.csr_matrix(
            (coef[order], col[order].astype(np.int32),
             np.searchsorted(pos[order], np.arange(pattern.size + 1)).astype(np.int32)),
            shape=(pattern.size, rows.size))
        self.reduced_indices = (pattern % n).astype(np.int32)
        self.reduced_indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)


class SaddleStep:
    """One implicit step solved directly on the pinned velocity-pressure
    saddle, the formulation the stream-function solves replace.

    The saddle is [[L[F][:, F], Gf[:, 1:]], [Df[1:], 0]] with
    Gf = -cell_area Df^T: cell 0's pressure column and divergence row are
    left out (the cell rows sum to the net wall flux, which is zero), and
    the pressures are shifted to mean zero after the solve.  It is factored
    by minimum degree on A^T A in symmetric mode.
    """

    def __init__(self, ops, dt, nu, alpha_nodes, w_vec):
        F, C = ops.free_idx, ops.cons_idx
        self.ops, self.nf = ops, F.size
        L = ops.step_matrix(dt, nu, alpha_nodes, w_vec)[F]
        Df = ops.Dmat[:, F]
        self.saddle = sp.bmat([[L[:, F], (-ops.cell_area * Df.T)[:, 1:]], [Df[1:], None]],
                              format="csc")
        self.M_fc = L[:, C]
        self.lu = spla.splu(self.saddle, permc_spec="MMD_ATA", options={"SymmetricMode": True})

    def _split(self, sol):
        cell = np.concatenate([[0.0], sol[self.nf:]])
        return sol[:self.nf], cell - cell.mean()

    def solve(self, rhs_mom_full, a_nodes):
        """(y, p) of the forward step with wall-normal data a."""
        ops = self.ops
        F, C = ops.free_idx, ops.cons_idx
        y = ops.bc_vec(a_nodes)
        rhs = np.concatenate([rhs_mom_full[F] - self.M_fc @ y[C], -(ops.Dc @ y[C])[1:]])
        y[F], p = self._split(self.lu.solve(rhs))
        return y, p

    def solve_transpose(self, rhs_free):
        """(lam, q) of the transposed step, lam zero on the walls."""
        ops = self.ops
        lam = np.zeros(ops.N)
        sol = self.lu.solve(np.concatenate([rhs_free, np.zeros(ops.ncell - 1)]), trans="T")
        lam[ops.free_idx], q = self._split(sol)
        return lam, q


def _face_split(Lm, Rm, c, Sm):
    """Triplets (i, j, k, coef) of L^T diag(c * (S @ x)) R.

    Entry (i, j) of the product gains coef * x[k] for each triplet; row b of
    L, R and S contributes every combination of one entry from each.
    """
    Lm, Rm, Sm = (sp.csr_matrix(m) for m in (Lm, Rm, Sm))
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


def integrate_interior(grid, f):
    """Midpoint-rule integral of a cell-centered sample array."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape_p:
        raise ValueError("expected cell array of shape %r, got %r" % (grid.shape_p, f.shape))
    return float(f.sum() * grid.cell_area)


def strain_tensor(grid, vec):
    """Strain components of a face vector: D11, D22 at cell centers, D12 at
    grid vertices.

    Uses the same one-sided wall stencils as the assembled viscous operator.
    """
    ops = grid.ops
    d11 = (ops.Gxu_cell @ vec).reshape(grid.shape_p)
    d22 = (ops.Gyv_cell @ vec).reshape(grid.shape_p)
    d12 = 0.5 * ((ops.Gyu_vert + ops.Gxv_vert) @ vec).reshape(
        (grid.nx + 1, grid.ny + 1))
    return d11, d22, d12


def time_lifting(grid, a_slices):
    """Slice-wise lifting of time-indexed data, as (h, grad) pairs; reuses
    the grid's Neumann factor."""
    out = []
    for k, a_k in enumerate(a_slices):
        try:
            h, grad = solve_neumann_lifting(grid, a_k)
        except (IncompatibleFlux, SolverDivergence) as exc:
            raise type(exc)("time slice %d: %s" % (k, exc))
        out.append((h, grad))
    return out


def energy_terms_of_step(trajectory, problem, k):
    """The terms of energy_identity_terms for step k alone, each product of
    the trajectory made for that step (the per-step form the block products
    replace)."""
    ops, dt = trajectory.grid.ops, trajectory.time_grid.dt
    y, yo, p = trajectory.y[k], trajectory.y[k - 1], trajectory.p[k - 1]
    alpha, W = problem.friction.alpha[k], ops.Wvec
    t_tau_sq = (ops.Ttau @ y) ** 2
    an = ops.w_gamma * (ops.Tn @ yo)
    Gp = -(trajectory.grid.cell_area) * (ops.DmatT @ p)
    load = ops.b_load(problem.controls.b[k])
    R = ops.step_matrix(dt, problem.nu, alpha, yo) @ y - W * yo / dt + Gp - load
    C = ops.cons_idx
    terms = {
        "kinetic_increment": (dot(W, y * y) - dot(W, yo * yo)) / (2 * dt),
        "numerical_dissipation": dot(W, (y - yo) ** 2) / (2 * dt),
        "strain_dissipation": problem.nu * dot(y, ops.A_strain @ y),
        "friction_dissipation": dot(ops.w_gamma * alpha, t_tau_sq),
        "advective_boundary_flux": 0.5 * dot(an, (ops.Tn @ y) ** 2 + t_tau_sq),
        "pressure_work": dot(y, Gp),
        "slip_work": -dot(y, load),
        "boundary_supply": -dot(y[C], R[C]),
    }
    terms["imbalance"] = sum(terms.values())
    return terms


# backward Euler's time rule written out with dt, for the cost, the gradient
# pairing, the duality residual and the energy estimates


def be_time_sum(dt, w, x, y):
    """dt times the sum over the slices k = 1..nt of sum_i w[i] x[k, i] y[k, i]."""
    return dt * float(np.einsum("i,ki,ki->", w, x[1:], y[1:]))


def be_dissipation(grid, dt, y, alpha, strain=1.0):
    """dt times the sum over the rows k of strain * y_k . A_strain y_k +
    sum_e w_e alpha[k, e] (Ttau y_k)_e^2."""
    ops = grid.ops
    t = (ops.Ttau @ y.T).T
    return dt * (strain * float(np.einsum("ki,ki->", y, (ops.A_strain @ y.T).T))
                 + float(np.einsum("i,ki,ki,ki->", ops.w_gamma, alpha, t, t)))


def be_cost(controls, trajectory, params):
    """evaluate_cost of the tracking misfit."""
    dt, wg = controls.time_grid.dt, controls.grid.boundary_weight
    m, a, b = trajectory.y - params.y_d, controls.a, controls.b
    return 0.5 * (be_time_sum(dt, controls.grid.ops.Wvec, m, m)
                  + params.lam1 * be_time_sum(dt, wg, a, a)
                  + params.lam2 * be_time_sum(dt, wg, b, b))


def be_pair(grad, f, g):
    """ControlGradient.pair."""
    dt, wg = grad.time_grid.dt, grad.grid.boundary_weight
    return be_time_sum(dt, wg, grad.ga, f) + be_time_sum(dt, wg, grad.gb, g)


def be_duality_residual(z, adjoint, source, f, g):
    """duality_residual."""
    lhs = be_time_sum(adjoint.time_grid.dt, adjoint.grid.ops.Wvec, source, z)
    rhs = (dot(adjoint.kernel_a[1:].ravel(), np.ravel(f[1:]))
           + dot(adjoint.kernel_b[1:].ravel(), np.ravel(g[1:])))
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + np.finfo(float).eps)


def be_adjoint_energy(adjoint, source, friction):
    """adjoint_energy_check of a nonzero source."""
    g, dt = adjoint.grid, adjoint.time_grid.dt
    diss = be_dissipation(g, dt, adjoint.p[:-1], friction.alpha[1:], strain=0.5)
    return ((sup_face_l2(g, adjoint.p) ** 2 + diss)
            / be_time_sum(dt, g.ops.Wvec, source, source))


def be_energy_bound(problem, trajectory):
    """energy_bound_report."""
    g, y = problem.grid, trajectory.y
    lhs = (sup_face_l2(g, y) ** 2
           + be_dissipation(g, problem.time_grid.dt, y[1:], problem.friction.alpha[1:]))
    hp = hp_norm(problem.controls)
    return {"lhs": lhs, "data": face_l2(g, problem.y0) ** 2 + hp ** 2 + 1.0, "hp": hp}


def trajectory_sup_l2(trajectory):
    """max over time of the velocity L2 norm (C([0,T];L2) surrogate)."""
    return max(face_l2(trajectory.grid, y) for y in trajectory.y)


def shear_oracle(grid, time_grid, c1=0.4, c2=1.0, alpha_value=1.0, nu=1.0):
    """Slip-consistent linear profile and the matching boundary data.

    y = (c1 + c2*x2, 0) solves the steady problem exactly when the normal
    data equals its wall flux and the tangential stress data is computed
    per wall from 2 nu D(y)n.tau + alpha y.tau.
    """
    y = sample_faces(grid, lambda X, Y: c1 + c2 * Y, lambda X, Y: 0.0 * X)
    ops = grid.ops
    a_nodes = ops.Tn @ y
    b_nodes = np.empty(grid.n_boundary)
    sl = grid.wall_slice
    b_nodes[sl(WALL_BOTTOM)] = -nu * c2 + alpha_value * c1
    b_nodes[sl(WALL_TOP)] = -nu * c2 - alpha_value * (c1 + c2 * grid.Ly)
    b_nodes[sl(WALL_RIGHT)] = nu * c2
    b_nodes[sl(WALL_LEFT)] = nu * c2
    nsl = time_grid.nt + 1
    controls = BoundaryControl(grid, time_grid,
                               np.tile(a_nodes, (nsl, 1)), np.tile(b_nodes, (nsl, 1)))
    friction = FrictionField.constant(grid, time_grid, alpha_value)
    return y, controls, friction


def continuum_normal_kernel(adjoint, base, k):
    """Direct discretization of pi - p.y - 2(D(p)n).n at slice k.

    The gradient uses the exact transpose kernels; this evaluates the same
    density from field quantities so the two can be compared on one
    configuration (agreement at discretization order).
    """
    g = adjoint.grid
    ops = g.ops
    p_vec = adjoint.p[k - 1] if k >= 1 else adjoint.p[0]
    y_vec = base.y[k]
    pi = adjoint.pi[k - 1].reshape(g.shape_p)

    # pi at the boundary nodes: one-sided (nearest cell) values
    nx, ny = g.nx, g.ny
    pi_b = np.empty(g.n_boundary)
    sl = g.wall_slice
    pi_b[sl(0)] = pi[:, 0]
    pi_b[sl(1)] = pi[nx - 1, :]
    pi_b[sl(2)] = pi[::-1, ny - 1]
    pi_b[sl(3)] = pi[0, ::-1]

    # p.y on the walls from the traces (p.n = 0, so only tangential parts)
    p_tau = ops.Ttau @ p_vec
    y_tau = ops.Ttau @ y_vec
    py = p_tau * y_tau

    # (D(p)n).n is D22 on horizontal walls and D11 on vertical walls,
    # evaluated one-sidedly just inside the wall
    dpn = np.empty(g.n_boundary)
    pu, pv = components(g, adjoint.p[k - 1])
    dpn[sl(0)] = (pv[:, 1] - pv[:, 0]) / g.hy
    dpn[sl(2)] = ((pv[:, ny] - pv[:, ny - 1]) / g.hy)[::-1]
    dpn[sl(1)] = (pu[nx, :] - pu[nx - 1, :]) / g.hx
    dpn[sl(3)] = ((pu[1, :] - pu[0, :]) / g.hx)[::-1]
    return pi_b - py - 2.0 * dpn


class PerStepSolver(StepSolver):
    """StepSolver with the per-step bookkeeping that the block pass
    replaces: each step forms its momentum residual without the pressure
    term, the squared norms of its data and of its velocity's divergence
    and its wall data as it is solved, and the pass stacks only those.
    solve_transpose takes the data on the free faces, and keeps L^T lam as
    LT_lam for solve_adjoint_per_step.  Its rows are lists of its own, and
    a step that fails inside at() first passes the rows of the steps
    solved before it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = ([], [])

    def _pass(self, trans):
        if self.rows[trans]:
            self.pressures(trans)

    def solve(self, rhs_mom_full, lift):
        ops, C = self.ops, self.C
        r = rhs_mom_full - _mv(self.L, lift)
        r[C] = 0.0
        dy = _mv(ops.Ci, self._solve(_mv(ops.CiT, r)))
        m = r - _mv(self.L, dy)         # rhs_mom - L y on the free rows
        m[C] = 0.0
        y = lift + dy
        self.div = _mv(ops.Dmat, y)
        self.rows[0].append((self.k, dot(r, r), dot(self.div, self.div), m, y[C]))
        return y

    def solve_transpose(self, rhs_free):
        ops, C = self.ops, self.C
        r = np.zeros(ops.N)
        r[ops.free_idx] = rhs_free
        lam = _mv(ops.Ci, self._solve(_mv(ops.CiT, r), trans=True))
        self.LT_lam = _mv(self.LT, lam)
        m = r - self.LT_lam             # rhs - L^T lam on the free rows
        m[C] = 0.0
        div = ops.cell_area * _mv(ops.Dmat, lam)
        self.rows[1].append((self.k, dot(r, r), dot(div, div), m, None))
        return lam

    def pressures(self, trans=False):
        ops, area = self.ops, self.ops.cell_area
        k, rhs_sq, div_sq, m, wall = zip(*self.rows[trans])
        self.rows[trans].clear()
        rhs_sq, div_sq = np.array(rhs_sq), np.array(div_sq)
        m = np.column_stack(m)          # a column per step
        if trans:
            x = self._pressure(-area * (ops.Dmat @ m))
            m -= ops.DmatT @ x.T
        else:
            x = self._pressure(ops.Dmat @ m)
            m += area * (ops.DmatT @ x.T)
            rhs_sq += np.square(ops.Dc @ np.column_stack(wall)).sum(axis=0)
        m[self.C] = 0.0
        rel = (np.sqrt(np.einsum("ij,ij->j", m, m) + div_sq)
               / np.maximum(np.sqrt(rhs_sq), 1e-30))
        bad = np.flatnonzero(~np.isfinite(rel) | (rel > LINEAR_RESIDUAL_TOL))
        if bad.size:
            i = bad[0]
            msg = "%s step residual %.3e above tolerance" % ("adjoint" if trans else "linear",
                                                            rel[i])
            raise SolverDivergence(msg if k[i] is None else
                                   "%s step %d: %s" % (self.sweep, k[i], msg))
        return x


def adv_cross_T_of_step(ops, y_vec, lam_vec, g_y, t_y, t_lam):
    """X(y)^T lam from the state products (g_y, t_y) = state_products(y)
    and t_lam = T lam, every product of y weighted within the step."""
    N, nb, W = ops.N, ops.n_boundary, ops.Wvec
    g_y, g_lam = g_y.reshape(2, N), _mv(ops.G, lam_vec).reshape(2, N)
    x = _mv(ops.PT, np.stack([W * g_y * lam_vec, W * y_vec * g_lam],
                             axis=-1).reshape(2 * N, 2))
    tw = ops.w_gamma * t_y.reshape(2, nb)
    xst = _mv(ops.Mbc, tw[0] * t_lam[:nb] + tw[1] * t_lam[nb:])
    return 0.5 * (x[:, 0] - x[:, 1]) + 0.5 * xst


def solve_adjoint_per_step(problem):
    """solve_adjoint with every product of the march's results made in
    the step that produced them: the right-hand side gathered on the free
    faces, and p, kernel_b, the advection part of kernel_a and the wall
    rows of L^T lam written step by step.  Its step solver must be a
    PerStepSolver (see StateProblem.step_solver)."""
    sp_ = problem.state_problem
    g, tg = sp_.grid, sp_.time_grid
    ops = g.ops
    dt = tg.dt
    yvec, U = problem.base.y, problem.source
    C = ops.cons_idx
    nslice = tg.nt + 1
    kernel_a = np.zeros((nslice, g.n_boundary))
    kernel_b = np.zeros((nslice, g.n_boundary))
    p = np.zeros((nslice, ops.N))
    lt_wall = np.empty((tg.nt, C.size))
    g_y, t_y = ops.state_products(yvec[1:])
    solver = sp_.step_solver("adjoint", problem.base.steps)
    face, sign = ops.Tn.indices, ops.Tn.data
    lam_next, cross_next = np.zeros(ops.N), np.zeros(ops.N)
    for k in range(tg.nt, 0, -1):
        rhs_full = dt * (ops.Wvec * U[k]) + ops.Wvec * lam_next / dt - cross_next
        with solver.at(k, sp_.friction.alpha[k], yvec[k - 1]) as step:
            lam_full = step.solve_transpose(rhs_full[ops.free_idx])
        lt_wall[k - 1] = step.LT_lam[C]
        t_lam = _mv(ops.T, lam_full)
        kernel_b[k] = ops.w_gamma * t_lam[g.n_boundary:]
        cross = adv_cross_T_of_step(ops, yvec[k], lam_full, g_y[k - 1], t_y[k - 1], t_lam)
        if k >= 2:
            kernel_a[k - 1] -= sign * cross[face] + 0.0
        p[k - 1] = lam_full / dt
        lam_next, cross_next = lam_full, cross
    q = solver.pressures(trans=True)[::-1]
    pair = dt * (ops.Wvec[C] * U[1:, C]) - lt_wall - (ops.DcT @ q.T).T
    kernel_a[1:, ops.wall_node] += ops.wall_sign * pair + 0.0
    pi = -q / (dt * g.cell_area)
    return AdjointTrajectory(g, tg, p, pi, kernel_a, kernel_b, problem.base.config_hash)
