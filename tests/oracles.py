"""Reference quantities the tests compare slipctl against.

Each one evaluates something slipctl computes another way (or from field
quantities instead of the assembled operators), so a test can check the
two against each other.  Nothing in slipctl calls them.
"""

import numpy as np
import scipy.sparse as sp

from slipctl.errors import IncompatibleFlux, SolverDivergence
from slipctl.fields import (BoundaryControl, FrictionField, VelocityField,
                            l2_norm)
from slipctl.lifting import LiftingResult, _solver_for
from slipctl.mesh import WALL_BOTTOM, WALL_LEFT, WALL_RIGHT, WALL_TOP


def fric_matrix(ops, alpha_nodes):
    """Friction form Ttau^T diag(w_gamma alpha) Ttau, assembled."""
    return (ops.Ttau.T @ sp.diags(ops.w_gamma * alpha_nodes) @ ops.Ttau).tocsr()


def integrate_interior(grid, f):
    """Midpoint-rule integral of a cell-centered sample array."""
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape_p:
        raise ValueError("expected cell array of shape %r, got %r" % (grid.shape_p, f.shape))
    return float(f.sum() * grid.cell_area)


def strain_tensor(y: VelocityField):
    """Strain components: D11, D22 at cell centers, D12 at grid vertices.

    Uses the same one-sided wall stencils as the assembled viscous operator.
    """
    ops = y.grid.ops
    vec = y.to_vec()
    d11 = (ops.Gxu_cell @ vec).reshape(y.grid.shape_p)
    d22 = (ops.Gyv_cell @ vec).reshape(y.grid.shape_p)
    d12 = 0.5 * ((ops.Gyu_vert + ops.Gxv_vert) @ vec).reshape(
        (y.grid.nx + 1, y.grid.ny + 1))
    return d11, d22, d12


def time_lifting(grid, a_slices):
    """Slice-wise lifting of time-indexed data; reuses the factorization."""
    solver = _solver_for(grid)
    out = []
    for k, a_k in enumerate(a_slices):
        try:
            h, grad = solver.solve(grid, np.asarray(a_k, dtype=float))
        except (IncompatibleFlux, SolverDivergence) as exc:
            raise type(exc)("time slice %d: %s" % (k, exc))
        out.append(LiftingResult(h, grad))
    return out


def trajectory_sup_l2(trajectory):
    """max over time of the velocity L2 norm (C([0,T];L2) surrogate)."""
    return max(l2_norm(y) for y in trajectory.velocities)


def shear_oracle(grid, time_grid, c1=0.4, c2=1.0, alpha_value=1.0, nu=1.0):
    """Slip-consistent linear profile and the matching boundary data.

    y = (c1 + c2*x2, 0) solves the steady problem exactly when the normal
    data equals its wall flux and the tangential stress data is computed
    per wall from 2 nu D(y)n.tau + alpha y.tau.
    """
    y = VelocityField.from_functions(grid, lambda X, Y: c1 + c2 * Y, lambda X, Y: 0.0 * X)
    ops = grid.ops
    a_nodes = ops.Tn @ y.to_vec()
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
    p_vec = adjoint.p[k - 1].to_vec() if k >= 1 else adjoint.p[0].to_vec()
    y_vec = base.velocities[k].to_vec()
    pi = adjoint.pi[k - 1].q

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
    pu = adjoint.p[k - 1].u
    pv = adjoint.p[k - 1].v
    dpn[sl(0)] = (pv[:, 1] - pv[:, 0]) / g.hy
    dpn[sl(2)] = ((pv[:, ny] - pv[:, ny - 1]) / g.hy)[::-1]
    dpn[sl(1)] = (pu[nx, :] - pu[nx - 1, :]) / g.hx
    dpn[sl(3)] = ((pu[1, :] - pu[0, :]) / g.hx)[::-1]
    return pi_b - py - 2.0 * dpn
