"""Harmonic extension of normal boundary data.

Solves the cell-centered Neumann problem for a potential whose gradient is
the divergence-free lifting of the prescribed wall-normal velocity.  The
potential is determined up to a constant, so cell 0 is pinned to zero and
its row dropped (the rows sum to the net wall flux, which is checked to be
zero); the factored Laplacian stays symmetric and sparse, and the potential
is shifted to mean zero after the solve.  The matrix and its factor are the
grid's shared ones (DiscreteOperators.neumann), which the step solves use
to recover pressures.
"""

import numpy as np

from .errors import IncompatibleFlux, SolverDivergence
from .fields import dot
from .mesh import net_flux_violation

RESIDUAL_TOL = 1e-10


def solve_neumann_lifting(grid, a_nodes):
    """Lift normal data a into a curl-free, divergence-free velocity field.

    Returns the mean-zero potential h (cell vector) and its staggered
    gradient (face vector), whose normal trace equals a exactly on every
    wall face; the interior faces carry the potential differences.
    """
    ops = grid.ops
    a_nodes = np.asarray(a_nodes, dtype=float)
    bad = net_flux_violation(grid, a_nodes)
    if bad is not None:
        raise IncompatibleFlux(
            "net boundary flux %.3e violates the zero-mean compatibility "
            "condition on the normal data" % bad[1])
    grad, L_pin, lu = ops.neumann()
    bc = ops.bc_vec(a_nodes)
    rhs = -(grid.cell_area * (ops.Dmat @ bc))[1:]
    sol = lu.solve(rhs)
    res = L_pin @ sol - rhs
    res = np.sqrt(dot(res, res))
    if not np.isfinite(res) or res > RESIDUAL_TOL * max(1.0, np.sqrt(dot(rhs, rhs))):
        raise SolverDivergence("Neumann solve residual %.3e above tolerance" % res)
    h = np.concatenate([[0.0], sol])
    h -= h.mean()
    return h, grad @ h + bc

