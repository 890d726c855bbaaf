"""Harmonic extension of normal boundary data.

Solves the cell-centered Neumann problem for a potential whose gradient is
the divergence-free lifting of the prescribed wall-normal velocity.  The
potential is determined up to a constant, so cell 0 is pinned and its row
dropped (the rows sum to the net wall flux, which is checked to be zero).
The solve is the grid's cosine-transform solver of that pinned Laplacian
(DiscreteOperators.neumann), which the step solves also use to recover
pressures; it gives the potential shifted to mean zero, and no factor of
the Laplacian is made.  The residual is checked on the pinned system.
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
    grad, L_pin, neumann = ops.neumann()
    bc = ops.bc_vec(a_nodes)
    rhs = -(grid.cell_area * (ops.Dmat @ bc))
    h = neumann.solve(rhs[None])[0]
    res = L_pin @ (h[1:] - h[0]) - rhs[1:]
    res = np.sqrt(dot(res, res))
    if not np.isfinite(res) or res > RESIDUAL_TOL * max(1.0, np.sqrt(dot(rhs[1:], rhs[1:]))):
        raise SolverDivergence("Neumann solve residual %.3e above tolerance" % res)
    return h, grad @ h + bc
