"""Backward adjoint sweep: the exact transpose of the linearized stepping.

The adjoint is derived from the discrete Lagrangian of the space-time
linear map (f, g) -> z, so the duality pairing

    sum_k dt <U_k, z_k>  =  sum_k [<Ga_k, f_k> + <Gb_k, g_k>]

holds to solver precision.  The boundary kernels Ga, Gb are the columns of
the transposed system collected at the control entries; divided by the
space-time quadrature weights they are the discrete counterparts of the
normal-component kernel pi - p.y - 2(D(p)n).n and the tangential kernel
p.tau, and they feed the cost gradient directly.
"""

import csv

import numpy as np

from .errors import BaseTrajectoryMissing
from .fields import PressureField, StateTrajectory, VelocityField, l2_norm
from .operators import StepSolver
from .state_solver import StateProblem


class AdjointProblem:
    def __init__(self, state_problem: StateProblem, base: StateTrajectory, source):
        """source: list of nt+1 VelocityFields (slice 0 unused)."""
        if base is None or len(base.velocities) != state_problem.time_grid.nt + 1:
            raise BaseTrajectoryMissing("complete base trajectory required")
        self.state_problem = state_problem
        self.base = base
        self.source = source


class AdjointTrajectory:
    """Adjoint velocity/pressure slices plus integrated boundary kernels.

    p has nt+1 slices with p(T) identically zero and p.n = 0 on the walls;
    kernel_a/kernel_b hold the integrated pairings (slice 0 is zero), and
    normal_kernel/tangent_kernel the pointwise densities on Gamma.
    """

    def __init__(self, grid, time_grid, p_slices, pi_slices,
                 kernel_a, kernel_b, config_hash):
        self.grid = grid
        self.time_grid = time_grid
        self.p = p_slices
        self.pi = pi_slices
        self.kernel_a = kernel_a
        self.kernel_b = kernel_b
        self.config_hash = config_hash

    def _point_density(self, integrated):
        dt = self.time_grid.dt
        wg = self.grid.boundary_weight
        out = np.zeros_like(integrated)
        out[1:] = integrated[1:] / (dt * wg[None, :])
        return out

    @property
    def normal_kernel(self):
        return self._point_density(self.kernel_a)

    @property
    def tangent_kernel(self):
        return self._point_density(self.kernel_b)

    def export_kernels_csv(self, prefix):
        """Write <prefix>_normal.csv and <prefix>_tangent.csv (t, s, value)."""
        times = self.time_grid.times()
        for name, kern in (("normal", self.normal_kernel),
                           ("tangent", self.tangent_kernel)):
            with open("%s_%s.csv" % (prefix, name), "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["t", "s", "value"])
                for k in range(1, self.time_grid.nt + 1):
                    for e in range(self.grid.n_boundary):
                        wr.writerow(["%.17g" % times[k],
                                     "%.17g" % self.grid.boundary_s[e],
                                     "%.17g" % kern[k, e]])


def solve_adjoint(problem: AdjointProblem) -> AdjointTrajectory:
    """Backward transpose sweep k = nt..1 around the stored base state."""
    sp_ = problem.state_problem
    g, tg = sp_.grid, sp_.time_grid
    ops = g.ops
    dt = tg.dt
    yvec = problem.base.velocity_vecs()
    U = [s.to_vec() if isinstance(s, VelocityField) else np.asarray(s, dtype=float)
         for s in problem.source]

    nslice = tg.nt + 1
    kernel_a = np.zeros((nslice, g.n_boundary))
    kernel_b = np.zeros((nslice, g.n_boundary))
    p_slices = [None] * nslice
    pi_slices = [None] * tg.nt
    p_slices[tg.nt] = VelocityField(g)

    lam_next = np.zeros(ops.N)   # lambda_{k+1}, extended by zero on the walls
    cross_next = np.zeros(ops.N)  # X(y_{k+1})^T lambda_{k+1}
    for k in range(tg.nt, 0, -1):
        rhs_full = dt * (ops.Wvec * U[k]) + ops.Wvec * lam_next / dt - cross_next
        step = StepSolver(ops, dt, sp_.nu, sp_.friction.alpha[k], yvec[k - 1])
        lam_full, q = step.solve_transpose(rhs_full[ops.free_idx])

        # pairing against f_k: direct cost term, implicit coupling, divergence
        pair = np.zeros(ops.N)
        pair[ops.cons_idx] = (dt * (ops.Wvec * U[k])[ops.cons_idx]
                              - step.M_fc.T @ lam_full[ops.free_idx]
                              - ops.Dc.T @ q)
        kernel_a[k] += ops.Mbc.T @ pair
        kernel_b[k] = ops.w_gamma * (ops.Ttau @ lam_full)

        # pairing of f_{k-1} through the frozen-advection derivative of step k
        cross = ops.apply_adv_cross_T(yvec[k], lam_full)
        if k >= 2:
            kernel_a[k - 1] += -(ops.Mbc.T @ cross)

        p_slices[k - 1] = VelocityField.from_vec(g, lam_full / dt)
        pi_slices[k - 1] = PressureField(
            g, (-q / (dt * g.cell_area)).reshape(g.shape_p), mean_zero=True)
        lam_next = lam_full
        cross_next = cross

    return AdjointTrajectory(g, tg, p_slices, pi_slices, kernel_a, kernel_b,
                             problem.base.config_hash)


def duality_residual(z_slices, adjoint: AdjointTrajectory, source, f, g_dir,
                     base_hash=None):
    """Relative gap between the volume pairing of (z, U) and the boundary pairing.

    Exact (up to linear-solve residuals) for the transpose construction.
    """
    if base_hash is not None and adjoint.config_hash != base_hash:
        raise ValueError("adjoint and linearized solves use different base trajectories")
    tg = adjoint.time_grid
    ops = adjoint.grid.ops
    dt = tg.dt
    lhs = 0.0
    for k in range(1, tg.nt + 1):
        Uk = source[k].to_vec() if isinstance(source[k], VelocityField) else source[k]
        lhs += dt * np.dot(ops.Wvec * Uk, z_slices[k].to_vec())
    rhs = 0.0
    for k in range(1, tg.nt + 1):
        rhs += np.dot(adjoint.kernel_a[k], f[k]) + np.dot(adjoint.kernel_b[k], g_dir[k])
    denom = abs(lhs) + abs(rhs) + np.finfo(float).eps
    return abs(lhs - rhs) / denom


def adjoint_energy_check(adjoint: AdjointTrajectory, source, friction):
    """Measured constant of the adjoint energy estimate.

    Ratio of sup-in-time kinetic energy plus strain and friction
    dissipation of p against the space-time L2 norm of the source.
    """
    g, tg = adjoint.grid, adjoint.time_grid
    ops = g.ops
    dt = tg.dt
    sup_sq = max(l2_norm(p) ** 2 for p in adjoint.p)
    diss = 0.0
    fric = 0.0
    usq = 0.0
    for k in range(1, tg.nt + 1):
        pv = adjoint.p[k - 1].to_vec()
        diss += dt * 0.5 * np.dot(pv, ops.A_strain @ pv)
        fr = ops.fric_matrix(friction.alpha[k])
        fric += dt * np.dot(pv, fr @ pv)
        Uk = source[k].to_vec() if isinstance(source[k], VelocityField) else source[k]
        usq += dt * np.dot(ops.Wvec * Uk, Uk)
    if usq == 0.0:
        return 0.0
    return (sup_sq + diss + fric) / usq


def continuum_normal_kernel(adjoint: AdjointTrajectory, base: StateTrajectory, k):
    """Direct discretization of pi - p.y - 2(D(p)n).n at slice k.

    Diagnostic only: the gradient uses the exact transpose kernels; this
    evaluates the same density from field quantities so the two can be
    compared on one configuration (agreement at discretization order).
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
