"""The exactness contract on a matrix of small problems, on every solve path.

Each row of the matrix (grid, domain, time steps, viscosity, friction and
control amplitude) is checked on the three ways a step is solved: the band
side (a band LU of every step), refinement against SuperLU's reference
(BAND_BOUND = 0) and refinement against the sine-capacitance reference
(BAND_BOUND = SINE_BOUND = 0).  The contract's bounds are the program's:
the energy identity closes to ENERGY_TOL, the duality residual of three
direction/source pairs is within DUALITY_TOL and the adjoint gradient of
a nonzero target, against Richardson differences in two directions, is
within GRAD_CHECK_TOL.  On each path the block products of the sweeps'
passes also give the bits of the per-step bookkeeping they replace, and at
a dt that is not a power of two the quantities of the time rule have the
bits of backward Euler written out.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from slipctl import operators, state_solver
from slipctl.adjoint_solver import (DUALITY_TOL, AdjointProblem, adjoint_energy_check,
                                    duality_residual, solve_adjoint)
from slipctl.cli import GRAD_CHECK_TOL
from slipctl.control_opt import (CostParams, GradientEngine, evaluate_cost,
                                 fd_gradient_oracle, random_admissible_control)
from slipctl.fields import FrictionField
from slipctl.linearized_solver import LinearizedProblem, solve_linearized
from slipctl.mesh import TimeGrid, build_grid
from slipctl.operators import StepStore
from slipctl.state_solver import (ENERGY_TOL, StateProblem, energy_bound_report,
                                  energy_identity_residual, solve_state)

from oracles import (PerStepSolver, be_adjoint_energy, be_cost, be_duality_residual,
                     be_energy_bound, be_pair, solve_adjoint_per_step)

# nx, ny, Lx, Ly, nt, nu, friction random in (t, s), control amplitude
ROWS = {
    "8x8": (8, 8, 1.0, 1.0, 8, 1.0, False, 0.3),
    "12x5": (12, 5, 2.0, 0.5, 6, 1.0, True, 1.0),
    "5x13": (5, 13, 0.5, 2.0, 6, 0.05, True, 1.0),
    "16x16": (16, 16, 1.0, 1.0, 16, 0.01, True, 3.0),
    "10x7": (10, 7, 1.3, 0.9, 10, 0.01, False, 10.0),
    "4x4": (4, 4, 1.0, 1.0, 5, 1e-3, True, 3.0),
}


@pytest.fixture(params=["band", "superlu", "sine"])
def path(request, monkeypatch):
    if request.param != "band":
        monkeypatch.setattr(operators, "BAND_BOUND", 0)
    if request.param == "sine":
        monkeypatch.setattr(operators, "SINE_BOUND", 0)
    return request.param


@pytest.mark.parametrize("row", ROWS)
def test_contract_matrix(row, path):
    nx, ny, Lx, Ly, nt, nu, random_friction, amplitude = ROWS[row]
    grid, tg = build_grid(nx, ny, Lx, Ly), TimeGrid(0.5, nt)
    ops = grid.ops
    rng = np.random.default_rng(nx * 100 + ny)
    alpha = rng.uniform(0.5, 1.5, (nt + 1, grid.n_boundary)) if random_friction else None
    friction = FrictionField(grid, tg, alpha)
    ctrl = random_admissible_control(grid, tg, rng, amplitude=amplitude)
    y0 = np.zeros(ops.N)
    prob = StateProblem(grid, tg, y0, ctrl, friction, nu=nu, validate=False)
    traj = solve_state(prob, StepStore(ops, nt))

    # the path taken: the sine reference wherever a vertex lies outside
    # the two outer rings, SuperLU's where its construction refuses R0
    ref = None if ops._reference is None else ops._reference[1]
    if path == "band":
        assert ref is None
    elif path == "sine" and min(nx, ny) >= 6:
        assert isinstance(ref, operators._SineLU)
    else:
        assert isinstance(ref, spla.SuperLU)

    assert energy_identity_residual(traj, prob).max() <= ENERGY_TOL

    for _ in range(3):
        d = random_admissible_control(grid, tg, rng, amplitude=1.0)
        z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
        U = rng.standard_normal((nt + 1, ops.N))
        adj = solve_adjoint(AdjointProblem(prob, traj, U))
        assert duality_residual(z, adj, U, d.a, d.b, base_hash=traj.config_hash) <= DUALITY_TOL

    y_d = 0.3 * rng.standard_normal((nt + 1, ops.N))
    engine = GradientEngine(y0, CostParams(y_d=y_d, lam1=1e-3, lam2=1e-3), friction, nu)
    grad, _ = engine.gradient(ctrl)
    for _ in range(2):
        d = random_admissible_control(grid, tg, rng, amplitude=1.0)
        adj_dd = grad.pair(d.a, d.b)
        fd = fd_gradient_oracle(engine, ctrl, (d.a, d.b), [2e-3, 1e-3])
        rich = fd["richardson"]
        denom = max(abs(adj_dd), abs(rich), fd["round_off"] / GRAD_CHECK_TOL)
        assert abs(adj_dd - rich) / denom <= GRAD_CHECK_TOL


@pytest.mark.parametrize("nt", [1, 2])
def test_block_pass_has_the_bits_of_per_step_bookkeeping(nt, path, monkeypatch):
    """The state, tangent and adjoint sweeps, whose passes and adjoint
    kernels are block products around the march, give the bits of the
    per-step bookkeeping (oracles.PerStepSolver and solve_adjoint_per_step):
    state y and p, tangent z, adjoint p, pi, kernel_a and kernel_b.  At
    nt = 1 and 2 the blocks have one and two rows."""
    nx, ny, Lx, Ly, _, nu, _, amplitude = ROWS["10x7"]
    # dt = 0.3 / nt, not a power of two, so that a division by dt rounds
    grid, tg = build_grid(nx, ny, Lx, Ly), TimeGrid(0.3, nt)
    ops = grid.ops
    rng = np.random.default_rng(nt)
    friction = FrictionField(grid, tg, rng.uniform(0.5, 1.5, (nt + 1, grid.n_boundary)))
    ctrl, d = (random_admissible_control(grid, tg, rng, amplitude=a) for a in (amplitude, 1.0))
    U = rng.standard_normal((nt + 1, ops.N))
    prob = StateProblem(grid, tg, np.zeros(ops.N), ctrl, friction, nu=nu, validate=False)

    def sweeps(adjoint):
        traj = solve_state(prob, StepStore(ops, nt))
        z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
        adj = adjoint(AdjointProblem(prob, traj, U))
        return [traj.y, traj.p, z, adj.p, adj.pi, adj.kernel_a, adj.kernel_b]

    blocks = sweeps(solve_adjoint)
    built = []

    class Counted(PerStepSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.sweep)

    monkeypatch.setattr(state_solver, "StepSolver", Counted)
    per_step = sweeps(solve_adjoint_per_step)
    assert built == ["state", "linearized", "adjoint"]
    for got, want in zip(blocks, per_step):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_time_rule_has_the_bits_of_backward_euler_written_out():
    """At dt = 0.1, not a power of two, the cost, the gradient pairing, the
    duality residual, the adjoint energy ratio and the energy bound report
    equal, with ==, backward Euler's time rule written out with dt."""
    nx, ny, Lx, Ly, _, nu, _, amplitude = ROWS["10x7"]
    grid, tg = build_grid(nx, ny, Lx, Ly), TimeGrid(0.3, 3)
    ops, shape = grid.ops, (tg.nt + 1, grid.n_boundary)
    rng = np.random.default_rng(17)
    friction = FrictionField(grid, tg, rng.uniform(0.5, 1.5, shape))
    ctrl, d = (random_admissible_control(grid, tg, rng, amplitude=a) for a in (amplitude, 1.0))
    U = rng.standard_normal((tg.nt + 1, ops.N))
    params = CostParams(y_d=0.3 * rng.standard_normal(U.shape), lam1=1e-3, lam2=2e-3)
    prob = StateProblem(grid, tg, np.zeros(ops.N), ctrl, friction, nu=nu, validate=False)
    traj = solve_state(prob, StepStore(ops, tg.nt))
    z = solve_linearized(LinearizedProblem(prob, traj, d.a, d.b))
    adj = solve_adjoint(AdjointProblem(prob, traj, U))
    grad, _ = GradientEngine(prob.y0, params, friction, nu).gradient(ctrl)

    assert evaluate_cost(ctrl, traj, params) == be_cost(ctrl, traj, params)
    assert grad.pair(d.a, d.b) == be_pair(grad, d.a, d.b)
    assert duality_residual(z, adj, U, d.a, d.b) == be_duality_residual(z, adj, U, d.a, d.b)
    assert adjoint_energy_check(adj, U, friction) == be_adjoint_energy(adj, U, friction)
    assert energy_bound_report(prob, traj) == be_energy_bound(prob, traj)
