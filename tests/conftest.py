import numpy as np
import pytest


class _FactorSpy:
    """Stands in for slipctl.operators._factor; counts factorizations, by
    SuperLU, band LU or sine-capacitance reference alike."""

    def __init__(self, factor):
        self._factor = factor
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._factor(*args, **kwargs)


@pytest.fixture
def factor_spy(monkeypatch):
    from slipctl import operators
    spy = _FactorSpy(operators._factor)
    monkeypatch.setattr(operators, "_factor", spy)
    return spy


@pytest.fixture
def factor_log(monkeypatch):
    """The (sweep, step) of every factorization of a step's own R
    (StepSolver._factor), in order."""
    from slipctl.operators import StepSolver
    real, log = StepSolver._factor, []

    def recording(self):
        log.append((self.sweep, self.k))
        return real(self)

    monkeypatch.setattr(StepSolver, "_factor", recording)
    return log


@pytest.fixture
def refining(monkeypatch):
    """The refinement side of the band rule on every grid (BAND_BOUND = 0):
    the sweeps refine against the reference factor, as above the bound."""
    from slipctl import operators
    monkeypatch.setattr(operators, "BAND_BOUND", 0)


@pytest.fixture
def stokes_slip_solve():
    """One implicit step of the linearized (Picard) slip system, solved on
    the step's own factor: (grid, advecting, y_prev, a_next, b_next,
    alpha_next, dt, nu=1.0) -> (face vector, mean-zero cell pressure)."""
    from slipctl.operators import StepSolver
    from oracles import step_solve

    def solve(grid, advecting, y_prev, a_next, b_next, alpha_next, dt, nu=1.0):
        ops = grid.ops
        step = StepSolver(ops, dt, nu).step(alpha_next, advecting)
        rhs = ops.Wvec * y_prev / dt + ops.b_load(np.asarray(b_next, dtype=float))
        return step_solve(step, rhs, a_next)
    return solve
