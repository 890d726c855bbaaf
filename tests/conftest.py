import numpy as np
import pytest


class _SpluSpy:
    """Stands in for scipy.sparse.linalg in slipctl.operators; counts splu calls."""

    def __init__(self, module):
        self._module = module
        self.calls = 0

    def splu(self, *args, **kwargs):
        self.calls += 1
        return self._module.splu(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


@pytest.fixture
def splu_spy(monkeypatch):
    from slipctl import operators
    spy = _SpluSpy(operators.spla)
    monkeypatch.setattr(operators, "spla", spy)
    return spy


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
