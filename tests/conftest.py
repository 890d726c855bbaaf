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
