import pytest


@pytest.fixture(autouse=True)
def _no_caller_vertex_budget(monkeypatch):
    # the library reads CRYSTAL_VERTEX_BUDGET wherever it enumerates, so a value
    # set by the caller would change what the suite computes; tests that need a
    # budget set it themselves
    monkeypatch.delenv("CRYSTAL_VERTEX_BUDGET", raising=False)
