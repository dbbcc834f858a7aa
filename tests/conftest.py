import pytest

from landau_modular import cgauss_quad as quad
from landau_modular import complex_hermite as ch
from landau_modular import landau_modes as lm
from landau_modular import phase_space as ps


@pytest.fixture
def fresh_caches(monkeypatch):
    """Every per-process cache of the library as a new process holds it, for
    one test; the caches it replaced come back after the test.
    test_builds.py::test_fresh_caches_resets_every_cache finds the caches."""
    monkeypatch.setattr(quad, "_RULES", {})
    monkeypatch.setattr(lm, "_LADDERS", {})
    monkeypatch.setattr(lm, "_HAMILTONIANS", {})
    monkeypatch.setattr(lm, "_VACUUM", {})
    monkeypatch.setattr(ps, "_POSITION", {})
    monkeypatch.setattr(ch, "_TABLE", {(0, 0): ch.poly_const(1)})
    monkeypatch.setattr(ch, "_RODRIGUES", {(0, 0): ch.poly_const(1)})
