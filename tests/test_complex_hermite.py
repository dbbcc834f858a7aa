import math
from fractions import Fraction

import numpy as np
import pytest

from landau_modular import cgauss_quad as quad
from landau_modular import complex_hermite as chp
from landau_modular.suites import SuiteConfig, run_suite


def test_base_cases():
    assert chp.ch_recursion(0, 0) == chp.poly_const(1)
    assert chp.ch_recursion(1, 1) == chp.BivarPoly({(1, 1): 1, (0, 0): -1})
    assert chp.ch_recursion(2, 1) == chp.BivarPoly({(2, 1): 1, (1, 0): -2})


def test_pure_power_rows():
    for k in range(6):
        assert chp.ch_rodrigues(0, k) == chp.BivarPoly({(0, k): 1})
        assert chp.ch_rodrigues(k, 0) == chp.BivarPoly({(k, 0): 1})
    # deep enough that a recursive table fill would exhaust the Python stack
    assert chp.ch_recursion(1200, 0) == chp.BivarPoly({(1200, 0): 1})


def test_recursion_builds_each_entry_once():
    assert chp.ch_recursion(7, 5) is chp.ch_recursion(7, 5)


def test_rodrigues_builds_each_chain_entry_once():
    # BUILDS in test_builds.py counts the derivative steps of a sweep
    assert chp.ch_rodrigues(7, 5) is chp.ch_rodrigues(7, 5)


def _three_way_passes() -> bool:
    checks = run_suite("hermite", SuiteConfig())[0].checks
    return next(c for c in checks if c.name == "three_way_equality").passed


def test_each_route_reads_only_its_own_table(monkeypatch):
    for n in range(13):
        for k in range(13):
            chp.ch_recursion(n, k)
            chp.ch_rodrigues(n, k)
    assert _three_way_passes()
    wrong = chp.poly_const(7)
    monkeypatch.setitem(chp._TABLE, (3, 2), wrong)
    assert chp.ch_recursion(3, 2) is wrong
    assert not _three_way_passes()
    for n in range(13):
        for k in range(13):
            assert chp.ch_rodrigues(n, k) == chp.ch_explicit(n, k)
    monkeypatch.undo()
    monkeypatch.setitem(chp._RODRIGUES, (3, 2), wrong)
    assert chp.ch_rodrigues(3, 2) == wrong.scale(-1)
    assert not _three_way_passes()
    for n in range(13):
        for k in range(13):
            assert chp.ch_recursion(n, k) == chp.ch_explicit(n, k)


def test_recursion_and_rodrigues_coefficients_are_ints():
    # every coefficient (-1)^j j! C(n, j) C(k, j) is an integer, so no route
    # builds a Fraction: the explicit sum's term ratios all divide evenly
    for n in range(13):
        for k in range(13):
            for route in (chp.ch_recursion, chp.ch_rodrigues, chp.ch_explicit):
                p = route(n, k)
                assert all(type(c) is int for c in p.terms.values())


def test_explicit_sum_matches_recursion_at_large_indices():
    # the term ratios past the 13 x 13 block that the hermite suite compares
    for n, k in ((40, 37), (100, 3), (170, 2)):
        assert chp.ch_explicit(n, k) == chp.ch_recursion(n, k)


def test_literal_terms_are_falling_factorial_products():
    # the printed sum's coefficient of zbar^(n-j) z^(k-j) is
    # n! k! / ((n-j)! (k-j)!)
    for n, k in ((2, 3), (7, 4), (12, 12), (40, 37)):
        assert chp.ch_explicit(n, k, literal=True).terms == {
            (n - j, k - j): math.perm(n, j) * math.perm(k, j)
            for j in range(min(n, k) + 1)}


def test_literal_explicit_sum_disagrees():
    assert chp.ch_explicit(1, 1, literal=True) == chp.BivarPoly({(1, 1): 1,
                                                                 (0, 0): 1})
    diff = chp.ch_explicit(1, 1, literal=True) - chp.ch_rodrigues(1, 1)
    assert diff == chp.poly_const(2)


def test_scale_keeps_coefficients_exact():
    p = chp.BivarPoly({(2, 1): 3, (0, 4): Fraction(1, 2), (1, 0): -5})
    half = p.scale(0.5)
    assert half == chp.BivarPoly({(2, 1): Fraction(3, 2), (0, 4): Fraction(1, 4),
                                  (1, 0): Fraction(-5, 2)})
    assert all(type(c) is Fraction for c in half.terms.values())
    h = chp.ch_recursion(3, 2)
    assert h.scale(-4) == chp.BivarPoly({mk: -4 * c for mk, c in h.terms.items()})
    assert all(type(c) is int for c in h.scale(-4).terms.values())


@pytest.mark.parametrize("factor", [1j, chp.QC(0, 1)])
def test_scale_rejects_a_complex_factor(factor):
    with pytest.raises(TypeError):
        chp.ch_recursion(2, 1).scale(factor)


def test_cancelled_terms_leave_the_map():
    p = chp.BivarPoly({(2, 1): 3, (0, 4): Fraction(1, 2), (1, 0): -5})
    assert (p + p.scale(-1)).terms == {}
    assert (p - p).terms == {}
    assert p.scale(0).terms == {}
    assert p - p == chp.BivarPoly({})


def test_normalized_basis():
    # B[3, 0] = zbar^3 / sqrt(3!) and B[1, 1] = zbar z - 1
    z = 0.6 - 0.8j
    assert abs(quad.basis_values(z, 3)[3, 0] - z.conjugate() ** 3 / math.sqrt(6)) < 1e-15
    assert abs(quad.basis_values(1 + 1j, 1)[1, 1] - 1.0) < 1e-15


def _exact_basis_value(n, k, z):
    """B[n, k](zbar, z) from the exact map of ch_recursion, summed in
    (m, j) order over its monomials zbar^m z^j, and the sum of the
    monomials' magnitudes on the same scale, which bounds its rounding."""
    z = complex(z)
    terms = [complex(c) * z.conjugate() ** m * z**j
             for (m, j), c in sorted(chp.ch_recursion(n, k).terms.items())]
    norm = math.sqrt(math.factorial(n) * math.factorial(k))
    return sum(terms) / norm, sum(abs(t) for t in terms) / norm


@pytest.mark.parametrize("z", [0.7 + 0.2j,
                               np.array([0.0, 0.3, 1.1, 1.9]),
                               np.array([[-1.1 + 0.9j, 1.5 - 1.2j, 0.4 + 1.8j],
                                         [0.0, -0.5j, 1.3 + 0.1j]])],
                         ids=["0-d", "1-d", "2-d"])
def test_basis_values_match_the_exact_tables(z):
    vals = quad.basis_values(z, 12)
    assert vals.shape == (13, 13) + np.shape(z)
    eps = np.finfo(float).eps
    for n in range(13):
        for k in range(13):
            for i in np.ndindex(np.shape(z)):
                exact, scale = _exact_basis_value(n, k, np.asarray(z)[i])
                # measured: at most 3.1 eps of the monomials' magnitudes
                assert abs(vals[(n, k) + i] - exact) <= 64 * eps * scale


def test_eval():
    # B[1, 1](1) = 1 - 1 and B[0, 3] = z^3 / sqrt(3!)
    assert quad.basis_values(1.0, 1)[1, 1] == 0.0
    z = 0.7 - 0.3j
    assert abs(quad.basis_values(z, 3)[0, 3] * math.sqrt(6) - z**3) < 1e-15
