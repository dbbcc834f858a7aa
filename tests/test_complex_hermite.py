import math
from fractions import Fraction

import pytest

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


def test_three_constructions_agree_exactly():
    for n in range(13):
        for k in range(13):
            r = chp.ch_recursion(n, k)
            assert r == chp.ch_rodrigues(n, k)
            assert r == chp.ch_explicit(n, k)


def test_rodrigues_builds_each_chain_entry_once(monkeypatch):
    assert chp.ch_rodrigues(7, 5) is chp.ch_rodrigues(7, 5)
    # from a fresh table, a 13 x 13 sweep takes one derivative step per new
    # chain entry, not the n + k steps of every call
    monkeypatch.setattr(chp, "_RODRIGUES", {(0, 0): chp.poly_const(1)})
    steps = []
    for name in ("d_z", "d_zbar"):
        step = getattr(chp, name)
        monkeypatch.setattr(chp, name,
                            lambda p, step=step: steps.append(p) or step(p))
    for n in range(13):
        for k in range(13):
            assert chp.ch_rodrigues(n, k) == chp.ch_explicit(n, k)
    assert len(steps) == 13 * 13 - 1


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
    # builds a Fraction: the explicit sum's quotients all divide evenly
    for n in range(13):
        for k in range(13):
            for route in (chp.ch_recursion, chp.ch_rodrigues, chp.ch_explicit):
                p = route(n, k)
                assert all(type(c) is int for c in p.terms.values())


def test_literal_explicit_sum_disagrees():
    assert chp.ch_explicit(1, 1, literal=True) == chp.BivarPoly({(1, 1): 1,
                                                                 (0, 0): 1})
    diff = chp.ch_explicit(1, 1, literal=True) - chp.ch_rodrigues(1, 1)
    assert diff == chp.poly_const(2)


def test_generating_function_coefficients():
    assert chp.generating_coeff(0, 0) == chp.poly_const(1)
    g11 = chp.generating_coeff(1, 1)
    assert g11 == chp.BivarPoly({(1, 1): 1, (0, 0): -1})
    assert chp.generating_check(8)


def test_ladder_actions():
    zsq = chp.BivarPoly({(0, 2): 1})
    assert chp.ladder_apply("a_minus", zsq) == chp.BivarPoly({(0, 1): 2})
    # raising from the pure-power row generates the whole family
    for k in range(7):
        p = chp.ch_recursion(0, k)
        for n in range(7):
            assert p == chp.ch_recursion(n, k)
            p = chp.ladder_apply("a_plus_dag", p)


def test_ladder_commutator_is_identity():
    p = chp.ch_recursion(3, 2) + chp.ch_recursion(1, 4).scale(Fraction(2, 3))
    lhs = chp.ladder_apply("a_minus", chp.ladder_apply("a_minus_dag", p)) \
        - chp.ladder_apply("a_minus_dag", chp.ladder_apply("a_minus", p))
    assert lhs == p


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
    assert (p + p.scale(-1)).coeffs == ()
    assert (p - p).terms == {}
    assert p.scale(0).terms == {}
    assert p - p == chp.BivarPoly({})


def test_number_operator_eigenvalues():
    zbar = chp.BivarPoly({(1, 0): 1})
    assert chp.number_apply("n_plus", zbar) == zbar
    assert chp.number_apply("n_minus", zbar) == chp.BivarPoly({})
    for n in range(7):
        for k in range(7):
            h = chp.ch_recursion(n, k)
            assert chp.number_apply("n_plus", h) == h.scale(n)
            assert chp.number_apply("n_minus", h) == h.scale(k)


def test_index_symmetry():
    for n in range(9):
        for k in range(9):
            a = dict(chp.ch_recursion(n, k).coeffs)
            b = dict(chp.ch_recursion(k, n).coeffs)
            assert {(j, m): c for (m, j), c in a.items()} == b


def test_contiguous_relations():
    for n in range(9):
        assert chp.mul_zbar(chp.ch_recursion(n, n + 1)) == \
            chp.mul_z(chp.ch_recursion(n + 1, n))
    for m in range(9):
        for k in range(9):
            lhs = chp.ch_recursion(m, k).scale(k - m)
            rhs = chp.mul_zbar(chp.ch_recursion(m, k + 1)) \
                - chp.mul_z(chp.ch_recursion(m + 1, k))
            assert lhs == rhs


def test_normalized_basis():
    b = chp.H_basis(3, 0)
    assert b.norm_sq == 6
    assert b.poly == chp.BivarPoly({(3, 0): 1})
    assert abs(chp.eval_normalized(chp.H_basis(1, 1), 1 + 1j) - 1.0) < 1e-15


def test_level_operator_eigenvalues():
    half = Fraction(1, 2)
    for n in range(7):
        for l in range(7):
            h = chp.ch_recursion(n, l)
            up = chp.number_apply("n_minus", h) + h.scale(half)
            assert up == h.scale(Fraction(2 * l + 1, 2))
            down = chp.number_apply("n_plus", h) + h.scale(half)
            assert down == h.scale(Fraction(2 * n + 1, 2))


def test_real_hermite():
    assert chp.real_hermite(0) == [1]
    assert chp.real_hermite(1) == [0, 2]
    assert chp.real_hermite(3) == [0, -12, 0, 8]
    # x h_n = n h_(n-1) + h_(n+1)/2, exactly
    for n in range(1, 9):
        x_hn = [0] + chp.real_hermite(n)
        lower = chp.real_hermite(n - 1)
        upper = chp.real_hermite(n + 1)
        for j in range(n + 2):
            lo = n * lower[j] if j < len(lower) else 0
            up = upper[j] if j < len(upper) else 0
            val = x_hn[j] if j < len(x_hn) else 0
            assert up % 2 == 0
            assert val == lo + up // 2


def test_eval():
    assert chp.eval_poly(chp.ch_recursion(1, 1), 1.0) == 0.0
    z = 0.7 - 0.3j
    assert abs(chp.eval_poly(chp.ch_recursion(0, 3), z) - z**3) < 1e-15
