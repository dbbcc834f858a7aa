import math
import warnings

import numpy as np
import pytest
from scipy.special import roots_laguerre

from landau_modular import cgauss_quad as quad


def test_rule_invariants():
    rule = quad.build_rule(8, 12)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    assert rule.nodes.shape == (8 * 12,)


def test_a_rule_is_shared_and_read_only():
    # BUILDS in test_builds.py counts the Golub-Welsch solves of a run
    rule = quad.build_rule(40, 64)
    assert quad.build_rule(40, 64) is rule
    for arr in (rule.nodes, rule.weights, rule.radii, rule.ring_weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_quadrature_suite_builds_no_basis_by_nodes_array():
    # the basis is evaluated on the 40 radii and the Gram is the ring x angle
    # sum: one 169 x 2560 complex array of basis values at the default orders
    # would be 6.9 MB (measured peak 1.3 MB; 2.3 MB when the Gram was summed
    # over blocks of four rings, 16.2 MB with whole-rule arrays)
    import tracemalloc

    from landau_modular.suites import SuiteConfig, run_suite
    cfg = SuiteConfig()
    tracemalloc.start()
    try:
        run_suite("quadrature", cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def _node_sum_gram(rule, deg, block=1024):
    """The basis Gram summed over the nodes, a block of them at a time: the
    route that neither factors the rule nor reads its rings."""
    gram = np.zeros(((deg + 1) ** 2,) * 2, dtype=complex)
    for b in range(0, rule.nodes.shape[0], block):
        vals = quad.basis_values(rule.nodes[b:b + block], deg).reshape(gram.shape[0], -1)
        gram += (vals * rule.weights[b:b + block]) @ vals.conj().T
    return gram


@pytest.mark.parametrize("radial, angular", [(40, 64), (86, 171), (13, 25)])
def test_factored_basis_gram_matches_node_sums(monkeypatch, radial, angular):
    from landau_modular import suites
    grams = []
    ring_angle_sum = quad.ring_angle_sum
    monkeypatch.setattr(quad, "ring_angle_sum",
                        lambda *args: grams.append(ring_angle_sum(*args)) or grams[-1])
    suites.run_suite("quadrature", suites.SuiteConfig(radial=radial, angular=angular))
    (gram,) = grams
    # measured: 1.06e-12, 1.65e-12 and 2.53e-12, the rounding of the two sums
    # on diagonal entries near 1
    rule = quad.build_rule(radial, angular)
    assert np.max(np.abs(gram - _node_sum_gram(rule, 12))) < 5e-12


def test_build_rule_rejects_bad_orders():
    with pytest.raises(ValueError):
        quad.build_rule(0, 8)
    with pytest.raises(ValueError):
        quad.build_rule(4, 1)


@pytest.mark.parametrize("order", [1, 2, 5, 20, 40, 48, 64, 100, 150, 194])
def test_gauss_laguerre_matches_scipy(order):
    x, w = quad.gauss_laguerre(order)
    xs, ws = roots_laguerre(order)
    ws = ws / ws.sum()
    # measured over these orders: nodes 2.9e-16, weights 1.7e-12 (mostly
    # scipy's own weight error), moments 1.3e-15; without the Newton steps
    # the nodes miss by 1.7e-13
    assert np.max(np.abs(x - xs) / xs) < 1e-14
    assert np.max(np.abs(w - ws) / ws) < 1e-11
    for p in range(min(2 * order - 1, 24) + 1):
        got = float(np.sum(w * x ** p))
        assert abs(got - math.factorial(p)) / math.factorial(p) < 1e-14, p


def test_largest_radial_order():
    rule = quad.build_rule(quad.MAX_RADIAL_ORDER, 2)
    assert quad.MAX_RADIAL_ORDER == 194
    assert np.all(rule.weights > 0) and np.all(np.isfinite(rule.nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning leaks out
        for order in (195, 1000):
            with pytest.raises(ValueError, match="radial order"):
                quad.build_rule(order, 2)


def test_angular_order_is_checked_before_the_laguerre_solve(monkeypatch):
    solved = []
    laguerre = quad.gauss_laguerre
    monkeypatch.setattr(quad, "gauss_laguerre",
                        lambda n: solved.append(n) or laguerre(n))
    for angular in (1, 0, -3):
        with pytest.raises(ValueError, match=r"angular order \(--angular\) must "
                           rf"be at least 2, got {angular}"):
            quad.build_rule(40, angular)
    assert solved == []


def test_underflowing_weights_name_both_orders():
    # at radial order 194 the smallest Laguerre weight is subnormal, so
    # dividing it by an angular order of 76 or more rounds it to 0
    rule = quad.build_rule(194, 75)
    assert np.all(rule.weights > 0)
    for angular in (76, 401):
        with pytest.raises(ValueError, match=r"\(--radial\) 194 with angular "
                           rf"order \(--angular\) {angular} .* underflow to 0"):
            quad.build_rule(194, angular)


def test_rule_rejects_non_finite_data():
    good = quad.build_rule(3, 4)
    nan_weights = np.full(good.ring_weights.shape, np.nan)
    with pytest.raises(ValueError, match="positive"):
        quad.ComplexGaussRule(good.radii, nan_weights, 4)
    bad_radii = good.radii.copy()
    bad_radii[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        quad.ComplexGaussRule(bad_radii, good.ring_weights, 4)
    off_sum = good.ring_weights.copy()
    off_sum[0] = np.inf
    with pytest.raises(ValueError):
        quad.ComplexGaussRule(good.radii, off_sum, 4)


def test_rule_nodes_and_weights_come_from_the_rings():
    rule = quad.build_rule(5, 7)
    assert rule.radial_order == 5 and rule.angular_order == 7
    # node r * K + j sits on ring r at angle 2 pi j / K, with weight w_r / K
    nodes = rule.nodes.reshape(5, 7)
    assert np.allclose(np.abs(nodes), rule.radii[:, None], rtol=1e-15, atol=0)
    assert np.allclose(np.angle(nodes[2]) % (2 * np.pi),
                       2 * np.pi * np.arange(7) / 7, rtol=0, atol=1e-14)
    assert np.array_equal(rule.weights.reshape(5, 7),
                          np.repeat(rule.ring_weights[:, None] / 7, 7, axis=1))
    s, w = quad.gauss_laguerre(5)
    assert np.array_equal(rule.radii, np.sqrt(s))
    assert np.array_equal(rule.ring_weights, w)


def test_covers_degree_closed_form_matches_the_monomial_loop():
    for radial in range(1, 13):
        for angular in range(2, 21):
            rule = quad.ComplexGaussRule(np.ones(radial), np.full(radial, 1 / radial),
                                         angular)
            for deg in range(31):
                loop = all(quad.covers(rule, m, k)
                           for m in range(deg + 1) for k in range(deg + 1))
                assert quad.covers_degree(rule, deg) == loop, (radial, angular, deg)


def test_basic_integrals():
    rule = quad.build_rule(10, 12)
    z = rule.nodes
    assert abs(quad.integrate_values(rule, np.ones(z.shape)) - 1.0) < 1e-14
    assert abs(quad.integrate_values(rule, z)) < 1e-14
    assert abs(quad.integrate_values(rule, abs(z) ** 2) - 1.0) < 1e-13
    assert abs(quad.integrate_values(rule, abs(z) ** 4) - 2.0) < 1e-12


def test_certificate_matches_observed_exactness():
    rule = quad.build_rule(5, 6)
    for m in range(12):
        for k in range(12):
            got = quad.integrate_values(
                rule, rule.nodes.conj() ** m * rule.nodes ** k)
            err = abs(got - quad.gauss_moment(m, k))
            scale = max(1.0, math.gamma((m + k) / 2.0 + 1.0))
            if quad.covers(rule, m, k):
                assert err / scale < 1e-13, (m, k)


def test_hermite_basis_norm_via_quadrature():
    rule = quad.build_rule(8, 9)
    got = quad.integrate_values(rule, np.abs(quad.basis_values(rule.nodes, 3)[2, 3]) ** 2)
    assert abs(got - 1.0) < 1e-12


def test_integrate_rejects_non_finite():
    rule = quad.build_rule(4, 4)
    with pytest.raises(ValueError, match="finite"):
        quad.integrate_values(rule, np.full(rule.nodes.shape, np.nan))
    with pytest.raises(ValueError, match="align"):
        quad.integrate_values(rule, np.ones(rule.nodes.shape[0] - 1))


def test_export_csv(tmp_path):
    # the CLI is the one CSV writer of a rule; its 17 significant digits
    # read back to the nodes and weights bit for bit
    import csv

    from landau_modular.cli import main

    path = tmp_path / "rule.csv"
    assert main(["export", "quad_rule", "--radial", "3", "--angular", "4",
                 "--out", str(path)]) == 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "re", "im", "weight"]
    assert len(rows) == 1 + 12
    rule = quad.build_rule(3, 4)
    assert [int(r[0]) for r in rows[1:]] == list(range(12))
    nodes = np.array([complex(float(r[1]), float(r[2])) for r in rows[1:]])
    weights = np.array([float(r[3]) for r in rows[1:]])
    assert np.array_equal(nodes, rule.nodes)
    assert np.array_equal(weights, rule.weights)
