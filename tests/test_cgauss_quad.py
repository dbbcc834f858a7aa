import math
import warnings

import numpy as np
import pytest
from scipy.special import roots_laguerre

from landau_modular import cgauss_quad as quad
from landau_modular import complex_hermite as chp


def test_rule_invariants():
    rule = quad.build_rule(8, 12)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    assert rule.nodes.shape == (8 * 12,)


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


def test_rule_rejects_non_finite_data():
    good = quad.build_rule(3, 4)
    nan_weights = np.full(good.weights.shape, np.nan)
    with pytest.raises(ValueError, match="positive"):
        quad.ComplexGaussRule(good.nodes, nan_weights, 3, 4)
    bad_nodes = good.nodes.copy()
    bad_nodes[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        quad.ComplexGaussRule(bad_nodes, good.weights, 3, 4)
    off_sum = good.weights.copy()
    off_sum[0] = np.inf
    with pytest.raises(ValueError):
        quad.ComplexGaussRule(good.nodes, off_sum, 3, 4)


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


def test_moment_sweep_at_default_orders():
    rule = quad.build_rule(40, 64)
    for m in range(13):
        for k in range(13):
            got = quad.integrate_values(
                rule, rule.nodes.conj() ** m * rule.nodes ** k)
            scale = max(1.0, math.gamma((m + k) / 2.0 + 1.0))
            assert abs(got - quad.gauss_moment(m, k)) / scale < 1e-12


def test_hermite_basis_norm_via_quadrature():
    rule = quad.build_rule(8, 9)
    b = chp.H_basis(2, 3)
    got = quad.integrate_values(
        rule, np.array([abs(chp.eval_normalized(b, z)) ** 2 for z in rule.nodes]))
    assert abs(got - 1.0) < 1e-12


def test_integrate_rejects_non_finite():
    rule = quad.build_rule(4, 4)
    with pytest.raises(ValueError, match="finite"):
        quad.integrate_values(rule, np.full(rule.nodes.shape, np.nan))
    with pytest.raises(ValueError, match="align"):
        quad.integrate_values(rule, np.ones(rule.nodes.shape[0] - 1))


def test_monotone_convergence_on_kernel():
    w = 0.9 + 0.3j
    exact = math.exp(abs(w) ** 2)
    errs = []
    for r, k in ((4, 8), (8, 16), (16, 32)):
        rule = quad.build_rule(r, k)
        z = rule.nodes
        got = quad.integrate_values(rule, np.exp(z.conj() * w + z * np.conj(w)))
        errs.append(abs(got - exact))
    assert errs[0] > errs[1] > errs[2]


def test_real_rule_normalizes_gaussian():
    x, w = quad.real_gauss_rule(40)
    total = float(np.sum(w * np.exp(-x ** 2)))
    assert abs(total - math.sqrt(math.pi)) < 1e-12


def test_export_csv(tmp_path):
    rule = quad.build_rule(3, 4)
    path = tmp_path / "rule.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        quad.export_rule_csv(rule, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,re,im,weight"
    assert len(lines) == 1 + 12
