import math

import numpy as np
import pytest

from landau_modular import modular_core as mc
from landau_modular import suites
from landau_modular.hs_space import matrix_unit
from landau_modular.rng import SplitMix64
from test_hs_space import superop_matrix

LN2 = math.log(2.0)


def test_weights_renormalized_geometric():
    w = mc.build_weights(LN2, 4)
    assert np.allclose(w.alpha, [8 / 15, 4 / 15, 2 / 15, 1 / 15], atol=1e-15)
    assert abs(w.alpha.sum() - 1.0) < 1e-14


def test_weights_zero_temperature_limit():
    w = mc.build_weights(30.0, 2)
    assert w.alpha[0] > 1 - 1e-12
    assert abs(w.alpha[1] / w.alpha[0] - math.exp(-30.0)) < 1e-15


def test_weights_reject_bad_input():
    with pytest.raises(ValueError):
        mc.build_weights(0.0, 4)
    with pytest.raises(ValueError):
        mc.build_weights(1.0, 1)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_weights_reject_non_finite_beta(beta):
    with pytest.raises(ValueError, match="positive and finite"):
        mc.build_weights(beta, 4)


def test_energies_are_the_gibbs_spectrum():
    # the oscillator spectrum E_n = n, exactly, is what modular_flow,
    # flow_superop and kms_function read; the weights derived from it are
    # e^(-beta n) renormalized, bit for bit as exponentiated from the levels
    for beta, n in ((0.7, 6), (1e-9, 64), (4.0, 170), (1e-310, 16)):
        w = mc.build_weights(beta, n)
        assert w.energies.dtype == float
        assert np.array_equal(w.energies, np.arange(n))
        alpha = np.exp(-beta * np.arange(n))
        alpha /= alpha.sum()
        assert w.alpha.tobytes() == alpha.tobytes()


def test_cyclic_vector_normalized_and_fixed_by_j():
    w = mc.build_weights(LN2, 4)
    phi = mc.cyclic_vector(w)
    assert np.allclose(np.diag(phi) ** 2, w.alpha)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-14
    triple = mc.build_modular_triple(w)
    assert np.linalg.norm(triple.J(phi) - phi) < 1e-15


def test_state_eval_examples():
    w = mc.build_weights(LN2, 4)
    assert abs(mc.state_eval(w, np.eye(4)) - 1.0) < 1e-14
    assert abs(mc.state_eval(w, matrix_unit(4, 0, 0)) - 8 / 15) < 1e-14
    assert mc.state_eval(w, matrix_unit(4, 0, 1)) == 0.0


def test_modular_triple_actions_at_ln2():
    # at beta = ln 2 the weight ratio alpha_i / alpha_j is 2^(j - i)
    n = 4
    t = mc.build_modular_triple(mc.build_weights(LN2, n))
    c = 1.0 + 2.0j  # S and J are antilinear: they conjugate the coefficient
    for i in range(n):
        for j in range(n):
            x, xt = matrix_unit(n, i, j), matrix_unit(n, j, i)
            ratio = 2.0 ** (j - i)
            assert np.allclose(t.delta * x, ratio * x, atol=1e-13)
            # J has weight 1, so the weight of S = J Delta^(1/2) is Delta^(1/2)
            assert np.allclose(t.S.weight * x, math.sqrt(ratio) * x, atol=1e-13)
            assert np.allclose(t.S(c * x), math.sqrt(ratio) * c.conjugate() * xt,
                               atol=1e-13)
            assert np.allclose(t.J(c * x), c.conjugate() * xt)
            assert np.allclose(t.big_h * x, (i - j) * x, atol=1e-13)


def test_superoperators_store_one_entry_per_matrix_unit():
    # each is a diagonal or a transpose times a diagonal, held as one N x N
    # array where a dense superoperator would hold N^4 entries; its action
    # matches the matrix of the defining formula, built column by column
    n = 4
    w = mc.build_weights(0.7, n)
    t = mc.build_modular_triple(w)
    flow = mc.flow_superop(w, 0.8)
    for m in (t.delta, t.big_h, t.J.weight, t.S.weight, flow):
        assert m.shape == (n, n)
    rho = np.diag(w.alpha)
    half, mhalf = np.diag(np.sqrt(w.alpha)), np.diag(1.0 / np.sqrt(w.alpha))
    h = np.diag(-np.log(w.alpha) / w.beta)  # rho = exp(-beta h)
    u = np.diag(np.exp(1j * 0.8 * np.diag(h).real))
    pairs = (
        (lambda x: t.delta * x, lambda x: rho @ x @ np.linalg.inv(rho)),
        (lambda x: t.S.weight * x, lambda x: half @ x @ mhalf),
        (lambda x: t.big_h * x, lambda x: h @ x - x @ h),
        (lambda x: flow * x, lambda x: u @ x @ u.conj().T),
        # the linear parts of the antilinear J and S: X -> J(conj X) = X^T
        # and X -> S(conj X) = rho^(-1/2) X^T rho^(1/2)
        (lambda x: t.J(x.conj()), lambda x: x.T),
        (lambda x: t.S(x.conj()), lambda x: mhalf @ x.T @ half),
    )
    for stored, formula in pairs:
        assert np.allclose(superop_matrix(stored, n), superop_matrix(formula, n),
                           rtol=0, atol=1e-13)


def test_s_conjugates_algebra_orbit():
    w = mc.build_weights(0.7, 8)
    t = mc.build_modular_triple(w)
    phi = mc.cyclic_vector(w)
    rng = SplitMix64(20)
    for _ in range(20):
        a = rng.complex_matrix(8)
        assert np.linalg.norm(t.S(a @ phi) - a.conj().T @ phi) < 1e-11


def test_modular_flow_phase_and_invariance():
    w = mc.build_weights(LN2, 4)
    x01 = matrix_unit(4, 0, 1)
    assert np.allclose(mc.modular_flow(w, 0.0, x01), x01)
    # E_1 - E_0 = (1/beta) log(alpha_0 / alpha_1) = 1 at beta = ln 2, and the
    # flow multiplies the (j, k) entry by exp(i t (E_j - E_k)); this sign is
    # the one consistent with the boundary values of kms_function
    t = 1.3
    assert np.allclose(mc.modular_flow(w, t, x01), np.exp(-1j * t) * x01,
                       atol=1e-14)
    rng = SplitMix64(21)
    a = rng.complex_matrix(4)
    assert abs(mc.state_eval(w, mc.modular_flow(w, 0.9, a))
               - mc.state_eval(w, a)) < 1e-13


# t = i beta / 4, where conjugated phases would give a multiple of
# rho^(1/4) A rho^(1/4), not rho^(1/4) A rho^(-1/4)
IMAGINARY_T = 0.25j * LN2


def test_modular_flow_rejects_imaginary_time():
    w = mc.build_weights(LN2, 4)
    with pytest.raises(ValueError, match="GibbsWeights.energies"):
        mc.modular_flow(w, IMAGINARY_T, SplitMix64(22).complex_matrix(4))


def test_flow_superop_rejects_imaginary_time():
    w = mc.build_weights(LN2, 4)
    with pytest.raises(ValueError, match="GibbsWeights.energies"):
        mc.flow_superop(w, IMAGINARY_T)


def test_kms_function_examples():
    w = mc.build_weights(LN2, 4)
    eye = np.eye(4)
    for z in (0.3, 1.0 + 0.5j):
        assert abs(mc.kms_function(w, eye, eye, z) - 1.0) < 1e-13
    x00 = matrix_unit(4, 0, 0)
    assert abs(mc.kms_function(w, x00, x00, 2.0 + 1.0j) - 8 / 15) < 1e-13
    x01, x10 = matrix_unit(4, 0, 1), matrix_unit(4, 1, 0)
    for t in (-2.0, 0.0, 1.5):
        assert abs(mc.kms_function(w, x01, x10, complex(t))
                   - w.alpha[0] * np.exp(1j * t)) < 1e-14
        assert abs(mc.kms_function(w, x01, x10, complex(t, w.beta))
                   - w.alpha[1] * np.exp(1j * t)) < 1e-14


def test_kms_function_overflow_guard():
    w = mc.build_weights(1.0, 16)
    a = np.eye(16)
    with pytest.raises(OverflowError):
        mc.kms_function(w, a, a, complex(0.0, 1e4))


def test_kms_function_reaches_the_configuration_limit():
    # beta (dim - 1) = 709.1 at dim 1014, inside ln(DBL_MAX): the largest
    # kernel modulus e^(beta spread) is a finite double, and the closed form
    # F(t + i beta) = alpha_1 e^(it) of the (E_01, E_10) pair holds
    w = mc.build_weights(0.7, 1014)
    x01, x10 = matrix_unit(1014, 0, 1), matrix_unit(1014, 1, 0)
    for t in (-2.0, 0.0, 1.0):
        f = mc.kms_function(w, x01, x10, complex(t, w.beta))
        assert abs(f - w.alpha[1] * np.exp(1j * t)) < 1e-13
    past = mc.LOG_DBL_MAX / 1013 * (1 + 1e-9)
    with pytest.raises(OverflowError):
        mc.kms_function(w, x01, x10, complex(0.0, past))


def test_kms_boundary_deviation_small():
    w = mc.build_weights(0.7, 16)
    grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert mc.kms_boundary_deviation(w, np.eye(16), np.eye(16), grid) < 1e-14
    rng = SplitMix64(22)
    for _ in range(5):
        a = rng.complex_matrix(16)
        b = rng.complex_matrix(16)
        assert mc.kms_boundary_deviation(w, a, b, grid) < 1e-10


def test_centralizer_member_and_witness():
    w = mc.build_weights(0.7, 8)
    rng = SplitMix64(23)
    diag = np.diag(rng.complex_matrix(8).diagonal())
    member, witness = mc.centralizer_member(w, diag)
    assert member and witness is None
    member, witness = mc.centralizer_member(w, matrix_unit(8, 0, 1))
    assert not member and witness == (0, 1)


def test_centralizer_agrees_with_pairing_oracle():
    w = mc.build_weights(0.7, 4)
    rng = SplitMix64(24)
    for trial in range(8):
        b = rng.complex_matrix(4)
        if trial % 2 == 0:
            b = np.diag(np.diag(b))
        member, _ = mc.centralizer_member(w, b)
        pair_dev = max(
            abs(mc.state_eval(w, b @ matrix_unit(4, k, l)
                              - matrix_unit(4, k, l) @ b))
            for k in range(4) for l in range(4))
        assert member == (pair_dev <= 1e-10)


EPS = np.finfo(float).eps


def _kms_reference_terms(w, a, b, z):
    """The N^2 terms of F(z), each kernel entry its own exponential."""
    e = w.energies
    return w.alpha[:, None] * a * b.T * np.exp(1j * z * (e[None, :] - e[:, None]))


@pytest.mark.parametrize("n", [16, 64])
def test_kms_function_matches_the_n_squared_exponentials(n):
    # the kernel as an outer product of N centred exponentials agrees with
    # N^2 exponentials of the energy differences to a few eps of the sum of
    # the terms' moduli, at real z, on the boundary strip and below it
    rng = SplitMix64(30 + n)
    for beta in (0.3, 0.7):
        w = mc.build_weights(beta, n)
        for z in (0.3, -1.7, complex(1.0, beta), complex(-2.0, beta), complex(0.5, -0.4)):
            a, b = rng.complex_matrix(n), rng.complex_matrix(n)
            terms = _kms_reference_terms(w, a, b, z)
            err = abs(mc.kms_function(w, a, b, complex(z)) - complex(np.sum(terms)))
            assert err <= 8 * EPS * float(np.sum(np.abs(terms)))


@pytest.mark.parametrize("n", [16, 64])
def test_kms_function_finite_just_under_the_overflow_limit(n):
    # beta (n - 1) a hair under ln(DBL_MAX): the centred factors stay near
    # e^355 and their outer product is finite; F(t + i beta) is the boundary
    # value Tr[rho sigma_t(B) A], which never forms a large number
    beta = mc.LOG_DBL_MAX / (n - 1) * (1 - 1e-12)
    w = mc.build_weights(beta, n)
    rng = SplitMix64(40 + n)
    a, b = rng.complex_matrix(n), rng.complex_matrix(n)
    for t in (-1.0, 0.0, 2.0):
        f = mc.kms_function(w, a, b, complex(t, beta))
        boundary = complex(np.sum(w.alpha[:, None] * mc.modular_flow(w, t, b) * a.T))
        assert np.isfinite(f)
        assert abs(f - boundary) <= 1e-12 * abs(boundary)


def _flow_block_error(w, t, a) -> float:
    """flow_preserves_left_algebra by the blocks of U(A v I)U*: its entries
    ((i, j), (k, j)) are d_ij A_ik conj(d_kj), against sigma_t(A)_ik."""
    d = mc.flow_superop(w, t)
    sig = mc.modular_flow(w, t, a)
    return max(float(np.max(np.abs((d[:, j, None] * a) * d[None, :, j].conj() - sig)))
               for j in range(w.n))


def _flow_suite_error(n) -> float:
    report = suites.run_suite("modular", suites.SuiteConfig(dim=n))[0]
    return next(c.max_error for c in report.checks
                if c.name == "flow_preserves_left_algebra")


@pytest.mark.parametrize("n", [16, 64])
def test_flow_action_agrees_with_the_block_route(monkeypatch, n):
    # the suite tests the flow on three seeded vectors, one matrix product
    # a side; the blocks of the superoperator are an independent route.
    # Both read rounding of order eps N, and both read O(1) for a flow
    # superoperator run backwards
    a = SplitMix64(50 + n).complex_matrix(n)
    w = mc.build_weights(0.7, n)
    assert _flow_block_error(w, 0.8, a) <= 2 * EPS * n
    assert _flow_suite_error(n) <= 2 * EPS * n
    superop = mc.flow_superop
    monkeypatch.setattr(mc, "flow_superop", lambda w, t: superop(w, -t))
    assert _flow_block_error(w, 0.8, a) > 0.1
    assert _flow_suite_error(n) > 0.1
