import math

import numpy as np
import pytest
from scipy.linalg import expm

from landau_modular import cgauss_quad as quad
from landau_modular import coherent_states as cs
from landau_modular import landau_modes as lm
from landau_modular.dense_linalg import adjoint, frob


def rule_default():
    return quad.build_rule(20, 24)


def test_bcs_coefficients():
    c = cs.bcs(0.0, 0.0, 4)
    assert c.shape == (5, 5)
    assert c[0, 0] == 1.0 and np.count_nonzero(c) == 1
    u, v = 0.4 + 0.2j, -0.3 + 0.8j
    c = cs.bcs(u, v, 6)
    assert abs(c[2, 3] - v**2 * np.conj(u) ** 3
               / math.sqrt(math.factorial(2) * math.factorial(3))) < 1e-15


def test_bcs_truncation_norm_converges():
    u, v = 0.9, -0.7 + 0.3j
    full = math.exp(abs(u) ** 2 + abs(v) ** 2)
    got = frob(cs.bcs(u, v, 20)) ** 2
    assert abs(got - full) < 1e-12 * full


def test_eta_sectors():
    z = 1.2 - 0.4j
    e = cs.eta(z, 5)
    assert np.count_nonzero(e[:, 1:]) == 0
    eb = cs.eta_breve(np.conj(z), 5)
    assert np.count_nonzero(eb[1:, :]) == 0
    assert np.max(np.abs(adjoint(e) - eb)) < 1e-15


def test_eta_breve_matches_row_loop():
    # the holomorphic state is bcs(z, 0) read along its first row; for the
    # numpy scalars vector_cs_check passes, it is bit-for-bit the direct
    # loop (a Python complex divides by a float with other rounding)
    for cutoff in range(2, 26):
        for z in (0.0, 1.2 - 0.4j, -0.7 + 1.9j):
            zbar = np.conj(z)
            row = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
            for n in range(cutoff + 1):
                row[0, n] = zbar**n / math.sqrt(math.factorial(n))
            assert np.array_equal(cs.eta_breve(zbar, cutoff), row)


def test_j_swap_involution_and_bcs_rule():
    u, v = 0.3 + 0.9j, -0.2 + 0.1j
    c = cs.bcs(u, v, 6)
    assert np.max(np.abs(adjoint(adjoint(c)) - c)) == 0.0
    assert np.max(np.abs(adjoint(c) - cs.bcs(v, u, 6))) < 1e-15


def test_chi_fixed_by_conjugation():
    chi = cs.chi_state(0.7, 12)
    assert abs(frob(chi) - 1.0) < 1e-14
    assert np.max(np.abs(adjoint(chi) - chi)) == 0.0
    # the un-renormalized truncation approaches sqrt(1 - e^-beta) * chi
    raw = np.diag(np.exp(-0.7 * np.arange(60) / 2.0))
    limit = math.sqrt(1 - math.exp(-0.7))
    assert np.max(np.abs(limit * raw - cs.chi_state(0.7, 59))) < 1e-14
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="inverse temperature"):
            cs.chi_state(beta, 4)


def test_reproducing_kernel_pointwise():
    z, w = 1.3 + 0.5j, -0.8 + 1.1j
    m = 25
    series = sum((np.conj(w) * z) ** n / math.factorial(n) for n in range(m + 1))
    val = cs.coeff_eval(cs.eta(z, m), w)
    assert abs(val - series) < 1e-10
    # kernel conjugate symmetry
    assert abs(val - np.conj(cs.coeff_eval(cs.eta(w, m), z))) < 1e-10


def test_resolutions_of_identity():
    rule = rule_default()
    assert cs.resolution_check("a-hol", 8, rule) < 1e-10
    assert cs.resolution_check("hol", 8, rule) < 1e-10
    assert cs.resolution_check("bcs", 8, rule) < 1e-10


def test_resolution_refuses_uncovered_rule():
    small = quad.build_rule(2, 3)
    with pytest.raises(ValueError, match="certificate"):
        cs.resolution_check("a-hol", 8, small)
    # the message names the smallest radial order that covers the cutoff
    for cutoff in (9, 10, 11):
        need = min(r for r in range(1, cutoff + 2)
                   if quad.covers_degree(quad.build_rule(r, 64), cutoff))
        with pytest.raises(ValueError, match=f"radial order >= {need} and"):
            cs.resolution_check("a-hol", cutoff, quad.build_rule(need - 1, 64))


def test_partial_isometry_mapping():
    rule = rule_default()
    m = 6
    iso = cs.partial_isometry("a-hol->hol", m, rule)
    b = np.zeros((m + 1, m + 1), dtype=complex)
    b[2, 0] = 1.0
    img = iso(b)
    assert img.shape == (m + 1, m + 1)
    assert abs(img[0, 2] - 1.0) < 1e-10
    assert abs(frob(img) - 1.0) < 1e-10
    b = np.zeros((m + 1, m + 1), dtype=complex)
    b[0, 2] = 1.0
    assert frob(iso(b)) < 1e-10
    # antilinearity: scaling the input by i scales the image by -i
    b = np.zeros((m + 1, m + 1), dtype=complex)
    b[3, 0] = 1j
    img = iso(b)
    assert abs(img[0, 3] + 1j) < 1e-10


def test_partial_isometries_compose_to_projector():
    rule = rule_default()
    m = 6
    iso = cs.partial_isometry("a-hol->hol", m, rule)
    rev = cs.partial_isometry("hol->a-hol", m, rule)
    comp = rev.matrix @ iso.matrix.conj()
    proj = cs.sector_projector("a-hol", m)
    assert np.max(np.abs(comp - proj)) < 1e-10


def test_vector_cs_residuals():
    res_a, res_b, bound = cs.vector_cs_check(0.0, 10)
    assert res_a == 0.0 and res_b == 0.0
    res_a, res_b, bound = cs.vector_cs_check(1.0, 20)
    # tail is |z|^(M+1)/sqrt(M!) = 1/sqrt(20!) here
    assert max(res_a, res_b) < 1e-9
    assert max(res_a, res_b) <= bound
    res_a, res_b, bound = cs.vector_cs_check(1.4 - 0.9j, 12)
    assert max(res_a, res_b) <= bound


def test_modular_spectral_consistency():
    assert cs.modular_spectral_check(0.7, 8) < 1e-12


def test_displacement_factorization():
    assert cs.displacement_check(0.0, 24) < 1e-14
    assert cs.displacement_check(0.5 + 0.3j, 40) < 1e-8
    with pytest.raises(ValueError):
        cs.displacement_check(0.5, 8)
    with pytest.raises(ValueError):
        cs.displacement_check(2.0, 64)


def test_displacement_vacuum_column():
    alpha = 0.4 - 0.6j
    col = cs.displacement_vacuum_column(alpha, 32)
    expect = np.array([math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n
                       / math.sqrt(math.factorial(n)) for n in range(32)])
    assert np.max(np.abs(col - expect)) < 1e-10


def test_displacement_routes_match_expm():
    alpha, ncut = 0.5 + 0.3j, 40
    a = lm.ladder(ncut)
    ad = a.conj().T
    full = expm(alpha * ad - np.conj(alpha) * a)
    assert np.max(np.abs(cs._displacement(alpha, ncut) - full)) < 1e-13
    assert np.max(np.abs(cs.displacement_vacuum_column(alpha, ncut)
                         - full[:, 0])) < 1e-14
    assert np.max(np.abs(cs._raising_exp(alpha, ncut)
                         - expm(alpha * ad))) < 1e-13
    assert np.max(np.abs(cs._raising_exp(-np.conj(alpha), ncut).T
                         - expm(-np.conj(alpha) * a))) < 1e-13
