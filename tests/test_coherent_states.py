import math

import numpy as np
import pytest
from scipy.linalg import expm

from landau_modular import cgauss_quad as quad
from landau_modular import coherent_states as cs
from landau_modular import landau_modes as lm
from landau_modular import modular_core as mc
from landau_modular.dense_linalg import adjoint, frob
from landau_modular.rng import SplitMix64


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
    # the thermal vector sum e^(-n beta/2) B[n, n] on cutoff M, renormalized,
    # is the Gibbs cyclic vector on M + 1 levels
    chi = mc.cyclic_vector(mc.build_weights(0.7, 13))
    assert abs(frob(chi) - 1.0) < 1e-14
    assert np.max(np.abs(adjoint(chi) - chi)) == 0.0
    assert np.max(np.abs(mc.conjugation_J(13)(chi) - chi)) == 0.0
    # the un-renormalized truncation approaches sqrt(1 - e^-beta) * chi
    raw = np.diag(np.exp(-0.7 * np.arange(60) / 2.0))
    limit = math.sqrt(1 - math.exp(-0.7))
    chi60 = mc.cyclic_vector(mc.build_weights(0.7, 60))
    assert np.max(np.abs(limit * raw - chi60)) < 1e-14
    for beta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="inverse temperature"):
            mc.cyclic_vector(mc.build_weights(beta, 5))


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


def test_coherent_suite_builds_one_moment_matrix(monkeypatch):
    from landau_modular.suites import SuiteConfig, run_suite
    # a fresh rule table gives a fresh rule, which has no moment matrix yet
    monkeypatch.setattr(quad, "_RULES", {}, raising=False)
    calls = []
    integrate = cs.integrate_values
    monkeypatch.setattr(cs, "integrate_values",
                        lambda rule, v: calls.append(rule) or integrate(rule, v))
    cfg = SuiteConfig()
    run_suite("coherent", cfg)
    # one G at the cutoff: (cutoff + 1)^2 sums, all on the one shared rule,
    # shared by both resolutions, the bi-coherent block and both isometries
    assert len(calls) == (cfg.cutoff + 1) ** 2
    assert all(r is quad.build_rule(cfg.radial, cfg.angular) for r in calls)


def test_hand_built_rule_gets_its_own_moment_matrix():
    shared = quad.build_rule(20, 24)
    g = cs._moment_matrix(shared, 6)
    assert not g.flags.writeable
    # equal orders and equal arrays still make a different rule, with its own
    # G; built at a smaller cutoff, it is the leading block of the larger one
    same = quad.ComplexGaussRule(shared.nodes.copy(), shared.weights.copy(), 20, 24)
    assert same != shared and hash(same) != hash(shared)
    assert np.array_equal(cs._moment_matrix(same, 4), g[:5, :5])
    scaled = quad.ComplexGaussRule(1.1 * shared.nodes, shared.weights, 20, 24)
    g_scaled = cs._moment_matrix(scaled, 6)
    assert np.allclose(np.diag(g_scaled).real, 1.21 ** np.arange(7), rtol=1e-10)
    assert np.max(np.abs(g - np.eye(7))) < 1e-10
    assert cs.resolution_check("a-hol", 6, scaled) > 1.0
    assert cs.resolution_check("a-hol", 6, shared) < 1e-10


def test_partial_isometry_mapping():
    rule = rule_default()
    m = 6
    iso = cs.partial_isometry("a-hol->hol", m, rule)
    assert iso.shape == (m + 1, m + 1)
    # B[2, 0], read as its column, goes to B[0, 2], written as the row
    v = np.zeros(m + 1, dtype=complex)
    v[2] = 1.0
    img = iso @ v.conj()
    assert abs(img[2] - 1.0) < 1e-10
    assert abs(np.linalg.norm(img) - 1.0) < 1e-10
    # antilinearity: scaling the input by i scales the image by -i
    v = np.zeros(m + 1, dtype=complex)
    v[3] = 1j
    img = iso @ v.conj()
    assert abs(img[3] + 1j) < 1e-10


def test_partial_isometries_compose_to_projector():
    rule = rule_default()
    m = 6
    iso = cs.partial_isometry("a-hol->hol", m, rule)
    rev = cs.partial_isometry("hol->a-hol", m, rule)
    # on the source sector, which is all the composition reads
    assert np.max(np.abs(rev @ iso.conj() - np.eye(m + 1))) < 1e-10


def _coherent_columns(rule, cutoff, kind):
    """Flattened eta_z (kind 'a-hol') or eta_breve(zbar) (kind 'hol') at
    every node of the rule, one column per node."""
    state = cs.eta if kind == "a-hol" else (lambda z, c: cs.eta_breve(np.conj(z), c))
    return np.array([state(z, cutoff).reshape(-1) for z in rule.nodes]).T


def embedded_isometry(kind, cutoff, rule):
    """The (M+1)^2-square linear part of a partial isometry on flattened
    coefficient arrays, from the kernel integral itself: the map
    f -> integral out(z) conj(<in(z), f>) dnu has the linear part
    integral out(z) in(z)^T dnu.  The independent reference for the sector
    form."""
    source, target = kind.split("->")
    a = _coherent_columns(rule, cutoff, target)
    b = _coherent_columns(rule, cutoff, source)
    return (a * rule.weights) @ b.T


def _apply_sector_map(kind, k, c):
    """The sector form's image of a full coefficient array c."""
    out = np.zeros_like(c)
    if kind == "a-hol->hol":
        out[0, :] = k @ c[:, 0].conj()
    else:
        out[:, 0] = k @ c[0, :].conj()
    return out


def shifted_rule():
    """The default rule's weights on nodes moved off the origin: its moment
    matrix is a Hermitian G with complex entries, far from the identity,
    so G, conj(G) and the identity can be told apart."""
    shared = rule_default()
    return quad.ComplexGaussRule(shared.nodes + (0.3 - 0.2j), shared.weights,
                                 shared.radial_order, shared.angular_order)


@pytest.mark.parametrize("kind", ["a-hol->hol", "hol->a-hol"])
def test_partial_isometry_matches_embedded_kernel_integral(kind):
    m = 6
    for rule in (rule_default(), shifted_rule()):
        k = cs.partial_isometry(kind, m, rule)
        ref = embedded_isometry(kind, m, rule)
        scale = np.max(np.abs(ref))
        rng = SplitMix64(31)
        for _ in range(4):
            c = rng.complex_matrix(m + 1)
            want = (ref @ c.reshape(-1).conj()).reshape(m + 1, m + 1)
            got = _apply_sector_map(kind, k, c)
            tol = 1e-13 * scale * frob(c)
            assert np.max(np.abs(got - want)) < tol
            # antilinear: i c goes to -i times the image
            assert np.max(np.abs(_apply_sector_map(kind, k, 1j * c) + 1j * got)) < tol
            # the complement of the source sector is killed, in both forms
            off = c.copy()
            if kind == "a-hol->hol":
                off[:, 0] = 0.0
            else:
                off[0, :] = 0.0
            assert not np.any(ref @ off.reshape(-1).conj())
            assert not np.any(_apply_sector_map(kind, k, off))


@pytest.mark.parametrize("kind", ["a-hol", "hol"])
def test_resolution_check_matches_embedded_projector(kind):
    m = 6
    for rule in (rule_default(), shifted_rule()):
        cols = _coherent_columns(rule, m, kind)
        integral = (cols * rule.weights) @ cols.conj().T
        ref = float(np.max(np.abs(integral - np.diag(cs.sector_projector(kind, m)))))
        got = cs.resolution_check(kind, m, rule)
        assert abs(got - ref) <= 1e-13 * max(1.0, ref)
    # the exact rule resolves its sector, the shifted one does not
    assert cs.resolution_check(kind, m, rule_default()) < 1e-10
    assert cs.resolution_check(kind, m, shifted_rule()) > 1.0


def test_coherent_suite_stays_at_sector_size():
    # the suite's peak memory stays below one (M+1)^2 x (M+1)^2 complex
    # array, 16 * 41^4 B = 45 MB at cutoff 40
    import tracemalloc

    from landau_modular.suites import SuiteConfig, run_suite
    cfg = SuiteConfig(cutoff=40, radial=48, angular=96)
    tracemalloc.start()
    try:
        run_suite("coherent", cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * (cfg.cutoff + 1) ** 4


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
