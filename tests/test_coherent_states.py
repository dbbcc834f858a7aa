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


def test_resolution_refuses_uncovered_rule():
    small = quad.build_rule(2, 3)
    with pytest.raises(ValueError, match="certificate"):
        cs.moment_matrix(small, 8)
    # the message names the smallest radial order that covers the cutoff
    for cutoff in (9, 10, 11):
        need = min(r for r in range(1, cutoff + 2)
                   if quad.covers_degree(quad.build_rule(r, 64), cutoff))
        with pytest.raises(ValueError,
                           match=rf"radial order \(--radial\) >= {need} and"):
            cs.moment_matrix(quad.build_rule(need - 1, 64), cutoff)


@pytest.mark.parametrize("warm, cfg", [
    ((40, 64, 63), {}),
    ((86, 171, 170), {"cutoff": 8, "radial": 86, "angular": 171}),
])
def test_coherent_report_does_not_depend_on_earlier_moment_matrices(
        warm, cfg, fresh_caches):
    # a G at a larger cutoff on the same rule sums its ring products in
    # another order; a report read from a block of it would differ in the
    # last bits from a fresh one (the first four checks at the default
    # configuration, moment_factorization at cutoff 8)
    from landau_modular.suites import SuiteConfig, report_to_json, run_suite

    def report():
        return report_to_json(run_suite("coherent", SuiteConfig(**cfg))[0])

    # fresh_caches: new rules, on which nothing has been built yet
    fresh = report()
    radial, angular, cutoff = warm
    cs.moment_matrix(quad.build_rule(radial, angular), cutoff)
    assert report() == fresh


def test_hand_built_rule_gets_its_own_moment_matrix():
    shared = quad.build_rule(20, 24)
    g = cs.moment_matrix(shared, 6)
    # equal ring data still make a different rule
    same = quad.ComplexGaussRule(shared.radii.copy(), shared.ring_weights.copy(), 24)
    assert same != shared and hash(same) != hash(shared)
    scaled = quad.ComplexGaussRule(1.1 * shared.radii, shared.ring_weights, 24)
    g_scaled = cs.moment_matrix(scaled, 6)
    assert np.allclose(np.diag(g_scaled).real, 1.21 ** np.arange(7), rtol=1e-10)
    assert np.max(np.abs(g - np.eye(7))) < 1e-10
    assert np.max(np.abs(g_scaled - np.eye(7))) > 1.0


def _node_sums(nodes, weights, cutoff, block=1024):
    """G summed over the nodes, a block of them at a time, by matrix
    products: a route that neither factors a rule nor calls
    integrate_values."""
    norms = np.array([math.sqrt(math.factorial(n)) for n in range(cutoff + 1)])
    g = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for b in range(0, nodes.shape[0], block):
        z = nodes[b:b + block]
        pows = np.array([z**n for n in range(cutoff + 1)]) / norms[:, None]
        g += (pows * weights[b:b + block]) @ pows.conj().T
    return g


@pytest.mark.parametrize("radial, angular, cutoff",
                         [(40, 64, 10), (48, 96, 16), (86, 171, 170)])
def test_factored_moment_matrix_matches_node_sums(radial, angular, cutoff):
    # measured: 6.7e-16, 6.7e-16 and 3.2e-14
    rule = quad.build_rule(radial, angular)
    g = cs.moment_matrix(rule, cutoff)
    assert np.max(np.abs(g - _node_sums(rule.nodes, rule.weights, cutoff))) < 1e-13
    k = min(cutoff, 10) + 1
    assert cs.moment_factorization_check(rule, g[:k, :k]) < 1e-13


@pytest.mark.parametrize("part", ["_angular_means", "ring_powers"])
def test_corrupted_factor_turns_moment_factorization_red(monkeypatch, part):
    from landau_modular.suites import SuiteConfig, run_suite

    def corrupt(out):
        out = out.copy()
        out[-1] = out[-1] * (1.0 + 1e-9) + 1e-9  # A[d = cutoff], or P[n = cutoff]
        return out

    # the angular means belong to the rule's module; the ring powers are
    # the P that moment_matrix hands to the ring x angle sum
    if part == "_angular_means":
        module, name = quad, "_angular_means"
        good = quad._angular_means

        def corrupted(rule, span):
            return corrupt(good(rule, span))
    else:
        module, name = cs, "ring_angle_sum"
        good = cs.ring_angle_sum

        def corrupted(rule, ring_values, freqs):
            return good(rule, corrupt(ring_values), freqs)

    def factorization():
        checks = run_suite("coherent", SuiteConfig(cutoff=4))[0].checks
        return {c.name: c for c in checks}["moment_factorization"]

    assert factorization().passed
    monkeypatch.setattr(module, name, corrupted)
    check = factorization()
    assert not check.passed and check.max_error > 1e-11

def test_partial_isometry_mapping():
    rule = rule_default()
    m = 6
    iso = cs.moment_matrix(rule, m).conj()  # the a-hol -> hol map
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


def _coherent_columns(nodes, cutoff, kind):
    """Flattened eta_z (kind 'a-hol') or eta_breve(zbar) (kind 'hol') at
    every node, one column per node."""
    state = cs.eta if kind == "a-hol" else (lambda z, c: cs.eta_breve(np.conj(z), c))
    return np.array([state(z, cutoff).reshape(-1) for z in nodes]).T


def embedded_isometry(kind, cutoff, nodes, weights):
    """The (M+1)^2-square linear part of a partial isometry on flattened
    coefficient arrays, from the kernel integral itself: the map
    f -> integral out(z) conj(<in(z), f>) dnu has the linear part
    integral out(z) in(z)^T dnu.  The independent reference for the sector
    form."""
    source, target = kind.split("->")
    a = _coherent_columns(nodes, cutoff, target)
    b = _coherent_columns(nodes, cutoff, source)
    return (a * weights) @ b.T


def _apply_sector_map(kind, k, c):
    """The sector form's image of a full coefficient array c."""
    out = np.zeros_like(c)
    if kind == "a-hol->hol":
        out[0, :] = k @ c[:, 0].conj()
    else:
        out[:, 0] = k @ c[0, :].conj()
    return out


def stretched_rule():
    """The default rule's ring weights on radii stretched by 1.3: its moment
    matrix is diag(1.69^n), far from the identity."""
    shared = rule_default()
    return quad.ComplexGaussRule(1.3 * shared.radii, shared.ring_weights,
                                 shared.angular_order)


def node_sets(monkeypatch):
    """(rule, nodes, weights): the default rule, the stretched rule, and
    last the default rule's nodes moved off the origin.  Their moment
    matrix is a Hermitian G with complex entries, far from the identity,
    so G, conj(G) and the identity can be told apart, which no tensor rule
    allows (its G is real on a covered cutoff).  No rule has these nodes,
    so moment_matrix is patched to their sums, and the default rule stands
    in as its argument."""
    for rule in (rule_default(), stretched_rule()):
        yield rule, rule.nodes, rule.weights
    nodes, weights = rule_default().nodes + (0.3 - 0.2j), rule_default().weights
    monkeypatch.setattr(cs, "moment_matrix",
                        lambda rule, cutoff: _node_sums(nodes, weights, cutoff))
    yield rule_default(), nodes, weights


@pytest.mark.parametrize("kind", ["a-hol->hol", "hol->a-hol"])
def test_partial_isometry_matches_embedded_kernel_integral(kind, monkeypatch):
    m = 6
    for rule, nodes, weights in node_sets(monkeypatch):
        g = cs.moment_matrix(rule, m)
        k = g.conj() if kind == "a-hol->hol" else g  # the map's linear part
        ref = embedded_isometry(kind, m, nodes, weights)
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
def test_resolution_check_matches_embedded_projector(kind, monkeypatch):
    m = 6
    got = []
    for rule, nodes, weights in node_sets(monkeypatch):
        cols = _coherent_columns(nodes, m, kind)
        integral = (cols * weights) @ cols.conj().T
        ref = float(np.max(np.abs(integral - np.diag(cs.sector_projector(kind, m)))))
        g = cs.moment_matrix(rule, m)
        resolution = g if kind == "a-hol" else g.conj()  # on the sector
        got.append(float(np.max(np.abs(resolution - np.eye(m + 1)))))
        assert abs(got[-1] - ref) <= 1e-13 * max(1.0, ref)
    # the exact rule resolves its sector, the stretched and shifted nodes do not
    assert got[0] < 1e-10 and min(got[1:]) > 1.0


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


def _ratio_errors_by_entry(w):
    # the reference: one math.exp per entry, (M+1)^2 of them
    return np.array([[abs(math.exp(-w.beta * (n - k)) - w.alpha[n] / w.alpha[k])
                      for k in range(w.n)] for n in range(w.n)])


@pytest.mark.parametrize("cutoff", [10, 170])
def test_ratio_errors_match_the_entrywise_loop_bitwise(cutoff):
    w = mc.build_weights(0.7, cutoff + 1)
    got = cs._ratio_errors(w)
    assert got.shape == (cutoff + 1, cutoff + 1)
    assert got.tobytes() == _ratio_errors_by_entry(w).tobytes()


def test_modular_spectral_relative_companion(monkeypatch):
    eps = np.finfo(float).eps
    # the absolute error grows with the ratios, up to e^(0.7 * 170); the
    # relative one stays at rounding (measured 1.46e-14 at cutoff 170)
    assert cs.modular_spectral_errors(0.7, 170)[0] > 1e30
    for cutoff in (10, 16, 64, 170):
        rel = cs.modular_spectral_errors(0.7, cutoff)[1]
        assert 0.0 < rel <= (2 * 0.7 * cutoff + 8) * eps
    # one Gibbs weight off by 1e-13 relative shows at cutoff 10
    build = mc.build_weights

    def perturbed(beta, n):
        w = build(beta, n)
        alpha = w.alpha.copy()
        alpha[5] *= 1.0 + 1e-13
        return w._replace(alpha=alpha)

    monkeypatch.setattr(mc, "build_weights", perturbed)
    assert cs.modular_spectral_errors(0.7, 10)[1] > 5e-14


def test_displacement_factorization():
    for alpha, ncut, bound in ((0.0, 24, 1e-14), (0.5 + 0.3j, 40, 1e-8)):
        u = cs.displacement_operator(alpha, ncut)
        assert cs.displacement_check(alpha, u) < bound
    with pytest.raises(ValueError):
        cs.displacement_check(0.5, cs.displacement_operator(0.5, 8))
    with pytest.raises(ValueError):
        cs.displacement_check(2.0, cs.displacement_operator(2.0, 64))


def test_displacement_vacuum_column():
    alpha = 0.4 - 0.6j
    col = cs.displacement_operator(alpha, 32)[:, 0]
    expect = np.array([math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n
                       / math.sqrt(math.factorial(n)) for n in range(32)])
    assert np.max(np.abs(col - expect)) < 1e-10


def test_displacement_routes_match_expm():
    alpha, ncut = 0.5 + 0.3j, 40
    a = lm.ladder(ncut)
    ad = a.conj().T
    full = expm(alpha * ad - np.conj(alpha) * a)
    u = cs.displacement_operator(alpha, ncut)
    assert np.max(np.abs(u - full)) < 1e-13
    assert np.max(np.abs(u[:, 0] - full[:, 0])) < 1e-14
    assert np.max(np.abs(cs._raising_exp(alpha, ncut)
                         - expm(alpha * ad))) < 1e-13
    assert np.max(np.abs(cs._raising_exp(-np.conj(alpha), ncut).T
                         - expm(-np.conj(alpha) * a))) < 1e-13
