"""The five Landau-side suites: landau, hermite, quadrature, coherent and
wigner.

The paper has two halves, the modular structure of Hilbert-Schmidt space
(the `modular` and `kms` suites, with the shared report machinery, in
suites.py) and its Landau-level realization (the suites here).  A process
imports this module only when one of these suites runs, through suites'
dispatch table, so `verify modular`, `verify kms` and `import
landau_modular.cli` never compile these suites.  The layers only some of
them use (landau_modes, complex_hermite, coherent_states) are imported
inside those suites, so a run loads only what its suite runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import cgauss_quad as quad
from . import modular_core as mc
from .dense_linalg import frob
from .hs_space import matrix_unit, transpose_permutation
from .rng import SplitMix64
from .suites import Report, SuiteConfig


# ---------------------------------------------------------------------------
# landau
# ---------------------------------------------------------------------------

def _suite_landau(cfg: SuiteConfig) -> Report:
    from . import landau_modes as lm

    s = Report("landau", cfg)
    # the algebraic identities are exact on the interior at any modest cut;
    # a fixed small cut keeps the two-mode matrices at desk scale
    cut = lm.ModeCut(min(cfg.ncut, 16))
    mask = lm.interior_mask(cut)
    ops = lm.build_A_pm(cut)
    eye, zero = lm.BandedOp(cut.dim, {0: np.ones(cut.dim)}), lm.BandedOp(cut.dim, {})

    pairs = {
        "[A+, A+*] = 1": (ops.a_plus, ops.a_plus_dag, eye),
        "[A-, A-*] = 1": (ops.a_minus, ops.a_minus_dag, eye),
        "[A+, A-] = 0": (ops.a_plus, ops.a_minus, zero),
        "[A+, A-*] = 0": (ops.a_plus, ops.a_minus_dag, zero),
        "[A+*, A-] = 0": (ops.a_plus_dag, ops.a_minus, zero),
        "[A+*, A-*] = 0": (ops.a_plus_dag, ops.a_minus_dag, zero),
    }
    s.check("ccr_interior",
            "[A±, A±*] = 1 and all cross commutators vanish on the interior",
            [lm.interior_deviation(p @ q - q @ p, target, mask)
             for p, q, target in pairs.values()], 1e-12)

    alt = lm.build_A_pm_from_qp(cut)
    s.check("gauge_route_agreement",
            "A± from mode combinations = A± from covariant momenta",
            [frob((ops.a_plus - alt.a_plus).entries()),
             frob((ops.a_minus - alt.a_minus).entries())], 1e-12)

    lit = lm.build_A_pm(cut, literal=True)
    comm = lit.a_plus @ ops.a_minus_dag - ops.a_minus_dag @ lit.a_plus
    s.check("literal_ladder_breaks_ccr",
            "the misprinted A+ yields [A+, A-*] = -1/8 on the interior",
            lm.interior_deviation(comm, -0.125 * eye, mask), 1e-12)
    s.erratum(
        "rotated_ladder_sign",
        "The printed expansion of A+ ends in -(1/4)(a_x* + i a_y*); deriving "
        "A+ = (Q+ + iP+)/sqrt2 gives -(1/4)(a_x* - i a_y*).  The printed "
        "form violates the stated commutation relations.",
        "literal_ladder_breaks_ccr")

    h = lm.hamiltonians(cut)
    comm = h.h_up @ h.h_down - h.h_down @ h.h_up
    s.check("hamiltonians_commute", "[H_up, H_down] = 0 on the interior",
            lm.interior_deviation(comm, zero, mask), 1e-12)

    # these cut-16 checks stay on the eigensolved vacuum (solved once), so
    # their errors keep measuring that route at the stated cut
    vac = lm.ground_state(cut)
    # each of the 18 states the two Fock checks read is built once
    states = {(n, l): lm.fock_psi(cut, n, l, vacuum=vac)
              for n in range(5) for l in range(5) if max(n, l) < 4 or n + l <= 4}
    s.check("fock_eigenvalues",
            "H_up Psi_nl = (l + 1/2) Psi_nl and H_down Psi_nl = (n + 1/2) Psi_nl",
            [err for n in range(4) for l in range(4) for psi in [states[n, l]]
             for err in (float(np.linalg.norm(h.h_up @ psi - (l + 0.5) * psi)),
                         float(np.linalg.norm(h.h_down @ psi - (n + 0.5) * psi)))],
            1e-9)

    labels = [(n, l) for n in range(5) for l in range(5) if n + l <= 4]
    s.check("fock_orthonormality",
            "<Psi_nl, Psi_n'l'> = delta delta for n + l <= 4",
            [abs(complex(np.vdot(states[a], states[b])) - (1.0 if a == b else 0.0))
             for a in labels for b in labels], 1e-9)

    # entrywise conjugation in the joint Fock basis swaps A- and A+, hence
    # the two Hamiltonians; this is the modular conjugation in this picture
    s.check("conjugation_intertwines",
            "complex conjugation maps H_up to H_down",
            np.abs((h.h_up.conj() - h.h_down).entries()), 1e-12)

    # trapezoidal rule, step h = 1/4 on [-10, 10]: on Gaussian-decaying entire
    # integrands its error is O(e^(-pi^2/h^2)) (Trefethen & Weideman, SIAM Rev. 2014)
    x = 0.25 * np.arange(-40.0, 41.0)
    table = [lm.hermite_fn(m, x) for m in range(9)]
    s.check("hermite_fn_orthonormal",
            "real-line orthonormality of the Hermite functions",
            [abs(0.25 * float(np.sum(table[m] * table[n])) - (1.0 if m == n else 0.0))
             for m in range(9) for n in range(9)], 1e-10)
    return s


# ---------------------------------------------------------------------------
# hermite
# ---------------------------------------------------------------------------

def _suite_hermite(cfg: SuiteConfig) -> Report:
    from . import complex_hermite as chp

    s = Report("hermite", cfg)

    ok = all(chp.ch_recursion(n, k) == chp.ch_rodrigues(n, k) == chp.ch_explicit(n, k)
             for n in range(13) for k in range(13))
    s.check("three_way_equality",
            "recursion = Rodrigues = explicit sum, coefficient-exact, "
            "indices <= 12", 0.0 if ok else 1.0, 0.0)

    diff = chp.ch_explicit(1, 1, literal=True) - chp.ch_rodrigues(1, 1)
    s.check("literal_sum_erratum",
            "misprinted explicit sum differs from Rodrigues at (1,1) by "
            "exactly 2", 0.0 if diff == chp.poly_const(2) else 1.0, 0.0)
    s.erratum(
        "explicit_sum_sign",
        "The printed double sum for h[n, k] omits the alternating sign "
        "(-1)^j and the 1/j!; it evaluates h[1, 1] to zbar z + 1 instead "
        "of zbar z - 1.",
        "literal_sum_erratum")

    ok = all({(j, m): c for (m, j), c in chp.ch_recursion(n, k).terms.items()}
             == chp.ch_recursion(k, n).terms
             for n in range(9) for k in range(9))
    s.check("index_symmetry", "h[n, k](zbar, z) = h[k, n](z, zbar)",
            0.0 if ok else 1.0, 0.0)

    ok = all(chp.mul_zbar(chp.ch_recursion(n, n + 1))
             == chp.mul_z(chp.ch_recursion(n + 1, n)) for n in range(8)) \
        and all(chp.ch_recursion(m, k).scale(k - m)
                == chp.mul_zbar(chp.ch_recursion(m, k + 1))
                - chp.mul_z(chp.ch_recursion(m + 1, k))
                for m in range(8) for k in range(8))
    s.check("contiguous_relations",
            "zbar h[n, n+1] = z h[n+1, n] and "
            "(k - m) h[m, k] = zbar h[m, k+1] - z h[m+1, k]",
            0.0 if ok else 1.0, 0.0)

    # one raising step at a time, which by induction is the stated identity
    ok = all(chp.ladder_apply("a_plus_dag", chp.ch_recursion(n, k))
             == chp.ch_recursion(n + 1, k) for k in range(7) for n in range(6))
    s.check("ladder_generation", "h[n, k] = (raising)^n h[0, k]",
            0.0 if ok else 1.0, 0.0)

    ok = all(chp.number_apply("n_plus", h) == h.scale(n)
             and chp.number_apply("n_minus", h) == h.scale(k)
             for n in range(7) for k in range(7) for h in [chp.ch_recursion(n, k)])
    s.check("number_eigenvalues",
            "n_plus h[n, k] = n h[n, k] and n_minus h[n, k] = k h[n, k]",
            0.0 if ok else 1.0, 0.0)
    s.erratum(
        "number_operator_swap",
        "One printed display swaps the two number-operator eigenvalues; "
        "direct differentiation of h[1, 0] = zbar gives eigenvalue 1 for "
        "the zbar-counting operator, fixing the assignment n_plus -> n, "
        "n_minus -> k.",
        "number_eigenvalues")

    return s


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _suite_quadrature(cfg: SuiteConfig) -> Report:
    from . import complex_hermite as chp

    s = Report("quadrature", cfg)
    rule = quad.build_rule(cfg.radial, cfg.angular)

    # z^k held for 0 <= k <= 12, zbar^m formed once per m: 14 node-sized arrays
    z_pows = [rule.nodes**k for k in range(13)]
    s.check("moment_exactness",
            "integral of zbar^m z^k dnu = delta_mk m!, scaled by the "
            "moment magnitude, indices <= 12",
            [abs(quad.integrate_values(rule, zbar_pow * z_pows[k])
                 - quad.gauss_moment(m, k)) / max(1.0, math.gamma((m + k) / 2.0 + 1.0))
             for m in range(13) for zbar_pow in [rule.nodes.conj()**m]
             for k in range(13) if quad.covers(rule, m, k)], 1e-12)
    del z_pows

    # B[n, k](rho e^(i theta)) = e^(i(k - n) theta) B[n, k](rho): a ring x angle sum
    n, k = np.divmod(np.arange(13 * 13), 13)
    values = chp.basis_values(rule.radii, 12).reshape(13 * 13, -1)
    gram = quad.ring_angle_sum(rule, values, k - n)
    s.check("basis_orthonormality",
            "<B[n, k], B[m, l]> = delta delta under dnu, indices <= 12",
            np.abs(gram - np.eye(13 * 13)), 1e-10)

    wref = 0.8 + 0.4j
    exact = np.exp(abs(wref) ** 2)  # integral of e^(zbar w) e^(z wbar) dnu
    errs = [abs(quad.integrate_values(small, np.exp(small.nodes.conj() * wref
                                                    + small.nodes * np.conj(wref)))
                - exact)
            for r, k in ((4, 8), (8, 16), (16, 32))
            for small in [quad.build_rule(r, k)]]
    s.check("order_convergence",
            "errors on the exponential kernel decrease with the orders",
            0.0 if errs[0] > errs[1] > errs[2] else 1.0, 0.5)
    return s


# ---------------------------------------------------------------------------
# coherent
# ---------------------------------------------------------------------------

def _suite_coherent(cfg: SuiteConfig) -> Report:
    from . import coherent_states as cs

    s = Report("coherent", cfg)
    rule = quad.build_rule(cfg.radial, cfg.angular)
    m = cfg.cutoff
    g = cs.moment_matrix(rule, m)  # every sector object below is read from it

    s.check("resolution_antiholomorphic",
            "integral of |eta_z><eta_z| dnu = projector onto the zbar sector",
            np.abs(g - np.eye(m + 1)), 1e-10)
    k = min(m, 8) + 1
    s.check("resolution_bicoherent",
            "double integral of |bcs(u, v)><bcs(u, v)| = identity",
            np.abs(np.kron(g[:k, :k], g[:k, :k].conj()) - np.eye(k * k)), 1e-10)

    # each map is its (m+1) x (m+1) linear part K, acting as v -> K @ conj(v)
    # from its source sector; neither reads outside that sector, so each
    # kills the complement by construction
    iso, rev = g.conj(), g
    e2 = np.zeros(m + 1, dtype=complex)
    e2[2] = 1.0  # B[2, 0] read as its column, B[0, 2] as its row
    s.check("partial_isometry",
            "the kernel integral maps B[n, 0] -> B[0, n] isometrically and "
            "kills the complement; the two maps compose to the projector",
            [float(np.max(np.abs(iso @ e2.conj() - e2))),
             # antilinear after antilinear is linear
             float(np.max(np.abs(rev @ iso.conj() - np.eye(m + 1))))], 1e-10)
    k10 = min(m, 10) + 1
    s.check("moment_factorization", "G[n, m] = R[n, m] A[n - m] over rings and "
            "angles equals its sum over the nodes, indices <= 10",
            cs.moment_factorization_check(rule, g[:k10, :k10]), 1e-13)

    # conjugating the holomorphic projector gives the anti-holomorphic one;
    # J D J for a diagonal D on the flattened basis, given by its diagonal d,
    # is conj(d) put through the transpose permutation
    s.check("conjugated_projectors", "J P_hol J = P_a-hol",
            np.abs(cs.sector_projector("hol", m).conj()[transpose_permutation(m + 1)]
                   - cs.sector_projector("a-hol", m)), 1e-13)

    rng = SplitMix64(cfg.seed)

    def point() -> complex:
        return complex(rng.uniform() - 0.5, rng.uniform() - 0.5)

    j = mc.conjugation_J(m + 1)  # the coefficient arrays are HS(C^(m+1))
    s.check("bicoherent_conjugation", "J bcs(u, v) = bcs(v, u)",
            [float(np.max(np.abs(j(cs.bcs(u, v, m)) - cs.bcs(v, u, m))))
             for _ in range(5) for u in [point()] for v in [point()]], 1e-13)

    m25 = 25

    def kernel_errors(zz: complex, ww: complex) -> tuple:
        series = sum((np.conj(ww) * zz) ** n / math.factorial(n)
                     for n in range(m25 + 1))
        val = cs.coeff_eval(cs.eta(zz, m25), ww)
        return (abs(val - series),
                abs(val - np.conj(cs.coeff_eval(cs.eta(ww, m25), zz))))

    s.check("reproducing_kernel",
            "sum_n (z^n/sqrt(n!)) B[n, 0](wbar, w) = partial sum of "
            "e^(wbar z); kernel conjugate-symmetric",
            [err for zz, ww in ((0.7 + 0.2j, -1.1 + 0.9j), (1.5 - 1.2j, 0.4 + 1.8j))
             for err in kernel_errors(zz, ww)], 1e-10)

    res_a, res_b, bound = cs.vector_cs_check(1.0 + 0.5j, 20)
    s.check("coherent_eigenvalue",
            "lowering eta_z = z eta_z up to the certified factorial tail",
            [res_a, res_b], max(bound, 1e-15))

    s.check("modular_spectral",
            "Delta eigenvalue e^(-beta(n-k)) on B[n, k] matches the Gibbs "
            "ratio alpha_n/alpha_k; the flow fixes chi and rotates the "
            "raising generator by a pure phase",
            cs.modular_spectral_check(cfg.beta, m), 1e-12)
    # the rounded exponents cost up to 1.5 beta M eps, and beta M <= ln(DBL_MAX)
    s.check("modular_spectral_relative",
            "e^(-beta(n-k)) = alpha_n/alpha_k relative to its size",
            cs.modular_spectral_relative_check(cfg.beta, m),
            (2.0 * mc.LOG_DBL_MAX + 8.0) * np.finfo(float).eps)
    s.erratum(
        "modular_generator_sign",
        "One printed display gives the modular generator as -2(N+ - N-); "
        "the diagonal spectrum e^(-beta(n-k)) validated against the Gibbs "
        "construction requires the generator N+ - N- (no factor 2, "
        "opposite sign).",
        "modular_spectral_relative")

    alpha = 0.5 + 0.3j
    u = cs.displacement_operator(alpha, 40)  # one eigensolve for both checks
    s.check("displacement_factorization",
            "e^(|a|^2/2) e^(a A* - abar A) = e^(a A*) e^(-abar A) on the "
            "lower half of the truncation",
            cs.displacement_check(alpha, u), 1e-8)
    expect = np.array([math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n
                       / math.sqrt(math.factorial(n)) for n in range(40)])
    s.check("displacement_vacuum_column",
            "vacuum column of the displacement is e^(-|a|^2/2) a^n/sqrt(n!)",
            np.abs(u[:, 0] - expect), 1e-10)
    return s


# ---------------------------------------------------------------------------
# wigner
# ---------------------------------------------------------------------------

def _suite_wigner(cfg: SuiteConfig) -> Report:
    from . import landau_modes as lm

    s = Report("wigner", cfg)
    grid = np.linspace(-2.0, 2.0, 5)
    labels = [(n, l) for n in range(4) for l in range(4)]
    # the 16 matrix units share one displacement block per grid point
    units = np.array([matrix_unit(4, n, l) for n, l in labels])
    xs, ys = np.repeat(grid, 5), np.tile(grid, 5)
    # samples[:, i] is the sample of the i-th unit at every grid point
    samples = np.array([lm.wigner_sample(units, float(x), float(y), cfg.ncut)
                        for x, y in zip(xs, ys)])

    def closed_form_errors(literal: bool) -> list:
        return [np.abs(samples[:, i]
                       - lm.wigner_closed_form(n, l, xs, ys, literal=literal))
                for i, (n, l) in enumerate(labels)]

    s.check("closed_form_literal",
            "phase-space sample of |n><l| equals "
            "e^(-|z|^2/2) B[n, l](zbar, z)/sqrt(2 pi) as printed",
            closed_form_errors(literal=True), 1e-6)
    s.check("closed_form_corrected",
            "phase-space sample of |n><l| equals "
            "i^(n+l) e^(-|z|^2/2) B[l, n](zbar, z)/sqrt(2 pi)",
            closed_form_errors(literal=False), 1e-6)
    s.erratum(
        "phase_space_closed_form",
        "The printed closed form for the phase-space transform of |n><l| "
        "omits a phase i^(n+l) and swaps the polynomial indices; no "
        "re-phasing of the basis repairs it (the diagonal n = l = 1 case "
        "fails by an exact sign).",
        "closed_form_literal")

    x00 = matrix_unit(1, 0, 0)
    s.check("origin_normalization", "sample of |0><0| at the origin is "
            "1/sqrt(2 pi)",
            abs(lm.wigner_sample(x00, 0.0, 0.0, cfg.ncut)
                - 1.0 / math.sqrt(2.0 * math.pi)), 1e-12)

    # corners and edge midpoints of the grid: every quadrant and both axes.
    # points[-1 - i] = -points[i], and U(-x, -y) = U(x, y)*, so one direct
    # eigensolve is the reference for both points of a pair
    points = [(float(x), float(y)) for x in grid[::2] for y in grid[::2]
              if not x == y == 0.0]

    def rotation_error(point, u, adjoint):
        block = lm.displacement_block(cfg.ncut, *point, cfg.ncut)
        if adjoint:
            np.conj(block, out=block)
            block = block.T
        block -= u  # in place, as the conjugate: a copy adds an ncut^2 array
        return float(np.max(np.abs(block)))

    def pair_errors(i):
        u = lm.displacement(cfg.ncut, *points[i])
        return (rotation_error(points[i], u, adjoint=False),
                rotation_error(points[-1 - i], u, adjoint=True))

    s.check("displacement_rotation",
            "e^(i theta N) e^(-i r Q) e^(-i theta N) from one eigensolve of Q "
            "equals exp(-i(xQ + yP)) at (x, y) = r(cos theta, sin theta)",
            [e for i in range(len(points) // 2) for e in pair_errors(i)], 1e-12)
    return s
