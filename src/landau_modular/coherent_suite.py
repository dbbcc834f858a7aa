"""The coherent suite: the sector resolutions and partial isometries read
from one moment matrix, the modular conjugation of the coefficient
arrays, the reproducing kernel, the modular spectrum of the function
space and the displacement operator.
"""

from __future__ import annotations

import math

import numpy as np

from . import cgauss_quad as quad
from . import coherent_states as cs
from . import modular_core as mc
from .hs_space import transpose_permutation
from .rng import SplitMix64
from .suites import Report, SuiteConfig


def run(cfg: SuiteConfig) -> Report:
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
