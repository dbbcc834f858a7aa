"""The landau suite: the rotated ladders A+- and the two Hamiltonians on
a truncated two-mode oscillator, the joint Fock states built from the
squeezed vacuum, and the real-line Hermite functions.

suites._SUITES imports this module on the first run of the suite, so no
other run compiles it.
"""

from __future__ import annotations

import numpy as np

from . import landau_modes as lm
from .dense_linalg import frob
from .suites import Report, SuiteConfig


def run(cfg: SuiteConfig) -> Report:
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
