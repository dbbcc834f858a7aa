"""The hermite suite: the exact identities of the complex Hermite
polynomials h[n, k], three independent constructions, the ladder and
number actions and the printed explicit sum, as equalities of exact
coefficient maps.
"""

from __future__ import annotations

from . import complex_hermite as chp
from .suites import Report, SuiteConfig


def run(cfg: SuiteConfig) -> Report:
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
