"""Gaussian quadrature on the complex plane for the measure
(1/pi) exp(-|z|^2) dx dy, with a certified polynomial-exactness domain.

The rule is a tensor product: substituting s = |z|^2 turns the radial
integral into int_0^infty exp(-s) g(s) ds, handled by an R-point
Gauss-Laguerre rule (exact for polynomial degree <= 2R-1 in s); the
angular factor is the uniform K-point rule on [0, 2pi), exact for the
harmonics exp(i d theta) with |d| < K.  The Laguerre nodes are the
eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23, 221,
1969), refined by Newton steps on the three-term recurrence; the largest
supported radial order is MAX_RADIAL_ORDER = 194.  Hence the certificate
for the monomial conj(z)^m z^k:

    covered  iff  (m == k and m <= 2R-1)
              or  (m != k and |m - k| < K and min(m, k) <= 2R-1)

and on covered monomials the integral is exactly delta_{mk} m!.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

# From R = 195 on, the smallest Laguerre weight reaches the last subnormal
# double (4.9e-324 at 195) and then underflows to 0.
MAX_RADIAL_ORDER = 194


@dataclass(frozen=True, eq=False)
class ComplexGaussRule:
    """Nodes and weights for the normalized planar Gaussian measure.

    A rule compares and hashes by identity, so a table keyed on a rule
    (coherent_states' moment matrices) gives a hand-built rule its own
    entry even when its orders equal those of a shared one.
    """

    nodes: np.ndarray    # complex, length R*K
    weights: np.ndarray  # positive real, sums to 1
    radial_order: int
    angular_order: int

    def __post_init__(self):
        # written so that NaN fails every test
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("all quadrature nodes must be finite")
        if not np.all(self.weights > 0):
            raise ValueError("all quadrature weights must be positive")
        if not abs(self.weights.sum() - 1.0) <= 1e-13:
            raise ValueError("weights must sum to 1 (the measure is normalized)")


def _laguerre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L_n(x) and L_n'(x) by the three-term recurrence, carried as
    p = L_k and q = (L_k - L_{k-1}) / x, which keeps small nodes accurate."""
    p, q = np.ones_like(x), np.zeros_like(x)
    for k in range(n):
        q = (k * q - p) / (k + 1)
        p = p + x * q
    return p, n * q


def gauss_laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (summing to 1) of the n-point rule for
    int_0^inf e^-s g(s) ds, 1 <= n <= MAX_RADIAL_ORDER (Golub-Welsch)."""
    if not 1 <= n <= MAX_RADIAL_ORDER:
        raise ValueError(f"radial order must be in [1, {MAX_RADIAL_ORDER}], got {n}")
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0)
                           + np.diag(k, 1) + np.diag(k, -1))
    for _ in range(3):
        p, dp = _laguerre(n, x)
        x = x - p / dp
    _, dp = _laguerre(n, x)
    # w = 1 / (x L_n'(x)^2); rescale L_n' first so that its square stays finite
    dp = dp / np.sqrt(np.abs(dp).max()) / np.sqrt(np.abs(dp).min())
    w = 1.0 / (x * dp * dp)
    return x, w / w.sum()  # exact normalization of int_0^inf e^-s ds = 1


_RULES: dict = {}  # (radial, angular) -> ComplexGaussRule


def build_rule(radial: int, angular: int) -> ComplexGaussRule:
    """Tensor rule with the given radial (1 <= R <= MAX_RADIAL_ORDER) and
    angular (K >= 2) orders; the radial factor is the Golub-Welsch
    Gauss-Laguerre rule of `gauss_laguerre`.  A pair whose smallest weight
    w / K underflows to 0 is rejected (at R = 194 from K = 76 on).

    Each (radial, angular) pair is built once per process and shared; its
    nodes and weights are read-only.
    """
    rule = _RULES.get((radial, angular))
    if rule is None:
        s, ws = gauss_laguerre(radial)
        if angular < 2:
            raise ValueError(f"angular order must be >= 2, got {angular}")
        ws = ws / angular
        if not np.all(ws > 0):
            # the smallest Laguerre weight is subnormal at large radial orders
            raise ValueError(
                f"radial order (--radial) {radial} with angular order "
                f"(--angular) {angular} makes the smallest quadrature weight "
                f"underflow to 0; lower either order")
        theta = 2.0 * np.pi * np.arange(angular) / angular
        radii = np.sqrt(s)
        nodes = (radii[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
        weights = np.repeat(ws, angular)
        nodes.flags.writeable = weights.flags.writeable = False
        rule = _RULES[radial, angular] = ComplexGaussRule(
            nodes=nodes, weights=weights,
            radial_order=radial, angular_order=angular)
    return rule


def covers(rule: ComplexGaussRule, m: int, k: int) -> bool:
    """Whether the exactness certificate covers the monomial conj(z)^m z^k."""
    r2 = 2 * rule.radial_order - 1
    if m == k:
        return m <= r2
    return abs(m - k) < rule.angular_order and min(m, k) <= r2


def covers_degree(rule: ComplexGaussRule, deg: int) -> bool:
    """Whether every monomial with both exponents <= deg is covered."""
    return all(covers(rule, m, k) for m in range(deg + 1) for k in range(deg + 1))


# The largest n for which n! is a finite double; the coherent moment matrix
# divides by sqrt(n!) up to n = cutoff.
MAX_CUTOFF = 170


def require_coverage(rule: ComplexGaussRule, cutoff: int) -> None:
    """Reject a cutoff whose coherent moment matrix the rule cannot give
    exactly: one above MAX_CUTOFF, or one outside the rule's exactness
    certificate."""
    if cutoff > MAX_CUTOFF:
        raise ValueError(
            f"cutoff (--cutoff) must be at most {MAX_CUTOFF}, the largest n "
            f"for which n! is a finite double, got {cutoff}")
    if not covers_degree(rule, cutoff):
        raise ValueError(
            f"quadrature certificate does not cover monomial degree {cutoff}: "
            f"need radial order >= {cutoff // 2 + 1} and angular order > {cutoff}")


def integrate_values(rule: ComplexGaussRule, values: np.ndarray) -> complex:
    """Sum of w_i v_i over the integrand's values v_i at the rule's nodes, by
    pairwise np.sum (no BLAS, so independent of the BLAS thread count);
    rejects misaligned or non-finite values."""
    values = np.asarray(values)
    if values.shape != rule.nodes.shape:
        raise ValueError("values must align with the rule's nodes")
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand values must all be finite")
    return complex(np.sum(rule.weights * values))


def gauss_moment(m: int, k: int) -> float:
    """Closed form of the covered integrals: delta_{mk} * m!."""
    return float(math.factorial(m)) if m == k else 0.0


def real_gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Hermite-style rule for int f(x) dx on the real line.

    Returns plain nodes and weights with the exp(-x^2) factor divided out,
    so sum(w * f(x)) approximates the unweighted integral of f times any
    Gaussian-decaying factor carried by f itself.
    """
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w * np.exp(x**2)


def export_rule_csv(rule: ComplexGaussRule, out: TextIO) -> None:
    """Write nodes and weights as CSV with 17 significant digits to a text
    stream (open files with newline="")."""
    writer = csv.writer(out)
    writer.writerow(["index", "re", "im", "weight"])
    for i, (z, w) in enumerate(zip(rule.nodes, rule.weights)):
        writer.writerow([i, f"{z.real:.17g}", f"{z.imag:.17g}", f"{w:.17g}"])
