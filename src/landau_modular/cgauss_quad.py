"""Gaussian quadrature on the complex plane for the measure
(1/pi) exp(-|z|^2) dx dy, with a certified polynomial-exactness domain.

The rule is a tensor product: substituting s = |z|^2 turns the radial
integral into int_0^infty exp(-s) g(s) ds, handled by an R-point
Gauss-Laguerre rule (exact for polynomial degree <= 2R-1 in s); the
angular factor is the uniform K-point rule on [0, 2pi), exact for the
harmonics exp(i d theta) with |d| < K.  Hence the certificate for the
monomial conj(z)^m z^k:

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
from scipy.special import roots_laguerre


@dataclass(frozen=True)
class ComplexGaussRule:
    """Nodes and weights for the normalized planar Gaussian measure."""

    nodes: np.ndarray    # complex, length R*K
    weights: np.ndarray  # positive real, sums to 1
    radial_order: int
    angular_order: int

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("all quadrature weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-13:
            raise ValueError("weights must sum to 1 (the measure is normalized)")


def build_rule(radial: int, angular: int) -> ComplexGaussRule:
    """Tensor rule with the given radial (R >= 1) and angular (K >= 2) orders."""
    if radial < 1:
        raise ValueError(f"radial order must be >= 1, got {radial}")
    if angular < 2:
        raise ValueError(f"angular order must be >= 2, got {angular}")
    s, ws = roots_laguerre(radial)
    ws = ws / ws.sum()  # exact normalization of int_0^inf e^-s ds = 1
    theta = 2.0 * np.pi * np.arange(angular) / angular
    radii = np.sqrt(s)
    nodes = (radii[:, None] * np.exp(1j * theta)[None, :]).reshape(-1)
    weights = np.repeat(ws / angular, angular)
    return ComplexGaussRule(nodes=nodes, weights=weights,
                            radial_order=radial, angular_order=angular)


def covers(rule: ComplexGaussRule, m: int, k: int) -> bool:
    """Whether the exactness certificate covers the monomial conj(z)^m z^k."""
    r2 = 2 * rule.radial_order - 1
    if m == k:
        return m <= r2
    return abs(m - k) < rule.angular_order and min(m, k) <= r2


def covers_degree(rule: ComplexGaussRule, deg: int) -> bool:
    """Whether every monomial with both exponents <= deg is covered."""
    return all(covers(rule, m, k) for m in range(deg + 1) for k in range(deg + 1))


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
