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

The orthonormal basis of L^2 of this measure is B[n, k] = h[n, k] /
sqrt(n! k!), the normalized complex Hermite polynomials; basis_values
evaluates it in floating point by the polynomials' coupled recursions,
reading none of complex_hermite's exact tables.  ring_angle_sum, a sum
over the rings times a mean over the angles, gives both the quadrature
suite's basis Gram and the coherent moment matrix.
"""

from __future__ import annotations

import math

import numpy as np

# From R = 195 on, the smallest Laguerre weight reaches the last subnormal
# double (4.9e-324 at 195) and then underflows to 0.
MAX_RADIAL_ORDER = 194
# The largest n for which n! is a finite double; the coherent moment matrix
# divides by sqrt(n!) up to n = cutoff.
MAX_CUTOFF = 170


def check_flags(flags: dict) -> None:
    """Reject the first of the given --angular, --radial and --cutoff values
    that is outside its limit, in that order, naming its flag; a flag that is
    not given is not checked.  Each limit holds whatever the other flags are."""
    if flags.get("angular", 2) < 2:
        raise ValueError(f"angular order (--angular) must be at least 2, "
                         f"got {flags['angular']}")
    if not 1 <= flags.get("radial", 1) <= MAX_RADIAL_ORDER:
        raise ValueError(f"radial order (--radial) must be in "
                         f"[1, {MAX_RADIAL_ORDER}], got {flags['radial']}")
    if flags.get("cutoff", 0) > MAX_CUTOFF:
        raise ValueError(
            f"cutoff (--cutoff) must be at most {MAX_CUTOFF}, the largest n "
            f"for which n! is a finite double, got {flags['cutoff']}")


class ComplexGaussRule:
    """A tensor rule for the normalized planar Gaussian measure: R rings of
    radius rho_r and weight w_r, each carrying the K equal angles
    theta_j = 2 pi j / K.  The nodes rho_r e^(i theta_j) and weights w_r / K
    (at index r * K + j, read-only) are derived from the ring data here and
    nowhere else, so every rule is a tensor rule.

    A rule compares and hashes by identity: its data are arrays, for
    which an entry-by-entry == has no single truth value and which have no
    hash; two rules built from equal ring data are still two rules.
    """

    __slots__ = ("radii", "ring_weights", "angular_order", "nodes", "weights")

    def __init__(self, radii: np.ndarray, ring_weights: np.ndarray, angular_order: int):
        self.radii = radii                  # rho_r, length R
        self.ring_weights = ring_weights    # w_r, positive, sums to 1
        self.angular_order = angular_order  # K
        nodes = (self.radii[:, None] * np.exp(1j * self.angles)[None, :]).reshape(-1)
        weights = np.repeat(self.ring_weights / self.angular_order, self.angular_order)
        # written so that NaN fails every test
        if not np.all(np.isfinite(nodes)):
            raise ValueError("all quadrature nodes must be finite")
        if not np.all(weights > 0):
            raise ValueError("all quadrature weights must be positive")
        if not abs(weights.sum() - 1.0) <= 1e-13:
            raise ValueError("weights must sum to 1 (the measure is normalized)")
        nodes.flags.writeable = weights.flags.writeable = False
        self.nodes = nodes      # complex, length R*K
        self.weights = weights  # positive real, sums to 1

    @property
    def radial_order(self) -> int:
        return len(self.radii)

    @property
    def angles(self) -> np.ndarray:
        """theta_j = 2 pi j / K, 0 <= j < K."""
        return 2.0 * np.pi * np.arange(self.angular_order) / self.angular_order


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
    check_flags({"radial": n})
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
    ring data, nodes and weights are read-only.
    """
    rule = _RULES.get((radial, angular))
    if rule is None:
        check_flags({"radial": radial, "angular": angular})  # before the Laguerre solve
        s, ws = gauss_laguerre(radial)
        if not np.all(ws / angular > 0):
            # the smallest Laguerre weight is subnormal at large radial orders
            raise ValueError(
                f"radial order (--radial) {radial} with angular order "
                f"(--angular) {angular} makes the smallest quadrature weight "
                f"underflow to 0; lower either order")
        radii = np.sqrt(s)
        radii.flags.writeable = ws.flags.writeable = False
        rule = _RULES[radial, angular] = ComplexGaussRule(
            radii=radii, ring_weights=ws, angular_order=angular)
    return rule


def covers(rule: ComplexGaussRule, m: int, k: int) -> bool:
    """Whether the exactness certificate covers the monomial conj(z)^m z^k."""
    r2 = 2 * rule.radial_order - 1
    if m == k:
        return m <= r2
    return abs(m - k) < rule.angular_order and min(m, k) <= r2


def covers_degree(rule: ComplexGaussRule, deg: int) -> bool:
    """Whether every monomial with both exponents <= deg is covered: the
    diagonal up to deg needs deg <= 2R-1, and the off-diagonal pairs, whose
    exponents differ by up to deg, need deg < K."""
    return deg <= 2 * rule.radial_order - 1 and (deg == 0 or deg < rule.angular_order)


def require_coverage(rule: ComplexGaussRule, cutoff: int) -> None:
    """Reject a cutoff whose coherent moment matrix the rule cannot give
    exactly: one above MAX_CUTOFF, or one outside the rule's exactness
    certificate."""
    check_flags({"cutoff": cutoff})
    if not covers_degree(rule, cutoff):
        raise ValueError(
            f"quadrature certificate does not cover monomial degree {cutoff}: "
            f"need radial order (--radial) >= {cutoff // 2 + 1} and angular "
            f"order (--angular) > {cutoff}")


def _angular_means(rule: ComplexGaussRule, span: int) -> np.ndarray:
    """A[d + span] = mean of e^(i d theta_j) over the angles, |d| <= span."""
    d = np.arange(-span, span + 1)
    return np.mean(np.exp(1j * np.multiply.outer(d, rule.angles)), axis=1)


def ring_angle_sum(rule: ComplexGaussRule, ring_values: np.ndarray,
                   freqs: np.ndarray) -> np.ndarray:
    """[a, b] = node sum of w f_a conj(f_b), f_a(rho_r e^(i theta)) = F[a, r]
    e^(i freqs[a] theta) with F = ring_values: the ring sum (F w) F* times the
    angular mean A[freqs[a] - freqs[b]], with no array of the node count."""
    span = int(freqs.max() - freqs.min())
    a = _angular_means(rule, span)[np.subtract.outer(freqs, freqs) + span]
    return ((ring_values * rule.ring_weights) @ ring_values.conj().T) * a


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


def basis_values(z, deg: int) -> np.ndarray:
    """Values of B[n, k] = h[n, k] / sqrt(n! k!) at the points z, of any
    shape, for 0 <= n, k <= deg: entry [n, k] of the result has the shape
    of z, and its bits do not depend on deg.  They come from the coupled
    recursions h[0, k+1] = z h[0, k] and h[n+1, k] = zbar h[n, k] -
    k h[n, k-1] on value arrays, each step vectorised over k."""
    z = np.asarray(z)
    zb, m = z.conj(), deg + 1
    ks = np.arange(1, m).reshape((-1,) + (1,) * z.ndim)
    h = np.empty((m, m) + z.shape, dtype=complex)
    h[0, 0] = 1.0
    for k in range(1, m):
        h[0, k] = z * h[0, k - 1]
    for n in range(1, m):
        h[n, 0] = zb * h[n - 1, 0]
        h[n, 1:] = zb * h[n - 1, 1:] - ks * h[n - 1, :-1]
    fact = [math.factorial(n) for n in range(m)]  # n! k! is the same exact int
    norms = [[math.sqrt(fact[n] * fact[k]) for k in range(m)] for n in range(m)]
    h /= np.array(norms).reshape((m, m) + (1,) * z.ndim)
    return h
