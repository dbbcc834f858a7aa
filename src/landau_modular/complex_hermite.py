"""Bivariate complex Hermite polynomials with exact coefficient arithmetic.

A polynomial in the pair (zbar, z) is stored as one exact map,
(m, k) -> nonzero int or Fraction multiplying the monomial zbar^m z^k; the
arithmetic acts on the map directly, and the sorted ((m, k), QC) view is
built only when asked for.  Every coefficient of h[n, k] is an integer,
(-1)^j j! C(n, j) C(k, j), and every operator applied to them (shifts,
derivatives, sums, real scalings) is real, so plain int coefficients come
out of all three construction routes; Fraction enters only for the halves
of the level eigenvalues and the 1/(n! k!) of the generating function.  All
identities (recursion, Rodrigues form, explicit double sum, generating
function, ladder and number actions) are checked as exact equalities of
coefficient maps; floating point enters only at evaluation time.  The
recursion and the Rodrigues routes each build every entry once per
process, into a table of their own that no other route reads.

Conventions:
    h[n, k]     degree-(n, k) polynomial; h[0, 0] = 1, h[1, 1] = zbar z - 1
    a_minus     d/dz              a_minus_dag   z - d/dzbar
    a_plus      d/dzbar           a_plus_dag    zbar - d/dz
    n_plus      -d2/dz dzbar + zbar d/dzbar     (eigenvalue n on h[n, k])
    n_minus     -d2/dz dzbar + z d/dz           (eigenvalue k on h[n, k])
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def _exact(a):
    """An int stays an int (every Hermite coefficient is one); any other
    real, such as a float or a quotient, becomes an exact Fraction, and a
    complex value raises TypeError."""
    return a if type(a) is int else Fraction(a)


class QC:
    """A complex number with exact (int or Fraction) real and imaginary
    parts: the value type of the sorted `BivarPoly.coeffs` view."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _exact(re)
        self.im = _exact(im)

    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return QC(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __repr__(self):
        return f"QC({self.re!r}, {self.im!r})"


def _axpy(x: dict, y: dict, a=1) -> dict:
    """The coefficient map x + a y, without the terms that cancel."""
    out = dict(x)
    for mk, c in y.items():
        v = out.get(mk, 0) + a * c
        if v:
            out[mk] = v
        else:
            out.pop(mk, None)
    return out


class BivarPoly:
    """Exact polynomial in (zbar, z): terms[(m, k)] multiplies zbar^m z^k;
    the map holds nonzero int or Fraction values only."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    @property
    def coeffs(self) -> tuple:
        """Sorted tuple of ((m, k), QC) over the nonzero coefficients."""
        return tuple((mk, QC(c)) for mk, c in sorted(self.terms.items()))

    def __eq__(self, other):
        if isinstance(other, BivarPoly):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        return f"BivarPoly({self.terms!r})"

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly(_axpy(self.terms, other.terms))

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return BivarPoly(_axpy(self.terms, other.terms, -1))

    def scale(self, a) -> "BivarPoly":
        """This polynomial times the real exact factor a."""
        a = _exact(a)
        return BivarPoly({mk: a * c for mk, c in self.terms.items()} if a else {})


def poly_const(c=1) -> BivarPoly:
    c = _exact(c)
    return BivarPoly({(0, 0): c} if c else {})


def mul_zbar(p: BivarPoly) -> BivarPoly:
    return BivarPoly({(m + 1, k): c for (m, k), c in p.terms.items()})


def mul_z(p: BivarPoly) -> BivarPoly:
    return BivarPoly({(m, k + 1): c for (m, k), c in p.terms.items()})


def d_zbar(p: BivarPoly) -> BivarPoly:
    return BivarPoly({(m - 1, k): m * c for (m, k), c in p.terms.items() if m})


def d_z(p: BivarPoly) -> BivarPoly:
    return BivarPoly({(m, k - 1): k * c for (m, k), c in p.terms.items() if k})


def eval_poly(p: BivarPoly, z: complex) -> complex:
    """Floating-point value p(conj(z), z), summed in (m, k) order."""
    zb = complex(z).conjugate()
    total = 0j
    for (m, k), c in sorted(p.terms.items()):
        total += complex(c) * zb**m * z**k
    return total


# ---------------------------------------------------------------------------
# The complex Hermite family by three independent constructions.
# ---------------------------------------------------------------------------

_TABLE = {(0, 0): poly_const(1)}  # (n, k) -> h[n, k]


def ch_recursion(n: int, k: int) -> BivarPoly:
    """h[n, k] by the two coupled recursions from h[0, 0] = 1.

    Raising the first index: h[n+1, k] = zbar h[n, k] - k h[n, k-1].
    Raising the second:      h[n, k+1] = z    h[n, k] - n h[n-1, k].

    Each entry is built once into the table, iteratively: a recursive fill
    would exhaust the Python stack at large degree.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if (n, k) not in _TABLE:
        for i in range(n + 1):
            for j in range(k + 1):
                if (i, j) in _TABLE:
                    continue
                if i == 0:
                    p = mul_z(_TABLE[0, j - 1])  # h[0, j] = z h[0, j-1]
                else:
                    p = mul_zbar(_TABLE[i - 1, j])
                    if j > 0:
                        p = p - _TABLE[i - 1, j - 1].scale(j)
                _TABLE[i, j] = p
    return _TABLE[n, k]


_RODRIGUES = {(0, 0): poly_const(1)}  # (n, k) -> unsigned chain R[n, k]


def ch_rodrigues(n: int, k: int) -> BivarPoly:
    """h[n, k] from the Rodrigues form.

    Differentiating g * exp(-zbar z) with respect to z maps the polynomial
    part g to D g = dg/dz - zbar g; with respect to zbar, to
    Dbar g = dg/dzbar - z g.  The unsigned chain R[n, k] = Dbar^k D^n 1 is
    built into this route's own table, each entry once from its neighbour:
    R[n, 0] = D R[n-1, 0] and R[n, k] = Dbar R[n, k-1].  Then
    h[n, k] = (-1)^(n+k) R[n, k].
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    if (n, k) not in _RODRIGUES:
        for i in range(1, n + 1):
            if (i, 0) not in _RODRIGUES:
                g = _RODRIGUES[i - 1, 0]
                _RODRIGUES[i, 0] = d_z(g) - mul_zbar(g)
        for j in range(1, k + 1):
            if (n, j) not in _RODRIGUES:
                g = _RODRIGUES[n, j - 1]
                _RODRIGUES[n, j] = d_zbar(g) - mul_z(g)
    g = _RODRIGUES[n, k]
    return g.scale(-1) if (n + k) % 2 else g


def ch_explicit(n: int, k: int, literal: bool = False) -> BivarPoly:
    """h[n, k] as the finite double-factorial sum.

    Corrected form: n! k! sum_j (-1)^j zbar^(n-j) z^(k-j) / ((n-j)!(k-j)!j!).
    With literal=True the alternating sign and the 1/j! are dropped — a
    historically printed variant kept only so tests can witness that it
    disagrees with the Rodrigues construction (at (1, 1) by exactly 2).
    Each term is an exact quotient, kept an int when it divides evenly
    (always, in both forms) and a Fraction otherwise.
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    terms: dict = {}
    nf, kf = math.factorial(n), math.factorial(k)
    for j in range(min(n, k) + 1):
        den = math.factorial(n - j) * math.factorial(k - j)
        num = nf * kf
        if not literal:
            num *= (-1) ** j
            den *= math.factorial(j)
        q, r = divmod(num, den)
        terms[n - j, k - j] = Fraction(num, den) if r else q
    return BivarPoly(terms)


def generating_coeff(n: int, k: int) -> BivarPoly:
    """Exact (v^n ubar^k) Taylor coefficient of exp(ubar z + v zbar - ubar v).

    Choosing j factors of (-ubar v), n-j of (v zbar) and k-j of (ubar z)
    gives sum_j (-1)^j zbar^(n-j) z^(k-j) / ((n-j)!(k-j)!j!), which must
    equal h[n, k] / (n! k!).
    """
    return BivarPoly({(n - j, k - j): Fraction((-1) ** j, math.factorial(n - j)
                                               * math.factorial(k - j)
                                               * math.factorial(j))
                      for j in range(min(n, k) + 1)})


def generating_check(max_order: int) -> bool:
    """Whether the generating-function coefficients match the recursion exactly."""
    for n in range(max_order + 1):
        for k in range(max_order + 1):
            scale = Fraction(1, math.factorial(n) * math.factorial(k))
            if generating_coeff(n, k) != ch_recursion(n, k).scale(scale):
                return False
    return True


# ---------------------------------------------------------------------------
# Ladder and number operators as exact polynomial maps.
# ---------------------------------------------------------------------------

LADDERS = ("a_minus", "a_plus", "a_minus_dag", "a_plus_dag")


def ladder_apply(which: str, p: BivarPoly) -> BivarPoly:
    """Exact ladder action on a polynomial; see the module docstring table."""
    if which == "a_minus":
        return d_z(p)
    if which == "a_plus":
        return d_zbar(p)
    if which == "a_minus_dag":
        return mul_z(p) - d_zbar(p)
    if which == "a_plus_dag":
        return mul_zbar(p) - d_z(p)
    raise ValueError(f"unknown ladder {which!r}; expected one of {LADDERS}")


def number_apply(which: str, p: BivarPoly) -> BivarPoly:
    """Exact number-operator action; n_plus counts zbar-degree quanta."""
    cross = d_z(d_zbar(p))
    if which == "n_plus":
        return mul_zbar(d_zbar(p)) - cross
    if which == "n_minus":
        return mul_z(d_z(p)) - cross
    raise ValueError(f"unknown number operator {which!r}; expected n_plus or n_minus")


# ---------------------------------------------------------------------------
# Orthonormalized basis and real Hermite polynomials.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedPoly:
    """An exact polynomial divided by the square root of an exact integer.

    Represents poly / sqrt(norm_sq); used for the orthonormal basis
    B[n, l] = h[n, l] / sqrt(n! l!), whose squared norm against the
    Gaussian measure is norm_sq-exactly 1.
    """

    poly: BivarPoly
    norm_sq: int


def H_basis(n: int, l: int) -> NormalizedPoly:
    """The orthonormal basis element h[n, l] / sqrt(n! l!)."""
    return NormalizedPoly(poly=ch_recursion(n, l),
                          norm_sq=math.factorial(n) * math.factorial(l))


def eval_normalized(p: NormalizedPoly, z: complex) -> complex:
    return eval_poly(p.poly, z) / math.sqrt(p.norm_sq)


def real_hermite(n: int) -> list:
    """Physicists' Hermite polynomial as exact integer coefficients.

    Returns c with h_n(x) = sum_j c[j] x^j, built from the recursion
    h_{n+1} = 2x h_n - 2n h_{n-1}.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    prev = [1]
    if n == 0:
        return prev
    cur = [0, 2]
    for m in range(1, n):
        nxt = [0] + [2 * c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= 2 * m * c
        prev, cur = cur, nxt
    return cur
