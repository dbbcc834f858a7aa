"""Bivariate complex Hermite polynomials with exact coefficient arithmetic.

A polynomial in the pair (zbar, z) is stored as one exact map,
(m, k) -> nonzero int or Fraction multiplying the monomial zbar^m z^k, and
the arithmetic acts on the map directly.  Every coefficient of h[n, k] is
an integer, (-1)^j j! C(n, j) C(k, j), and every operator applied to them
(shifts, derivatives, sums, real scalings) is real, so plain int
coefficients come out of all three construction routes; a Fraction enters
only through a non-integer scale factor, which no `verify` or `export` run
uses.  All identities (recursion, Rodrigues form, explicit double sum,
raising and number actions) are checked as exact equalities of coefficient
maps; this module computes no floating-point value.  The recursion and the
Rodrigues routes each build every entry once per process, into a table of
their own that no other route reads; the explicit sum reads no table.  The
float values of the orthonormal basis B[n, k] = h[n, k]/sqrt(n! k!) come
from cgauss_quad.basis_values, which reads none of these tables, so only
the hermite suite, `export hermite_coeffs`, tests and demos load this
module.

Conventions:
    h[n, k]     degree-(n, k) polynomial; h[0, 0] = 1, h[1, 1] = zbar z - 1
    a_plus_dag  zbar - d/dz                     (raises n: h[n, k] -> h[n+1, k])
    n_plus      -d2/dz dzbar + zbar d/dzbar     (eigenvalue n on h[n, k])
    n_minus     -d2/dz dzbar + z d/dz           (eigenvalue k on h[n, k])
"""

from __future__ import annotations


def _exact(a):
    """An int stays an int (every Hermite coefficient is one); any other
    real, such as a float or a quotient, becomes an exact Fraction, and a
    complex value raises TypeError.  `fractions` is imported here, on the
    first non-int, since no `verify` or `export` run reaches this branch."""
    if type(a) is int:
        return a
    from fractions import Fraction
    return Fraction(a)


class QC:
    """A complex number with exact (int or Fraction) real and imaginary
    parts."""

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

    Corrected form: sum_j c_j zbar^(n-j) z^(k-j), with
    c_j = (-1)^j n! k! / ((n-j)! (k-j)! j!).  Each term is built from the one
    before it: c_0 = 1 and c_(j+1) = -c_j (n - j)(k - j) / (j + 1), an exact
    integer division, since c_(j+1) is an integer.  With literal=True the
    alternating sign and the 1/j! are dropped, so c_(j+1) = c_j (n - j)(k - j)
    — a historically printed variant that the hermite suite's
    literal_sum_erratum check reads, where it disagrees with the Rodrigues
    construction (at (1, 1) by exactly 2).
    """
    if n < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({n}, {k})")
    terms: dict = {}
    c = 1
    for j in range(min(n, k) + 1):
        terms[n - j, k - j] = c
        c *= (n - j) * (k - j)
        if not literal:
            c = -c // (j + 1)
    return BivarPoly(terms)


# ---------------------------------------------------------------------------
# The raising and number operators as exact polynomial maps.
# ---------------------------------------------------------------------------


def a_plus_dag(p: BivarPoly) -> BivarPoly:
    """Exact raising action zbar p - dp/dz; see the module docstring table."""
    return mul_zbar(p) - d_z(p)


def number_apply(which: str, p: BivarPoly) -> BivarPoly:
    """Exact number-operator action; n_plus counts zbar-degree quanta."""
    cross = d_z(d_zbar(p))
    if which == "n_plus":
        return mul_zbar(d_zbar(p)) - cross
    if which == "n_minus":
        return mul_z(d_z(p)) - cross
    raise ValueError(f"unknown number operator {which!r}; expected n_plus or n_minus")
