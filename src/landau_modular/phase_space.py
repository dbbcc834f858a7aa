"""Single-mode phase space on a truncated oscillator: the Weyl
displacement U(x, y) = exp(-i(xQ + yP)) by two independent routes (an
eigensolve of xQ + yP per point, and a rotation of one eigensystem of Q
per cut), and the phase-space (Wigner) samples of Hilbert-Schmidt
operators, with the printed and corrected closed forms of the matrix
units' samples read from one basis table.  The operators are dense; this
module does not load the two-mode layer, landau_modes.
"""

from __future__ import annotations

import math

import numpy as np

from . import cgauss_quad as quad
from .dense_linalg import adjoint, hermitian_eig, hermitian_function


def _finite_point(x: float, y: float) -> None:
    for name, v in (("x", x), ("y", y)):
        if not math.isfinite(v):
            raise ValueError(f"phase-space coordinate {name} must be finite, got {v}")


def displacement(ncut: int, x: float, y: float) -> np.ndarray:
    """Single-mode phase-space displacement U(x, y) = exp(-i(xQ + yP)).

    The direct route: one eigensolve of xQ + yP on the ncut-dimensional
    space.  It is the independent reference for displacement_block.
    """
    _finite_point(x, y)
    # hermitian_function holds the only reference to the generator and
    # drops it after the eigensolve, so the product peaks at 4 ncut^2
    # complex arrays, not 5
    return hermitian_function(_generator(ncut, x, y), lambda lam: np.exp(-1j * lam))


def _generator(ncut: int, x: float, y: float) -> np.ndarray:
    """xQ + yP on the ncut-dimensional space, Q = (a + a*)/sqrt2 and
    P = (a - a*)/(i sqrt2), written into its two off-diagonals.  Rows 0, 1
    and 2 of `a` and `ad` hold the entries of a and a* above, below and off
    the band, each put through the arithmetic of the dense sum, so every
    entry has its bits (signed zeros included) without its ncut^2 temporaries.
    """
    a = np.zeros((3, ncut - 1), dtype=complex)
    a[0] = np.sqrt(np.arange(1.0, ncut))  # a[m-1, m] = sqrt(m)
    ad, s2 = a[[1, 0, 2]].conj(), math.sqrt(2.0)
    above, below, off = x * ((a + ad) / s2) + y * ((a - ad) / (1j * s2))
    gen = np.full((ncut, ncut), off[0])
    gen.flat[1::ncut + 1], gen.flat[ncut::ncut + 1] = above, below
    return gen


def _position(ncut: int) -> np.ndarray:
    """Q = (a + a*)/sqrt2 with landau_modes.ladder's a written out: importing
    it would load the two-mode layer, and taking Q from _generator would
    make the rotated route read the direct one it is checked against."""
    a = np.diag(np.sqrt(np.arange(1.0, ncut)), 1).astype(complex)
    return (a + adjoint(a)) / math.sqrt(2.0)


_POSITION: dict = {}  # ncut -> hermitian_eig of Q = (a + a*)/sqrt2


def _position_eig(ncut: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of the truncated position operator, solved once per
    cut per process and shared."""
    eig = _POSITION.get(ncut)
    if eig is None:
        eig = _POSITION[ncut] = hermitian_eig(_position(ncut))
    return eig


def displacement_block(ncut: int, x: float, y: float, n: int) -> np.ndarray:
    """Top-left n x n block of displacement(ncut, x, y), by rotation.

    With x = r cos(theta), y = r sin(theta) and N the number operator,
    xQ + yP = r e^(i theta N) Q e^(-i theta N), so

        U(x, y) = D V e^(-i r Lambda) V* D*,   D = diag(e^(i theta m)),

    where Q = V Lambda V* is solved once per cut.  The rotation is exact at
    the truncation: N is diagonal and e^(i theta N) a e^(-i theta N) =
    e^(-i theta) a entry by entry for the truncated ladder.  Only the
    n x n block is formed, as one matrix product over the first n rows of
    V, the product hermitian_function forms for the direct route.  The
    reports built on it are byte-identical at one and two BLAS threads
    (tests/test_acceptance.py::test_criterion_13_determinism_at_reach).
    """
    _finite_point(x, y)
    if not 0 <= n <= ncut:
        raise ValueError(f"block size {n} outside 0..{ncut}")
    eig = _position_eig(ncut)
    r, theta = math.hypot(x, y), math.atan2(y, x)
    v = eig.eigenvectors[:n]
    d = np.exp(1j * theta * np.arange(n))
    block = (v * np.exp(-1j * r * eig.eigenvalues)) @ v.conj().T
    return d[:, None] * block * d.conj()


def wigner_sample(x_op: np.ndarray, x: float, y: float,
                  ncut: int) -> complex | np.ndarray:
    """The phase-space sample (2 pi)^(-1/2) Tr[U(x, y)* X].

    x_op may live on a smaller truncation n <= ncut; it is embedded in the
    top-left block of the ncut-dimensional single-mode space, so the trace
    needs only the n x n block of U, taken from displacement_block (one
    eigensolve of Q per cut, shared by every sample).  An n x n operator
    gives one complex sample; a stack of k operators, shape (k, n, n),
    gives the array of its k samples at (x, y) from one block.
    """
    n = x_op.shape[-1]
    if x_op.ndim not in (2, 3) or x_op.shape[-2:] != (n, n) or n > ncut:
        raise ValueError(f"operator shape {x_op.shape} incompatible with cut {ncut}")
    u = displacement_block(ncut, x, y, n)
    samples = np.sum(u.conj() * x_op, axis=(-2, -1)) / math.sqrt(2.0 * math.pi)
    return complex(samples) if x_op.ndim == 2 else samples


def wigner_closed_form(labels: list[tuple[int, int]], x: float | np.ndarray,
                       y: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The printed and the corrected closed forms for the phase-space
    samples of the matrix units |n><l|, (n, l) in labels, at one point
    (x, y) or at the points of two arrays of one shape: entry i of each
    form, of the shape of x, is labels[i]'s.

    The printed form e^(-|z|^2/2) B[n,l](zbar, z) / sqrt(2 pi) with
    z = (x - iy)/sqrt2 misses a phase and an index swap; the corrected
    identity, which wigner_sample satisfies to machine precision, is

        i^(n+l) e^(-|z|^2/2) B[l,n](zbar, z) / sqrt(2 pi).

    Both forms read one basis table, of the largest index.
    """
    z = np.asarray((x - 1j * y) / math.sqrt(2.0))
    table = quad.basis_values(z, max(max(n, l) for n, l in labels))
    gauss, norm = np.exp(-np.abs(z) ** 2 / 2.0), math.sqrt(2.0 * math.pi)
    phase = np.array([1j ** (n + l) for n, l in labels]).reshape((-1,) + (1,) * z.ndim)
    return (gauss * np.array([table[n, l] for n, l in labels]) / norm,
            phase * gauss * np.array([table[l, n] for n, l in labels]) / norm)
