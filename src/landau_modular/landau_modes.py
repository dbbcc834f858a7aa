"""The planar charged-particle (Landau) system on a truncated two-mode
Fock space: ladder matrices, the rotated ladder pair A+/A-, the two level
Hamiltonians and the joint Fock basis.  The single-mode phase space (the
Weyl displacement and the Wigner sampling) is phase_space.

Tensor convention: the two-mode space is the Kronecker product with the
x-mode as the left factor, so basis index n_x * ncut + n_y labels the
state |n_x, n_y>.  Truncated ladders violate the canonical commutation
relations at the top of the cut; every algebraic identity is therefore
asserted on the interior subspace of states with
n_x + n_y <= ncut - INTERIOR_MARGIN (4 levels below the top), where it
holds exactly.

Each two-mode operator is banded in the joint index (a_x shifts it by
ncut, a_y by 1), so it is a BandedOp: a few diagonals of length ncut^2,
and cuts of 64 and beyond stay cheap.

One imported name stays importable from here only for its reader:
hermitian_function, for perfbench/test_perfbench.py's FROM_IMPORTS.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dense_linalg import hermitian_function  # noqa: F401


class ModeCut:
    """Per-mode truncation count (each mode keeps levels 0 .. ncut-1).

    Cuts with equal counts are equal and hash alike, so they share the
    per-process caches keyed by cut.
    """

    __slots__ = ("ncut",)

    def __init__(self, ncut: int):
        self.ncut = ncut
        if self.ncut < 2:
            raise ValueError(f"per-mode cut must be >= 2, got {self.ncut}")

    def __eq__(self, other):
        if not isinstance(other, ModeCut):
            return NotImplemented
        return self.ncut == other.ncut

    def __hash__(self) -> int:
        return hash(self.ncut)

    @property
    def dim(self) -> int:
        return self.ncut * self.ncut


def ladder(n: int) -> np.ndarray:
    """Single-mode lowering matrix: a[m-1, m] = sqrt(m)."""
    if n < 2:
        raise ValueError(f"ladder dimension must be >= 2, got {n}")
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


def hermite_fn(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Orthonormal Hermite function by the stable three-term recurrence, at
    one point or at every point of an array.

    zeta_0(x) = pi^(-1/4) exp(-x^2/2);
    zeta_{m+1} = sqrt(2/(m+1)) x zeta_m - sqrt(m/(m+1)) zeta_{m-1}.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    exp = np.exp if isinstance(x, np.ndarray) else math.exp
    z0 = math.pi ** -0.25 * exp(-x * x / 2.0)
    if n == 0:
        return z0
    z1 = math.sqrt(2.0) * x * z0
    for m in range(1, n):
        z0, z1 = z1, math.sqrt(2.0 / (m + 1)) * x * z1 - math.sqrt(m / (m + 1)) * z0
    return z1


def _shift(v: np.ndarray, k: int) -> np.ndarray:
    """out[i] = v[i + k], zero where i + k falls outside v."""
    out = np.zeros_like(v)
    if k >= 0:
        out[:v.shape[0] - k] = v[k:]
    else:
        out[-k:] = v[:v.shape[0] + k]
    return out


class BandedOp:
    """A dim x dim operator stored by its nonzero diagonals.

    diags maps an offset k to the length-dim array d with op[i, i + k] = d[i],
    indexed by row; entries whose column i + k falls outside the matrix are
    zero.  Offsets are kept in ascending order, so a row of a product or of
    a matrix-vector product sums its terms in ascending column order.
    """

    __slots__ = ("dim", "diags")

    def __init__(self, dim: int, diags: dict[int, np.ndarray]):
        self.dim, self.diags = dim, diags

    def __matmul__(self, other):
        """op @ v for a length-dim vector v, or the product op @ other."""
        if isinstance(other, BandedOp):
            return self._product(other)
        x = np.asarray(other)
        if x.shape != (self.dim,):
            raise ValueError(
                f"operand shape {x.shape} does not match dimension {self.dim}")
        y = np.zeros(self.dim, dtype=np.result_type(x, *self.diags.values()))
        for k, d in self.diags.items():
            # rows lo..hi-1 are those whose column i + k lies inside
            lo, hi = max(-k, 0), self.dim - max(k, 0)
            y[lo:hi] += d[lo:hi] * x[lo + k:hi + k]
        return y

    def _product(self, other: BandedOp) -> BandedOp:
        # (A B)[i, i + ka + kb] sums A[i, i + ka] B[i + ka, i + ka + kb]
        if other.dim != self.dim:
            raise ValueError(f"dimensions {self.dim} and {other.dim} differ")
        out: dict = {}
        for ka, da in self.diags.items():
            for kb, db in other.diags.items():
                k = ka + kb
                if abs(k) >= self.dim:
                    continue
                term = da * _shift(db, ka)
                out[k] = out[k] + term if k in out else term
        return BandedOp(self.dim, dict(sorted(out.items())))

    def __add__(self, other: BandedOp) -> BandedOp:
        if not isinstance(other, BandedOp):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimensions {self.dim} and {other.dim} differ")
        out = dict(self.diags)
        for k, d in other.diags.items():
            out[k] = out[k] + d if k in out else d
        return BandedOp(self.dim, dict(sorted(out.items())))

    def __sub__(self, other: BandedOp) -> BandedOp:
        if not isinstance(other, BandedOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> BandedOp:
        return BandedOp(self.dim, {k: -d for k, d in self.diags.items()})

    def __mul__(self, c) -> BandedOp:
        if not np.isscalar(c):
            return NotImplemented
        return BandedOp(self.dim, {k: c * d for k, d in self.diags.items()})

    __rmul__ = __mul__

    def __truediv__(self, c) -> BandedOp:
        if not np.isscalar(c):
            return NotImplemented
        return BandedOp(self.dim, {k: d / c for k, d in self.diags.items()})

    def conj(self) -> BandedOp:
        """Entrywise complex conjugate."""
        return BandedOp(self.dim, {k: d.conj() for k, d in self.diags.items()})

    def dag(self) -> BandedOp:
        """Conjugate transpose: op*[i, i - k] = conj(op[i - k, i])."""
        return BandedOp(self.dim, {-k: _shift(d, -k).conj()
                                   for k, d in reversed(self.diags.items())})

    def block(self, idx: np.ndarray) -> np.ndarray:
        """The dense principal block op[np.ix_(idx, idx)] for ascending
        indices idx, read from the diagonals."""
        # pos[dim + i] is the place of i in idx; -1 off idx or off the matrix
        pos = np.full(3 * self.dim, -1)
        pos[self.dim + idx] = np.arange(len(idx))
        out = np.zeros((len(idx), len(idx)),
                       dtype=np.result_type(complex, *self.diags.values()))
        for k, d in self.diags.items():
            rows = idx[pos[self.dim + idx + k] >= 0]
            out[pos[self.dim + rows], pos[self.dim + rows + k]] = d[rows]
        return out

    def entries(self) -> np.ndarray:
        """The stored entries inside the matrix, diagonal after diagonal."""
        return np.concatenate([np.zeros(0)] + [d[max(-k, 0):self.dim - max(k, 0)]
                                               for k, d in self.diags.items()])


def mode_ops(cut: ModeCut) -> tuple[BandedOp, BandedOp]:
    """The two-mode lowering operators (a_x, a_y) on the tensor space.

    Row i = n_x * ncut + n_y of a_x holds sqrt(n_x + 1) at column i + ncut,
    and of a_y holds sqrt(n_y + 1) at column i + 1; both are zero on the
    rows at the top of their mode (n_x or n_y = ncut - 1).
    """
    n = cut.ncut
    nx, ny = np.divmod(np.arange(cut.dim), n)
    ax = np.where(nx < n - 1, np.sqrt(nx + 1.0), 0.0).astype(complex)
    ay = np.where(ny < n - 1, np.sqrt(ny + 1.0), 0.0).astype(complex)
    return BandedOp(cut.dim, {n: ax}), BandedOp(cut.dim, {1: ay})


# Levels between the interior and the top of the cut.
INTERIOR_MARGIN = 4


def interior_mask(cut: ModeCut) -> np.ndarray:
    """Boolean mask of basis states with n_x + n_y <= ncut - INTERIOR_MARGIN."""
    nx, ny = np.divmod(np.arange(cut.dim), cut.ncut)
    return nx + ny <= cut.ncut - INTERIOR_MARGIN


def interior_deviation(actual: BandedOp, expected: BandedOp,
                       mask: np.ndarray) -> float:
    """Largest column norm of (actual - expected) over interior basis states,
    read from the diagonals of the difference: column c sums |d_k[c - k]|^2
    in descending offset k, which is ascending row order, the order of a
    dense column norm, so the value is the dense one bit for bit."""
    diff = actual - expected
    cols = np.flatnonzero(mask)
    sq = np.zeros(cols.shape[0])
    for k, d in reversed(diff.diags.items()):
        rows = cols - k
        ok = (rows >= 0) & (rows < diff.dim)
        sq[ok] += (d[rows[ok]].conj() * d[rows[ok]]).real
    return float(np.max(np.sqrt(sq), initial=0.0))


class RotatedLadders(NamedTuple):
    """The pair (A+, A-) diagonalizing the two magnetic Hamiltonians."""

    a_plus: BandedOp
    a_plus_dag: BandedOp
    a_minus: BandedOp
    a_minus_dag: BandedOp


_LADDERS: dict = {}  # (cut, literal) -> RotatedLadders


def build_A_pm(cut: ModeCut, literal: bool = False) -> RotatedLadders:
    """The rotated ladder pair from the mode operators.

    Correct combination (derived from the gauge potentials):
        A+ = (3/4)(a_x - i a_y) - (1/4)(a_x* - i a_y*)
        A- = (3/4)(a_x + i a_y) - (1/4)(a_x* + i a_y*)

    With literal=True the A+ line uses -(1/4)(a_x* + i a_y*) instead — a
    historically printed variant that the landau suite's
    literal_ladder_breaks_ccr check reads, where it breaks the commutation
    relations ([A+, A-*] = -1/8 instead of 0).

    Each (cut, literal) pair is built once per process and shared.
    """
    ops = _LADDERS.get((cut, literal))
    if ops is None:
        ax, ay = mode_ops(cut)
        axd, ayd = ax.dag(), ay.dag()
        if literal:
            a_plus = 0.75 * (ax - 1j * ay) - 0.25 * (axd + 1j * ayd)
        else:
            a_plus = 0.75 * (ax - 1j * ay) - 0.25 * (axd - 1j * ayd)
        a_minus = 0.75 * (ax + 1j * ay) - 0.25 * (axd + 1j * ayd)
        ops = _LADDERS[cut, literal] = RotatedLadders(
            a_plus=a_plus, a_plus_dag=a_plus.dag(),
            a_minus=a_minus, a_minus_dag=a_minus.dag(),
        )
    return ops


def build_A_pm_from_qp(cut: ModeCut) -> RotatedLadders:
    """Independent construction from the gauge-covariant position/momentum pairs.

    With x = (a_x + a_x*)/sqrt2, p_x = (a_x - a_x*)/(i sqrt2) (same for y):
        Q- = p_x + y/2,  P- = p_y - x/2,
        Q+ = p_y + x/2,  P+ = p_x - y/2,
        A+ = (Q+ + iP+)/sqrt2,  A- = (iQ- - P-)/sqrt2.
    """
    ax, ay = mode_ops(cut)
    axd, ayd = ax.dag(), ay.dag()
    s2 = math.sqrt(2.0)
    x = (ax + axd) / s2
    y = (ay + ayd) / s2
    px = (ax - axd) / (1j * s2)
    py = (ay - ayd) / (1j * s2)
    q_minus = px + y / 2
    p_minus = py - x / 2
    q_plus = py + x / 2
    p_plus = px - y / 2
    a_plus = (q_plus + 1j * p_plus) / s2
    a_minus = (1j * q_minus - p_minus) / s2
    return RotatedLadders(
        a_plus=a_plus, a_plus_dag=a_plus.dag(),
        a_minus=a_minus, a_minus_dag=a_minus.dag(),
    )


class Hamiltonians(NamedTuple):
    """The level Hamiltonians h_up = N- + 1/2 and h_down = N+ + 1/2, with
    the number operators N+ = A+* A+ and N- = A-* A-."""

    h_up: BandedOp
    h_down: BandedOp
    n_plus: BandedOp
    n_minus: BandedOp


_HAMILTONIANS: dict = {}  # cut -> Hamiltonians


def hamiltonians(cut: ModeCut) -> Hamiltonians:
    """The Hamiltonians of the cut, built once per process and shared."""
    h = _HAMILTONIANS.get(cut)
    if h is None:
        ops = build_A_pm(cut)
        n_plus = ops.a_plus_dag @ ops.a_plus
        n_minus = ops.a_minus_dag @ ops.a_minus
        eye = BandedOp(cut.dim, {0: np.ones(cut.dim, dtype=complex)})
        h = _HAMILTONIANS[cut] = Hamiltonians(
            h_up=n_minus + 0.5 * eye, h_down=n_plus + 0.5 * eye,
            n_plus=n_plus, n_minus=n_minus)
    return h


def ground_state(cut: ModeCut) -> np.ndarray:
    """The joint vacuum as the numerical kernel of N+ + N-.

    The total number operator is compressed to the interior subspace, and
    only that block is read from its diagonals for the eigensolve; the
    lowest eigenvector is embedded back into the full space.  This is the
    eigensolve route, independent of the closed form squeezed_vacuum.
    Raises if the near-kernel is not one-dimensional (cut too small) or the
    interior is empty (cut below 4).
    """
    mask = interior_mask(cut)
    if not mask.any():
        raise ValueError(f"the interior of cut {cut.ncut} is empty; "
                         f"ground_state needs ncut >= 4")
    h = hamiltonians(cut)
    total = h.n_plus + h.n_minus
    sub = total.block(np.flatnonzero(mask))
    vals, vecs = np.linalg.eigh(0.5 * (sub + sub.conj().T))
    if vals.shape[0] > 1 and vals[1] < 0.5:
        raise ValueError(
            f"kernel of the total number operator is not one-dimensional "
            f"at cut {cut.ncut} (second eigenvalue {vals[1]:.3e})")
    psi = np.zeros(cut.dim, dtype=complex)
    psi[mask] = vecs[:, 0]
    # fix the global phase: make the largest-magnitude entry real positive
    k = int(np.argmax(np.abs(psi)))
    psi = psi * (abs(psi[k]) / psi[k])
    return psi / np.linalg.norm(psi)


_VACUUM: dict = {}  # cut -> squeezed_vacuum(cut)


def squeezed_vacuum(cut: ModeCut) -> np.ndarray:
    """The joint vacuum in closed form, normalised on the cut.

    A+ and A- annihilate exp((a_x*^2 + a_y*^2)/6)|0,0>: with a psi =
    lambda a* psi in each mode, A+ psi = (3 lambda/4 - 1/4)(a_x* - i a_y*) psi,
    which vanishes at lambda = 1/3.  This is a two-mode squeezed state with
    tanh r = 1/3 (Caves & Schumaker, PRA 31, 3068, 1985), the outer product
    of the per-mode coefficients c_2m = 6^(-m) sqrt((2m)!) / m!.

    Each cut's vacuum is built once per process and shared, read-only.
    """
    psi = _VACUUM.get(cut)
    if psi is None:
        c = np.zeros(cut.ncut)
        c[0] = 1.0
        for m in range(2, cut.ncut, 2):
            # c_m / c_(m-2) = sqrt(m (m-1)) / (6 (m/2)) = sqrt((m-1)/m) / 3
            c[m] = c[m - 2] * math.sqrt((m - 1) / m) / 3.0
        psi = np.kron(c, c).astype(complex)
        psi = _VACUUM[cut] = psi / np.linalg.norm(psi)
        psi.flags.writeable = False
    return psi


def fock_psi(cut: ModeCut, n: int, l: int,
             vacuum: np.ndarray | None = None) -> np.ndarray:
    """The joint eigenstate Psi_{n,l} = (A+*)^n (A-*)^l Psi_00 / sqrt(n! l!).

    Psi_00 is vacuum when given (for example ground_state(cut), solved once
    by the caller), and squeezed_vacuum(cut) otherwise.
    """
    if n < 0 or l < 0:
        raise ValueError(f"labels must be nonnegative, got ({n}, {l})")
    if n + l > cut.ncut - 2:
        raise ValueError(
            f"label ({n}, {l}) exceeds the cut: need n + l <= {cut.ncut - 2}")
    psi = squeezed_vacuum(cut) if vacuum is None else vacuum
    if psi.shape != (cut.dim,):
        raise ValueError(
            f"vacuum shape {psi.shape} does not match the cut: need ({cut.dim},)")
    ops = build_A_pm(cut)
    for _ in range(n):
        psi = ops.a_plus_dag @ psi
    for _ in range(l):
        psi = ops.a_minus_dag @ psi
    return psi / math.sqrt(math.factorial(n) * math.factorial(l))
