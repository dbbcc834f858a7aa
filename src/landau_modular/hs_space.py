"""The Hilbert space of Hilbert-Schmidt operators on an N-dimensional space.

An element X of this space is stored as a plain N x N complex array.  The
inner product is <X|Y> = Tr[X* Y], so the matrix units E_ij form an
orthonormal basis.  A linear map on the space ("superoperator") is an
N^2 x N^2 matrix in the flattened matrix-unit basis, or, when it is
diagonal there, the N x N array of its eigenvalues, acting entrywise: the
eigenvalue on E_ij sits at [i, j].  The transpose of the flattened index
is an index vector, not a matrix.

Flattening convention (fixed for the whole library): row-major over the
(i, j) index of X, so X.reshape(-1)[i*N + j] = X[i, j].  The conjugation J
and the maps J D with D diagonal are WeightedConjugation: X -> (W . X)*
with an N x N weight W.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Singular values of the commutant stack below SVD_RTOL times the largest
# count as zero.
SVD_RTOL = 1e-8
# in_span's largest least-squares residual, relative to max(1, ||target||).
SPAN_TOL = 1e-8


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The basis operator |i><j| on an n-dimensional space."""
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"matrix unit index ({i}, {j}) out of range for dimension {n}")
    x = np.zeros((n, n), dtype=complex)
    x[i, j] = 1.0
    return x


def hs_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr[X* Y], conjugate-linear in X."""
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return complex(np.trace(x.conj().T @ y))


def sandwich_superop(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dense N^2 x N^2 matrix of X -> A X B* (A = left, B = right) in the
    flattening convention.

    Row-major vec gives vec(A X B*) = (A kron conj(B)) vec(X).
    """
    if left.shape != right.shape or left.shape[0] != left.shape[1]:
        raise ValueError(f"sandwich factors must be equal square matrices, "
                         f"got {left.shape}, {right.shape}")
    return np.kron(left, right.conj())


@dataclass(frozen=True)
class WeightedConjugation:
    """The antilinear map X -> (W . X)*: entrywise product with the N x N
    weight W, then the conjugate transpose.

    On matrix units, c E_ij -> conj(c W_ij) E_ji.  W = 1 is the conjugation
    J, and J D for an entrywise multiplier D has weight D.
    """

    weight: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return (self.weight * x).conj().T

    def adjoint(self) -> WeightedConjugation:
        """The antilinear adjoint, <x, A* y> = conj(<A x, y>): weight W^T."""
        return WeightedConjugation(self.weight.T)

    def __matmul__(self, other: WeightedConjugation) -> np.ndarray:
        """self after other: antilinear after antilinear is linear, the
        entrywise multiplier conj(W_self)^T . W_other."""
        return self.weight.conj().T * other.weight


def transpose_permutation(n: int) -> np.ndarray:
    """Index vector of the transpose: flattened position (i, j) holds (j, i).

    For an N^2 x N^2 matrix M in the flattened basis, P M P with P the
    transpose permutation is M[np.ix_(perm, perm)]; for a diagonal one,
    given by its diagonal d, it is d[perm].
    """
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def conjugation_J(n: int) -> WeightedConjugation:
    """The antiunitary map X -> X* (conjugate transpose of the matrix)."""
    return WeightedConjugation(np.ones((n, n)))


def commutant_basis(generators: Sequence[np.ndarray]) -> tuple[int, list[np.ndarray]]:
    """Dimension and basis of all superoperators commuting with the generators.

    Solves the stacked linear system [M, G_k] = 0 over all k, in the
    generators' common dtype, at least double, so real generators give a
    real factorization.  One QR reduces the stack to its square R factor,
    which has the same singular values and right singular vectors and,
    unlike a Gram matrix, does not square the condition number; singular
    values of R below SVD_RTOL times the largest count as zero.
    """
    if len(generators) == 0:
        raise ValueError("commutant of an empty generator list is undefined here")
    d = generators[0].shape[0]
    if any(g.shape != (d, d) for g in generators):
        raise ValueError("generators must share one dimension")
    gens = np.asarray(generators, dtype=np.result_type(float, *generators))
    eye = np.eye(d)
    # vec([G, M]) = (G kron I - I kron G^T) vec(M), row-major vec: the row
    # (i, a) and column (j, b) of the block of G hold G_ij 1_ab - 1_ij G_ba
    stacked = np.einsum("kij,ab->kiajb", gens, eye)
    stacked -= np.einsum("ij,kba->kiajb", eye, gens)
    # the stack has at least as many rows as columns, so R is d^2 x d^2
    _, s, vh = np.linalg.svd(np.linalg.qr(stacked.reshape(-1, d * d), mode="r"))
    cutoff = SVD_RTOL * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    null = vh[rank:].conj()
    basis = [null[r].reshape(d, d) for r in range(null.shape[0])]
    return len(basis), basis


def in_span(basis: Sequence[np.ndarray], target: np.ndarray) -> bool:
    """Whether target lies in the linear span of basis (least-squares residual)."""
    a = np.column_stack([b.reshape(-1) for b in basis])
    t = np.asarray(target).reshape(-1)
    coef, *_ = np.linalg.lstsq(a, t, rcond=None)
    residual = float(np.linalg.norm(a @ coef - t))
    return residual <= SPAN_TOL * max(1.0, float(np.linalg.norm(t)))
