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

from typing import Sequence

import numpy as np

# Singular values of the commutant stack below SVD_RTOL times the largest
# count as zero (in commutant_dim_within, below SVD_RTOL times the
# generators' norm).
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


class WeightedConjugation:
    """The antilinear map X -> (W . X)*: entrywise product with the N x N
    weight W, then the conjugate transpose.

    On matrix units, c E_ij -> conj(c W_ij) E_ji.  W = 1 is the conjugation
    J, and J D for an entrywise multiplier D has weight D.
    """

    __slots__ = ("weight",)

    def __init__(self, weight: np.ndarray):
        self.weight = weight

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
    real factorization.  The stack is never formed: each generator's
    d^2 x d^2 block is folded into the running square R factor by one QR of
    R on top of the block, so memory stays at one block plus R whatever the
    number of generators.  R* R is the stack's Gram matrix, so R has the
    stack's singular values and right singular vectors and, unlike that
    Gram matrix, does not square the condition number; singular values of
    R below SVD_RTOL times the largest count as zero.
    """
    if len(generators) == 0:
        raise ValueError("commutant of an empty generator list is undefined here")
    d = generators[0].shape[0]
    if any(g.shape != (d, d) for g in generators):
        raise ValueError("generators must share one dimension")
    dtype = np.result_type(float, *generators)
    eye = np.eye(d, dtype=dtype)
    r = np.empty((0, d * d), dtype=dtype)
    for g in generators:
        # vec([G, M]) = (G kron I - I kron G^T) vec(M), row-major vec; each
        # Kronecker product is one broadcast outer product, the same
        # entrywise products np.kron forms, without its generic reshaping
        block = ((g[:, None, :, None] * eye[None, :, None, :])
                 - (eye[:, None, :, None] * g.T[None, :, None, :]))
        block = block.reshape(d * d, d * d)
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    _, s, vh = np.linalg.svd(r)
    cutoff = SVD_RTOL * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    null = vh[rank:].conj()
    basis = [row.reshape(d, d) for row in null]
    return len(basis), basis


def commutant_dim_within(basis: Sequence[np.ndarray],
                         generators: Sequence[np.ndarray]) -> int:
    """Dimension of the members of span(basis) that commute with the
    generators, for an orthonormal basis such as commutant_basis returns.

    The commutant of a union is the intersection of the commutants, so a
    joint commutant is the commutant of the second set solved inside a
    basis of the first.  Row b of the system (the transpose of the linear
    system, with the same singular values) stacks [M_b, G_k] over k, and
    the dimension is the basis size less the system's rank.  A unit member's
    commutator with G_k is at most 2 ||G_k|| in norm, so singular values
    below SVD_RTOL times the generators' joint Frobenius norm count as zero:
    the system's own largest singular value is rounding when every member
    commutes.
    """
    if len(basis) == 0:
        return 0
    m = np.asarray(basis)[:, None]
    g = np.asarray(generators)[None]
    system = (m @ g - g @ m).reshape(len(basis), -1)
    s = np.linalg.svd(system, compute_uv=False)
    return len(basis) - int(np.sum(s > SVD_RTOL * np.linalg.norm(g)))


def in_span(basis: Sequence[np.ndarray], target: np.ndarray) -> bool:
    """Whether target lies in the linear span of basis (least-squares residual)."""
    a = np.column_stack([b.reshape(-1) for b in basis])
    t = np.asarray(target).reshape(-1)
    coef, *_ = np.linalg.lstsq(a, t, rcond=None)
    residual = float(np.linalg.norm(a @ coef - t))
    return residual <= SPAN_TOL * max(1.0, float(np.linalg.norm(t)))
