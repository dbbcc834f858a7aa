"""The Hilbert space of Hilbert-Schmidt operators on an N-dimensional space.

An element X of this space is stored as a plain N x N complex array.  The
inner product is <X|Y> = Tr[X* Y], so the matrix units E_ij form an
orthonormal basis.  Linear maps on the space ("superoperators") are stored
as N^2 x N^2 scipy.sparse CSR arrays in the flattened matrix-unit basis,
so the transpose, J and a sandwich with diagonal factors hold N^2 stored
entries where a dense array would hold N^4.

Flattening convention (fixed for the whole library): row-major over the
(i, j) index of X, i.e. flatten(X)[i*N + j] = X[i, j].  Antilinear maps
are stored as the linear part acting after entrywise conjugation in this
same basis; composing two antilinear maps therefore yields the plain
linear superoperator M1 @ conj(M2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp


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


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major flattening of an N x N array to length N^2."""
    return np.asarray(x).reshape(-1)


def unflatten(v: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(v.shape[0])))
    if n * n != v.shape[0]:
        raise ValueError(f"length {v.shape[0]} is not a perfect square")
    return np.asarray(v).reshape(n, n)


def sandwich_superop(left: np.ndarray, right: np.ndarray) -> sp.csr_array:
    """Sparse N^2 x N^2 matrix of X -> A X B* (A = left, B = right) in the
    flattening convention.

    Row-major vec gives vec(A X B*) = (A kron conj(B)) vec(X).
    """
    if left.shape != right.shape or left.shape[0] != left.shape[1]:
        raise ValueError(f"sandwich factors must be equal square matrices, "
                         f"got {left.shape}, {right.shape}")
    # a sparse-array factor makes kron return csr_array, not csr_matrix
    return sp.kron(sp.csr_array(left), right.conj(), format="csr")


@dataclass(frozen=True)
class AntilinearOp:
    """An antilinear map stored as linear-part-after-conjugation.

    Action: X -> unflatten(matrix @ conj(flatten(X))).  The matrix may be a
    dense or a sparse array.
    """

    matrix: np.ndarray | sp.sparray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return unflatten(self.matrix @ flatten(x).conj())


def transpose_permutation(n: int) -> sp.csr_array:
    """Sparse permutation matrix sending flattened index (i, j) to (j, i)."""
    # row i*n + j holds its one entry in column j*n + i
    cols = np.arange(n * n).reshape(n, n).T.reshape(-1)
    return sp.csr_array((np.ones(n * n), cols, np.arange(n * n + 1)),
                        shape=(n * n, n * n))


def conjugation_J(n: int) -> AntilinearOp:
    """The antiunitary map X -> X* (conjugate transpose of the matrix)."""
    return AntilinearOp(transpose_permutation(n).astype(complex))


def commutant_basis(
    generators: Sequence[np.ndarray | sp.sparray], svd_rtol: float = 1e-8
) -> tuple[int, list[np.ndarray]]:
    """Dimension and basis of all superoperators commuting with the generators.

    Solves the stacked linear system [M, G_k] = 0 over all k by a null-space
    SVD; singular values below svd_rtol times the largest count as zero.
    Generators may be dense or sparse; the basis comes back dense.
    """
    if len(generators) == 0:
        raise ValueError("commutant of an empty generator list is undefined here")
    d = generators[0].shape[0]
    dd = d * d
    eye = np.eye(d)
    stacked = np.empty((len(generators) * dd, dd), dtype=complex)
    for k, g in enumerate(generators):
        if g.shape != (d, d):
            raise ValueError("generators must share one dimension")
        g = g.toarray() if sp.issparse(g) else np.asarray(g)
        # vec([G, M]) = (G kron I - I kron G^T) vec(M), row-major vec
        block = stacked[k * dd:(k + 1) * dd]
        block[:] = np.kron(g, eye)
        block -= np.kron(eye, g.T)
    # the stack has at least as many rows as columns, so the economy vh is
    # square and still spans the null space
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    cutoff = svd_rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    null = vh[rank:].conj()
    basis = [null[r].reshape(d, d) for r in range(null.shape[0])]
    return len(basis), basis


def in_span(basis: Sequence[np.ndarray], target: np.ndarray | sp.sparray,
            tol: float = 1e-8) -> bool:
    """Whether target lies in the linear span of basis (least-squares residual)."""
    a = np.column_stack([b.reshape(-1) for b in basis])
    t = sp.csr_array(target).toarray().reshape(-1)
    coef, *_ = np.linalg.lstsq(a, t, rcond=None)
    return float(np.linalg.norm(a @ coef - t)) <= tol * max(1.0, float(np.linalg.norm(t)))
