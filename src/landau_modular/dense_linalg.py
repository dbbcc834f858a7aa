"""Dense complex matrix kernel with Hermitian spectral calculus.

The modular flow, Delta^(it) and the KMS function are exponentials of the
Gibbs energies (modular_core.GibbsWeights.energies), taken entrywise.  The
Weyl displacement is the one operator exponential routed through an
eigendecomposition of a Hermitian matrix: hermitian_function for the
direct route, and one shared eigensystem of the position operator for the
rotated block.  The nilpotent displacement factors e^(alpha a*) and
e^(-conj(alpha) a) in coherent_states are summed as series, which are
finite on the truncation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

# Absolute floor under all relative Frobenius-norm tolerances.
ABS_FLOOR = 1e-14
# Largest ||A - A*|| / ||A|| that hermitian_eig accepts.
HERMITIAN_RTOL = 1e-10


def frob(a: np.ndarray) -> float:
    """Frobenius norm: the root of the pairwise np.sum of the squared real
    parts plus that of the squared imaginary parts.  It takes no BLAS dot
    product (np.linalg.norm does), so its bits do not depend on the BLAS
    thread count."""
    a = np.asarray(a)
    sq = np.sum(a.real * a.real)
    if np.iscomplexobj(a):
        sq += np.sum(a.imag * a.imag)
    return math.sqrt(sq)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, as numpy's EighResult:
    eigenvalues real and ascending, eigenvectors the unitary matrix whose
    columns are the corresponding eigenvectors.

    Raises ValueError if the input deviates from Hermiticity by more than
    HERMITIAN_RTOL relative to its Frobenius norm (with absolute floor).
    """
    a = np.asarray(a, dtype=complex)
    dev = frob(a - a.conj().T)
    if dev > max(HERMITIAN_RTOL * frob(a), ABS_FLOOR):
        raise ValueError(f"matrix is not Hermitian: ||A - A*|| = {dev:.3e}")
    return np.linalg.eigh(a)


def hermitian_function(a: np.ndarray, f: Callable[[float], complex]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns U diag(f(lambda)) U*, from hermitian_eig(a).  Raises ValueError
    naming the offending eigenvalue if f produces a non-finite value.  a is
    dropped once its eigensystem is formed, so a caller that passes its only
    reference frees it before the product is formed.
    """
    eig = hermitian_eig(a)
    del a
    vals = np.array([f(lam) for lam in eig.eigenvalues], dtype=complex)
    bad = ~np.isfinite(vals)
    if bad.any():
        lam = eig.eigenvalues[bad][0]
        raise ValueError(f"scalar function is not finite at eigenvalue {lam}")
    u = eig.eigenvectors
    return (u * vals) @ u.conj().T
