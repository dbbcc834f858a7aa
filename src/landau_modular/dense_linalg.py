"""Dense complex matrix kernel with Hermitian spectral calculus.

Every operator exponential in the library (time evolution, modular
operators, Weyl displacements) is routed through an eigendecomposition of
a Hermitian matrix.  The one exception is computed by series summation:
the nilpotent displacement factors e^(alpha a*) and e^(-conj(alpha) a) in
coherent_states, whose series are finite on the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Absolute floor under all relative Frobenius-norm tolerances.
ABS_FLOOR = 1e-14
# Largest ||A - A*|| / ||A|| that hermitian_eig accepts.
HERMITIAN_RTOL = 1e-10


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


@dataclass(frozen=True)
class HermitianEig:
    """Spectral data of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors is the unitary matrix
    whose columns are the corresponding eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a: np.ndarray) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises ValueError if the input deviates from Hermiticity by more than
    HERMITIAN_RTOL relative to its Frobenius norm (with absolute floor).
    """
    a = np.asarray(a, dtype=complex)
    dev = frob(a - a.conj().T)
    if dev > max(HERMITIAN_RTOL * frob(a), ABS_FLOOR):
        raise ValueError(f"matrix is not Hermitian: ||A - A*|| = {dev:.3e}")
    w, u = np.linalg.eigh(a)
    return HermitianEig(eigenvalues=w, eigenvectors=u)


def func_calculus(eig: HermitianEig, f: Callable[[float], complex]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Returns U diag(f(lambda)) U*.  Raises ValueError naming the offending
    eigenvalue if f produces a non-finite value.
    """
    vals = np.array([f(lam) for lam in eig.eigenvalues], dtype=complex)
    bad = ~np.isfinite(vals)
    if bad.any():
        lam = eig.eigenvalues[bad][0]
        raise ValueError(f"scalar function is not finite at eigenvalue {lam}")
    u = eig.eigenvectors
    return (u * vals) @ u.conj().T


def hermitian_function(a: np.ndarray, f: Callable[[float], complex]) -> np.ndarray:
    """Convenience wrapper: func_calculus(hermitian_eig(a), f)."""
    return func_calculus(hermitian_eig(a), f)
