"""Gibbs weights, the cyclic vector, and the modular triple (S, J, Delta).

The state is the Gibbs state of a truncated harmonic oscillator, defined by
its spectrum E_n = n; the weights alpha_n = exp(-beta E_n) / Z follow from
it, renormalized to sum to one so every modular identity is exact at
finite truncation.  In the matrix-unit basis everything is diagonal or a
transpose, so every superoperator here is held in N^2 numbers: a diagonal
one as the N x N array of its eigenvalues, acting entrywise, and J and S
as hs_space.WeightedConjugation, X -> (W . X)*:

    Delta E_ij     = (alpha_i / alpha_j) E_ij          delta[i, j]
    S E_ij         = sqrt(alpha_i / alpha_j) E_ji      (antilinear, W = sqrt(delta))
    J E_ij         = E_ji                              (antilinear, W = 1)
    bigH on E_ij   = -(1/beta) log Delta_ij            big_h[i, j]

bigH is read from the weights, not from the energies, so comparing it
with E_i - E_j compares two routes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# sandwich_superop and transpose_permutation are not used here; they stay
# importable from this module because perfbench/test_perfbench.py pins them here
from .hs_space import (  # noqa: F401
    WeightedConjugation,
    conjugation_J,
    sandwich_superop,
    transpose_permutation,
)


class GibbsWeights(NamedTuple):
    """The Gibbs state of the truncated oscillator: its spectrum E_n = n
    (units of hbar omega, zero point dropped), the one definition of the
    energies that the flows and the KMS kernel read, and the weights
    alpha = e^(-beta E) / Z derived from it.  Built by build_weights."""

    beta: float
    n: int
    energies: np.ndarray
    alpha: np.ndarray


# ln(DBL_MAX) ~ 709.78: the largest eigenvalue of Delta, alpha_0 / alpha_(n-1)
# = e^(beta (n - 1)), is a finite double up to this exponent and inf beyond it
LOG_DBL_MAX = math.log(np.finfo(float).max)


def require_finite_ratios(beta: float, n: int) -> None:
    """Reject n levels at inverse temperature beta whose Gibbs weight
    ratios overflow a double, beta (n - 1) > ln(DBL_MAX), before any
    array is built; beyond it the modular data hold inf and NaN."""
    if beta * (n - 1) > LOG_DBL_MAX:
        raise ValueError(
            f"beta (--beta) times dim (--dim) - 1 is {beta * (n - 1):.6g}, "
            f"above ln(DBL_MAX) = {LOG_DBL_MAX:.6g}: the Gibbs weight ratio "
            f"e^(beta (dim - 1)) overflows a double")


def build_weights(beta: float, n: int) -> GibbsWeights:
    """The Gibbs state on n levels at inverse temperature beta: the
    spectrum E_n = n and its weights e^(-beta E), renormalized to sum to
    one.  The one constructor of GibbsWeights and the one place its input
    is checked; each condition is written so that a NaN fails it."""
    if not 0 < beta < math.inf:
        raise ValueError(f"inverse temperature must be positive and finite, got {beta}")
    if n < 2:
        raise ValueError(f"need at least two levels, got {n}")
    require_finite_ratios(beta, n)
    energies = np.arange(float(n))
    alpha = np.exp(-beta * energies)
    alpha /= alpha.sum()
    return GibbsWeights(beta=beta, n=n, energies=energies, alpha=alpha)


def cyclic_vector(w: GibbsWeights) -> np.ndarray:
    """The unit vector Phi = sum_i sqrt(alpha_i) E_ii."""
    return np.diag(np.sqrt(w.alpha)).astype(complex)


def state_eval(w: GibbsWeights, a: np.ndarray) -> complex:
    """The state value Tr[rho A] = <Phi, (A v I) Phi>."""
    if a.shape != (w.n, w.n):
        raise ValueError(f"operator must be {w.n} x {w.n}, got {a.shape}")
    return complex(np.sum(w.alpha * np.diag(a)))


class ModularTriple(NamedTuple):
    """The modular data attached to the Gibbs cyclic vector.

    J and S are antilinear, X -> (W . X)* with weight 1 and Delta^(1/2);
    delta and big_h are diagonal in the matrix-unit basis, each the real
    N x N array of its eigenvalues, acting entrywise (the value on E_ij at
    [i, j]).
    """

    J: WeightedConjugation
    S: WeightedConjugation
    delta: np.ndarray
    big_h: np.ndarray


def build_modular_triple(w: GibbsWeights) -> ModularTriple:
    ratio = np.divide.outer(w.alpha, w.alpha)  # [i, j] -> alpha_i / alpha_j
    sq = np.sqrt(ratio)
    # Delta is the literal square of the stored square roots, so the polar
    # identities Delta = S* S and S = J Delta^(1/2) hold bit for bit by
    # construction; only a route to S from its definition can test them
    j = conjugation_J(w.n)
    return ModularTriple(J=j, S=WeightedConjugation(j.weight * sq), delta=sq * sq,
                         big_h=-np.log(ratio) / w.beta)


def _require_real_time(t: float) -> None:
    """Reject a non-real t: the flows invert their phases by conjugating
    them, which holds only at real t."""
    if np.imag(t) != 0:
        raise ValueError(
            f"the modular flow takes a real time, got {t}; build an "
            f"imaginary-time map from GibbsWeights.energies")


def modular_flow(w: GibbsWeights, t: float, a: np.ndarray) -> np.ndarray:
    """The evolved operator exp(iHt) A exp(-iHt) for the Gibbs Hamiltonian,
    at real t only."""
    _require_real_time(t)
    if a.shape != (w.n, w.n):
        raise ValueError(f"operator must be {w.n} x {w.n}, got {a.shape}")
    phases = np.exp(1j * t * w.energies)
    # diagonal conjugation: entry (j, k) picks up exp(i t (E_j - E_k))
    return (phases[:, None] * a) * phases.conj()[None, :]


def flow_superop(w: GibbsWeights, t: float) -> np.ndarray:
    """The diagonal superoperator X -> exp(iHt) X exp(-iHt) as its N x N
    multiplier: u_i conj(u_j) at [i, j], with u = exp(iHt) on the diagonal,
    at real t only."""
    _require_real_time(t)
    u = np.exp(1j * t * w.energies)
    return np.multiply.outer(u, u.conj())


def _kms_weighted(w: GibbsWeights, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """alpha_j A_jk B_kj at [j, k], the z-independent factor of the KMS sum."""
    if a.shape != (w.n, w.n) or b.shape != (w.n, w.n):
        raise ValueError("operators must match the truncation dimension")
    return w.alpha[:, None] * a * b.T


def kms_kernel(w: GibbsWeights, z: complex) -> np.ndarray:
    """The KMS kernel e^(iz (E_k - E_j)) at [j, k].

    Its largest modulus is e^(|Im z| spread), spread the largest energy
    difference; raises OverflowError when |Im z| spread exceeds
    ln(DBL_MAX), the same limit as require_finite_ratios, so every
    z = t + i beta on an accepted configuration is evaluated.

    The kernel is the outer product of 1/u and u, with u = e^(iz (E - c))
    and c the midpoint of the energies: N exponentials, not N^2.  Centring
    keeps each factor's modulus within e^(|Im z| spread / 2) <= e^355, a
    normal double with a normal reciprocal, so the product is finite
    wherever the guard lets z through.
    """
    energies = w.energies
    lo, hi = float(energies.min()), float(energies.max())
    spread = hi - lo
    if abs(z.imag) * spread > LOG_DBL_MAX:
        raise OverflowError(
            f"imaginary part {z.imag} times spectral spread {spread:.3f} overflows exp"
        )
    u = np.exp(1j * z * (energies - 0.5 * (lo + hi)))
    return np.multiply.outer(1 / u, u)


def kms_function(w: GibbsWeights, a: np.ndarray, b: np.ndarray, z: complex) -> complex:
    """F(z) = Tr[rho A exp(iHz) B exp(-iHz)] by the spectral sum of
    alpha_j A_jk B_kj times kms_kernel.

    Entire in z at finite truncation; raises OverflowError where
    kms_kernel does.
    """
    return complex(np.sum(_kms_weighted(w, a, b) * kms_kernel(w, z)))


def kms_boundary_deviation(
    w: GibbsWeights, a: np.ndarray, b: np.ndarray, t_grid: np.ndarray
) -> float:
    """max over the grid of |F(t + i*beta) - Tr[rho alpha_t(B) A]|, the
    trace an entrywise sum since rho is diagonal; NaN if any term is NaN.

    F is kms_function's sum, whose z-independent factor alpha_j A_jk B_kj
    is formed once for the whole grid rather than once per time."""
    weighted = _kms_weighted(w, a, b)
    return float(np.max([abs(complex(np.sum(weighted * kms_kernel(w, complex(t, w.beta))))
                             - complex(np.sum(w.alpha[:, None] * modular_flow(w, t, b)
                                              * a.T)))
                         for t in np.asarray(t_grid, dtype=float)], initial=0.0))


# Largest |[B, rho]| entry of a centralizer member.
CENTRALIZER_TOL = 1e-10


def centralizer_member(w: GibbsWeights,
                       b: np.ndarray) -> tuple[bool, tuple[int, int] | None]:
    """Whether B commutes with rho, to CENTRALIZER_TOL per entry, with the
    offending entry as witness.

    With pairwise distinct weights this is equivalent to B being diagonal,
    and to <phi; [B v I, A v I]> = 0 for every A.
    """
    if b.shape != (w.n, w.n):
        raise ValueError(f"operator must be {w.n} x {w.n}, got {b.shape}")
    c = b * w.alpha - w.alpha[:, None] * b  # [B, rho] with rho = diag(alpha)
    flat = int(np.argmax(np.abs(c)))
    i, j = divmod(flat, w.n)
    if abs(c[i, j]) <= CENTRALIZER_TOL:
        return True, None
    return False, (i, j)
