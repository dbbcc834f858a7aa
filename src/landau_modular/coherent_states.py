"""Bi-coherent states on the bivariate Hermite basis, resolutions of the
identity, the cross-sector partial isometries, the modular conjugation as
coefficient transposition, and the spectral form of the modular operator.

A vector in the truncated function space is a coefficient array c[n, k]
over the orthonormal basis B[n, k] = h[n, k] / sqrt(n! k!), 0 <= n, k <= M.
The anti-holomorphic sector is spanned by the column k = 0 (powers of
zbar), the holomorphic sector by the row n = 0 (powers of z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import complex_hermite as ch
from .cgauss_quad import ComplexGaussRule, covers_degree, integrate_values
from .dense_linalg import hermitian_function
from .landau_modes import ladder


@dataclass(frozen=True)
class CoherentCoeffs:
    """Coefficients over the basis B[n, k], 0 <= n, k <= cutoff."""

    cutoff: int
    c: np.ndarray

    def __post_init__(self):
        m = self.cutoff + 1
        if self.c.shape != (m, m):
            raise ValueError(f"coefficients must be {m} x {m}, got {self.c.shape}")

    def flat(self) -> np.ndarray:
        return self.c.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.c))


def bcs(u: complex, v: complex, cutoff: int) -> CoherentCoeffs:
    """Bi-coherent state: c[n, k] = v^n conj(u)^k / sqrt(n! k!)."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    pows_v = np.array([v**n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)])
    ub = np.conj(u)
    pows_u = np.array([ub**k / math.sqrt(math.factorial(k)) for k in range(cutoff + 1)])
    return CoherentCoeffs(cutoff=cutoff, c=np.outer(pows_v, pows_u))


def eta(z: complex, cutoff: int) -> CoherentCoeffs:
    """Anti-holomorphic coherent state: c[n, 0] = z^n / sqrt(n!)."""
    return bcs(0.0, z, cutoff)


def eta_breve(zbar: complex, cutoff: int) -> CoherentCoeffs:
    """Holomorphic coherent state: c[0, n] = zbar^n / sqrt(n!)."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    c = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(cutoff + 1):
        c[0, n] = zbar**n / math.sqrt(math.factorial(n))
    return CoherentCoeffs(cutoff=cutoff, c=c)


def coeff_eval(v: CoherentCoeffs, w: complex) -> complex:
    """Pointwise value sum c[n, k] B[n, k](wbar, w)."""
    total = 0j
    for n in range(v.cutoff + 1):
        for k in range(v.cutoff + 1):
            if v.c[n, k] != 0:
                total += v.c[n, k] * ch.eval_normalized(ch.H_basis(n, k), w)
    return total


def J_swap(v: CoherentCoeffs) -> CoherentCoeffs:
    """The modular conjugation on coefficients: c'[n, k] = conj(c[k, n])."""
    return CoherentCoeffs(cutoff=v.cutoff, c=v.c.T.conj())


def chi_state(beta: float, cutoff: int) -> tuple[CoherentCoeffs, float]:
    """The thermal vector sum e^(-n beta/2) B[n, n], renormalized to norm 1.

    Returns the normalized state and the untruncated normalizer
    sqrt(1 - e^(-beta)) it converges to as the cutoff grows.
    """
    if beta <= 0:
        raise ValueError(f"inverse temperature must be positive, got {beta}")
    c = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for n in range(cutoff + 1):
        c[n, n] = math.exp(-n * beta / 2.0)
    c /= np.linalg.norm(c)
    return CoherentCoeffs(cutoff=cutoff, c=c), math.sqrt(1.0 - math.exp(-beta))


@dataclass(frozen=True)
class TruncatedMap:
    """A (possibly antilinear) map on flattened coefficient arrays.

    Action: flat(out) = matrix @ flat(in), with an entrywise conjugation
    of the input first when antilinear is set.
    """

    cutoff: int
    matrix: np.ndarray
    antilinear: bool = False

    def __call__(self, v: CoherentCoeffs) -> CoherentCoeffs:
        if v.cutoff != self.cutoff:
            raise ValueError("cutoff mismatch")
        x = v.flat()
        if self.antilinear:
            x = x.conj()
        m = self.cutoff + 1
        return CoherentCoeffs(cutoff=self.cutoff, c=(self.matrix @ x).reshape(m, m))


def sector_projector(kind: str, cutoff: int) -> TruncatedMap:
    """Projector onto the anti-holomorphic (k = 0) or holomorphic (n = 0) sector."""
    m = cutoff + 1
    diag = np.zeros(m * m)
    if kind == "a-hol":
        diag[::m] = 1.0  # the entries (n, 0)
    elif kind == "hol":
        diag[:m] = 1.0  # the entries (0, k)
    else:
        raise ValueError(f"unknown sector {kind!r}; expected 'a-hol' or 'hol'")
    return TruncatedMap(cutoff=cutoff, matrix=np.diag(diag).astype(complex))


def _require_coverage(rule: ComplexGaussRule, cutoff: int) -> None:
    if not covers_degree(rule, cutoff):
        raise ValueError(
            f"quadrature certificate does not cover monomial degree {cutoff}: "
            f"need radial order >= {cutoff // 2 + 1} and angular order > {cutoff}")


def _moment_matrix(rule: ComplexGaussRule, cutoff: int) -> np.ndarray:
    """G[n, m] = integral of (z^n / sqrt(n!)) conj(z^m / sqrt(m!)) dnu."""
    pows = np.array([rule.nodes**n / math.sqrt(math.factorial(n))
                     for n in range(cutoff + 1)])
    return np.array([[integrate_values(rule, pa * pb.conj()) for pb in pows]
                     for pa in pows])


def resolution_check(kind: str, cutoff: int, rule: ComplexGaussRule) -> float:
    """Max deviation of a coherent-state resolution from its target.

    'a-hol': integral of |eta_z><eta_z| dnu against the k = 0 sector
    projector; 'hol': the mirrored statement; 'bcs': the double integral
    over (u, v) against the full identity.  Refuses rules whose exactness
    certificate does not cover the cutoff degree.
    """
    _require_coverage(rule, cutoff)
    m = cutoff + 1
    g = _moment_matrix(rule, cutoff)
    if kind in ("a-hol", "hol"):
        p = np.zeros((m * m, m * m), dtype=complex)
        if kind == "a-hol":
            p[::m, ::m] = g
        else:
            # element ((0,a),(0,b)) = integral zbar^a z^b dnu / norms
            p[:m, :m] = g.conj()
        target = sector_projector(kind, cutoff).matrix
        return float(np.max(np.abs(p - target)))
    if kind == "bcs":
        # c[n, k](u, v) factorizes, so the double integral is a Kronecker
        # product of two single-plane moment matrices.
        p = np.kron(g, g.conj())
        return float(np.max(np.abs(p - np.eye(m * m))))
    raise ValueError(f"unknown resolution kind {kind!r}")


def partial_isometry(kind: str, cutoff: int, rule: ComplexGaussRule) -> TruncatedMap:
    """The antilinear cross-sector map from a coherent-state kernel integral.

    'a-hol->hol' is f -> integral eta_breve(zbar) conj(<eta_z, f>) dnu: it
    sends B[n, 0] to B[0, n] isometrically and kills the holomorphic
    sector; 'hol->a-hol' is the reverse.
    """
    _require_coverage(rule, cutoff)
    m = cutoff + 1
    g = _moment_matrix(rule, cutoff)
    mat = np.zeros((m * m, m * m), dtype=complex)
    if kind == "a-hol->hol":
        # row index (0, k), column index (n, 0):
        # matrix[a, b] = integral eta_breve[a] * eta[b] dnu
        mat[:m, ::m] = g.conj()  # integral zbar^k z^n dnu
        return TruncatedMap(cutoff=cutoff, matrix=mat, antilinear=True)
    if kind == "hol->a-hol":
        mat[::m, :m] = g
        return TruncatedMap(cutoff=cutoff, matrix=mat, antilinear=True)
    raise ValueError(f"unknown isometry kind {kind!r}")


def vector_cs_check(z: complex, cutoff: int) -> tuple[float, float, float]:
    """Residuals of the coherent-state eigenvalue relations at the cutoff.

    Returns (residual of lowering eta_z against z eta_z, residual of the
    mirrored relation for eta_breve, certified tail bound 10 |z|^(M+1) /
    sqrt((M+1)!)).  The lowering acts as B[n, 0] -> sqrt(n) B[n-1, 0].
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    m = cutoff + 1
    e = eta(z, cutoff)
    lowered = np.zeros(m, dtype=complex)
    for n in range(m - 1):
        lowered[n] = math.sqrt(n + 1) * e.c[n + 1, 0]
    res_a = float(np.linalg.norm(lowered - z * e.c[:, 0]))
    eb = eta_breve(np.conj(z), cutoff)
    lowered_b = np.zeros(m, dtype=complex)
    for n in range(m - 1):
        lowered_b[n] = math.sqrt(n + 1) * eb.c[0, n + 1]
    res_b = float(np.linalg.norm(lowered_b - np.conj(z) * eb.c[0, :]))
    bound = 10.0 * abs(z) ** (cutoff + 1) / math.sqrt(math.factorial(cutoff + 1))
    return res_a, res_b, bound


def modular_spectral_check(beta: float, cutoff: int,
                           t_samples=(0.3, 1.0, -2.0)) -> float:
    """Consistency of the diagonal modular operator with the Gibbs picture.

    Checks three facts and returns the largest deviation: the flow
    Delta^(it) fixes the thermal vector; it multiplies the first-index
    raising generator by a pure phase e^(i beta t); and the eigenvalue on
    B[n, k] equals the Gibbs weight ratio alpha_n / alpha_k.
    """
    from .modular_core import build_weights

    m = cutoff + 1
    dev = 0.0
    chi, _ = chi_state(beta, cutoff)
    raising = np.zeros((m * m, m * m), dtype=complex)
    for n in range(m - 1):
        for k in range(m):
            raising[(n + 1) * m + k, n * m + k] = math.sqrt(n + 1)
    exponents = np.array([-(n - k) for n in range(m) for k in range(m)], dtype=float)
    for t in t_samples:
        phases = np.exp(1j * beta * t * exponents)
        flowed_chi = phases * chi.flat()
        dev = max(dev, float(np.linalg.norm(flowed_chi - chi.flat())))
        conj_raising = (phases[:, None] * raising) * phases.conj()[None, :]
        dev = max(dev, float(np.max(np.abs(conj_raising - np.exp(-1j * beta * t) * raising))))
    w = build_weights(beta, m)
    for n in range(m):
        for k in range(m):
            dev = max(dev, abs(math.exp(-beta * (n - k)) - w.alpha[n] / w.alpha[k]))
    return dev


def _displacement(alpha: complex, ncut: int) -> np.ndarray:
    """e^(alpha a* - conj(alpha) a) on the truncation.  The exponent is
    anti-Hermitian, so this is e^(-ix) of the Hermitian i(alpha a* -
    conj(alpha) a), from one eigensolve."""
    a = ladder(ncut)
    gen = 1j * (alpha * a.conj().T - np.conj(alpha) * a)
    return hermitian_function(gen, lambda lam: np.exp(-1j * lam))


def _raising_exp(alpha: complex, ncut: int) -> np.ndarray:
    """e^(alpha a*) on the truncation, where alpha a* is nilpotent, so the
    exponential is a finite sum: entry [m, n] = alpha^(m-n) sqrt(m!/n!) /
    (m-n)! for m >= n, built down each column as a running product of
    the ratios alpha sqrt(m) / (m - n)."""
    m = np.arange(ncut)[:, None]
    n = np.arange(ncut)[None, :]
    ratio = np.where(m > n, alpha * np.sqrt(m) / np.maximum(m - n, 1), 1.0)
    return np.tril(np.cumprod(ratio, axis=0))


def displacement_check(alpha: complex, ncut: int) -> float:
    """Deviation between the two factorized forms of the displacement.

    Compares e^(|alpha|^2 / 2) e^(alpha a* - conj(alpha) a), from one
    eigensolve, with e^(alpha a*) e^(-conj(alpha) a), from the finite sums
    of the two nilpotent factors (e^(-conj(alpha) a) is the transpose of
    e^(-conj(alpha) a*)), on the lower half of the truncation.  Refuses
    cuts below 8 |alpha|^2 + 20.
    """
    if abs(alpha) > 1.5:
        raise ValueError(f"|alpha| must be <= 1.5, got {abs(alpha)}")
    need = 8.0 * abs(alpha) ** 2 + 20.0
    if ncut < need:
        raise ValueError(f"cut {ncut} too small: need at least {math.ceil(need)}")
    lhs = math.exp(abs(alpha) ** 2 / 2.0) * _displacement(alpha, ncut)
    rhs = _raising_exp(alpha, ncut) @ _raising_exp(-np.conj(alpha), ncut).T
    half = ncut // 2
    return float(np.max(np.abs(lhs[:half, :half] - rhs[:half, :half])))


def displacement_vacuum_column(alpha: complex, ncut: int) -> np.ndarray:
    """Vacuum column of e^(alpha a* - conj(alpha) a), from one eigensolve."""
    return _displacement(alpha, ncut)[:, 0]
