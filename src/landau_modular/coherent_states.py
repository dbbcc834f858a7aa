"""Bi-coherent states on the bivariate Hermite basis, resolutions of the
identity, the cross-sector partial isometries, the modular conjugation as
coefficient transposition, and the spectral form of the modular operator,
whose absolute and relative errors read one set of Gibbs weights.

A vector in the truncated function space is a coefficient array c[n, k]
over the orthonormal basis B[n, k] = h[n, k] / sqrt(n! k!), 0 <= n, k <= M:
a plain (M+1) x (M+1) complex array, that is, an element of the
Hilbert-Schmidt space HS(C^(M+1)) of hs_space.  Its norm is the Frobenius
norm, and its modular data are modular_core's on M+1 levels: the thermal
vector is modular_core.cyclic_vector, the flow Delta^(it) the multiplier
modular_core.flow_superop(w, -beta t), and the modular conjugation
modular_core.conjugation_J, the adjoint c -> c*.  The
anti-holomorphic sector is spanned by the column k = 0 (powers of zbar),
the holomorphic sector by the row n = 0 (powers of z); each is an
(M+1)-vector, and every map between or onto the sectors is the moment
matrix G of the quadrature rule, its conjugate or a block of it, built
once per coherent run and passed to every sector check.  G comes from
cgauss_quad.ring_angle_sum, which also gives the quadrature suite's basis
Gram; moment_factorization_check compares it with its node sums by
integrate_values.  The Weyl displacement is phase_space.displacement.
"""

from __future__ import annotations

import math

import numpy as np

from . import modular_core as mc
from .cgauss_quad import (ComplexGaussRule, basis_values, integrate_values,
                          require_coverage, ring_angle_sum)
# ladder, the one name this layer reads from the two-mode layer, stays
# landau_modes's because perfbench/test_perfbench.py pins it there
from .landau_modes import ladder
from .phase_space import displacement

# importable from this module because perfbench/test_perfbench.py pins it here
from .cgauss_quad import covers_degree  # noqa: F401


def normalized_powers(z, cutoff: int) -> np.ndarray:
    """Row n holds z^n / sqrt(n!), 0 <= n <= cutoff, for a number or an
    array z.  The rows are written into one table as they are formed; z**n
    is taken of z as passed, since a Python complex and its numpy scalar
    round their powers differently."""
    out = np.empty((cutoff + 1,) + np.shape(z), dtype=np.result_type(z, 1.0))
    for n in range(cutoff + 1):
        out[n] = z**n / math.sqrt(math.factorial(n))
    return out


def bcs(u: complex, v: complex, cutoff: int) -> np.ndarray:
    """Bi-coherent state: c[n, k] = v^n conj(u)^k / sqrt(n! k!)."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    return np.outer(normalized_powers(v, cutoff), normalized_powers(np.conj(u), cutoff))


def eta(z: complex, cutoff: int) -> np.ndarray:
    """Anti-holomorphic coherent state: c[n, 0] = z^n / sqrt(n!)."""
    return bcs(0.0, z, cutoff)


def eta_breve(zbar: complex, cutoff: int) -> np.ndarray:
    """Holomorphic coherent state: c[0, n] = zbar^n / sqrt(n!)."""
    return bcs(np.conj(zbar), 0.0, cutoff)


def coeff_eval(v: np.ndarray, w: complex) -> complex:
    """Pointwise value sum c[n, k] B[n, k](wbar, w) of a square coefficient
    array, as one pairwise sum."""
    return np.sum(v * basis_values(w, v.shape[0] - 1))


def sector_projector(kind: str, cutoff: int) -> np.ndarray:
    """The 0/1 diagonal, over the flattened index n * (M+1) + k, of the
    projector onto the anti-holomorphic (k = 0) or holomorphic (n = 0)
    sector."""
    m = cutoff + 1
    diag = np.zeros(m * m)
    if kind == "a-hol":
        diag[::m] = 1.0  # the entries (n, 0)
    elif kind == "hol":
        diag[:m] = 1.0  # the entries (0, k)
    else:
        raise ValueError(f"unknown sector {kind!r}; expected 'a-hol' or 'hol'")
    return diag


def moment_matrix(rule: ComplexGaussRule, cutoff: int) -> np.ndarray:
    """G[n, m] = integral of (z^n / sqrt(n!)) conj(z^m / sqrt(m!)) dnu,
    0 <= n, m <= cutoff.  Refuses rules whose exactness certificate does
    not cover the cutoff degree.

    z^n / sqrt(n!) is P[n, r] e^(i n theta) on ring r, so ring_angle_sum
    gives G[n, m] = R[n, m] A[n - m], R = P diag(w) P^T over the rings and
    A the angular means, with no array of the rule's node count.

    The resolution integral of |eta_z><eta_z| dnu is G on the k = 0
    sector, its holomorphic mirror conj(G), and the bi-coherent one
    kron(G, conj(G)).  The antilinear map f -> integral eta_breve(zbar)
    conj(<eta_z, f>) dnu reads the column c[:, 0], writes the row c[0, :]
    and acts as v -> K @ conj(v) with K = conj(G); the reverse map has
    K = G.  Neither reads outside its source sector.
    """
    require_coverage(rule, cutoff)
    p = normalized_powers(rule.radii, cutoff)  # P[n, r] = rho_r^n / sqrt(n!)
    return ring_angle_sum(rule, p, np.arange(cutoff + 1))


def moment_factorization_check(rule: ComplexGaussRule, g: np.ndarray) -> float:
    """Max deviation of a leading block g of the moment matrix from the
    same entries summed over the rule's nodes, one integrate_values sum
    each, an independent route."""
    pows = normalized_powers(rule.nodes, g.shape[0] - 1)
    direct = np.array([[integrate_values(rule, pa * pb.conj()) for pb in pows]
                       for pa in pows])
    return float(np.max(np.abs(g - direct)))


def vector_cs_check(z: complex, cutoff: int) -> tuple[float, float, float]:
    """Residuals of the coherent-state eigenvalue relations at the cutoff.

    Returns (residual of lowering eta_z against z eta_z, residual of the
    mirrored relation for eta_breve, certified tail bound 10 |z|^(M+1) /
    sqrt((M+1)!)).  The lowering acts as B[n, 0] -> sqrt(n) B[n-1, 0], the
    single-mode ladder on the sector.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    a = ladder(cutoff + 1)
    e = eta(z, cutoff)[:, 0]
    res_a = float(np.linalg.norm(a @ e - z * e))
    eb = eta_breve(np.conj(z), cutoff)[0, :]
    res_b = float(np.linalg.norm(a @ eb - np.conj(z) * eb))
    bound = 10.0 * abs(z) ** (cutoff + 1) / math.sqrt(math.factorial(cutoff + 1))
    return res_a, res_b, bound


# The flow times at which modular_spectral_errors samples Delta^(it).
MODULAR_T_SAMPLES = (0.3, 1.0, -2.0)


def _ratio_errors(w: mc.GibbsWeights) -> np.ndarray:
    """|e^(-beta(n-k)) - alpha_n / alpha_k| at [n, k], with one math.exp
    per difference d = n - k."""
    ref = np.array([math.exp(-w.beta * d) for d in range(1 - w.n, w.n)])
    d = np.subtract.outer(np.arange(w.n), np.arange(w.n))
    return np.abs(ref[d + w.n - 1] - np.divide.outer(w.alpha, w.alpha))


def modular_spectral_errors(beta: float, cutoff: int) -> tuple[float, float]:
    """Consistency of the diagonal modular operator with the Gibbs picture
    on cutoff + 1 levels, (absolute, relative), from one Gibbs state.

    absolute is the largest deviation of three facts: the flow Delta^(it),
    the multiplier mc.flow_superop(w, -beta t) on the coefficient array,
    fixes the thermal vector Phi = mc.cyclic_vector(w); it multiplies the
    first-index raising generator by a pure phase e^(i beta t); and the
    eigenvalue e^(-beta(n-k)) on B[n, k] equals the Gibbs weight ratio
    alpha_n / alpha_k, an error on values up to e^(beta cutoff).  A NaN
    deviation is returned as NaN.  relative is the last error scaled by
    e^(beta(n-k)).

    The relative error is rounding.  alpha_n, alpha_k and the reference
    each round an exponent of size at most beta * cutoff, which moves the
    value by up to beta * cutoff * u relative (u = eps / 2): 1.5 beta
    cutoff eps for the three, and a few eps more from exp, the quotients
    and the scaling.  beta * cutoff is at most ln(DBL_MAX) wherever
    build_weights accepts it.  Measured: 1.1e-15 (4.9 eps) at beta 0.7
    and cutoff 10, 1.46e-14 (66 eps) at cutoff 170, and at most 513 eps at
    cutoff 170 for beta up to 4.17.
    """
    m = cutoff + 1
    w = mc.build_weights(beta, m)
    ratio = _ratio_errors(w)
    phi = mc.cyclic_vector(w)
    # the raising generator's only nonzero entries, sqrt(n + 1) from (n, k)
    # to (n + 1, k): conjugating by the diagonal phases multiplies them by
    # p[n + 1, k] and conj(p[n, k])
    root = np.sqrt(np.arange(1.0, m))[:, None]
    errors = [float(np.max(ratio))]
    for t in MODULAR_T_SAMPLES:
        p = mc.flow_superop(w, -beta * t)
        conj_raising = (p[1:] * root) * p[:-1].conj()
        errors += [float(np.linalg.norm(p * phi - phi)),
                   float(np.max(np.abs(conj_raising - np.exp(-1j * beta * t) * root)))]
    d = np.subtract.outer(np.arange(m), np.arange(m))
    return (float(np.max(errors, initial=0.0)),
            float(np.max(ratio * np.exp(beta * d))))


def displacement_operator(alpha: complex, ncut: int) -> np.ndarray:
    """e^(alpha a* - conj(alpha) a) = U(-sqrt2 Im alpha, sqrt2 Re alpha), the
    phase-space displacement of phase_space from one eigensolve."""
    s2 = math.sqrt(2.0)
    return displacement(ncut, -s2 * alpha.imag, s2 * alpha.real)


def _raising_exp(alpha: complex, ncut: int) -> np.ndarray:
    """e^(alpha a*) on the truncation, where alpha a* is nilpotent, so the
    exponential is a finite sum: entry [m, n] = alpha^(m-n) sqrt(m!/n!) /
    (m-n)! for m >= n, built down each column as a running product of
    the ratios alpha sqrt(m) / (m - n)."""
    m = np.arange(ncut)[:, None]
    n = np.arange(ncut)[None, :]
    ratio = np.where(m > n, alpha * np.sqrt(m) / np.maximum(m - n, 1), 1.0)
    return np.tril(np.cumprod(ratio, axis=0))


def displacement_check(alpha: complex, u: np.ndarray) -> float:
    """Deviation between the two factorized forms of the displacement.

    Compares e^(|alpha|^2 / 2) u, u from displacement_operator, with
    e^(alpha a*) e^(-conj(alpha) a), from the finite sums of the two
    nilpotent factors (e^(-conj(alpha) a) is the transpose of
    e^(-conj(alpha) a*)), on the lower half of the truncation.  Refuses
    cuts below 8 |alpha|^2 + 20.
    """
    ncut = u.shape[0]
    if abs(alpha) > 1.5:
        raise ValueError(f"|alpha| must be <= 1.5, got {abs(alpha)}")
    need = 8.0 * abs(alpha) ** 2 + 20.0
    if ncut < need:
        raise ValueError(f"cut {ncut} too small: need at least {math.ceil(need)}")
    lhs = math.exp(abs(alpha) ** 2 / 2.0) * u
    rhs = _raising_exp(alpha, ncut) @ _raising_exp(-np.conj(alpha), ncut).T
    half = ncut // 2
    return float(np.max(np.abs(lhs[:half, :half] - rhs[:half, :half])))
