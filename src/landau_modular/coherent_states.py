"""Bi-coherent states on the bivariate Hermite basis, resolutions of the
identity, the cross-sector partial isometries, the modular conjugation as
coefficient transposition, and the spectral form of the modular operator.

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
(M+1)-vector, and every map between or onto the sectors is stored at that
size, through the moment matrix G of the quadrature rule.  G is built from
the rule's tensor structure, a product over its rings times the mean over
its angles, so no array of the rule's node count is formed; the same
entries summed over the nodes by integrate_values are the independent
route that moment_factorization_check compares it with.  The Weyl
displacement is landau_modes.displacement.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from . import complex_hermite as ch
from . import modular_core as mc
from .cgauss_quad import ComplexGaussRule, integrate_values, require_coverage
from .landau_modes import displacement, ladder

# importable from this module because perfbench/test_perfbench.py pins it here
from .cgauss_quad import covers_degree  # noqa: F401


def bcs(u: complex, v: complex, cutoff: int) -> np.ndarray:
    """Bi-coherent state: c[n, k] = v^n conj(u)^k / sqrt(n! k!)."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    pows_v = np.array([v**n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)])
    ub = np.conj(u)
    pows_u = np.array([ub**k / math.sqrt(math.factorial(k)) for k in range(cutoff + 1)])
    return np.outer(pows_v, pows_u)


def eta(z: complex, cutoff: int) -> np.ndarray:
    """Anti-holomorphic coherent state: c[n, 0] = z^n / sqrt(n!)."""
    return bcs(0.0, z, cutoff)


def eta_breve(zbar: complex, cutoff: int) -> np.ndarray:
    """Holomorphic coherent state: c[0, n] = zbar^n / sqrt(n!)."""
    return bcs(np.conj(zbar), 0.0, cutoff)


def coeff_eval(v: np.ndarray, w: complex) -> complex:
    """Pointwise value sum c[n, k] B[n, k](wbar, w)."""
    total = 0j
    for (n, k), c in np.ndenumerate(v):
        if c != 0:
            total += c * ch.eval_normalized(ch.H_basis(n, k), w)
    return total


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


_MOMENTS = weakref.WeakKeyDictionary()  # rule -> the largest G built on it


def _ring_powers(rule: ComplexGaussRule, cutoff: int) -> np.ndarray:
    """P[n, r] = rho_r^n / sqrt(n!), 0 <= n <= cutoff, over the rule's rings."""
    return np.array([rule.radii**n / math.sqrt(math.factorial(n))
                     for n in range(cutoff + 1)])


def _angular_means(rule: ComplexGaussRule, cutoff: int) -> np.ndarray:
    """A[d + cutoff] = mean over the rule's angles of e^(i d theta_j),
    -cutoff <= d <= cutoff."""
    d = np.arange(-cutoff, cutoff + 1)
    return np.mean(np.exp(1j * np.multiply.outer(d, rule.angles)), axis=1)


def _moment_matrix(rule: ComplexGaussRule, cutoff: int) -> np.ndarray:
    """G[n, m] = integral of (z^n / sqrt(n!)) conj(z^m / sqrt(m!)) dnu,
    0 <= n, m <= cutoff, read-only.

    The rule is a tensor rule, so the sum over its nodes factors into a
    radial and an angular sum: G[n, m] = R[n, m] A[n - m] with
    R = P diag(w) P^T over the rings and A the angular means.  No array
    of the rule's node count is built.  G is built once per rule at the
    largest cutoff asked for, and a smaller cutoff takes its leading block
    (no entry depends on the cutoff).  The table is keyed on the rule
    instance (rules hash by identity) and does not keep a rule alive.
    """
    g = _MOMENTS.get(rule)
    if g is None or g.shape[0] <= cutoff:
        p = _ring_powers(rule, cutoff)
        n = np.arange(cutoff + 1)
        a = _angular_means(rule, cutoff)[np.subtract.outer(n, n) + cutoff]
        g = ((p * rule.ring_weights) @ p.T) * a
        g.flags.writeable = False
        _MOMENTS[rule] = g
    return g[:cutoff + 1, :cutoff + 1]


def moment_factorization_check(rule: ComplexGaussRule, cutoff: int) -> float:
    """Max deviation of the factored moment matrix from the same entries
    summed over the rule's nodes, one integrate_values sum each, an
    independent route."""
    pows = [rule.nodes**n / math.sqrt(math.factorial(n)) for n in range(cutoff + 1)]
    direct = np.array([[integrate_values(rule, pa * pb.conj()) for pb in pows]
                       for pa in pows])
    return float(np.max(np.abs(_moment_matrix(rule, cutoff) - direct)))


def resolution_check(kind: str, cutoff: int, rule: ComplexGaussRule) -> float:
    """Max deviation of a coherent-state resolution from its target.

    'a-hol': integral of |eta_z><eta_z| dnu against the k = 0 sector
    projector; 'hol': the mirrored statement; 'bcs': the double integral
    over (u, v) against the full identity.  The sector integrals are G and
    conj(G) on their sector's index set and 0, like the projector, outside
    it.  Refuses rules whose exactness certificate does not cover the
    cutoff degree.
    """
    require_coverage(rule, cutoff)
    g = _moment_matrix(rule, cutoff)
    if kind == "a-hol":
        return float(np.max(np.abs(g - np.eye(cutoff + 1))))
    if kind == "hol":
        # element ((0,a),(0,b)) = integral zbar^a z^b dnu / norms
        return float(np.max(np.abs(g.conj() - np.eye(cutoff + 1))))
    if kind == "bcs":
        # c[n, k](u, v) factorizes, so the double integral is a Kronecker
        # product of two single-plane moment matrices.
        p = np.kron(g, g.conj())
        return float(np.max(np.abs(p - np.eye(p.shape[0]))))
    raise ValueError(f"unknown resolution kind {kind!r}")


def partial_isometry(kind: str, cutoff: int, rule: ComplexGaussRule) -> np.ndarray:
    """The antilinear cross-sector map from a coherent-state kernel
    integral, as the (M+1) x (M+1) matrix K of its linear part: the image
    of a source-sector vector v is K @ conj(v).

    'a-hol->hol' is f -> integral eta_breve(zbar) conj(<eta_z, f>) dnu: it
    reads the column c[:, 0], writes the row c[0, :], and sends B[n, 0] to
    B[0, n] isometrically; K = conj(G), K[k, n] = integral zbar^k z^n dnu /
    norms.  'hol->a-hol' is the reverse, with K = G.  Neither map reads
    outside its source sector, so each kills the complement, and the
    composition, antilinear after antilinear, is the linear rev @ conj(iso).
    """
    require_coverage(rule, cutoff)
    g = _moment_matrix(rule, cutoff)
    if kind == "a-hol->hol":
        return g.conj()
    if kind == "hol->a-hol":
        return g
    raise ValueError(f"unknown isometry kind {kind!r}")


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


# The flow times at which modular_spectral_check samples Delta^(it).
MODULAR_T_SAMPLES = (0.3, 1.0, -2.0)


def _ratio_errors(w: mc.GibbsWeights) -> np.ndarray:
    """|e^(-beta(n-k)) - alpha_n / alpha_k| at [n, k], with one math.exp
    per difference d = n - k."""
    ref = np.array([math.exp(-w.beta * d) for d in range(1 - w.n, w.n)])
    d = np.subtract.outer(np.arange(w.n), np.arange(w.n))
    return np.abs(ref[d + w.n - 1] - np.divide.outer(w.alpha, w.alpha))


def modular_spectral_check(beta: float, cutoff: int) -> float:
    """Consistency of the diagonal modular operator with the Gibbs picture.

    Checks three facts and returns the largest deviation: the flow
    Delta^(it), the multiplier mc.flow_superop(w, -beta t) on the
    coefficient array, fixes the thermal vector Phi = mc.cyclic_vector(w);
    it multiplies the first-index raising generator by a pure phase
    e^(i beta t); and the eigenvalue on B[n, k] equals the Gibbs weight
    ratio alpha_n / alpha_k.  The last is an absolute error on values up
    to e^(beta cutoff); modular_spectral_relative_check is its relative
    form.  A NaN deviation is returned as NaN.
    """
    m = cutoff + 1
    w = mc.build_weights(beta, m)
    phi = mc.cyclic_vector(w)
    # the raising generator's only nonzero entries, sqrt(n + 1) from (n, k)
    # to (n + 1, k): conjugating by the diagonal phases multiplies them by
    # p[n + 1, k] and conj(p[n, k])
    root = np.sqrt(np.arange(1.0, m))[:, None]
    errors = [float(np.max(_ratio_errors(w)))]
    for t in MODULAR_T_SAMPLES:
        p = mc.flow_superop(w, -beta * t)
        conj_raising = (p[1:] * root) * p[:-1].conj()
        errors += [float(np.linalg.norm(p * phi - phi)),
                   float(np.max(np.abs(conj_raising - np.exp(-1j * beta * t) * root)))]
    return float(np.max(errors, initial=0.0))


def modular_spectral_relative_check(beta: float, cutoff: int) -> float:
    """Largest relative error of the Gibbs ratio alpha_n / alpha_k against
    the Delta eigenvalue e^(-beta(n-k)) on B[n, k], 0 <= n, k <= cutoff:
    the absolute error of modular_spectral_check scaled by e^(beta(n-k)).

    The error is rounding.  alpha_n, alpha_k and the reference each round
    an exponent of size at most beta * cutoff, which moves the value by up
    to beta * cutoff * u relative (u = eps / 2): 1.5 beta cutoff eps for
    the three, and a few eps more from exp, the quotients and the scaling.
    beta * cutoff is at most ln(DBL_MAX) wherever build_weights accepts
    it.  Measured: 1.1e-15 (4.9 eps) at beta 0.7 and cutoff 10, 1.46e-14
    (66 eps) at cutoff 170, and at most 513 eps at cutoff 170 for beta up
    to 4.17."""
    w = mc.build_weights(beta, cutoff + 1)
    d = np.subtract.outer(np.arange(cutoff + 1), np.arange(cutoff + 1))
    return float(np.max(_ratio_errors(w) * np.exp(beta * d)))


def _displacement(alpha: complex, ncut: int) -> np.ndarray:
    """e^(alpha a* - conj(alpha) a) = U(-sqrt2 Im alpha, sqrt2 Re alpha), the
    phase-space displacement of landau_modes from one eigensolve."""
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
