"""Named verification suites with deterministic, machine-readable reports.

Each suite runs a fixed list of checks; a check records a name, the
mathematical identity it exercises, the measured maximum error, and the
bound it is held to.  Reports are byte-reproducible for a fixed seed:
errors are rounded to six significant digits and no wall-clock data is
embedded in the serialized form.

Errors are folded with np.maximum, which returns NaN when either operand
is NaN; the builtin max keeps its first operand whenever the comparison
with NaN is false, so a check whose arithmetic went NaN would report an
earlier value and pass.  A NaN max_error fails its bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

# the layers only some suites use (landau_modes, complex_hermite,
# coherent_states) are imported inside those suites, so that a `verify`
# process loads and compiles only what its suite runs
from . import __version__
from . import cgauss_quad as quad
from . import modular_core as mc
from .dense_linalg import adjoint, frob
from .hs_space import (
    commutant_basis,
    hs_inner,
    in_span,
    matrix_unit,
    sandwich_superop,
    transpose_permutation,
)
from .rng import SplitMix64

SUITE_NAMES = ("modular", "kms", "landau", "hermite", "quadrature",
               "coherent", "wigner")


@dataclass(frozen=True)
class SuiteConfig:
    """Shared configuration for all suites."""

    dim: int = 16          # truncation of the Gibbs system
    beta: float = 0.7      # inverse temperature
    cutoff: int = 10       # coherent-state basis cutoff
    ncut: int = 64         # single-mode cut for phase-space sampling
    radial: int = 40       # radial quadrature order
    angular: int = 64      # angular quadrature order
    tol_scale: float = 1.0  # multiplies every non-exact bound
    seed: int = 42

    def __post_init__(self):
        for name in ("dim", "radial", "angular", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        # a NaN slips past every order comparison below, and an infinite beta
        # or tolerance scale makes the weights NaN or every bound infinite
        for name, flag in (("beta", "--beta"), ("tol_scale", "--tol")):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} ({flag}) must be finite, got {value}")
        if self.dim < 2 or self.beta <= 0 or self.tol_scale <= 0:
            raise ValueError("dim >= 2, beta > 0 and tol scale > 0 required")
        mc.require_finite_ratios(self.beta, self.dim)
        # the smallest cuts every suite runs at, checked before any suite:
        # the coherent partial-isometry witness moves e_(2,0) to e_(0,2),
        # and the landau Fock states reach n + l = 6, which needs cut n + l + 2
        if self.cutoff < 2:
            raise ValueError(f"cutoff (--cutoff) must be at least 2, got {self.cutoff}")
        if self.ncut < 8:
            raise ValueError(f"ncut (--ncut) must be at least 8, got {self.ncut}")
        # the coherent suite's moment matrix needs the rule to cover the
        # cutoff and n! to be a finite double up to it
        quad.require_coverage(quad.build_rule(self.radial, self.angular), self.cutoff)


@dataclass
class Check:
    name: str
    identity: str
    max_error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.bound


@dataclass
class Report:
    suite: str
    config: SuiteConfig
    checks: list = field(default_factory=list)
    errata: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sig6(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.6g}")


def report_to_json(report: Report) -> str:
    """Deterministic UTF-8 JSON serialization of a report."""
    doc = {
        "suite": report.suite,
        "config": asdict(report.config),
        "checks": [
            {
                "name": c.name,
                "identity": c.identity,
                "max_error": _sig6(c.max_error),
                "bound": c.bound,
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "errata": report.errata,
        "version": __version__,
        "elapsed_ms": None,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class _Suite:
    def __init__(self, name: str, cfg: SuiteConfig):
        self.report = Report(suite=name, config=cfg)
        self.cfg = cfg

    def check(self, name: str, identity: str, max_error: float, bound: float,
              exact: bool = False) -> None:
        if not exact:
            bound = bound * self.cfg.tol_scale
        self.report.checks.append(
            Check(name=name, identity=identity, max_error=float(max_error),
                  bound=float(bound)))

    def erratum(self, name: str, statement: str, witness: str) -> None:
        self.report.errata.append(
            {"name": name, "statement": statement, "witness": witness})


# ---------------------------------------------------------------------------
# modular
# ---------------------------------------------------------------------------

def _suite_modular(cfg: SuiteConfig) -> Report:
    s = _Suite("modular", cfg)
    w = mc.build_weights(cfg.beta, cfg.dim)
    triple = mc.build_modular_triple(w)
    phi = mc.cyclic_vector(w)
    rng = SplitMix64(cfg.seed)

    # J after the entrywise multiplier Delta^(1/2) has weight W_J . Delta^(1/2)
    dev = frob(triple.S.weight - triple.J.weight * np.sqrt(triple.delta))
    s.check("polar_decomposition", "S = J Delta^(1/2)", dev, 1e-12)
    # S* S, antilinear after antilinear, is an entrywise multiplier
    s.check("delta_from_s", "Delta = S* S",
            frob(triple.S.adjoint() @ triple.S - triple.delta), 1e-12)

    s.check("cyclic_fixed_by_j", "J Phi = Phi",
            frob(triple.J(phi) - phi), 1e-13)
    s.check("cyclic_fixed_by_delta", "Delta Phi = Phi",
            frob(triple.delta * phi - phi), 1e-13)

    # Phi is diagonal, so A Phi scales the columns of A by its diagonal
    phi_diag = phi.diagonal()
    dev = 0.0
    for _ in range(20):
        a = rng.complex_matrix(cfg.dim)
        dev = np.maximum(dev, frob(triple.S(a * phi_diag) - adjoint(a) * phi_diag))
    s.check("s_conjugates_orbit", "S(A Phi) = A* Phi", dev, 1e-11)

    dev = 0.0
    for _ in range(10):
        x = rng.complex_matrix(cfg.dim)
        y = rng.complex_matrix(cfg.dim)
        dev = np.maximum(
            dev, abs(hs_inner(triple.J(x), triple.J(y)) - np.conj(hs_inner(x, y))))
    s.check("j_antiunitary", "<Jx, Jy> = conj(<x, y>)", dev, 1e-11)

    dev = 0.0
    for t in (-1.5, 0.4, 2.0):
        a = rng.complex_matrix(cfg.dim)
        dev = np.maximum(dev, abs(mc.state_eval(w, mc.modular_flow(w, t, a))
                           - mc.state_eval(w, a)))
    s.check("state_flow_invariant", "phi(sigma_t(A)) = phi(A)", dev, 1e-12)

    a = rng.complex_matrix(cfg.dim)
    t = 0.8
    # U = flow_superop is diagonal in the matrix-unit basis, with multiplier
    # d, so U(A v I)U* and sigma_t(A) v I differ only on the blocks j = l of
    # their entries ((i, j), (k, l)), where U(A v I)U* holds
    # d_ij A_ik conj(d_kj): compare block by block, in O(N^2) memory
    d = mc.flow_superop(w, t)
    dev = 0.0
    sig = mc.modular_flow(w, t, a)
    for j in range(cfg.dim):
        block = (d[:, j, None] * a) * d[None, :, j].conj()
        dev = np.maximum(dev, float(np.max(np.abs(block - sig))))
    s.check("flow_preserves_left_algebra",
            "sigma_t(A v I) = sigma_t(A) v I", dev, 1e-12)

    expected = -np.log(np.divide.outer(w.alpha, w.alpha)) / w.beta
    s.check("generator_eigenvalues",
            "bigH eigenvalue on E_ij = -(1/beta) log(alpha_i / alpha_j)",
            float(np.max(np.abs(triple.big_h - expected))), 1e-12)

    # real matrix units, so the commutant is found by a real factorization
    n3 = 3
    units = [matrix_unit(n3, i, j).real for i in range(n3) for j in range(n3)]
    gens_left = [sandwich_superop(e, np.eye(n3)) for e in units]
    dim_l, basis = commutant_basis(gens_left)
    right = [sandwich_superop(np.eye(n3), e) for e in units]
    ok = (dim_l == n3 * n3) and all(in_span(basis, r) for r in right)
    s.check("commutant_of_left_algebra",
            "commutant of {E_ij v I} is {I v E_ij}", 0.0 if ok else 1.0, 0.5)
    dim_joint, _ = commutant_basis(gens_left + right)
    s.check("joint_commutant_scalar",
            "joint commutant of both algebras is the scalars",
            0.0 if dim_joint == 1 else 1.0, 0.5)

    w8 = mc.build_weights(cfg.beta, 8)
    ok = True
    diag_b = np.diag(rng.complex_matrix(8).diagonal())
    member, _ = mc.centralizer_member(w8, diag_b)
    ok = ok and member
    for _ in range(20):
        b = rng.complex_matrix(8)
        member, witness = mc.centralizer_member(w8, b)
        ok = ok and (not member) and witness is not None \
            and abs(b[witness]) > 0
    s.check("centralizer_predicate",
            "B in the centralizer iff [B, rho] = 0 iff B diagonal",
            0.0 if ok else 1.0, 0.5)

    w4 = mc.build_weights(cfg.beta, 4)
    ok = True
    for trial in range(6):
        b = rng.complex_matrix(4)
        if trial % 2 == 0:
            b = np.diag(np.diag(b))
        member, _ = mc.centralizer_member(w4, b)
        # exhaustive oracle: phi([B v I, E_kl v I]) = 0 for all k, l
        pair_dev = 0.0
        for k in range(4):
            for l in range(4):
                e = matrix_unit(4, k, l)
                pair_dev = np.maximum(pair_dev, abs(mc.state_eval(w4, b @ e - e @ b)))
        ok = ok and (member == (pair_dev <= 1e-10))
    s.check("centralizer_pairing_oracle",
            "phi([B v I, A v I]) = 0 for all A iff B commutes with rho",
            0.0 if ok else 1.0, 0.5)
    return s.report


# ---------------------------------------------------------------------------
# kms
# ---------------------------------------------------------------------------

def _suite_kms(cfg: SuiteConfig) -> Report:
    s = _Suite("kms", cfg)
    w = mc.build_weights(cfg.beta, cfg.dim)
    rng = SplitMix64(cfg.seed)

    x01 = matrix_unit(cfg.dim, 0, 1)
    x10 = matrix_unit(cfg.dim, 1, 0)
    dev = 0.0
    for t in (-2.0, -0.5, 0.0, 1.0, 2.0):
        f_t = mc.kms_function(w, x01, x10, complex(t))
        dev = np.maximum(dev, abs(f_t - w.alpha[0] * np.exp(1j * t)))
        f_shift = mc.kms_function(w, x01, x10, complex(t, w.beta))
        dev = np.maximum(dev, abs(f_shift - w.alpha[1] * np.exp(1j * t)))
    s.check("closed_form_pair",
            "F(t) = alpha_0 e^(it), F(t + i beta) = alpha_1 e^(it) "
            "for the (E_01, E_10) pair", dev, 1e-13)

    rho = mc.density_matrix(w)
    dev = 0.0
    for t in (-1.0, 0.3, 1.7):
        a = rng.complex_matrix(cfg.dim)
        b = rng.complex_matrix(cfg.dim)
        f_t = mc.kms_function(w, a, b, complex(t))
        direct = complex(np.trace(rho @ a @ mc.modular_flow(w, t, b)))
        dev = np.maximum(dev, abs(f_t - direct))
    s.check("real_time_agreement",
            "F(t) = Tr[rho A sigma_t(B)]", dev, 1e-12)

    t_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    dev = 0.0
    for _ in range(20):
        a = rng.complex_matrix(cfg.dim)
        b = rng.complex_matrix(cfg.dim)
        dev = np.maximum(dev, mc.kms_boundary_deviation(w, a, b, t_grid))
    s.check("boundary_condition",
            "F(t + i beta) = phi(sigma_t(B) A)", dev, 1e-10)
    return s.report


# ---------------------------------------------------------------------------
# landau
# ---------------------------------------------------------------------------

def _suite_landau(cfg: SuiteConfig) -> Report:
    from . import landau_modes as lm

    s = _Suite("landau", cfg)
    # the algebraic identities are exact on the interior at any modest cut;
    # a fixed small cut keeps the two-mode matrices at desk scale
    cut = lm.ModeCut(min(cfg.ncut, 16))
    mask = lm.interior_mask(cut)
    ops = lm.build_A_pm(cut)
    eye = np.eye(cut.dim)

    pairs = {
        "[A+, A+*] = 1": (ops.a_plus, ops.a_plus_dag, eye),
        "[A-, A-*] = 1": (ops.a_minus, ops.a_minus_dag, eye),
        "[A+, A-] = 0": (ops.a_plus, ops.a_minus, 0 * eye),
        "[A+, A-*] = 0": (ops.a_plus, ops.a_minus_dag, 0 * eye),
        "[A+*, A-] = 0": (ops.a_plus_dag, ops.a_minus, 0 * eye),
        "[A+*, A-*] = 0": (ops.a_plus_dag, ops.a_minus_dag, 0 * eye),
    }
    dev = 0.0
    for _, (p, q, target) in pairs.items():
        comm = p @ q - q @ p
        dev = np.maximum(dev, lm.interior_deviation(comm, target, mask))
    s.check("ccr_interior",
            "[A±, A±*] = 1 and all cross commutators vanish on the interior",
            dev, 1e-12)

    alt = lm.build_A_pm_from_qp(cut)
    dev = np.maximum(frob((ops.a_plus - alt.a_plus).toarray()),
              frob((ops.a_minus - alt.a_minus).toarray()))
    s.check("gauge_route_agreement",
            "A± from mode combinations = A± from covariant momenta", dev, 1e-12)

    lit = lm.build_A_pm(cut, literal=True)
    comm = lit.a_plus @ ops.a_minus_dag - ops.a_minus_dag @ lit.a_plus
    dev = lm.interior_deviation(comm, -0.125 * eye, mask)
    s.check("literal_ladder_breaks_ccr",
            "the misprinted A+ yields [A+, A-*] = -1/8 on the interior",
            dev, 1e-12)
    s.erratum(
        "rotated_ladder_sign",
        "The printed expansion of A+ ends in -(1/4)(a_x* + i a_y*); deriving "
        "A+ = (Q+ + iP+)/sqrt2 gives -(1/4)(a_x* - i a_y*).  The printed "
        "form violates the stated commutation relations.",
        "with the printed A+, [A+, A-*] = -1/8 exactly on the interior "
        "(deviation from -1/8 is < 1e-12)")

    h = lm.hamiltonians(cut)
    dev = lm.interior_deviation(h.h_up, h.h0 + h.hint_up, mask)
    dev = np.maximum(dev, lm.interior_deviation(h.h_down, h.h0 + h.hint_down, mask))
    s.check("hamiltonian_split", "H_up = H0 + Hint_up and H_down = H0 - Hint_up",
            dev, 1e-12)
    comm = h.h_up @ h.h_down - h.h_down @ h.h_up
    s.check("hamiltonians_commute", "[H_up, H_down] = 0 on the interior",
            lm.interior_deviation(comm, 0 * eye, mask), 1e-12)

    # these cut-16 checks stay on the eigensolved vacuum (solved once), so
    # their errors keep measuring that route at the stated cut
    vac = lm.ground_state(cut)
    dev = 0.0
    for n in range(4):
        for l in range(4):
            if n + l > 6:
                continue
            psi = lm.fock_psi(cut, n, l, vacuum=vac)
            dev = np.maximum(dev, float(np.linalg.norm(h.h_up @ psi - (l + 0.5) * psi)))
            dev = np.maximum(dev, float(np.linalg.norm(h.h_down @ psi - (n + 0.5) * psi)))
    s.check("fock_eigenvalues",
            "H_up Psi_nl = (l + 1/2) Psi_nl and H_down Psi_nl = (n + 1/2) Psi_nl",
            dev, 1e-9)

    labels = [(n, l) for n in range(5) for l in range(5) if n + l <= 4]
    states = {lab: lm.fock_psi(cut, *lab, vacuum=vac) for lab in labels}
    dev = 0.0
    for a in labels:
        for b in labels:
            g = complex(np.vdot(states[a], states[b]))
            dev = np.maximum(dev, abs(g - (1.0 if a == b else 0.0)))
    s.check("fock_orthonormality",
            "<Psi_nl, Psi_n'l'> = delta delta for n + l <= 4", dev, 1e-9)

    # entrywise conjugation in the joint Fock basis swaps A- and A+, hence
    # the two Hamiltonians; this is the modular conjugation in this picture
    dev = float(np.max(np.abs((h.h_up.conj() - h.h_down).toarray())))
    s.check("conjugation_intertwines",
            "complex conjugation maps H_up to H_down", dev, 1e-12)

    x, wts = quad.real_gauss_rule(60)
    table = np.array([[lm.hermite_fn(m, xi) for xi in x] for m in range(9)])
    dev = 0.0
    for m in range(9):
        for n in range(9):
            val = float(np.sum(wts * (table[m] * table[n])))
            dev = np.maximum(dev, abs(val - (1.0 if m == n else 0.0)))
    s.check("hermite_fn_orthonormal",
            "real-line orthonormality of the Hermite functions", dev, 1e-10)
    return s.report


# ---------------------------------------------------------------------------
# hermite
# ---------------------------------------------------------------------------

def _suite_hermite(cfg: SuiteConfig) -> Report:
    from fractions import Fraction

    from . import complex_hermite as chp

    s = _Suite("hermite", cfg)

    ok = True
    for n in range(13):
        for k in range(13):
            r = chp.ch_recursion(n, k)
            ok = ok and r == chp.ch_rodrigues(n, k) == chp.ch_explicit(n, k)
    s.check("three_way_equality",
            "recursion = Rodrigues = explicit sum, coefficient-exact, "
            "indices <= 12", 0.0 if ok else 1.0, 0.0, exact=True)

    diff = chp.ch_explicit(1, 1, literal=True) - chp.ch_rodrigues(1, 1)
    ok = diff == chp.poly_const(2)
    s.check("literal_sum_erratum",
            "misprinted explicit sum differs from Rodrigues at (1,1) by "
            "exactly 2", 0.0 if ok else 1.0, 0.0, exact=True)
    s.erratum(
        "explicit_sum_sign",
        "The printed double sum for h[n, k] omits the alternating sign "
        "(-1)^j and the 1/j!; it evaluates h[1, 1] to zbar z + 1 instead "
        "of zbar z - 1.",
        "literal minus Rodrigues at (1, 1) equals the constant 2, exactly")

    def swap(x: dict) -> dict:
        return {(j, m): c for (m, j), c in x.items()}

    ok = True
    for n in range(9):
        for k in range(9):
            a, b = chp.ch_recursion(n, k), chp.ch_recursion(k, n)
            ok = ok and swap(a.re) == b.re and swap(a.im) == b.im
    s.check("index_symmetry", "h[n, k](zbar, z) = h[k, n](z, zbar)",
            0.0 if ok else 1.0, 0.0, exact=True)

    ok = True
    for n in range(8):
        lhs = chp.mul_zbar(chp.ch_recursion(n, n + 1))
        rhs = chp.mul_z(chp.ch_recursion(n + 1, n))
        ok = ok and lhs == rhs
    for m in range(8):
        for k in range(8):
            lhs = chp.ch_recursion(m, k).scale(k - m)
            rhs = chp.mul_zbar(chp.ch_recursion(m, k + 1)) \
                - chp.mul_z(chp.ch_recursion(m + 1, k))
            ok = ok and lhs == rhs
    s.check("contiguous_relations",
            "zbar h[n, n+1] = z h[n+1, n] and "
            "(k - m) h[m, k] = zbar h[m, k+1] - z h[m+1, k]",
            0.0 if ok else 1.0, 0.0, exact=True)

    ok = True
    for k in range(7):
        p = chp.ch_recursion(0, k)
        for n in range(7):
            ok = ok and p == chp.ch_recursion(n, k)
            p = chp.ladder_apply("a_plus_dag", p)
    s.check("ladder_generation", "h[n, k] = (raising)^n h[0, k]",
            0.0 if ok else 1.0, 0.0, exact=True)

    ok = True
    for n in range(7):
        for k in range(7):
            h = chp.ch_recursion(n, k)
            ok = ok and chp.number_apply("n_plus", h) == h.scale(n)
            ok = ok and chp.number_apply("n_minus", h) == h.scale(k)
    s.check("number_eigenvalues",
            "n_plus h[n, k] = n h[n, k] and n_minus h[n, k] = k h[n, k]",
            0.0 if ok else 1.0, 0.0, exact=True)
    s.erratum(
        "number_operator_swap",
        "One printed display swaps the two number-operator eigenvalues; "
        "direct differentiation of h[1, 0] = zbar gives eigenvalue 1 for "
        "the zbar-counting operator, fixing the assignment n_plus -> n, "
        "n_minus -> k.",
        "n_plus(zbar) = zbar and n_minus(zbar) = 0, exactly")

    ok = True
    for n in range(7):
        for l in range(7):
            h = chp.ch_recursion(n, l)
            up = chp.number_apply("n_minus", h) + h.scale(Fraction(1, 2))
            down = chp.number_apply("n_plus", h) + h.scale(Fraction(1, 2))
            ok = ok and up == h.scale(Fraction(2 * l + 1, 2))
            ok = ok and down == h.scale(Fraction(2 * n + 1, 2))
    s.check("level_eigenvalues",
            "(n_minus + 1/2) h[n, l] = (l + 1/2) h[n, l], and the mirrored "
            "statement for n_plus", 0.0 if ok else 1.0, 0.0, exact=True)

    ok = chp.real_hermite(3) == [0, -12, 0, 8]
    for n in range(1, 9):
        hn = chp.real_hermite(n)
        lhs = [0] + hn  # x * h_n
        rhs = [n * c for c in chp.real_hermite(n - 1)] + [0, 0]
        hn1 = chp.real_hermite(n + 1)
        rhs = [rhs[j] + (hn1[j] if j < len(hn1) else 0) / 2 for j in range(n + 2)]
        lhs = lhs + [0] * (len(rhs) - len(lhs))
        ok = ok and all(abs(a - b) == 0 for a, b in zip(lhs, rhs))
    s.check("real_hermite_recursion",
            "x h_n = n h_(n-1) + h_(n+1)/2, exact integer coefficients",
            0.0 if ok else 1.0, 0.0, exact=True)

    s.check("generating_function",
            "Taylor coefficients of exp(ubar z + v zbar - ubar v) are "
            "h[n, k]/(n! k!), exactly, indices <= 8",
            0.0 if chp.generating_check(8) else 1.0, 0.0, exact=True)
    return s.report


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _basis_values(rule: quad.ComplexGaussRule, deg: int) -> np.ndarray:
    """Values of B[n, k] at all nodes, rows indexed by n * (deg+1) + k.

    Uses the coupled recursions on value arrays, avoiding per-node
    polynomial evaluation.
    """
    z = rule.nodes
    zb = z.conj()
    m = deg + 1
    h = np.empty((m, m, z.shape[0]), dtype=complex)
    h[0, 0] = 1.0
    for k in range(1, m):
        h[0, k] = z * h[0, k - 1]
    for n in range(1, m):
        h[n, 0] = zb * h[n - 1, 0]
        for k in range(1, m):
            h[n, k] = zb * h[n - 1, k] - k * h[n - 1, k - 1]
    out = np.empty((m * m, z.shape[0]), dtype=complex)
    for n in range(m):
        for k in range(m):
            out[n * m + k] = h[n, k] / math.sqrt(
                math.factorial(n) * math.factorial(k))
    return out


def _suite_quadrature(cfg: SuiteConfig) -> Report:
    s = _Suite("quadrature", cfg)
    rule = quad.build_rule(cfg.radial, cfg.angular)

    s.check("weights_normalized", "sum of weights = 1 (normalized measure)",
            abs(float(rule.weights.sum()) - 1.0), 1e-13)

    # each power once: zbar^m and z^k for 0 <= m, k <= 12
    zbar_pows = [rule.nodes.conj()**m for m in range(13)]
    z_pows = [rule.nodes**k for k in range(13)]
    dev = 0.0
    for m in range(13):
        for k in range(13):
            if not quad.covers(rule, m, k):
                continue
            got = quad.integrate_values(rule, zbar_pows[m] * z_pows[k])
            scale = max(1.0, math.gamma((m + k) / 2.0 + 1.0))
            dev = np.maximum(dev, abs(got - quad.gauss_moment(m, k)) / scale)
    s.check("moment_exactness",
            "integral of zbar^m z^k dnu = delta_mk m!, scaled by the "
            "moment magnitude, indices <= 12", dev, 1e-12)

    deg = 12
    vals = _basis_values(rule, deg)
    weighted = vals * rule.weights
    # conjugate in place: a third (deg+1)^2 x nodes array (6.9 MB at the
    # default orders) would set the peak memory of verify all
    gram = weighted @ np.conjugate(vals, out=vals).T
    s.check("basis_orthonormality",
            "<B[n, k], B[m, l]> = delta delta under dnu, indices <= 12",
            float(np.max(np.abs(gram - np.eye((deg + 1) ** 2)))), 1e-10)

    wref = 0.8 + 0.4j
    exact = np.exp(abs(wref) ** 2)  # integral of e^(zbar w) e^(z wbar) dnu
    errs = []
    for r, k in ((4, 8), (8, 16), (16, 32)):
        small = quad.build_rule(r, k)
        got = quad.integrate_values(
            small, np.exp(small.nodes.conj() * wref + small.nodes * np.conj(wref)))
        errs.append(abs(got - exact))
    ok = errs[0] > errs[1] > errs[2]
    s.check("order_convergence",
            "errors on the exponential kernel decrease with the orders",
            0.0 if ok else 1.0, 0.5)
    return s.report


# ---------------------------------------------------------------------------
# coherent
# ---------------------------------------------------------------------------

def _suite_coherent(cfg: SuiteConfig) -> Report:
    from . import coherent_states as cs

    s = _Suite("coherent", cfg)
    rule = quad.build_rule(cfg.radial, cfg.angular)
    m = cfg.cutoff

    s.check("resolution_antiholomorphic",
            "integral of |eta_z><eta_z| dnu = projector onto the zbar sector",
            cs.resolution_check("a-hol", m, rule), 1e-10)
    s.check("resolution_holomorphic",
            "integral of |eta_breve><eta_breve| dnu = projector onto the "
            "z sector", cs.resolution_check("hol", m, rule), 1e-10)
    s.check("resolution_bicoherent",
            "double integral of |bcs(u, v)><bcs(u, v)| = identity",
            cs.resolution_check("bcs", min(m, 8), rule), 1e-10)

    # each map is its (m+1) x (m+1) linear part K, acting as v -> K @ conj(v)
    # from its source sector; neither reads outside that sector, so each
    # kills the complement by construction
    iso = cs.partial_isometry("a-hol->hol", m, rule)
    rev = cs.partial_isometry("hol->a-hol", m, rule)
    e2 = np.zeros(m + 1, dtype=complex)
    e2[2] = 1.0  # B[2, 0] read as its column, B[0, 2] as its row
    dev = float(np.max(np.abs(iso @ e2.conj() - e2)))
    # antilinear after antilinear is linear
    dev = np.maximum(dev, float(np.max(np.abs(rev @ iso.conj() - np.eye(m + 1)))))
    s.check("partial_isometry",
            "the kernel integral maps B[n, 0] -> B[0, n] isometrically and "
            "kills the complement; the two maps compose to the projector",
            dev, 1e-10)

    # conjugating the holomorphic projector gives the anti-holomorphic one;
    # J D J for a diagonal D on the flattened basis, given by its diagonal d,
    # is conj(d) put through the transpose permutation
    t = transpose_permutation(m + 1)
    s.check("conjugated_projectors", "J P_hol J = P_a-hol",
            float(np.max(np.abs(cs.sector_projector("hol", m).conj()[t]
                                - cs.sector_projector("a-hol", m)))), 1e-13)

    rng = SplitMix64(cfg.seed)
    dev = 0.0
    for _ in range(5):
        u = complex(rng.uniform() - 0.5, rng.uniform() - 0.5)
        v = complex(rng.uniform() - 0.5, rng.uniform() - 0.5)
        lhs = adjoint(cs.bcs(u, v, m))
        rhs = cs.bcs(v, u, m)
        dev = np.maximum(dev, float(np.max(np.abs(lhs - rhs))))
    s.check("bicoherent_conjugation", "J bcs(u, v) = bcs(v, u)", dev, 1e-13)

    chi = cs.chi_state(cfg.beta, m)
    s.check("thermal_vector_fixed", "J chi = chi",
            float(np.max(np.abs(adjoint(chi) - chi))), 1e-13)

    dev = 0.0
    m25 = 25
    for zz, ww in ((0.7 + 0.2j, -1.1 + 0.9j), (1.5 - 1.2j, 0.4 + 1.8j)):
        series = sum((np.conj(ww) * zz) ** n / math.factorial(n)
                     for n in range(m25 + 1))
        val = cs.coeff_eval(cs.eta(zz, m25), ww)
        dev = np.maximum(dev, abs(val - series))
        dev = np.maximum(dev, abs(val - np.conj(cs.coeff_eval(cs.eta(ww, m25), zz))))
    s.check("reproducing_kernel",
            "sum_n (z^n/sqrt(n!)) B[n, 0](wbar, w) = partial sum of "
            "e^(wbar z); kernel conjugate-symmetric", dev, 1e-10)

    res_a, res_b, bound = cs.vector_cs_check(1.0 + 0.5j, 20)
    s.check("coherent_eigenvalue",
            "lowering eta_z = z eta_z up to the certified factorial tail",
            np.maximum(res_a, res_b), max(bound, 1e-15))

    s.check("modular_spectral",
            "Delta eigenvalue e^(-beta(n-k)) on B[n, k] matches the Gibbs "
            "ratio alpha_n/alpha_k; the flow fixes chi and rotates the "
            "raising generator by a pure phase",
            cs.modular_spectral_check(cfg.beta, m), 1e-12)
    s.erratum(
        "modular_generator_sign",
        "One printed display gives the modular generator as -2(N+ - N-); "
        "the diagonal spectrum e^(-beta(n-k)) validated against the Gibbs "
        "construction requires the generator N+ - N- (no factor 2, "
        "opposite sign).",
        "Delta eigenvalues match alpha_n/alpha_k to < 1e-12 with generator "
        "N+ - N-")

    alpha = 0.5 + 0.3j
    s.check("displacement_factorization",
            "e^(|a|^2/2) e^(a A* - abar A) = e^(a A*) e^(-abar A) on the "
            "lower half of the truncation",
            cs.displacement_check(alpha, 40), 1e-8)
    col = cs.displacement_vacuum_column(alpha, 40)
    expect = np.array([math.exp(-abs(alpha) ** 2 / 2.0) * alpha**n
                       / math.sqrt(math.factorial(n)) for n in range(40)])
    s.check("displacement_vacuum_column",
            "vacuum column of the displacement is e^(-|a|^2/2) a^n/sqrt(n!)",
            float(np.max(np.abs(col - expect))), 1e-10)

    up = np.array([k + 0.5 for n in range(m + 1) for k in range(m + 1)])
    down = np.array([n + 0.5 for n in range(m + 1) for k in range(m + 1)])
    s.check("conjugation_intertwines_levels", "J H_up = H_down J on the basis",
            float(np.max(np.abs(up.conj()[t] - down))), 0.0, exact=True)
    return s.report


# ---------------------------------------------------------------------------
# wigner
# ---------------------------------------------------------------------------

def _suite_wigner(cfg: SuiteConfig) -> Report:
    from . import landau_modes as lm

    s = _Suite("wigner", cfg)
    grid = np.linspace(-2.0, 2.0, 5)
    labels = [(n, l) for n in range(4) for l in range(4)]
    # the 16 matrix units share one displacement block per grid point
    units = np.array([matrix_unit(4, n, l) for n, l in labels])
    dev_lit = 0.0
    dev_cor = 0.0
    for x in grid:
        for y in grid:
            samples = lm.wigner_sample(units, float(x), float(y), cfg.ncut)
            for (n, l), got in zip(labels, samples):
                dev_lit = np.maximum(dev_lit, abs(
                    got - lm.wigner_closed_form(n, l, float(x), float(y),
                                                literal=True)))
                dev_cor = np.maximum(dev_cor, abs(
                    got - lm.wigner_closed_form(n, l, float(x), float(y))))
    s.check("closed_form_literal",
            "phase-space sample of |n><l| equals "
            "e^(-|z|^2/2) B[n, l](zbar, z)/sqrt(2 pi) as printed",
            dev_lit, 1e-6)
    s.check("closed_form_corrected",
            "phase-space sample of |n><l| equals "
            "i^(n+l) e^(-|z|^2/2) B[l, n](zbar, z)/sqrt(2 pi)",
            dev_cor, 1e-6)
    s.erratum(
        "phase_space_closed_form",
        "The printed closed form for the phase-space transform of |n><l| "
        "omits a phase i^(n+l) and swaps the polynomial indices; no "
        "re-phasing of the basis repairs it (the diagonal n = l = 1 case "
        "fails by an exact sign).",
        "corrected form matches the trace definition to machine precision "
        "on the test grid; the printed form deviates by order 1")

    x00 = matrix_unit(1, 0, 0)
    s.check("origin_normalization", "sample of |0><0| at the origin is "
            "1/sqrt(2 pi)",
            abs(lm.wigner_sample(x00, 0.0, 0.0, cfg.ncut)
                - 1.0 / math.sqrt(2.0 * math.pi)), 1e-12)
    dev = 0.0
    for x in grid:
        for y in grid:
            expect = math.exp(-(x * x + y * y) / 4.0) / math.sqrt(2.0 * math.pi)
            dev = np.maximum(dev, abs(lm.wigner_sample(x00, float(x), float(y),
                                                cfg.ncut) - expect))
    s.check("vacuum_gaussian",
            "sample of |0><0| is the Gaussian e^(-(x^2+y^2)/4)/sqrt(2 pi)",
            dev, 1e-6)

    # corners and edge midpoints of the grid: every quadrant and both axes
    dev = 0.0
    for x in grid[::2]:
        for y in grid[::2]:
            if x == y == 0.0:
                continue
            rotated = lm.displacement_block(cfg.ncut, float(x), float(y), cfg.ncut)
            direct = lm.displacement(cfg.ncut, float(x), float(y))
            dev = np.maximum(dev, float(np.max(np.abs(rotated - direct))))
    s.check("displacement_rotation",
            "e^(i theta N) e^(-i r Q) e^(-i theta N) from one eigensolve of Q "
            "equals exp(-i(xQ + yP)) at (x, y) = r(cos theta, sin theta)",
            dev, 1e-12)
    return s.report


_SUITES = {
    "modular": _suite_modular,
    "kms": _suite_kms,
    "landau": _suite_landau,
    "hermite": _suite_hermite,
    "quadrature": _suite_quadrature,
    "coherent": _suite_coherent,
    "wigner": _suite_wigner,
}


def run_suite(name: str, cfg: SuiteConfig) -> list[Report]:
    """Run one named suite, or all of them in fixed order."""
    if name == "all":
        return [_SUITES[n](cfg) for n in SUITE_NAMES]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(SUITE_NAMES)} or 'all'")
    return [_SUITES[name](cfg)]
