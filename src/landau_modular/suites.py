"""Named verification suites with deterministic, machine-readable reports.

Each suite runs a fixed list of checks; a check records a name, the
mathematical identity it exercises, the measured maximum error, and the
bound it is held to.  Reports are byte-reproducible for a fixed seed:
errors are rounded to six significant digits and no wall-clock data is
embedded in the serialized form.
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


def check_flags(flags: dict) -> None:
    """Reject the first of the given flag values that is outside its limit,
    naming its --<flag>; a flag that is not given is not checked."""
    beta = flags.get("beta", 1.0)
    # a NaN slips past every order comparison below, and an infinite beta
    # makes the weights NaN
    if not math.isfinite(beta):
        raise ValueError(f"beta (--beta) must be finite, got {beta}")
    if beta <= 0:
        raise ValueError(f"beta (--beta) must be positive, got {beta}")
    # cutoff and ncut are the smallest cuts every suite runs at: the coherent
    # partial-isometry witness moves e_(2,0) to e_(0,2), and the landau Fock
    # states reach n + l = 6, which needs cut n + l + 2; build_rule checks
    # radial and angular
    for name, least in (("dim", 2), ("cutoff", 2), ("ncut", 8), ("seed", 0)):
        if flags.get(name, least) < least:
            raise ValueError(f"{name} (--{name}) must be at least {least}, "
                             f"got {flags[name]}")
    if "dim" in flags:
        mc.require_finite_ratios(beta, flags["dim"])


@dataclass(frozen=True)
class SuiteConfig:
    """Shared configuration for all suites.  Each field is the value of the
    CLI flag --<field>, whose help text is the field's metadata.  Every
    check's bound is fixed in its suite; no field scales it."""

    dim: int = field(default=16, metadata={"help": "Gibbs truncation dimension"})
    beta: float = field(default=0.7, metadata={"help": "inverse temperature"})
    cutoff: int = field(default=10, metadata={"help": "coherent basis cutoff"})
    ncut: int = field(default=64, metadata={"help": "single-mode phase-space cut"})
    radial: int = field(default=40, metadata={"help": "radial quadrature order"})
    angular: int = field(default=64, metadata={"help": "angular quadrature order"})
    seed: int = field(default=42, metadata={"help": "seed for random operators"})

    def __post_init__(self):
        check_flags(asdict(self))  # before any suite runs
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

    def check(self, name: str, identity: str, errors: float | list | np.ndarray,
              bound: float) -> None:
        """Record the largest of errors (one nonnegative error, or a sequence
        or array of per-sample errors) against the fixed bound.

        The errors are folded by np.max, which returns NaN when any error is
        NaN; the builtin max keeps its first operand whenever the comparison
        with NaN is false, so a check whose arithmetic went NaN would report
        an earlier value and pass.  A NaN max_error fails its bound.
        """
        self.report.checks.append(
            Check(name=name, identity=identity,
                  max_error=float(np.max(errors, initial=0.0)),
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
    s.check("polar_decomposition", "S = J Delta^(1/2)",
            frob(triple.S.weight - triple.J.weight * np.sqrt(triple.delta)), 1e-12)
    # S* S, antilinear after antilinear, is an entrywise multiplier
    s.check("delta_from_s", "Delta = S* S",
            frob(triple.S.adjoint() @ triple.S - triple.delta), 1e-12)

    s.check("cyclic_fixed_by_j", "J Phi = Phi",
            frob(triple.J(phi) - phi), 1e-13)
    s.check("cyclic_fixed_by_delta", "Delta Phi = Phi",
            frob(triple.delta * phi - phi), 1e-13)

    # each operand is drawn inside the comprehension that uses it, so the
    # lists hold errors, not matrices
    # Phi is diagonal, so A Phi scales the columns of A by its diagonal
    phi_diag = phi.diagonal()
    s.check("s_conjugates_orbit", "S(A Phi) = A* Phi",
            [frob(triple.S(a * phi_diag) - adjoint(a) * phi_diag)
             for _ in range(20) for a in [rng.complex_matrix(cfg.dim)]], 1e-11)

    s.check("j_antiunitary", "<Jx, Jy> = conj(<x, y>)",
            [abs(hs_inner(triple.J(x), triple.J(y)) - np.conj(hs_inner(x, y)))
             for _ in range(10) for x in [rng.complex_matrix(cfg.dim)]
             for y in [rng.complex_matrix(cfg.dim)]], 1e-11)

    s.check("state_flow_invariant", "phi(sigma_t(A)) = phi(A)",
            [abs(mc.state_eval(w, mc.modular_flow(w, t, a)) - mc.state_eval(w, a))
             for t in (-1.5, 0.4, 2.0) for a in [rng.complex_matrix(cfg.dim)]],
            1e-12)

    a = rng.complex_matrix(cfg.dim)
    t = 0.8
    # U = flow_superop is diagonal in the matrix-unit basis, with multiplier
    # d, so U(A v I)U* and sigma_t(A) v I differ only on the blocks j = l of
    # their entries ((i, j), (k, l)), where U(A v I)U* holds
    # d_ij A_ik conj(d_kj): compare block by block, in O(N^2) memory
    d = mc.flow_superop(w, t)
    sig = mc.modular_flow(w, t, a)
    s.check("flow_preserves_left_algebra",
            "sigma_t(A v I) = sigma_t(A) v I",
            [float(np.max(np.abs((d[:, j, None] * a) * d[None, :, j].conj() - sig)))
             for j in range(cfg.dim)], 1e-12)

    expected = -np.log(np.divide.outer(w.alpha, w.alpha)) / w.beta
    s.check("generator_eigenvalues",
            "bigH eigenvalue on E_ij = -(1/beta) log(alpha_i / alpha_j)",
            np.abs(triple.big_h - expected), 1e-12)

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

    # the two predicates below take all() of a list, not of a generator, so
    # every sample draws its operand whatever the earlier samples gave
    w8 = mc.build_weights(cfg.beta, 8)

    def outside_with_witness(b: np.ndarray) -> bool:
        member, witness = mc.centralizer_member(w8, b)
        return (not member) and witness is not None and abs(b[witness]) > 0

    diag_b = np.diag(rng.complex_matrix(8).diagonal())
    ok = all([mc.centralizer_member(w8, diag_b)[0],
              *[outside_with_witness(rng.complex_matrix(8)) for _ in range(20)]])
    s.check("centralizer_predicate",
            "B in the centralizer iff [B, rho] = 0 iff B diagonal",
            0.0 if ok else 1.0, 0.5)

    w4 = mc.build_weights(cfg.beta, 4)

    def oracle_agrees(b: np.ndarray) -> bool:
        member, _ = mc.centralizer_member(w4, b)
        # exhaustive oracle: phi([B v I, E_kl v I]) = 0 for all k, l
        pair_dev = np.max([abs(mc.state_eval(w4, b @ e - e @ b))
                           for k in range(4) for l in range(4)
                           for e in [matrix_unit(4, k, l)]], initial=0.0)
        return member == (pair_dev <= mc.CENTRALIZER_TOL)

    ok = all([oracle_agrees(np.diag(np.diag(b)) if trial % 2 == 0 else b)
              for trial in range(6) for b in [rng.complex_matrix(4)]])
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
    ts = (-2.0, -0.5, 0.0, 1.0, 2.0)
    s.check("closed_form_pair",
            "F(t) = alpha_0 e^(it), F(t + i beta) = alpha_1 e^(it) "
            "for the (E_01, E_10) pair",
            [abs(mc.kms_function(w, x01, x10, complex(t)) - w.alpha[0] * np.exp(1j * t))
             for t in ts]
            + [abs(mc.kms_function(w, x01, x10, complex(t, w.beta))
                   - w.alpha[1] * np.exp(1j * t)) for t in ts], 1e-13)

    # rho is diagonal: the trace is the entrywise sum of alpha_i A_ik sigma_t(B)_ki
    s.check("real_time_agreement",
            "F(t) = Tr[rho A sigma_t(B)]",
            [abs(mc.kms_function(w, a, b, complex(t))
                 - complex(np.sum(w.alpha[:, None] * a * mc.modular_flow(w, t, b).T)))
             for t in (-1.0, 0.3, 1.7) for a in [rng.complex_matrix(cfg.dim)]
             for b in [rng.complex_matrix(cfg.dim)]], 1e-12)

    t_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    s.check("boundary_condition",
            "F(t + i beta) = phi(sigma_t(B) A)",
            [mc.kms_boundary_deviation(w, a, b, t_grid)
             for _ in range(20) for a in [rng.complex_matrix(cfg.dim)]
             for b in [rng.complex_matrix(cfg.dim)]], 1e-10)
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
    eye, zero = np.eye(cut.dim), np.zeros((cut.dim, cut.dim))

    pairs = {
        "[A+, A+*] = 1": (ops.a_plus, ops.a_plus_dag, eye),
        "[A-, A-*] = 1": (ops.a_minus, ops.a_minus_dag, eye),
        "[A+, A-] = 0": (ops.a_plus, ops.a_minus, zero),
        "[A+, A-*] = 0": (ops.a_plus, ops.a_minus_dag, zero),
        "[A+*, A-] = 0": (ops.a_plus_dag, ops.a_minus, zero),
        "[A+*, A-*] = 0": (ops.a_plus_dag, ops.a_minus_dag, zero),
    }
    s.check("ccr_interior",
            "[A±, A±*] = 1 and all cross commutators vanish on the interior",
            [lm.interior_deviation(p @ q - q @ p, target, mask)
             for p, q, target in pairs.values()], 1e-12)

    alt = lm.build_A_pm_from_qp(cut)
    s.check("gauge_route_agreement",
            "A± from mode combinations = A± from covariant momenta",
            [frob((ops.a_plus - alt.a_plus).toarray()),
             frob((ops.a_minus - alt.a_minus).toarray())], 1e-12)

    lit = lm.build_A_pm(cut, literal=True)
    comm = lit.a_plus @ ops.a_minus_dag - ops.a_minus_dag @ lit.a_plus
    s.check("literal_ladder_breaks_ccr",
            "the misprinted A+ yields [A+, A-*] = -1/8 on the interior",
            lm.interior_deviation(comm, -0.125 * eye, mask), 1e-12)
    s.erratum(
        "rotated_ladder_sign",
        "The printed expansion of A+ ends in -(1/4)(a_x* + i a_y*); deriving "
        "A+ = (Q+ + iP+)/sqrt2 gives -(1/4)(a_x* - i a_y*).  The printed "
        "form violates the stated commutation relations.",
        "with the printed A+, [A+, A-*] = -1/8 exactly on the interior "
        "(deviation from -1/8 is < 1e-12)")

    h = lm.hamiltonians(cut)
    s.check("hamiltonian_split", "H_up = H0 + Hint_up and H_down = H0 - Hint_up",
            [lm.interior_deviation(h.h_up, h.h0 + h.hint_up, mask),
             lm.interior_deviation(h.h_down, h.h0 + h.hint_down, mask)], 1e-12)
    comm = h.h_up @ h.h_down - h.h_down @ h.h_up
    s.check("hamiltonians_commute", "[H_up, H_down] = 0 on the interior",
            lm.interior_deviation(comm, zero, mask), 1e-12)

    # these cut-16 checks stay on the eigensolved vacuum (solved once), so
    # their errors keep measuring that route at the stated cut
    vac = lm.ground_state(cut)
    s.check("fock_eigenvalues",
            "H_up Psi_nl = (l + 1/2) Psi_nl and H_down Psi_nl = (n + 1/2) Psi_nl",
            [err for n in range(4) for l in range(4)
             for psi in [lm.fock_psi(cut, n, l, vacuum=vac)]
             for err in (float(np.linalg.norm(h.h_up @ psi - (l + 0.5) * psi)),
                         float(np.linalg.norm(h.h_down @ psi - (n + 0.5) * psi)))],
            1e-9)

    labels = [(n, l) for n in range(5) for l in range(5) if n + l <= 4]
    states = {lab: lm.fock_psi(cut, *lab, vacuum=vac) for lab in labels}
    s.check("fock_orthonormality",
            "<Psi_nl, Psi_n'l'> = delta delta for n + l <= 4",
            [abs(complex(np.vdot(states[a], states[b])) - (1.0 if a == b else 0.0))
             for a in labels for b in labels], 1e-9)

    # entrywise conjugation in the joint Fock basis swaps A- and A+, hence
    # the two Hamiltonians; this is the modular conjugation in this picture
    s.check("conjugation_intertwines",
            "complex conjugation maps H_up to H_down",
            np.abs((h.h_up.conj() - h.h_down).toarray()), 1e-12)

    x, wts = quad.real_gauss_rule(60)
    table = np.array([[lm.hermite_fn(m, xi) for xi in x] for m in range(9)])
    s.check("hermite_fn_orthonormal",
            "real-line orthonormality of the Hermite functions",
            [abs(float(np.sum(wts * (table[m] * table[n]))) - (1.0 if m == n else 0.0))
             for m in range(9) for n in range(9)], 1e-10)
    return s.report


# ---------------------------------------------------------------------------
# hermite
# ---------------------------------------------------------------------------

def _suite_hermite(cfg: SuiteConfig) -> Report:
    from fractions import Fraction

    from . import complex_hermite as chp

    s = _Suite("hermite", cfg)

    ok = all(chp.ch_recursion(n, k) == chp.ch_rodrigues(n, k) == chp.ch_explicit(n, k)
             for n in range(13) for k in range(13))
    s.check("three_way_equality",
            "recursion = Rodrigues = explicit sum, coefficient-exact, "
            "indices <= 12", 0.0 if ok else 1.0, 0.0)

    diff = chp.ch_explicit(1, 1, literal=True) - chp.ch_rodrigues(1, 1)
    s.check("literal_sum_erratum",
            "misprinted explicit sum differs from Rodrigues at (1,1) by "
            "exactly 2", 0.0 if diff == chp.poly_const(2) else 1.0, 0.0)
    s.erratum(
        "explicit_sum_sign",
        "The printed double sum for h[n, k] omits the alternating sign "
        "(-1)^j and the 1/j!; it evaluates h[1, 1] to zbar z + 1 instead "
        "of zbar z - 1.",
        "literal minus Rodrigues at (1, 1) equals the constant 2, exactly")

    ok = all({(j, m): c for (m, j), c in chp.ch_recursion(n, k).terms.items()}
             == chp.ch_recursion(k, n).terms
             for n in range(9) for k in range(9))
    s.check("index_symmetry", "h[n, k](zbar, z) = h[k, n](z, zbar)",
            0.0 if ok else 1.0, 0.0)

    ok = all(chp.mul_zbar(chp.ch_recursion(n, n + 1))
             == chp.mul_z(chp.ch_recursion(n + 1, n)) for n in range(8)) \
        and all(chp.ch_recursion(m, k).scale(k - m)
                == chp.mul_zbar(chp.ch_recursion(m, k + 1))
                - chp.mul_z(chp.ch_recursion(m + 1, k))
                for m in range(8) for k in range(8))
    s.check("contiguous_relations",
            "zbar h[n, n+1] = z h[n+1, n] and "
            "(k - m) h[m, k] = zbar h[m, k+1] - z h[m+1, k]",
            0.0 if ok else 1.0, 0.0)

    # one raising step at a time, which by induction is the stated identity
    ok = all(chp.ladder_apply("a_plus_dag", chp.ch_recursion(n, k))
             == chp.ch_recursion(n + 1, k) for k in range(7) for n in range(6))
    s.check("ladder_generation", "h[n, k] = (raising)^n h[0, k]",
            0.0 if ok else 1.0, 0.0)

    ok = all(chp.number_apply("n_plus", h) == h.scale(n)
             and chp.number_apply("n_minus", h) == h.scale(k)
             for n in range(7) for k in range(7) for h in [chp.ch_recursion(n, k)])
    s.check("number_eigenvalues",
            "n_plus h[n, k] = n h[n, k] and n_minus h[n, k] = k h[n, k]",
            0.0 if ok else 1.0, 0.0)
    s.erratum(
        "number_operator_swap",
        "One printed display swaps the two number-operator eigenvalues; "
        "direct differentiation of h[1, 0] = zbar gives eigenvalue 1 for "
        "the zbar-counting operator, fixing the assignment n_plus -> n, "
        "n_minus -> k.",
        "n_plus(zbar) = zbar and n_minus(zbar) = 0, exactly")

    half = Fraction(1, 2)
    ok = all(chp.number_apply("n_minus", h) + h.scale(half)
             == h.scale(Fraction(2 * l + 1, 2))
             and chp.number_apply("n_plus", h) + h.scale(half)
             == h.scale(Fraction(2 * n + 1, 2))
             for n in range(7) for l in range(7) for h in [chp.ch_recursion(n, l)])
    s.check("level_eigenvalues",
            "(n_minus + 1/2) h[n, l] = (l + 1/2) h[n, l], and the mirrored "
            "statement for n_plus", 0.0 if ok else 1.0, 0.0)

    def recursion_holds(n: int) -> bool:
        hn = chp.real_hermite(n)
        lhs = [0] + hn  # x * h_n
        rhs = [n * c for c in chp.real_hermite(n - 1)] + [0, 0]
        hn1 = chp.real_hermite(n + 1)
        rhs = [rhs[j] + (hn1[j] if j < len(hn1) else 0) / 2 for j in range(n + 2)]
        lhs = lhs + [0] * (len(rhs) - len(lhs))
        return all(abs(a - b) == 0 for a, b in zip(lhs, rhs))

    ok = chp.real_hermite(3) == [0, -12, 0, 8] \
        and all(recursion_holds(n) for n in range(1, 9))
    s.check("real_hermite_recursion",
            "x h_n = n h_(n-1) + h_(n+1)/2, exact integer coefficients",
            0.0 if ok else 1.0, 0.0)

    s.check("generating_function",
            "Taylor coefficients of exp(ubar z + v zbar - ubar v) are "
            "h[n, k]/(n! k!), exactly, indices <= 8",
            0.0 if chp.generating_check(8) else 1.0, 0.0)
    return s.report


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _basis_values(z: np.ndarray, deg: int) -> np.ndarray:
    """Values of B[n, k] at the nodes z, rows n * (deg+1) + k, by the coupled
    recursions on value arrays, each step vectorised over k."""
    zb, m = z.conj(), deg + 1
    ks = np.arange(1, m)[:, None]
    h = np.empty((m, m, z.shape[0]), dtype=complex)
    h[0, 0] = 1.0
    for k in range(1, m):
        h[0, k] = z * h[0, k - 1]
    for n in range(1, m):
        h[n, 0] = zb * h[n - 1, 0]
        h[n, 1:] = zb * h[n - 1, 1:] - ks * h[n - 1, :-1]
    norms = [[math.sqrt(math.factorial(n) * math.factorial(k)) for k in range(m)]
             for n in range(m)]
    return (h / np.array(norms)[:, :, None]).reshape(m * m, z.shape[0])


def _suite_quadrature(cfg: SuiteConfig) -> Report:
    s = _Suite("quadrature", cfg)
    rule = quad.build_rule(cfg.radial, cfg.angular)

    s.check("weights_normalized", "sum of weights = 1 (normalized measure)",
            abs(float(rule.weights.sum()) - 1.0), 1e-13)

    # each power once: zbar^m and z^k for 0 <= m, k <= 12
    zbar_pows = [rule.nodes.conj()**m for m in range(13)]
    z_pows = [rule.nodes**k for k in range(13)]
    s.check("moment_exactness",
            "integral of zbar^m z^k dnu = delta_mk m!, scaled by the "
            "moment magnitude, indices <= 12",
            [abs(quad.integrate_values(rule, zbar_pows[m] * z_pows[k])
                 - quad.gauss_moment(m, k)) / max(1.0, math.gamma((m + k) / 2.0 + 1.0))
             for m in range(13) for k in range(13) if quad.covers(rule, m, k)], 1e-12)

    # over blocks of 4 whole rings, so no (deg+1)^2 x nodes array; in-place conj
    deg, ring = 12, 4 * rule.angular_order
    gram = np.zeros(((deg + 1) ** 2,) * 2, dtype=complex)
    for b in range(0, rule.nodes.shape[0], ring):
        vals = _basis_values(rule.nodes[b:b + ring], deg)
        gram += (vals * rule.weights[b:b + ring]) @ np.conjugate(vals, out=vals).T
    s.check("basis_orthonormality",
            "<B[n, k], B[m, l]> = delta delta under dnu, indices <= 12",
            np.abs(gram - np.eye((deg + 1) ** 2)), 1e-10)

    wref = 0.8 + 0.4j
    exact = np.exp(abs(wref) ** 2)  # integral of e^(zbar w) e^(z wbar) dnu
    errs = [abs(quad.integrate_values(small, np.exp(small.nodes.conj() * wref
                                                    + small.nodes * np.conj(wref)))
                - exact)
            for r, k in ((4, 8), (8, 16), (16, 32))
            for small in [quad.build_rule(r, k)]]
    s.check("order_convergence",
            "errors on the exponential kernel decrease with the orders",
            0.0 if errs[0] > errs[1] > errs[2] else 1.0, 0.5)
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
    s.check("partial_isometry",
            "the kernel integral maps B[n, 0] -> B[0, n] isometrically and "
            "kills the complement; the two maps compose to the projector",
            [float(np.max(np.abs(iso @ e2.conj() - e2))),
             # antilinear after antilinear is linear
             float(np.max(np.abs(rev @ iso.conj() - np.eye(m + 1))))], 1e-10)
    s.check("moment_factorization", "G[n, m] = R[n, m] A[n - m] over rings and "
            "angles equals its sum over the nodes, indices <= 10",
            cs.moment_factorization_check(rule, min(m, 10)), 1e-13)

    # conjugating the holomorphic projector gives the anti-holomorphic one;
    # J D J for a diagonal D on the flattened basis, given by its diagonal d,
    # is conj(d) put through the transpose permutation
    t = transpose_permutation(m + 1)
    s.check("conjugated_projectors", "J P_hol J = P_a-hol",
            np.abs(cs.sector_projector("hol", m).conj()[t]
                   - cs.sector_projector("a-hol", m)), 1e-13)

    rng = SplitMix64(cfg.seed)

    def point() -> complex:
        return complex(rng.uniform() - 0.5, rng.uniform() - 0.5)

    j = mc.conjugation_J(m + 1)  # the coefficient arrays are HS(C^(m+1))
    s.check("bicoherent_conjugation", "J bcs(u, v) = bcs(v, u)",
            [float(np.max(np.abs(j(cs.bcs(u, v, m)) - cs.bcs(v, u, m))))
             for _ in range(5) for u in [point()] for v in [point()]], 1e-13)

    phi = mc.cyclic_vector(mc.build_weights(cfg.beta, m + 1))
    s.check("thermal_vector_fixed", "J chi = chi", np.abs(j(phi) - phi), 1e-13)

    m25 = 25

    def kernel_errors(zz: complex, ww: complex) -> tuple:
        series = sum((np.conj(ww) * zz) ** n / math.factorial(n)
                     for n in range(m25 + 1))
        val = cs.coeff_eval(cs.eta(zz, m25), ww)
        return (abs(val - series),
                abs(val - np.conj(cs.coeff_eval(cs.eta(ww, m25), zz))))

    s.check("reproducing_kernel",
            "sum_n (z^n/sqrt(n!)) B[n, 0](wbar, w) = partial sum of "
            "e^(wbar z); kernel conjugate-symmetric",
            [err for zz, ww in ((0.7 + 0.2j, -1.1 + 0.9j), (1.5 - 1.2j, 0.4 + 1.8j))
             for err in kernel_errors(zz, ww)], 1e-10)

    res_a, res_b, bound = cs.vector_cs_check(1.0 + 0.5j, 20)
    s.check("coherent_eigenvalue",
            "lowering eta_z = z eta_z up to the certified factorial tail",
            [res_a, res_b], max(bound, 1e-15))

    s.check("modular_spectral",
            "Delta eigenvalue e^(-beta(n-k)) on B[n, k] matches the Gibbs "
            "ratio alpha_n/alpha_k; the flow fixes chi and rotates the "
            "raising generator by a pure phase",
            cs.modular_spectral_check(cfg.beta, m), 1e-12)
    # the rounded exponents cost up to 1.5 beta M eps, and beta M <= ln(DBL_MAX)
    s.check("modular_spectral_relative",
            "e^(-beta(n-k)) = alpha_n/alpha_k relative to its size",
            cs.modular_spectral_relative_check(cfg.beta, m),
            (2.0 * mc.LOG_DBL_MAX + 8.0) * np.finfo(float).eps)
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
            np.abs(col - expect), 1e-10)

    up = np.array([k + 0.5 for n in range(m + 1) for k in range(m + 1)])
    down = np.array([n + 0.5 for n in range(m + 1) for k in range(m + 1)])
    s.check("conjugation_intertwines_levels", "J H_up = H_down J on the basis",
            np.abs(up.conj()[t] - down), 0.0)
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
    points = [(float(x), float(y)) for x in grid for y in grid]
    samples = [lm.wigner_sample(units, x, y, cfg.ncut) for x, y in points]

    def closed_form_errors(literal: bool) -> list:
        return [abs(got - lm.wigner_closed_form(n, l, x, y, literal=literal))
                for (x, y), row in zip(points, samples)
                for (n, l), got in zip(labels, row)]

    s.check("closed_form_literal",
            "phase-space sample of |n><l| equals "
            "e^(-|z|^2/2) B[n, l](zbar, z)/sqrt(2 pi) as printed",
            closed_form_errors(literal=True), 1e-6)
    s.check("closed_form_corrected",
            "phase-space sample of |n><l| equals "
            "i^(n+l) e^(-|z|^2/2) B[l, n](zbar, z)/sqrt(2 pi)",
            closed_form_errors(literal=False), 1e-6)
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
    s.check("vacuum_gaussian",
            "sample of |0><0| is the Gaussian e^(-(x^2+y^2)/4)/sqrt(2 pi)",
            [abs(lm.wigner_sample(x00, float(x), float(y), cfg.ncut)
                 - math.exp(-(x * x + y * y) / 4.0) / math.sqrt(2.0 * math.pi))
             for x in grid for y in grid], 1e-6)

    # corners and edge midpoints of the grid: every quadrant and both axes
    s.check("displacement_rotation",
            "e^(i theta N) e^(-i r Q) e^(-i theta N) from one eigensolve of Q "
            "equals exp(-i(xQ + yP)) at (x, y) = r(cos theta, sin theta)",
            [float(np.max(np.abs(
                lm.displacement_block(cfg.ncut, float(x), float(y), cfg.ncut)
                - lm.displacement(cfg.ncut, float(x), float(y)))))
             for x in grid[::2] for y in grid[::2] if not x == y == 0.0], 1e-12)
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
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: SuiteConfig) -> list[Report]:
    """Run one named suite, or all of them in fixed order."""
    if name == "all":
        return [_SUITES[n](cfg) for n in SUITE_NAMES]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(SUITE_NAMES)} or 'all'")
    return [_SUITES[name](cfg)]
