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
from typing import NamedTuple

import numpy as np

# This module holds the report machinery and the two suites of the
# paper's Hilbert-Schmidt half, modular and kms.  Each of the five suites
# of its Landau-level half has a module of its own, <name>_suite, which
# _SUITES imports on the first run of that suite, together with the layers
# only it uses (landau_modes, complex_hermite, coherent_states): a process
# that runs one suite, or only imports the CLI, compiles no other suite
from . import __version__
from . import cgauss_quad as quad
from . import modular_core as mc
from .dense_linalg import adjoint, frob
from .hs_space import (commutant_basis, commutant_dim_within, hs_inner, in_span, matrix_unit,
                       sandwich_superop)
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


# name -> (default, help) of each config flag: the CLI option --<name> of
# `verify` and `export`, and the attribute of SuiteConfig, in the order in
# which a report echoes them
FLAGS = {
    "dim": (16, "Gibbs truncation dimension"),
    "beta": (0.7, "inverse temperature"),
    "cutoff": (10, "coherent basis cutoff"),
    "ncut": (64, "single-mode phase-space cut; the landau suite's algebraic "
             "and Fock checks run at min(ncut, 16)"),
    "radial": (40, "radial quadrature order"),
    "angular": (64, "angular quadrature order"),
    "seed": (42, "seed for random operators"),
}


class SuiteConfig:
    """Shared configuration for all suites: one value per flag of FLAGS,
    its default where none is given.  Every check's bound is fixed in its
    suite; no flag scales it."""

    __slots__ = tuple(FLAGS)

    def __init__(self, **flags):
        for name, (default, _) in FLAGS.items():
            setattr(self, name, flags.pop(name, default))
        if flags:
            raise TypeError(f"SuiteConfig got unknown flags {sorted(flags)}")
        check_flags(self.values())  # before any suite runs
        # the coherent suite's moment matrix needs the rule to cover the
        # cutoff and n! to be a finite double up to it
        quad.require_coverage(quad.build_rule(self.radial, self.angular), self.cutoff)

    def values(self) -> dict:
        """The flag values by name, in the order of FLAGS."""
        return {name: getattr(self, name) for name in FLAGS}


class Check(NamedTuple):
    name: str
    identity: str
    max_error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.bound


class Report:
    """One suite's checks and errata, in the order they were recorded."""

    __slots__ = ("suite", "config", "checks", "errata")

    def __init__(self, suite: str, config: SuiteConfig):
        self.suite, self.config = suite, config
        self.checks, self.errata = [], []

    def check(self, name: str, identity: str, errors: float | list | np.ndarray,
              bound: float) -> None:
        """Record the largest of errors (one nonnegative error, or a sequence
        or array of per-sample errors) against the fixed bound.

        The errors are folded by np.max, which returns NaN when any error is
        NaN; the builtin max keeps its first operand whenever the comparison
        with NaN is false, so a check whose arithmetic went NaN would report
        an earlier value and pass.  A NaN max_error fails its bound.
        """
        self.checks.append(
            Check(name=name, identity=identity,
                  max_error=float(np.max(errors, initial=0.0)),
                  bound=float(bound)))

    def erratum(self, name: str, statement: str, check: str) -> None:
        """Record a misprint of the paper; its witness is the named check,
        which must already be in the report."""
        if check not in [c.name for c in self.checks]:
            raise LookupError(f"erratum {name} names no recorded check {check!r}")
        self.errata.append(
            {"name": name, "statement": statement, "witness": check})


def _sig6(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.6g}")


def report_to_json(report: Report) -> str:
    """Deterministic UTF-8 JSON serialization of a report."""
    doc = {
        "suite": report.suite,
        "config": report.config.values(),
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


# ---------------------------------------------------------------------------
# modular
# ---------------------------------------------------------------------------

def _suite_modular(cfg: SuiteConfig) -> Report:
    s = Report("modular", cfg)
    w = mc.build_weights(cfg.beta, cfg.dim)
    triple = mc.build_modular_triple(w)
    phi = mc.cyclic_vector(w)
    rng = SplitMix64(cfg.seed)

    s.check("cyclic_fixed_by_j", "J Phi = Phi",
            frob(triple.J(phi) - phi), 1e-13)

    # each operand is drawn inside the comprehension that uses it, so the
    # lists hold errors, not matrices
    # Phi is diagonal, so A Phi scales the columns of A by its diagonal
    phi_diag = phi.diagonal()
    s.check("s_conjugates_orbit", "S(A Phi) = A* Phi",
            [frob(triple.S(a * phi_diag) - adjoint(a) * phi_diag)
             for _ in range(20) for a in [rng.complex_matrix(cfg.dim)]], 1e-11)

    # (|<Jx, Jy> - conj(<x, y>)|, ||x|| ||y||, |<x, x> / ||x||^2 - 1|), 10 pairs
    pairs = [(abs(hs_inner(triple.J(x), triple.J(y)) - np.conj(hs_inner(x, y))),
              frob(x) * frob(y), abs(hs_inner(x, x) / np.sum(x.real**2 + x.imag**2) - 1))
             for _ in range(10) for x in [rng.complex_matrix(cfg.dim)]
             for y in [rng.complex_matrix(cfg.dim)]]
    s.check("j_antiunitary", "<Jx, Jy> = conj(<x, y>)",
            [err for err, _, _ in pairs], 1e-11)
    # J is exact (a conjugate transpose), so both sides sum the same N^2
    # products in two orders.  The seeded entries lie in the unit square, so
    # <x, y> grows as N^2 / 2 and so does its rounding (2.9e-11 at dim 512);
    # relative to ||x|| ||y|| >= |<x, y>| it is at most about 2(N + 2) eps
    # (two dot products of length N per trace), and measured 0.75 eps at
    # every dim from 16 to 1014.  1e-12 is that worst case up to N = 2000.
    s.check("j_antiunitary_relative",
            "<Jx, Jy> = conj(<x, y>) relative to ||x|| ||y||",
            [err / norms for err, norms, _ in pairs], 1e-12)
    # fails for an inner product without its conjugation, which j_antiunitary
    # passes.  Tr[x* x] rounds by at most N eps relative (nonnegative terms);
    # ||x||^2 is a pairwise sum, with no BLAS, so it does not vary with the
    # thread count.  Measured 1 to 2 eps at dims 16 to 1024; 1e-12 covers N = 4000
    s.check("hs_inner_norm", "<x, x> = ||x||^2 relative to ||x||^2",
            [rel for _, _, rel in pairs], 1e-12)

    s.check("state_flow_invariant", "phi(sigma_t(A)) = phi(A)",
            [abs(mc.state_eval(w, mc.modular_flow(w, t, a)) - mc.state_eval(w, a))
             for t in (-1.5, 0.4, 2.0) for a in [rng.complex_matrix(cfg.dim)]],
            1e-12)

    a = rng.complex_matrix(cfg.dim)
    t = 0.8
    # U = flow_superop is diagonal in the matrix-unit basis, with multiplier
    # d, so U(A v I)U* X = d . (A (conj(d) . X)): compare it with
    # sigma_t(A) X on three seeded X, one matrix product a side.  Each entry
    # of a product sums N terms, so the rounding grows as eps N: about 2e-15
    # at dim 16 and 4e-14 at dim 1024, against the fixed 1e-12
    d = mc.flow_superop(w, t)
    sig = mc.modular_flow(w, t, a)

    def flow_action_error() -> float:
        # two N x N buffers, updated in place; X is dropped before the
        # moduli are taken, so no more than three N x N arrays are alive
        x = rng.complex_matrix(cfg.dim)
        rhs = np.conjugate(d)
        rhs *= x
        lhs = a @ rhs
        lhs *= d
        np.matmul(sig, x, out=rhs)
        del x
        lhs -= rhs
        return float(np.max(np.abs(lhs)))

    s.check("flow_preserves_left_algebra",
            "sigma_t(A v I) = sigma_t(A) v I",
            [flow_action_error() for _ in range(3)], 1e-12)

    # bigH E_ij = [H, E_ij] = (E_i - E_j) E_ij, with the Gibbs energies that
    # the flow and the KMS function read
    s.check("generator_eigenvalues",
            "bigH eigenvalue on E_ij = E_i - E_j, the Gibbs energy difference",
            np.abs(triple.big_h - np.subtract.outer(w.energies, w.energies)), 1e-12)

    # real matrix units, so the commutant is found by a real factorization
    n3 = 3
    units = [matrix_unit(n3, i, j).real for i in range(n3) for j in range(n3)]
    gens_left = [sandwich_superop(e, np.eye(n3)) for e in units]
    dim_l, basis = commutant_basis(gens_left)
    right = [sandwich_superop(np.eye(n3), e) for e in units]
    ok = (dim_l == n3 * n3) and all(in_span(basis, r) for r in right)
    s.check("commutant_of_left_algebra",
            "commutant of {E_ij v I} is {I v E_ij}", 0.0 if ok else 1.0, 0.5)
    # (A u B)' = A' n B': the joint commutant is the commutant of the right
    # algebra inside the left one's
    dim_joint = commutant_dim_within(basis, right)
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
    units4 = [matrix_unit(4, k, l) for k in range(4) for l in range(4)]

    def oracle_agrees(b: np.ndarray) -> bool:
        member, _ = mc.centralizer_member(w4, b)
        # exhaustive oracle: phi([B v I, E_kl v I]) = 0 for all k, l
        pair_dev = np.max([abs(mc.state_eval(w4, b @ e - e @ b)) for e in units4],
                          initial=0.0)
        return member == (pair_dev <= mc.CENTRALIZER_TOL)

    ok = all([oracle_agrees(np.diag(np.diag(b)) if trial % 2 == 0 else b)
              for trial in range(6) for b in [rng.complex_matrix(4)]])
    s.check("centralizer_pairing_oracle",
            "phi([B v I, A v I]) = 0 for all A iff B commutes with rho",
            0.0 if ok else 1.0, 0.5)
    return s


# ---------------------------------------------------------------------------
# kms
# ---------------------------------------------------------------------------

def _suite_kms(cfg: SuiteConfig) -> Report:
    s = Report("kms", cfg)
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
    return s


def _landau_side(name: str):
    """The run of the module <name>_suite, imported on its first call."""
    def suite(cfg: SuiteConfig) -> Report:
        # __import__ takes the path of an import statement, which
        # `python -X importtime` reports; importlib.import_module does not
        return __import__(f"{__package__}.{name}_suite", fromlist=["run"]).run(cfg)
    return suite


_SUITES = {
    "modular": _suite_modular,
    "kms": _suite_kms,
    **{name: _landau_side(name)
       for name in ("landau", "hermite", "quadrature", "coherent", "wigner")},
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
