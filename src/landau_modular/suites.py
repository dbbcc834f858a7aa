"""Named verification suites with deterministic, machine-readable reports.

Each suite runs a fixed list of checks; a check records a name, the
mathematical identity it exercises, the measured maximum error, and the
bound it is held to.  Reports are byte-reproducible for a fixed seed:
errors are rounded to six significant digits and no wall-clock data is
embedded in the serialized form.

This module is the report layer alone: the flags and their limits, the
configuration, the check and report records, the JSON writer and the
dispatch.  Each suite <name> of SUITE_NAMES is the function run of its own
module <name>_suite, which _SUITES imports on the first run of that suite,
together with the layers only that suite uses (landau_modes,
complex_hermite, coherent_states): a process that runs one suite, or only
imports the CLI, compiles no other suite.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from . import __version__
from . import cgauss_quad as quad
from . import modular_core as mc

# importable from this module because perfbench/test_perfbench.py pins them here
from .hs_space import commutant_basis, sandwich_superop  # noqa: F401


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
        # the coherent suite's modular spectrum holds Gibbs weights on cutoff + 1
        # levels, whose largest ratio is e^(beta cutoff)
        if self.beta * self.cutoff > mc.LOG_DBL_MAX:
            raise ValueError(
                f"beta (--beta) times cutoff (--cutoff) is {self.beta * self.cutoff:.6g}, "
                f"above ln(DBL_MAX) = {mc.LOG_DBL_MAX:.6g}: the coherent suite's Gibbs "
                "weight ratio e^(beta cutoff) overflows a double")
        # the modular suite's centralizer checks hold Gibbs weights on 8 levels
        # whatever --dim is, whose largest ratio is e^(7 beta); an export that
        # reads beta runs no suite, so it is not held to it
        if 7 * self.beta > mc.LOG_DBL_MAX:
            raise ValueError(
                f"beta (--beta) is {self.beta:.6g}, above ln(DBL_MAX) / 7 = "
                f"{mc.LOG_DBL_MAX / 7:.6g}: the modular suite's 8-level Gibbs weight "
                "ratio e^(7 beta) overflows a double")
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


SUITE_NAMES = ("modular", "kms", "landau", "hermite", "quadrature", "coherent", "wigner")
# __import__ takes the path of an import statement, which `python -X
# importtime` reports; importlib.import_module does not
_SUITES = {name: lambda cfg, module=f"{__package__}.{name}_suite":
           __import__(module, fromlist=["run"]).run(cfg)
           for name in SUITE_NAMES}


def run_suite(name: str, cfg: SuiteConfig) -> list[Report]:
    """Run one named suite, or all of them in fixed order."""
    if name == "all":
        return [_SUITES[n](cfg) for n in SUITE_NAMES]
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(SUITE_NAMES)} or 'all'")
    return [_SUITES[name](cfg)]
