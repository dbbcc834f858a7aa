"""Named verification suites with deterministic, machine-readable reports.

Each suite runs a fixed list of checks; a check records a name, the
mathematical identity it exercises, the measured maximum error, and the
bound it is held to.  Reports are byte-reproducible for a fixed seed:
errors are rounded to six significant digits and no wall-clock data is
embedded in the serialized form.

This module is the report layer alone: the flags and their per-flag
limits, the configuration, the check and report records, the JSON writer
and the dispatch.  Each suite <name> of SUITE_NAMES is the function run of
its own module <name>_suite, imported on the first run of that suite,
together with the layers that the suites read and this module does not
(modular_core, phase_space, landau_modes, complex_hermite,
coherent_states): a process that runs one suite, or only imports the CLI,
compiles no other suite.  A
suite module whose run needs more of the configuration than each flag's
own limit, such as a Gibbs weight ratio that must stay a finite double,
states it in its require(cfg), which run_suite applies before the first
suite runs.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from . import __version__
from . import cgauss_quad as quad

# importable from this module because perfbench/test_perfbench.py pins them here
from .hs_space import commutant_basis, sandwich_superop  # noqa: F401


MAX_SEED = (1 << 64) - 1


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
    # states reach n + l = 6, which needs cut n + l + 2
    for name, least in (("dim", 2), ("cutoff", 2), ("ncut", 8), ("seed", 0)):
        if flags.get(name, least) < least:
            raise ValueError(f"{name} (--{name}) must be at least {least}, "
                             f"got {flags[name]}")
    # SplitMix64 keeps a seed's low 64 bits, so a larger seed would repeat
    # the stream of a smaller one
    if flags.get("seed", 0) > MAX_SEED:
        raise ValueError(f"seed (--seed) must be at most 2^64 - 1 = {MAX_SEED}, "
                         f"got {flags['seed']}")
    # the orders of a rule, and the largest cutoff whose n! is a double
    quad.check_flags(flags)


# name -> (default, help) of each config flag: the CLI option --<name>
# and the attribute of SuiteConfig, in the order in which a report echoes
# them
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
        # the rules that read several flags belong to the suites that need
        # them (their require), so that a run applies only its own
        check_flags(self.values())

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


def _module(name: str):
    """The module <name>_suite, imported on its first use.  __import__ takes
    the path of an import statement, which `python -X importtime` reports;
    importlib.import_module does not."""
    return __import__(f"{__package__}.{name}_suite", fromlist=["run"])


_SUITES = {name: lambda cfg, name=name: _module(name).run(cfg) for name in SUITE_NAMES}


def run_suite(name: str, cfg: SuiteConfig) -> list[Report]:
    """Run one named suite, or all of them in fixed order, after the
    require(cfg) of each, where its module has one: a configuration that one
    of them rejects runs no suite."""
    if name != "all" and name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{', '.join(SUITE_NAMES)} or 'all'")
    names = SUITE_NAMES if name == "all" else (name,)
    for module in map(_module, names):
        if hasattr(module, "require"):
            module.require(cfg)
    return [_SUITES[n](cfg) for n in names]
