import hashlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from landau_modular.cli import _config_from_args, build_parser, main
from landau_modular.suites import (FLAGS, SUITE_NAMES, Report, SuiteConfig, report_to_json,
                                   run_suite)


def test_verify_modular_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "modular", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "modular"
    assert doc["elapsed_ms"] is None
    assert all(c["pass"] for c in doc["checks"])
    assert all(c["max_error"] <= c["bound"] for c in doc["checks"])


def test_verify_writes_to_stdout(capsys):
    code = main(["verify", "kms"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "kms"


def test_report_schema_fields():
    report = run_suite("hermite", SuiteConfig())[0]
    doc = json.loads(report_to_json(report))
    assert set(doc) == {"suite", "config", "checks", "errata", "version",
                        "elapsed_ms"}
    assert doc["config"]["seed"] == 42
    assert doc["errata"], "the hermite suite must report its errata"
    for c in doc["checks"]:
        assert set(c) == {"name", "identity", "max_error", "bound", "pass"}


def test_every_erratum_names_a_check_of_its_report():
    for report in run_suite("all", SuiteConfig()):
        names = [c.name for c in report.checks]
        for e in report.errata:
            assert e["witness"] in names, (report.suite, e["name"])


def test_an_erratum_must_name_a_recorded_check():
    report = Report("hermite", SuiteConfig())
    report.check("recorded", "0 = 0", 0.0, 0.0)
    with pytest.raises(LookupError, match="'unrecorded'"):
        report.erratum("misprint", "a printed form", "unrecorded")
    assert report.errata == []
    report.erratum("misprint", "a printed form", "recorded")
    assert report.errata == [{"name": "misprint", "statement": "a printed form",
                              "witness": "recorded"}]


def test_exact_checks_report_zero_error():
    report = run_suite("hermite", SuiteConfig())[0]
    exact = [c for c in report.checks if c.bound == 0.0]
    assert exact and all(c.max_error == 0.0 for c in exact)


def test_failed_pass_fail_checks_fail_their_fixed_bound(monkeypatch):
    # a failed predicate reports 1.0 against the fixed bound 0.5
    from landau_modular import modular_suite

    cfg = SuiteConfig()
    monkeypatch.setattr(modular_suite, "commutant_basis", lambda gens: (0, []))
    checks = {c.name: c for c in run_suite("modular", cfg)[0].checks}
    for name in ("commutant_of_left_algebra", "joint_commutant_scalar"):
        assert checks[name].max_error == 1.0
        assert not checks[name].passed
    checks.update((c.name, c) for c in run_suite("quadrature", cfg)[0].checks)
    for name in ("commutant_of_left_algebra", "joint_commutant_scalar",
                 "centralizer_predicate", "centralizer_pairing_oracle",
                 "order_convergence"):
        assert checks[name].bound == 0.5


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_no_flag_scales_a_bound(tmp_path, capsys):
    # every bound is fixed: --tol is not an option, so no flag can turn a
    # recorded red green
    out = tmp_path / "out"
    for args in (["verify", "all", "--tol", "1e9"],
                 ["export", "quad_rule", "--tol", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()
    # the flags are the configuration's fields, with its defaults
    args = build_parser().parse_args(["verify", "all"])
    assert _config_from_args(args).values() == SuiteConfig().values()


GIBBS = ("beta (--beta) times dim (--dim) - 1 is 710.5, above ln(DBL_MAX) = 709.783: "
         "the Gibbs weight ratio e^(beta (dim - 1)) overflows a double")
CUTOFF_171 = ("cutoff (--cutoff) must be at most 170, the largest n for which n! is "
              "a finite double, got 171")
UNDERFLOW = ("radial order (--radial) 194 with angular order (--angular) 76 makes "
             "the smallest quadrature weight underflow to 0; lower either order")
CENTRALIZER = ("beta (--beta) is 200, above ln(DBL_MAX) / 7 = 101.398: the modular "
               "suite's 8-level Gibbs weight ratio e^(7 beta) overflows a double")
LEAST = {"--cutoff": 2, "--ncut": 8, "--dim": 2, "--seed": 0}

# Every configuration that `verify` or `export` rejects, one row each: its
# argv and the one message it prints.  A flag's own limit, or the require of
# a suite that the run runs (of every suite, for `all`), rejects it before
# any suite runs; an export checks the flags it reads before it opens --out
REJECTED = [
    ("verify modular --beta -1", "beta (--beta) must be positive, got -1.0"),
    ("export delta_spectrum --beta 0", "beta (--beta) must be positive, got 0.0"),
    # a NaN passes every order comparison and an infinite beta makes the
    # weights NaN
    *[(f"{run} --beta {beta}", f"beta (--beta) must be finite, got {beta}")
      for run, beta in (("verify kms", "nan"), ("verify kms", "inf"),
                        ("verify all", "nan"), ("export delta_spectrum", "nan"))],
    *[(argv, f"{flag[2:]} ({flag}) must be at least {LEAST[flag]}, got {value}")
      for argv in ("verify coherent --cutoff 0", "verify coherent --cutoff 1",
                   "verify all --cutoff 1", "verify landau --ncut 2",
                   "verify landau --ncut 3", "verify landau --ncut 4",
                   "verify landau --ncut 7", "verify wigner --ncut 3",
                   "verify all --ncut 7", "verify modular --ncut -1",
                   "verify modular --dim 1", "verify kms --seed -1",
                   # at --ncut 2 the grid sampled -0.166 at (-2, -2), where
                   # the vacuum Gaussian is 0.054
                   "export wigner_grid --ncut 2", "export delta_spectrum --dim 1")
      for flag, value in [argv.split()[-2:]]],
    # SplitMix64 keeps a seed's low 64 bits: 2^64 + 42 repeated seed 42
    (f"verify kms --seed {2**64}",
     f"seed (--seed) must be at most 2^64 - 1 = {2**64 - 1}, got {2**64}"),
    # range(-2) is empty, so the export would write only the header
    ("export hermite_coeffs --cutoff -3", "cutoff (--cutoff) must be at least 0, got -3"),
    ("export hermite_coeffs --cutoff 171", CUTOFF_171),
    ("verify coherent --cutoff 171 --radial 86 --angular 172", CUTOFF_171),
    ("verify modular --radial 500", "radial order (--radial) must be in [1, 194], got 500"),
    ("verify modular --radial 0", "radial order (--radial) must be in [1, 194], got 0"),
    ("export quad_rule --radial 1000 --angular 2",
     "radial order (--radial) must be in [1, 194], got 1000"),
    ("verify modular --angular 1", "angular order (--angular) must be at least 2, got 1"),
    # both orders out of range: the angular one is named first
    ("verify kms --radial 0 --angular 0",
     "angular order (--angular) must be at least 2, got 0"),
    # beta (dim - 1) = 710.5 > ln(DBL_MAX): alpha_0 / alpha_(dim - 1) is inf
    *[(f"{run} --dim 1016 --beta 0.7", GIBBS) for run in (
        "verify modular", "verify kms", "verify all", "export delta_spectrum")],
    # the modular suite's centralizer checks build 8 levels whatever --dim
    # is: 7 beta = 1400 > ln(DBL_MAX), though beta (dim - 1) = 200 is not
    *[(f"verify {suite} --dim 2 --beta 200 --cutoff 2", CENTRALIZER)
      for suite in ("modular", "all")],
    # the rule is built by the quadrature and coherent suites and quad_rule
    ("verify quadrature --radial 194 --angular 76", UNDERFLOW),
    ("export quad_rule --radial 194 --angular 76", UNDERFLOW),
    ("verify all --cutoff 100", "quadrature certificate does not cover monomial "
     "degree 100: need radial order (--radial) >= 51 and angular order (--angular) > 100"),
    ("verify coherent --cutoff 12 --radial 6", "quadrature certificate does not "
     "cover monomial degree 12: need radial order (--radial) >= 7 and angular order "
     "(--angular) > 12"),
    # beta cutoff = 850: the coherent suite's Gibbs ratios overflow, though
    # beta (dim - 1) = 75 does not
    *[(f"verify {suite} --beta 5 --cutoff 170 --radial 86 --angular 171",
       "beta (--beta) times cutoff (--cutoff) is 850, above ln(DBL_MAX) = 709.783: "
       "the coherent suite's Gibbs weight ratio e^(beta cutoff) overflows a double")
      for suite in ("coherent", "all")],
]


def _record_runs(monkeypatch) -> list:
    """The names of the suites that run from now on, in order; each still runs."""
    from landau_modular import suites

    ran = []
    for name in SUITE_NAMES:
        monkeypatch.setitem(suites._SUITES, name, lambda cfg, name=name,
                            run=suites._SUITES[name]: ran.append(name) or run(cfg))
    return ran


@pytest.mark.parametrize("argv, message", REJECTED, ids=[argv for argv, _ in REJECTED])
def test_rejected_run(argv, message, tmp_path, monkeypatch, capsys):
    # --out names a missing file, then a file that holds "kept"; after each
    # run tmp_path holds exactly what it held before
    ran = _record_runs(monkeypatch)
    out = tmp_path / "out"
    for kept in (None, b"kept\n"):
        if kept:
            out.write_bytes(kept)
        code = main([*argv.split(), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err.splitlines(), ran) == (
            2, "", [f"configuration error: {message}"], [])
        assert [p.read_bytes() for p in tmp_path.iterdir()] == ([kept] if kept else [])


def test_every_flag_and_every_suite_require_has_a_rejected_row():
    from landau_modular import suites

    assert [f for f in FLAGS if not any(f"(--{f})" in m for _, m in REJECTED)] == []
    alone = {argv.split()[1] for argv, _ in REJECTED if argv.startswith("verify ")}
    assert [name for name in SUITE_NAMES if hasattr(suites._module(name), "require")
            and name not in alone] == []


def test_largest_seed_is_accepted():
    assert SuiteConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("suite", ["modular", "all", "kms", "coherent"])
def test_overflowing_centralizer_weights_are_a_config_error(suite, monkeypatch, capsys):
    # the rule is the modular suite's, so `modular` and `all` are rejected
    # before any suite runs (their REJECTED rows add --out); beta cutoff = 400
    # is finite, so `kms` and `coherent` run their own suite alone
    from landau_modular import modular_suite

    ran = _record_runs(monkeypatch)
    code = main(["verify", suite, "--dim", "2", "--beta", "200", "--cutoff", "2"])
    captured = capsys.readouterr()
    if suite in ("modular", "all"):
        assert (code, captured.out, captured.err.splitlines(), ran) == (
            2, "", [f"configuration error: {CENTRALIZER}"], [])
    else:
        assert (code, ran, json.loads(captured.out)["suite"]) == (0, [suite], suite)
    # 7 beta = 709.73 is below ln(DBL_MAX); only the configuration is built
    assert SuiteConfig(dim=2, beta=101.39, cutoff=2).beta == 101.39
    modular_suite.require(SuiteConfig(dim=2, beta=101.39, cutoff=2))


def test_underflowing_quadrature_weights_are_a_config_error(monkeypatch, capsys):
    # the rule is built by the quadrature suite (its REJECTED row) and by the
    # coherent suite, which is rejected before it runs; the modular suite
    # reads no rule and runs alone at these orders
    ran = _record_runs(monkeypatch)
    orders = ["--radial", "194", "--angular", "76"]
    assert main(["verify", "coherent", *orders]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err.splitlines(), ran) == (
        "", [f"configuration error: {UNDERFLOW}"], [])
    assert main(["verify", "modular", *orders]) == 0
    assert (json.loads(capsys.readouterr().out)["suite"], ran) == ("modular", ["modular"])


def test_largest_finite_gibbs_ratio_is_accepted():
    # beta (dim - 1) = 707 at dim 1011 and 710.5 at dim 1016; only the
    # configuration is built, and the rule is the modular suite's
    from landau_modular import modular_suite

    assert SuiteConfig(dim=1011).dim == 1011
    modular_suite.require(SuiteConfig(dim=1011))
    with pytest.raises(ValueError, match="overflows a double"):
        modular_suite.require(SuiteConfig(dim=1016))


def test_coherent_cutoff_limits_are_checked_on_the_configuration():
    # 170! is the largest finite factorial, a limit of --cutoff alone; the
    # rules on beta cutoff and on the rule's coverage are the coherent
    # suite's.  Only the configuration and the rule are built
    from landau_modular import coherent_suite

    cfg = SuiteConfig(cutoff=170, radial=86, angular=171)
    assert cfg.cutoff == 170
    coherent_suite.require(cfg)
    # beta cutoff = 708.9 is below ln(DBL_MAX), 710.6 above it
    cfg = SuiteConfig(beta=4.17, cutoff=170, radial=86, angular=171)
    assert cfg.beta == 4.17
    coherent_suite.require(cfg)
    with pytest.raises(ValueError, match="times cutoff"):
        coherent_suite.require(SuiteConfig(beta=4.18, cutoff=170, radial=86, angular=171))
    with pytest.raises(ValueError, match="at most 170"):
        SuiteConfig(cutoff=171, radial=86, angular=172)
    with pytest.raises(ValueError, match="does not cover monomial degree 100"):
        coherent_suite.require(SuiteConfig(cutoff=100))


def test_an_unallocatable_run_is_a_config_error(monkeypatch, capsys):
    # exit 1 means a check failed; a run too large to allocate is neither
    from landau_modular import suites

    def too_large(cfg):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000, 1000000) and data type complex128")

    monkeypatch.setitem(suites._SUITES, "wigner", too_large)
    assert main(["verify", "wigner"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: Unable to allocate 7.28 TiB for an array with "
        "shape (1000000, 1000000) and data type complex128"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("suite, beta, failing", [
    ("kms", "1e-4", set()), ("kms", "1e-9", set()), ("kms", "1e-310", set()),
    ("modular", "1e-4", {"generator_eigenvalues"}),
    ("modular", "1e-9", {"generator_eigenvalues"}),
    # centralizer_predicate holds 8 levels, where [B, rho]_ij = b_ij (alpha_j
    # - alpha_i) is about b_ij beta (i - j) / 8 at small beta: once that is
    # under the absolute CENTRALIZER_TOL = 1e-10 for every seeded entry, an
    # off-diagonal B passes as a member.  Green at 2e-10, red from 1e-10 on;
    # rho = I / N at 1e-310 is only the far end
    ("modular", "1e-310", {"generator_eigenvalues", "centralizer_predicate"}),
    ("modular", "2e-10", {"generator_eigenvalues"}),
    ("modular", "1e-10", {"generator_eigenvalues", "centralizer_predicate"}),
])
def test_small_beta_reds_are_only_the_conditioned_ones(suite, beta, failing, tmp_path):
    # the flows and the KMS kernel read the spectrum E_n = n, not energies
    # read back from rounded weights, so the kms suite stays green as beta
    # falls; only the generator, -log(Delta) / beta from the weights, is
    # conditioned by 1 / beta against its fixed 1e-12
    out = tmp_path / "report.json"
    assert main(["verify", suite, "--beta", beta, "--out", str(out)]) == (1 if failing else 0)
    checks = json.loads(out.read_text())["checks"]
    assert {c["name"] for c in checks if not c["pass"]} == failing
    assert not any(np.isnan(c["max_error"]) for c in checks)


def test_smallest_cuts_run():
    cfg = SuiteConfig(cutoff=2, ncut=8)
    for name in ("coherent", "landau", "wigner"):
        assert run_suite(name, cfg)[0].checks


def test_nan_inside_a_check_makes_it_fail(monkeypatch):
    # the KMS kernel, and so the KMS function, goes NaN at t = 1, the fourth
    # of five points of closed_form_pair and inside the grid of
    # boundary_condition, whose deviation is itself a fold in modular_core;
    # neither fold may keep the finite values around the NaN, and the check
    # without t = 1 keeps its value
    import math

    from landau_modular import coherent_states as cs
    from landau_modular import modular_core as mc
    from landau_modular import modular_suite

    clean = {c.name: c for c in run_suite("kms", SuiteConfig())[0].checks}
    kernel = mc.kms_kernel
    monkeypatch.setattr(mc, "kms_kernel", lambda w, z: (
        np.full((w.n, w.n), complex("nan")) if z.real == 1.0 else kernel(w, z)))
    report = run_suite("kms", SuiteConfig())[0]
    checks = {c.name: c for c in report.checks}
    for name in ("closed_form_pair", "boundary_condition"):
        assert math.isnan(checks[name].max_error)
        assert not checks[name].passed
    assert report_to_json(report).count('"max_error": NaN') == 2
    assert checks["real_time_agreement"] == clean["real_time_agreement"]
    # a NaN thermal vector reaches the first fold of modular_spectral_errors'
    # absolute error; the modular suite below keeps the real one
    with monkeypatch.context() as patch:
        patch.setattr(mc, "cyclic_vector", lambda w: np.full((w.n, w.n), np.nan))
        assert math.isnan(cs.modular_spectral_errors(0.7, 4)[0])
    # the fifth inner product, <x, y> in the second of the ten samples that
    # j_antiunitary passes to check, goes NaN: the builtin max would keep
    # the first sample and pass
    clean = {c.name: c for c in run_suite("modular", SuiteConfig())[0].checks}
    calls = []
    inner = modular_suite.hs_inner

    def nan_on_fifth(x, y):
        calls.append(None)
        return complex("nan") if len(calls) == 5 else inner(x, y)

    monkeypatch.setattr(modular_suite, "hs_inner", nan_on_fifth)
    checks = {c.name: c for c in run_suite("modular", SuiteConfig())[0].checks}
    assert math.isnan(checks["j_antiunitary"].max_error)
    assert not checks["j_antiunitary"].passed
    assert checks["s_conjugates_orbit"] == clean["s_conjugates_orbit"]


def test_coherent_modular_spectral_reads_the_shared_flow(monkeypatch):
    # the coherent layer's Delta^(it) is modular_core's flow_superop: with
    # the opposite time sign the raising generator turns the wrong way
    from landau_modular import modular_core as mc

    superop = mc.flow_superop
    monkeypatch.setattr(mc, "flow_superop", lambda w, t: superop(w, -t))
    checks = {c.name: c for c in run_suite("coherent", SuiteConfig())[0].checks}
    assert not checks["modular_spectral"].passed


def _run_entry(*argv):
    return subprocess.run([sys.executable, "-m", "landau_modular", *argv],
                          capture_output=True, text=True, timeout=120)


def test_config_error_exit_code():
    # test_rejected_run calls main; the entry's process exits with its code
    proc = _run_entry("verify", "modular", "--beta", "-1")
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (
        2, "", ["configuration error: beta (--beta) must be positive, got -1.0"])


def test_rejected_export_writes_no_file(tmp_path):
    # in the entry's process too, a rejected export creates no --out and
    # leaves an existing one as it was
    out = tmp_path / "x.csv"
    for kept in (None, b"kept\n"):
        if kept:
            out.write_bytes(kept)
        proc = _run_entry("export", "delta_spectrum", "--dim", "1016", "--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (
            2, "", [f"configuration error: {GIBBS}"])
        assert [p.read_bytes() for p in tmp_path.iterdir()] == ([kept] if kept else [])


@pytest.mark.parametrize("args", [
    ["verify", "kms"],
    ["export", "quad_rule"],
])
def test_unwritable_out_is_an_error_not_a_failed_check(args, tmp_path):
    out = tmp_path / "missing" / "r.out"
    proc = _run_entry(*args, "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("cannot write output:") and str(out) in last
    assert not out.parent.exists()


def test_export_checks_only_the_flags_it_reads(tmp_path):
    # the Hermite table keeps cutoffs 0 and 1, below the suites' least
    # cutoff, and a quadrature rule too small for the coherent suite's
    # cutoff is still written
    out = tmp_path / "table.csv"
    for args in (("hermite_coeffs", "--cutoff", "0"),
                 ("hermite_coeffs", "--cutoff", "1"),
                 ("quad_rule", "--radial", "3", "--angular", "4")):
        assert main(["export", *args, "--out", str(out)]) == 0
        assert out.read_text().count("\n") > 1


# the flags each export table reads; it takes no other but --out
READS = {"hermite_coeffs": ("cutoff",), "quad_rule": ("radial", "angular"),
         "delta_spectrum": ("dim", "beta"), "wigner_grid": ("ncut",)}


@pytest.mark.parametrize("what", READS)
def test_export_rejects_each_flag_it_does_not_read(what, tmp_path, capsys):
    # every other flag of `verify`, even at its default, is a usage error
    # that writes nothing, not a value silently ignored
    out = tmp_path / "table.csv"
    for name in sorted(FLAGS.keys() - set(READS[what])):
        with pytest.raises(SystemExit) as exc:
            main(["export", what, f"--{name}", str(FLAGS[name][0]), "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()
    # its parser takes exactly the flags it reads, and --out
    args = build_parser().parse_args(["export", what])
    assert sorted(vars(args)) == sorted(("command", "what", "fn", "out", *READS[what]))


# Fresh processes, since the tests import every module into this one.  A probe
# runs one row of PROBES: a step is one line of code, or a `verify` or `export`
# argv run through the `main` an earlier step imported, its output discarded.
# After each step it prints the exit code (null for a line of code), the
# modules of WATCHED now loaded, whether the collector holds frozen objects
# and whether it is enabled
PROBE = """\
import contextlib, gc, io, json, sys
watched, steps = json.loads(sys.argv[1])
scope = {}
for step in steps:
    code = None
    if step.split()[0] in ('verify', 'export'):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = scope['main'](step.split())
    else:
        exec(step, scope)
    now = [m.removeprefix('landau_modular.') for m in watched if m in sys.modules]
    print(json.dumps([code, now, gc.get_freeze_count() > 0, gc.isenabled()]))
"""

# no row but the control loads a module of NEVER, and only an export loads csv
NEVER = ("scipy", "fractions", "decimal", "numpy.polynomial", "dataclasses")
LIBRARY = ("cli", "rng", "modular_core", "phase_space", "landau_modes",
           "complex_hermite", "coherent_states", *(f"{name}_suite" for name in SUITE_NAMES))
WATCHED = (*NEVER, "csv", "numpy", *(f"landau_modular.{m}" for m in LIBRARY))

# one fresh process per row, a list of steps: (step, its exit code or None
# for a line of code, the WATCHED modules it loads, whether the collector
# holds frozen objects after it)
CLI = ("from landau_modular.cli import main", None, "numpy cli", False)
PROBES = {
    # each suite alone: importing the CLI loads no suite, no lazy layer and
    # not rng, only the suites that read the Gibbs state load modular_core,
    # and only the hermite suite reads the exact Hermite tables
    "modular": [CLI, ("verify modular", 0, "rng modular_core modular_suite", False)],
    "kms": [CLI, ("verify kms", 0, "rng modular_core kms_suite", False)],
    "landau": [CLI, ("verify landau", 1, "landau_modes landau_suite", False)],
    "hermite": [CLI, ("verify hermite", 0, "complex_hermite hermite_suite", False)],
    "quadrature": [CLI, ("verify quadrature", 0, "quadrature_suite", False)],
    "coherent": [CLI, ("verify coherent", 0, "rng modular_core phase_space "
                       "landau_modes coherent_states coherent_suite", False)],
    # a wigner run reads only the single mode: it compiles no two-mode layer
    "wigner": [CLI, ("verify wigner", 1, "phase_space wigner_suite", False)],
    "all": [CLI, ("verify all", 1, "rng modular_core phase_space landau_modes "
                  "complex_hermite coherent_states "
                  + " ".join(f"{name}_suite" for name in SUITE_NAMES), False)],
    "exports": [CLI, ("export hermite_coeffs", 0, "csv complex_hermite", False),
                ("export quad_rule", 0, "", False),
                ("export delta_spectrum", 0, "modular_core", False),
                ("export wigner_grid", 0, "phase_space", False)],
    # the Fock driver's path, which imports the library without the CLI
    # and loads no single-mode layer
    "fock": [("from landau_modular import landau_modes as lm", None,
              "numpy landau_modes", False),
             ("lm.hamiltonians(lm.ModeCut(24))", None, "", False),
             ("lm.fock_psi(lm.ModeCut(24), 2, 1)", None, "", False)],
    # tests and tools import the library in-process, so no module but the
    # entry may freeze or switch off the collector
    "library": [
        ("import importlib, pkgutil, landau_modular", None, "", False),
        ("names = sorted(m.name for m in pkgutil.iter_modules(landau_modular.__path__)"
         " if m.name != '__main__')", None, "", False),
        ("assert (len(names), 'cli' in names, 'suites' in names) == (18, True, True)",
         None, "", False),
        ("for name in names: importlib.import_module('landau_modular.' + name)", None,
         "numpy " + " ".join(LIBRARY), False)],
    # the probe sees each module of NEVER once it is loaded: fractions (and
    # the decimal it imports) on a non-int exact scalar, numpy.polynomial
    # from a Gauss-Hermite rule
    "control": [
        ("from landau_modular import complex_hermite as chp", None,
         "complex_hermite", False),
        ("chp.poly_const(1).scale(0.5)", None, "fractions decimal", False),
        ("import numpy as np", None, "numpy", False),
        ("np.polynomial.hermite.hermgauss(2)", None, "numpy.polynomial", False),
        ("import dataclasses", None, "dataclasses", False),
        ("import scipy", None, "scipy", False)],
}


def _run_probe(steps):
    proc = subprocess.run([sys.executable, "-W", "error", "-c", PROBE,
                           json.dumps([WATCHED, [step for step, *_ in steps]])],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    got, loaded = [], set()
    for line in proc.stdout.splitlines():
        code, now, frozen, enabled = json.loads(line)
        got.append((code, sorted(set(now) - loaded), frozen, enabled))
        loaded = set(now)
    assert got == [(code, sorted(loads.split()), frozen, True)
                   for _, code, loads, frozen in steps]


@pytest.mark.parametrize("row", PROBES)
def test_each_run_loads_only_its_own_suite_module_and_layers(row):
    _run_probe(PROBES[row])


ENTRY = ("from landau_modular.__main__ import main", None, "", False)


def test_importing_the_entry_loads_neither_the_cli_nor_numpy():
    # no WATCHED module, so neither the CLI nor numpy
    _run_probe([ENTRY])


def test_importing_the_entry_runs_nothing_and_main_freezes():
    # importing the entry runs nothing; its main freezes the import-time
    # heap and leaves the collector enabled
    _run_probe([ENTRY, ("verify kms", 0, "numpy cli rng modular_core kms_suite", True)])


def test_suite_modules_are_exactly_the_suite_names():
    # a suite module without a dispatch entry or a probe row, or a name
    # without a module, fails here
    import landau_modular

    modules = sorted(m.name for m in pkgutil.iter_modules(landau_modular.__path__)
                     if m.name.endswith("_suite"))
    assert modules == sorted(f"{name}_suite" for name in SUITE_NAMES)
    assert list(PROBES)[:len(SUITE_NAMES)] == list(SUITE_NAMES)


def test_no_probe_but_the_control_loads_a_never_module():
    # each step's loaded set is exact and NEVER and csv are WATCHED, so the
    # policy is a property of the table itself
    loads = {row: {m for _, _, step, _ in steps for m in step.split()}
             for row, steps in PROBES.items()}
    assert all(not loads[row] & set(NEVER) for row in PROBES if row != "control")
    assert [row for row in PROBES if "csv" in loads[row]] == ["exports"]


def test_no_collection_runs_while_main_imports_the_cli():
    # the gc hook records each collection that starts before the CLI has
    # finished importing; the profile hook records the collector's state
    # when the suite starts.  Importing the CLI outside main is the control
    # that the hook sees the import-time collections
    probe = (
        "import contextlib, gc, io, sys\n"
        "import landau_modular.__main__ as entry\n"
        "def imported():\n"
        "    return hasattr(sys.modules.get('landau_modular.cli'), 'main')\n"
        "during_import, suite_sees = [], []\n"
        "def on_gc(phase, info):\n"
        "    if phase == 'start' and not imported():\n"
        "        during_import.append(info['generation'])\n"
        "def on_call(frame, event, arg):\n"
        "    if (event == 'call' and frame.f_code.co_name == 'run'\n"
        "            and frame.f_globals['__name__'] == 'landau_modular.kms_suite'):\n"
        "        suite_sees.append(gc.isenabled())\n"
        "print(imported())\n"
        "gc.callbacks.append(on_gc)\n"
        "sys.setprofile(on_call)\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    {run}\n"
        "sys.setprofile(None)\n"
        "print(len(during_import) > 0, suite_sees, gc.isenabled())\n")
    runs = {"assert entry.main(['verify', 'kms']) == 0": ["False", "False [True] True"],
            "import landau_modular.cli": ["False", "True [] True"]}
    for run, expected in runs.items():
        proc = subprocess.run([sys.executable, "-c", probe.format(run=run)],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == expected, run


def test_stderr_tags_a_red_that_an_erratum_names():
    # the JSON report and the exit code do not change; the human summary
    # tells a misprint's witness from a truncation red
    fails = {}
    for suite in ("wigner", "landau"):
        proc = subprocess.run([sys.executable, "-m", "landau_modular", "verify", suite],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        fails[suite] = [line.split(":")[0] for line in proc.stderr.splitlines()
                        if "FAIL" in line]
    assert fails == {
        "wigner": ["[wigner] FAIL (erratum) closed_form_literal"],
        "landau": ["[landau] FAIL fock_eigenvalues", "[landau] FAIL fock_orthonormality"],
    }

def test_console_script_target_matches_python_m():
    # the installed `landau-modular` script calls __main__.main, as -m does
    args = ["verify", "kms", "--seed", "42"]
    script = [sys.executable, "-c",
              "import sys; from landau_modular.__main__ import main; "
              "sys.exit(main())", *args]
    runs = [subprocess.run(cmd, capture_output=True, timeout=120)
            for cmd in (script, [sys.executable, "-m", "landau_modular", *args])]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout != b""


def test_export_hermite_coeffs(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert main(["export", "hermite_coeffs", "--cutoff", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,m,j,re,im"
    assert "1,1,1,1,1,0" in lines and "1,1,0,0,-1,0" in lines
    # the whole table to index 12, byte for byte
    assert main(["export", "hermite_coeffs", "--cutoff", "12",
                 "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(data.splitlines()) == 820
    assert hashlib.sha256(data).hexdigest() == (
        "658f2dbebb95665a888f71a955f75d3c0cddd921e14b0e4ca9f2e4ca9812a344")


def test_export_memory_is_flat_in_the_cutoff(tmp_path):
    # the rows are streamed as they are computed; a table held whole (the
    # Hermite polynomials or the CSV text) grows at least as cutoff^3
    import tracemalloc

    out = tmp_path / "coeffs.csv"
    assert main(["export", "hermite_coeffs", "--cutoff", "20",
                 "--out", str(out)]) == 0
    peaks = []
    for cutoff in ("20", "40"):
        tracemalloc.start()
        try:
            assert main(["export", "hermite_coeffs", "--cutoff", cutoff,
                         "--out", str(out)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_export_delta_spectrum(tmp_path):
    import math
    out = tmp_path / "delta.csv"
    assert main(["export", "delta_spectrum", "--dim", "3",
                 "--beta", str(math.log(2.0)), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    vals = sorted(float(r.split(",")[2]) for r in rows)
    assert vals == pytest.approx([0.25, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0, 2.0, 4.0])


def test_export_quad_rule(tmp_path):
    # at --radial 194 one angular order below the REJECTED row's 76 builds
    out = tmp_path / "rule.csv"
    for radial, angular in (3, 4), (194, 75):
        assert main(["export", "quad_rule", "--radial", str(radial),
                     "--angular", str(angular), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,re,im,weight"
        assert len(lines) == 1 + radial * angular


def test_export_wigner_grid(tmp_path):
    import math
    out = tmp_path / "grid.csv"
    assert main(["export", "wigner_grid", "--ncut", "48",
                 "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 25
    for row in rows:
        x, y, re, im = (float(v) for v in row.split(","))
        expect = math.exp(-(x * x + y * y) / 4.0) / math.sqrt(2.0 * math.pi)
        assert abs(complex(re, im) - expect) < 1e-6


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every `landau-modular ...` line of README's sh blocks, from a scratch
    # directory: an example that names a removed or misspelled option exits 2
    readme = Path(__file__).parents[1] / "README.md"
    examples, inside = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line in ("```sh", "```"):
            inside = line == "```sh"
        elif inside and line.startswith("landau-modular "):
            examples.append(line.split()[1:])
    assert examples
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv) in (0, 1), argv
