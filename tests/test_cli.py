import hashlib
import json
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

from landau_modular.cli import _config_from_args, build_parser, main
from landau_modular.suites import SUITE_NAMES, Report, SuiteConfig, report_to_json, run_suite


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


def test_config_error_exit_code(capsys):
    assert main(["verify", "modular", "--beta", "-1"]) == 2


@pytest.mark.parametrize("args", [
    ("kms", "--beta", "nan"), ("kms", "--beta", "inf"), ("all", "--beta", "nan"),
])
def test_non_finite_beta_or_tol_is_a_config_error(args, capsys):
    # a NaN passes every order comparison and an infinite beta makes the
    # weights NaN
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: beta (--beta) must be finite, got {float(args[2])}"]


@pytest.mark.parametrize("args", [
    ("coherent", "--cutoff", "0"), ("coherent", "--cutoff", "1"),
    ("all", "--cutoff", "1"), ("landau", "--ncut", "2"), ("landau", "--ncut", "3"),
    ("landau", "--ncut", "4"), ("landau", "--ncut", "7"), ("wigner", "--ncut", "3"),
    ("all", "--ncut", "7"), ("modular", "--ncut", "-1"), ("modular", "--dim", "1"),
    ("kms", "--seed", "-1"),
])
def test_too_small_cut_is_a_config_error(args, capsys):
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # rejected before any suite runs: no check line, and the flag and its
    # limit are named
    least = {"--cutoff": 2, "--ncut": 8, "--dim": 2, "--seed": 0}[args[1]]
    assert captured.err.splitlines() == [
        f"configuration error: {args[1][2:]} ({args[1]}) must be at least "
        f"{least}, got {args[2]}"]


@pytest.mark.parametrize("args", [
    ("verify", "modular"), ("verify", "all"), ("export", "delta_spectrum"),
])
def test_overflowing_modular_data_is_a_config_error(args, capsys):
    # beta (dim - 1) = 710.5 > ln(DBL_MAX): alpha_0 / alpha_(dim - 1) is inf
    assert main([*args, "--dim", "1016", "--beta", "0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: beta (--beta) times dim (--dim) - 1 is 710.5, "
        "above ln(DBL_MAX) = 709.783: the Gibbs weight ratio "
        "e^(beta (dim - 1)) overflows a double"]


def test_largest_finite_gibbs_ratio_is_accepted():
    # beta (dim - 1) = 707 at dim 1011; only the configuration is built
    assert SuiteConfig(dim=1011).dim == 1011
    with pytest.raises(ValueError, match="overflows a double"):
        SuiteConfig(dim=1016)


@pytest.mark.parametrize("args, message", [
    (("all", "--cutoff", "100"),
     "quadrature certificate does not cover monomial degree 100: need radial "
     "order (--radial) >= 51 and angular order (--angular) > 100"),
    (("coherent", "--cutoff", "171", "--radial", "86", "--angular", "172"),
     "cutoff (--cutoff) must be at most 170, the largest n for which n! is "
     "a finite double, got 171"),
    (("modular", "--radial", "500"),
     "radial order (--radial) must be in [1, 194], got 500"),
    (("modular", "--radial", "0"),
     "radial order (--radial) must be in [1, 194], got 0"),
    (("modular", "--angular", "1"),
     "angular order (--angular) must be at least 2, got 1"),
    # both orders out of range: the angular one is named first
    (("kms", "--radial", "0", "--angular", "0"),
     "angular order (--angular) must be at least 2, got 0"),
    (("coherent", "--cutoff", "12", "--radial", "6"),
     "quadrature certificate does not cover monomial degree 12: need radial "
     "order (--radial) >= 7 and angular order (--angular) > 12"),
    # beta cutoff = 850: the coherent suite's Gibbs ratios overflow, though
    # beta (dim - 1) = 75 does not; `all` is rejected before its first suite
    *[((suite, "--beta", "5", "--cutoff", "170", "--radial", "86", "--angular", "171"),
       "beta (--beta) times cutoff (--cutoff) is 850, above ln(DBL_MAX) = "
       "709.783: the coherent suite's Gibbs weight ratio e^(beta cutoff) "
       "overflows a double") for suite in ("coherent", "all")],
])
def test_unsupported_coherent_configuration_is_a_config_error(args, message, capsys):
    # the configuration is checked as a whole, before any suite runs
    assert main(["verify", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {message}"]


def test_coherent_cutoff_limits_are_checked_on_the_configuration():
    # 170! is the largest finite factorial; only the configuration is built
    assert SuiteConfig(cutoff=170, radial=86, angular=171).cutoff == 170
    # beta cutoff = 708.9 is below ln(DBL_MAX), 710.6 above it
    assert SuiteConfig(beta=4.17, cutoff=170, radial=86, angular=171).beta == 4.17
    with pytest.raises(ValueError, match="times cutoff"):
        SuiteConfig(beta=4.18, cutoff=170, radial=86, angular=171)
    with pytest.raises(ValueError, match="at most 170"):
        SuiteConfig(cutoff=171, radial=86, angular=172)
    with pytest.raises(ValueError, match="does not cover monomial degree 100"):
        SuiteConfig(cutoff=100)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("suite, beta, failing", [
    ("kms", "1e-4", set()), ("kms", "1e-9", set()), ("kms", "1e-310", set()),
    ("modular", "1e-4", {"generator_eigenvalues"}),
    ("modular", "1e-9", {"generator_eigenvalues"}),
    # rho is I / N to double precision: the weights carry no energy, and no
    # off-diagonal B fails to commute with them
    ("modular", "1e-310", {"generator_eigenvalues", "centralizer_predicate"}),
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
    # a NaN thermal vector reaches the first fold of modular_spectral_check;
    # the modular suite below keeps the real one
    with monkeypatch.context() as patch:
        patch.setattr(mc, "cyclic_vector", lambda w: np.full((w.n, w.n), np.nan))
        assert math.isnan(cs.modular_spectral_check(0.7, 4))
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


def test_kms_traces_read_the_modular_flow(monkeypatch):
    # both real-time checks form their traces on modular_core's flow: a flow
    # run backwards turns them red, and the complex kernel alone stays green
    from landau_modular import modular_core as mc

    flow = mc.modular_flow
    monkeypatch.setattr(mc, "modular_flow", lambda w, t, a: flow(w, -t, a))
    checks = {c.name: c for c in run_suite("kms", SuiteConfig())[0].checks}
    for name in ("real_time_agreement", "boundary_condition"):
        assert not checks[name].passed
    assert checks["closed_form_pair"].passed


def test_coherent_modular_spectral_reads_the_shared_flow(monkeypatch):
    # the coherent layer's Delta^(it) is modular_core's flow_superop: with
    # the opposite time sign the raising generator turns the wrong way
    from landau_modular import modular_core as mc

    superop = mc.flow_superop
    monkeypatch.setattr(mc, "flow_superop", lambda w, t: superop(w, -t))
    checks = {c.name: c for c in run_suite("coherent", SuiteConfig())[0].checks}
    assert not checks["modular_spectral"].passed


def test_export_quad_rule_rejects_unsupported_order(capsys):
    assert main(["export", "quad_rule", "--radial", "1000",
                 "--angular", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err


def test_underflowing_quadrature_weights_are_a_config_error(tmp_path, capsys):
    message = ("configuration error: radial order (--radial) 194 with angular "
               "order (--angular) 76 makes the smallest quadrature weight "
               "underflow to 0; lower either order")
    orders = ["--radial", "194", "--angular", "76"]
    assert main(["verify", "modular", *orders]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]
    out = tmp_path / "rule.csv"
    assert main(["export", "quad_rule", *orders, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]
    # one angular order less still builds
    assert main(["export", "quad_rule", "--radial", "194", "--angular", "75",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 194 * 75


def test_rejected_export_writes_no_file(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["export", "delta_spectrum", "--dim", "1016", "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()
    out.write_bytes(b"kept\n")
    assert main(args) == 2
    assert out.read_bytes() == b"kept\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ["verify", "kms"],
    ["export", "quad_rule"],
])
def test_unwritable_out_is_an_error_not_a_failed_check(args, tmp_path):
    out = tmp_path / "missing" / "r.out"
    proc = subprocess.run([sys.executable, "-m", "landau_modular", *args,
                           "--out", str(out)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("cannot write output:") and str(out) in last
    assert not out.parent.exists()


def test_negative_hermite_cutoff_is_a_config_error(tmp_path, capsys):
    # range(-2) is empty, so the export would write only the header
    out = tmp_path / "coeffs.csv"
    assert main(["export", "hermite_coeffs", "--cutoff", "-3", "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: cutoff (--cutoff) must be at least 0, got -3"]


@pytest.mark.parametrize("args, message", [
    (("wigner_grid", "--ncut", "2"), "ncut (--ncut) must be at least 8, got 2"),
    (("delta_spectrum", "--dim", "1"), "dim (--dim) must be at least 2, got 1"),
    (("delta_spectrum", "--beta", "nan"), "beta (--beta) must be finite, got nan"),
    (("delta_spectrum", "--beta", "0"), "beta (--beta) must be positive, got 0.0"),
    (("hermite_coeffs", "--cutoff", "171"),
     "cutoff (--cutoff) must be at most 170, got 171"),
])
def test_export_applies_the_limits_of_the_flags_it_reads(args, message, tmp_path,
                                                          capsys):
    # at --ncut 2 the grid sampled -0.166 at (-2, -2), where the vacuum
    # Gaussian is 0.054
    out = tmp_path / "table.csv"
    assert main(["export", *args, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {message}"]


def test_export_checks_only_the_flags_it_reads(tmp_path):
    # the Hermite table keeps cutoffs 0 and 1, below the suites' least
    # cutoff, and a quadrature rule too small for the coherent suite's
    # cutoff is still written
    out = tmp_path / "table.csv"
    for args in (("hermite_coeffs", "--cutoff", "0"),
                 ("hermite_coeffs", "--cutoff", "1"),
                 ("quad_rule", "--radial", "3", "--angular", "4"),
                 ("wigner_grid", "--ncut", "8", "--dim", "1", "--seed", "-1")):
        assert main(["export", *args, "--out", str(out)]) == 0
        assert out.read_text().count("\n") > 1


def test_cli_and_landau_library_load_no_scipy():
    # runs the commands and the library calls, not only the imports, so a
    # deferred import inside a function is caught too; the last two lines
    # are the path of a library-level Fock-state build
    code = (
        "import contextlib, io, sys\n"
        "from landau_modular.cli import main\n"
        "from landau_modular import landau_modes as lm\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert main(['verify', 'all', '--seed', '42']) == 1\n"
        "    assert main(['verify', 'modular', '--dim', '32']) == 0\n"
        "    assert main(['export', 'quad_rule']) == 0\n"
        "    assert main(['export', 'delta_spectrum']) == 0\n"
        "lm.hamiltonians(lm.ModeCut(24))\n"
        "lm.fock_psi(lm.ModeCut(24), 2, 1)\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# the *_suite modules and lazy layers that `verify <suite>` loads
SUITE_LOADS = {
    "modular": ["modular_suite"],
    "kms": ["kms_suite"],
    "landau": ["landau_modes", "landau_suite"],
    "hermite": ["complex_hermite", "hermite_suite"],
    "quadrature": ["quadrature_suite"],
    "coherent": ["coherent_states", "coherent_suite", "landau_modes"],
    "wigner": ["landau_modes", "wigner_suite"],
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_run_loads_only_its_own_suite_module_and_layers(suite):
    # a fresh process per suite, since the tests import every module into
    # this one; importing the CLI loads no suite, no lazy layer and not rng,
    # and only the hermite suite reads the exact Hermite tables
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded(*also):\n"
        "    names = [m.split('.')[-1] for m in sys.modules "
        "if m.startswith('landau_modular.')]\n"
        "    lazy = ('complex_hermite', 'landau_modes', 'coherent_states') + also\n"
        "    return sorted(m for m in names if m.endswith('_suite') or m in lazy)\n"
        "import landau_modular.cli\n"
        "print(json.dumps(loaded('rng')))\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = landau_modular.cli.main(['verify', {suite!r}])\n"
        "print(code)\n"
        "print(json.dumps(loaded()))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    want_code = 1 if suite in ("landau", "wigner") else 0
    assert proc.stdout.splitlines() == [
        "[]", str(want_code), json.dumps(SUITE_LOADS[suite])]


def test_suite_modules_are_exactly_the_suite_names():
    # a suite module without a dispatch entry, or a name without a module,
    # fails here
    import landau_modular

    modules = sorted(m.name for m in pkgutil.iter_modules(landau_modular.__path__)
                     if m.name.endswith("_suite"))
    assert modules == sorted(f"{name}_suite" for name in SUITE_NAMES)


def test_phase_space_and_hermite_runs_load_no_rational_modules():
    # a fresh process, since tests here build Fractions; `fractions` (and the
    # `decimal` it imports) is loaded only on a non-int exact scalar, which
    # the last line supplies as the control
    code = (
        "import contextlib, io, sys\n"
        "import landau_modular.cli\n"
        "def loaded():\n"
        "    return [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert landau_modular.cli.main(['verify', 'wigner']) == 1\n"
        "    assert landau_modular.cli.main(['verify', 'coherent']) == 0\n"
        "    assert landau_modular.cli.main(['verify', 'hermite']) == 0\n"
        "print(loaded())\n"
        "from landau_modular import complex_hermite as chp\n"
        "chp.poly_const(1).scale(0.5)\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]", "['fractions', 'decimal']"]


def test_landau_and_full_runs_load_no_numpy_polynomial():
    # a fresh process, since tests here take Gauss-Hermite rules as their
    # reference; the landau suite integrates on a trapezoidal grid, and
    # the last lines, which build one such rule, are the control
    code = (
        "import contextlib, io, sys\n"
        "import landau_modular.cli\n"
        "def quiet():\n"
        "    out = contextlib.ExitStack()\n"
        "    out.enter_context(contextlib.redirect_stdout(io.StringIO()))\n"
        "    out.enter_context(contextlib.redirect_stderr(io.StringIO()))\n"
        "    return out\n"
        "def loaded():\n"
        "    return 'numpy.polynomial' in sys.modules\n"
        "with quiet():\n"
        "    assert landau_modular.cli.main(['verify', 'landau']) == 1\n"
        "print(loaded())\n"
        "with quiet():\n"
        "    assert landau_modular.cli.main(['verify', 'all']) == 1\n"
        "print(loaded())\n"
        "import numpy as np\n"
        "np.polynomial.hermite.hermgauss(2)\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["False", "False", "True"]


def test_verify_runs_and_the_fock_import_load_no_dataclasses():
    # a fresh process, since pytest loads dataclasses into this one; the
    # library's records are NamedTuples or __slots__ classes, so none execs
    # generated code at import.  The first line is the Fock driver's
    # import, and importing dataclasses at the end is the control
    code = (
        "import contextlib, io, sys\n"
        "import landau_modular.landau_modes\n"
        "def loaded():\n"
        "    return 'dataclasses' in sys.modules\n"
        "print(loaded())\n"
        "import landau_modular.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert landau_modular.cli.main(['verify', 'modular']) == 0\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert landau_modular.cli.main(['verify', 'all', '--seed', '42']) == 1\n"
        "print(loaded())\n"
        "import dataclasses\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["False", "False", "False", "True"]


def test_importing_the_library_leaves_the_collector_alone():
    # tests and tools import the library in-process, so no module but the
    # process entry may freeze or switch off the garbage collector
    code = (
        "import gc, importlib, pkgutil\n"
        "import landau_modular\n"
        "names = sorted(m.name for m in pkgutil.iter_modules("
        "landau_modular.__path__) if m.name != '__main__')\n"
        "for name in names:\n"
        "    importlib.import_module('landau_modular.' + name)\n"
        "print(len(names), 'cli' in names, 'suites' in names)\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["17 True True", "0 True"]


def test_importing_the_entry_runs_nothing_and_main_freezes():
    code = (
        "import contextlib, gc, io\n"
        "import landau_modular.__main__ as entry\n"
        "print(gc.get_freeze_count(), gc.isenabled())\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert entry.main(['verify', 'kms']) == 0\n"
        "print(gc.get_freeze_count() > 0, gc.isenabled())\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["0 True", "True True"]
    assert proc.stderr == ""


def test_importing_the_entry_loads_neither_the_cli_nor_numpy():
    code = (
        "import sys\n"
        "import landau_modular.__main__\n"
        "print([m for m in ('landau_modular.cli', 'numpy') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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
    out = tmp_path / "rule.csv"
    assert main(["export", "quad_rule", "--radial", "3", "--angular", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,re,im,weight"
    assert len(lines) == 1 + 12


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
