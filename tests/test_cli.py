import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from landau_modular.cli import _config_from_args, build_parser, main
from landau_modular.suites import SuiteConfig, report_to_json, run_suite


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


def test_exact_checks_report_zero_error():
    report = run_suite("hermite", SuiteConfig())[0]
    exact = [c for c in report.checks if c.bound == 0.0]
    assert exact and all(c.max_error == 0.0 for c in exact)


def test_failed_pass_fail_checks_fail_their_fixed_bound(monkeypatch):
    # a failed predicate reports 1.0 against the fixed bound 0.5
    from landau_modular import suites

    cfg = SuiteConfig()
    monkeypatch.setattr(suites, "commutant_basis", lambda gens: (0, []))
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
    assert _config_from_args(args) == SuiteConfig()


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
     "quadrature certificate does not cover monomial degree 100: "
     "need radial order >= 51 and angular order > 100"),
    (("coherent", "--cutoff", "171", "--radial", "86", "--angular", "172"),
     "cutoff (--cutoff) must be at most 170, the largest n for which n! is "
     "a finite double, got 171"),
    (("modular", "--radial", "500"), "radial order must be in [1, 194], got 500"),
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
    with pytest.raises(ValueError, match="at most 170"):
        SuiteConfig(cutoff=171, radial=86, angular=172)
    with pytest.raises(ValueError, match="does not cover monomial degree 100"):
        SuiteConfig(cutoff=100)


def test_smallest_cuts_run():
    cfg = SuiteConfig(cutoff=2, ncut=8)
    for name in ("coherent", "landau", "wigner"):
        assert run_suite(name, cfg)[0].checks


def test_nan_inside_a_check_makes_it_fail(monkeypatch):
    # the KMS function goes NaN at t = 1, the fourth of five points of
    # closed_form_pair and inside the grid of boundary_condition, whose
    # deviation is itself a fold in modular_core; neither fold may keep
    # the finite values around the NaN, and the check without t = 1 keeps
    # its value
    import math

    from landau_modular import coherent_states as cs
    from landau_modular import modular_core as mc
    from landau_modular import suites

    clean = {c.name: c for c in run_suite("kms", SuiteConfig())[0].checks}
    kms = mc.kms_function
    monkeypatch.setattr(mc, "kms_function", lambda w, a, b, z: (
        complex("nan") if z.real == 1.0 else kms(w, a, b, z)))
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
    # the fifth inner product, in the third of the ten samples that
    # j_antiunitary passes to check, goes NaN: the builtin max would keep
    # the first sample and pass
    clean = {c.name: c for c in run_suite("modular", SuiteConfig())[0].checks}
    calls = []
    inner = suites.hs_inner

    def nan_on_fifth(x, y):
        calls.append(None)
        return complex("nan") if len(calls) == 5 else inner(x, y)

    monkeypatch.setattr(suites, "hs_inner", nan_on_fifth)
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
        "    main(['verify', 'all', '--seed', '42'])\n"
        "    main(['verify', 'modular', '--dim', '32'])\n"
        "    main(['export', 'quad_rule'])\n"
        "    main(['export', 'delta_spectrum'])\n"
        "lm.hamiltonians(lm.ModeCut(24))\n"
        "lm.fock_psi(lm.ModeCut(24), 2, 1)\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_modular_and_kms_runs_load_only_their_layers():
    # a fresh process, since the tests import every layer into this one;
    # the landau suite is the control that the probe sees a lazy import
    code = (
        "import contextlib, io, sys\n"
        "import landau_modular.cli\n"
        "lazy = ('complex_hermite', 'landau_modes', 'coherent_states')\n"
        "def loaded():\n"
        "    return [m for m in lazy if 'landau_modular.' + m in sys.modules]\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert landau_modular.cli.main(['verify', 'modular']) == 0\n"
        "    assert landau_modular.cli.main(['verify', 'kms']) == 0\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    landau_modular.cli.main(['verify', 'landau'])\n"
        "print(loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "[]", "[]", "['complex_hermite', 'landau_modes']"]


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
    assert len(out.read_text().strip().splitlines()) == 13


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
