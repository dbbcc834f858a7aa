"""Tests of the benchmark itself: tracer completeness and neutrality, the
per-operation correctness gate, per-process peak RSS, and the metric list.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

ENV = run.child_env()
ENV["PYTHONPATH"] = os.pathsep.join((str(run.SRC), str(HERE)))

# Names that modules copy with `from ... import`: (importing module, name,
# defining module).  A wrapper that only replaced the defining module's
# attribute would miss every call made through these.
FROM_IMPORTS = (
    ("suites", "commutant_basis", "hs_space"),
    ("suites", "sandwich_superop", "hs_space"),
    ("coherent_states", "integrate_values", "cgauss_quad"),
    ("coherent_states", "covers_degree", "cgauss_quad"),
    ("coherent_states", "ladder", "landau_modes"),
    ("landau_modes", "hermitian_function", "dense_linalg"),
    ("modular_core", "sandwich_superop", "hs_space"),
    ("modular_core", "transpose_permutation", "hs_space"),
    ("modular_core", "conjugation_J", "hs_space"),
)
SMALL = ("verify", "all", "--dim", "4", "--ncut", "16", "--cutoff", "6",
         "--radial", "8", "--angular", "16", "--seed", "5")


def _python(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=run.ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_tracer_rebinds_names_copied_by_from_import():
    code = f"""
import json, sys, tracer
t = tracer.Tracer()
t.import_layers(tracer.IMPORTS["cli"])
t.install()
mods = {{m: sys.modules["landau_modular." + m] for m in tracer.LAYERS}}
bad = [f"{{user}}.{{name}}" for user, name, owner in {FROM_IMPORTS!r}
       if not (getattr(mods[user], name) is getattr(mods[owner], name)
               and hasattr(getattr(mods[owner], name), "__wrapped__"))]
cli = sys.modules["landau_modular.cli"]
if not hasattr(cli.run_suite, "__wrapped__"):
    bad.append("cli.run_suite")
print(json.dumps(sorted(bad)))
"""
    assert json.loads(_python(code)) == []


def test_polynomial_arithmetic_is_not_wrapped():
    code = """
import json, tracer
from fractions import Fraction
t = tracer.Tracer()
t.import_layers(tracer.IMPORTS["cli"])
t.install()
from landau_modular import complex_hermite as ch
names = set(t.stats)
print(json.dumps({
    "helpers": sorted(n for n in names if n.split(".")[-1] in
                      tracer.NOT_WRAPPED["complex_hermite"]),
    "methods": [hasattr(f, "__wrapped__") for f in
                (ch.QC.__add__, ch.QC.__mul__, ch.BivarPoly.__add__,
                 ch.BivarPoly.scale, Fraction.__add__)],
    "hermite": "complex_hermite.ch_recursion" in names,
}))
"""
    got = json.loads(_python(code))
    assert got == {"helpers": [], "methods": [False] * 5, "hermite": True}


def test_traced_run_counts_every_route_and_keeps_reports_identical(tmp_path):
    plain = subprocess.run([sys.executable, "-m", run.PACKAGE, *SMALL], env=ENV,
                           cwd=run.ROOT, capture_output=True, timeout=300)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans),
                             "cli", *SMALL], env=ENV, cwd=run.ROOT,
                            capture_output=True, timeout=300)
    assert plain.returncode == traced.returncode
    assert plain.stdout and plain.stdout == traced.stdout

    functions = json.loads(spans.read_text())["functions"]
    callees = {f"{owner}.{name}" for _, name, owner in FROM_IMPORTS}
    silent = sorted(n for n in callees if functions[n]["calls"] == 0)
    assert silent == []
    for name in functions:
        assert functions[name]["self_s"] <= functions[name]["total_s"] + 1e-9


def test_fock_driver_traced_matches_untraced(tmp_path):
    plain = subprocess.run([sys.executable, str(HERE / "fock_driver.py")],
                           env=ENV, cwd=run.ROOT, capture_output=True, timeout=300)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans),
                             "fock"], env=ENV, cwd=run.ROOT,
                            capture_output=True, timeout=300)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    assert run.gate(run.Op("fock"), plain.returncode, plain.stdout, None) is None
    functions = json.loads(spans.read_text())["functions"]
    import fock_driver
    assert functions["landau_modes.fock_psi"]["calls"] == fock_driver.LABELS ** 2


def _report(red: dict) -> bytes:
    checks = [{"name": n, "max_error": red.get(f"s/{n}", 0.0), "pass": f"s/{n}" not in red}
              for n in "ab"]
    return json.dumps([{"suite": "s", "checks": checks}]).encode()


def test_gate_accepts_only_the_expected_red_set():
    op = run.Op("cli", ("verify", "all"), {"s/a": 0.5})
    good = _report({"s/a": 0.5})
    assert run.gate(op, 1, good, None) is None
    assert run.gate(op, 1, good, good) is None
    assert "failing checks" in run.gate(op, 1, _report({"s/a": 0.5, "s/b": 1.0}), None)
    assert "failing checks" in run.gate(op, 1, _report({}), None)
    assert "exit code" in run.gate(op, 0, good, None)
    assert "exit code" in run.gate(op, -9, b"", None)
    assert "unreadable" in run.gate(op, 1, b"{", None)
    assert "differs" in run.gate(op, 1, good, good + b" ")


def test_gate_rejects_an_expected_red_that_got_worse():
    op = run.Op("cli", ("verify", "all"), {"s/a": 0.5})
    assert run.gate(op, 1, _report({"s/a": 0.25}), None) is None
    assert run.gate(op, 1, _report({"s/a": 0.5 * (1 + run.ERROR_SLACK / 2)}), None) is None
    assert "above the recorded" in run.gate(op, 1, _report({"s/a": 0.51}), None)
    nan = b'[{"suite": "s", "checks": [{"name": "a", "max_error": NaN, "pass": false}]}]'
    assert "above the recorded" in run.gate(op, 1, nan, None)


def test_gate_rejects_a_worse_or_non_finite_fock_residual():
    op = run.Op("fock")
    recorded = run.FOCK_WORST_RESIDUAL
    assert run.gate(op, 0, json.dumps({"worst_residual": recorded}).encode(), None) is None
    assert run.gate(op, 0, b'{"worst_residual": 1e-9}', None) is None
    assert "worst residual" in run.gate(
        op, 0, json.dumps({"worst_residual": recorded * 1.01}).encode(), None)
    assert "worst residual" in run.gate(op, 0, b'{"worst_residual": NaN}', None)
    assert "exit code" in run.gate(op, 1, b"", None)


def test_landau_reach_cli_ops_pass_the_gate_at_two_seeds():
    for seed in (3, 99):
        for op in run.WORKLOADS["landau_reach"][:2]:
            out = subprocess.run(run.command(op, seed), env=ENV, cwd=run.ROOT,
                                 capture_output=True, timeout=300)
            assert run.gate(op, out.returncode, out.stdout, None) is None


def test_peak_rss_is_per_process(tmp_path):
    big = [sys.executable, "-c", "b = bytearray(200 * 2**20); b[::4096] = b'x' * len(b[::4096])"]
    small = [sys.executable, "-c", "pass"]
    _, big_mb, _ = run.spawn(big, tmp_path / "big.out", ENV)
    _, small_mb, _ = run.spawn(small, tmp_path / "small.out", ENV)
    assert big_mb > 200
    assert small_mb < 100


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert len(bench["per_layer"]) <= 128


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_default",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
