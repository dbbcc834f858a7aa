"""Benchmark of the landau-modular verification harness.

Run from the repository root:

    python3 perfbench/run.py --workload cli_default --seed 42 --seconds 30 --trace 0

Each workload is a closed loop with one client and one operation at a time.
Every operation is a fresh process (``python -m landau_modular ...`` or the
library-level Fock driver), because a CLI user pays interpreter start-up,
imports and cold caches on every run.  A pass runs a workload's operations
once; passes repeat while another fits in ``--seconds`` (at least MIN_PASSES).

With ``--trace 0`` the end-to-end metrics are reported (medians over the
passes; the set-up time is sampled after every pass); with ``--trace 1``
rounds of one untraced and one traced pass repeat, and the per-layer metrics
come from spans that perfbench/tracer.py puts around the public functions of
each library module.  Every operation is checked: exit code, the exact set
of failing checks, none of them worse than its recorded error, and
byte-identical reports across the passes of one run, traced or not.

The last line of stdout is the result object; the line before it is a
record of the environment and of every pass.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, PACKAGE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Import probes after each untraced pass, so the set-up samples spread over
# the run as the passes do.
SETUP_PER_PASS = 4
# Passes (with --trace 1: rounds of an untraced and a traced pass) per run.
MIN_PASSES = 3
# No round starts that would, at the last round's length, end later than
# this after the start of the run, whatever MIN_PASSES asks.
LIMIT_S = 150.0
# One BLAS thread for every operation.  With two on a 2-CPU machine, the Fock
# driver took 58 s instead of 3 s while another process held one CPU.
BLAS_THREADS = 1


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` "cli" runs ``python -m landau_modular ARGS
    --seed SEED``, "fock" runs perfbench/fock_driver.py.  ``expected_red``
    maps each failing check (suite/check) the operation must report, and no
    other, to the max_error it reports at the seed commit."""

    kind: str
    args: tuple = ()
    expected_red: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.args) if self.kind == "cli" else "fock_driver"


# Workloads, and why each was chosen:
# - cli_default: the everyday `verify all`; complex_hermite dominates and every
#   other layer is touched lightly.
# - modular_reach: the N^2 x N^2 superoperators of hs_space/modular_core at
#   dim 32 and 40; Hermite, quadrature and Landau layers do no work.
# - landau_reach: Landau modes, dense eigensolves, quadrature and coherent
#   states at sizes where they dominate; the modular layer does nothing.
WORKLOADS = {
    "cli_default": (
        Op("cli", ("verify", "all"),
           {"landau/fock_eigenvalues": 0.831514,
            "landau/fock_orthonormality": 0.000416064,
            "wigner/closed_form_literal": 0.797885}),
    ),
    "modular_reach": (
        Op("cli", ("verify", "modular", "--dim", "32")),
        Op("cli", ("verify", "modular", "--dim", "40")),
    ),
    "landau_reach": (
        Op("cli", ("verify", "wigner", "--ncut", "128"),
           {"wigner/closed_form_literal": 0.797885}),
        # coherent/modular_spectral is red at --cutoff >= 12: see README.md
        Op("cli", ("verify", "coherent", "--cutoff", "16", "--radial", "48",
                   "--angular", "96"),
           {"coherent/modular_spectral": 2.18279e-11}),
        Op("fock"),
    ),
}
# The Fock driver's worst eigen-residual at the seed commit.
FOCK_WORST_RESIDUAL = 0.0576882
# A recorded error may rise by this share before the operation fails; an
# improvement always passes.  Every recorded value is seed-independent.
ERROR_SLACK = 1e-3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}

# Functions whose call counts are reported; each is expected to move wall_s
# (and peak_rss_mb for the superoperator builders) on the workloads named in
# perfbench/README.md.  Every wrapped function appears in the record line.
COUNTED = (
    "complex_hermite.ch_recursion", "complex_hermite.ch_rodrigues",
    "complex_hermite.ch_explicit", "complex_hermite.generating_check",
    "complex_hermite.H_basis",
    "cgauss_quad.integrate_values", "cgauss_quad.build_rule",
    "coherent_states.resolution_check", "coherent_states.partial_isometry",
    "dense_linalg.hermitian_eig",
    "landau_modes.displacement", "landau_modes.wigner_sample",
    "landau_modes.hamiltonians", "landau_modes.ground_state",
    "landau_modes.fock_psi", "landau_modes.build_A_pm",
    "hs_space.sandwich_superop", "hs_space.transpose_permutation",
    "hs_space.conjugation_J", "hs_space.commutant_basis",
    "modular_core.build_modular_triple", "modular_core.flow_superop",
    "rng.SplitMix64.complex_matrix",
    "suites.modular", "suites.kms", "suites.landau", "suites.hermite",
    "suites.quadrature", "suites.coherent", "suites.wigner",
    "suites.report_to_json",
)
SIZED = ("hs_space.sandwich_superop", "hs_space.transpose_permutation",
         "hs_space.conjugation_J", "modular_core.build_modular_triple",
         "modular_core.flow_superop")


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.import_s"] = "s"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in SIZED:
        units[f"{name}.out_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def spawn(cmd: list, out_path: Path, env: dict) -> tuple[int, float, float]:
    """Run one process to its exit: its exit code, its own peak RSS in MB
    and its CPU time (user + system) in seconds.

    os.wait4 gives the child's own peak; RUSAGE_CHILDREN would report the
    largest peak of every child reaped so far.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def command(op: Op, seed: int, spans: Path | None = None) -> list:
    tail = [*op.args, "--seed", str(seed)] if op.kind == "cli" else []
    if spans is not None:
        return [sys.executable, str(HERE / "tracer.py"), str(spans), op.kind, *tail]
    if op.kind == "cli":
        return [sys.executable, "-m", PACKAGE, *tail]
    return [sys.executable, str(HERE / "fock_driver.py"), *tail]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def failing_checks(stdout: bytes) -> dict:
    """suite/check -> max_error of every failing check in a report."""
    doc = json.loads(stdout)
    reports = doc if isinstance(doc, list) else [doc]
    return {f"{r['suite']}/{c['name']}": c["max_error"]
            for r in reports for c in r["checks"] if not c["pass"]}


def worse(error: float, recorded: float) -> bool:
    """True if error rose above the recorded value (or is not a number)."""
    return not error <= recorded * (1 + ERROR_SLACK)


def gate(op: Op, code: int, stdout: bytes, reference: bytes | None) -> str | None:
    """Why an operation failed, or None if it did what it must."""
    expected_code = 1 if op.expected_red else 0
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    try:
        if op.kind == "fock":
            residual = json.loads(stdout)["worst_residual"]
            if worse(residual, FOCK_WORST_RESIDUAL):
                return f"worst residual {residual}, recorded {FOCK_WORST_RESIDUAL}"
        else:
            red = failing_checks(stdout)
            if red.keys() != op.expected_red.keys():
                return f"failing checks {sorted(red)}, expected {sorted(op.expected_red)}"
            risen = {n: e for n, e in red.items() if worse(e, op.expected_red[n])}
            if risen:
                return f"max_error above the recorded value: {risen}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}"
    if reference is not None and stdout != reference:
        return "report differs from the first report at this seed"
    return None


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    traced: bool
    wall_s: float
    peak_rss_mb: float
    ops: list
    failures: list
    functions: dict = field(default_factory=dict)  # name -> [calls, self_s, out_bytes]
    imports: dict = field(default_factory=dict)    # module -> seconds


def run_pass(ops, seed: int, env: dict, workdir: Path, refs: dict,
             traced: bool = False) -> Pass:
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        spans = workdir / f"op{i}.spans.json" if traced else None
        t0 = time.perf_counter()
        code, rss, cpu = spawn(command(op, seed, spans), workdir / f"op{i}.out", env)
        results.append((op, code, rss, cpu, time.perf_counter() - t0))
    wall = time.perf_counter() - start

    p = Pass(traced=traced, wall_s=wall, peak_rss_mb=max(r[2] for r in results),
             ops=[], failures=[])
    for i, (op, code, rss, cpu, op_wall) in enumerate(results):
        stdout = (workdir / f"op{i}.out").read_bytes()
        why = gate(op, code, stdout, refs.get(i))
        refs.setdefault(i, stdout)
        p.ops.append({"op": op.label, "exit": code, "wall_s": op_wall, "cpu_s": cpu,
                      "rss_mb": rss})
        if op.kind == "fock" and why is None:
            p.ops[-1]["report"] = json.loads(stdout)
        if traced:
            try:
                spans = json.loads((workdir / f"op{i}.spans.json").read_text())
            except (OSError, ValueError) as exc:
                spans = {"imports": {}, "functions": {}}
                why = why or f"no span file: {exc!r}"
            for mod, secs in spans["imports"].items():
                p.imports[mod] = p.imports.get(mod, 0.0) + secs
            for name, s in spans["functions"].items():
                acc = p.functions.setdefault(name, [0, 0.0, 0])
                acc[0] += s["calls"]
                acc[1] += s["self_s"]
                acc[2] += s["out_bytes"]
        if why is not None:
            p.failures.append({"op": op.label, "why": why})
    return p


def measure_setup(env: dict, workdir: Path) -> list:
    """Wall time of SETUP_PER_PASS fresh interpreters importing the CLI
    module, which pulls in every layer."""
    samples = []
    for _ in range(SETUP_PER_PASS):
        t0 = time.perf_counter()
        code, _, _ = spawn([sys.executable, "-c", f"import {PACKAGE}.cli"],
                        workdir / "setup.out", env)
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"importing {PACKAGE}.cli failed with exit code {code}")
    return samples


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

_PROBE = """
import json, platform, numpy, scipy
import landau_modular.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""


def environment(env: dict) -> dict:
    """Interpreter and library versions, BLAS threads, nproc, the commit.

    Running the probe also compiles the library's bytecode, so the timed
    imports that follow measure a warm start as a user's second run would.
    """
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import the library:\n{probe.stderr}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info.update(blas_threads=BLAS_THREADS, nproc=len(os.sched_getaffinity(0)),
                machine=platform.machine(), commit=commit,
                source_sha256=digest.hexdigest())
    return info


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(traced: list, name: str, field_index: int) -> float:
    """Median over traced passes of one field of a function's totals:
    0 calls, 1 self seconds, 2 output bytes."""
    return statistics.median(p.functions.get(name, (0, 0.0, 0))[field_index]
                             for p in traced)


def overheads(passes: list) -> list:
    """Traced minus untraced wall time of each round."""
    return [t.wall_s - u.wall_s for u, t in zip(passes[::2], passes[1::2])]


def layer_metrics(passes: list) -> dict:
    traced = [p for p in passes if p.traced]
    med = statistics.median
    values = {}
    for layer in LAYERS:
        values[f"{layer}.import_s"] = med(p.imports.get(layer, 0.0) for p in traced)
        values[f"{layer}.busy_s"] = med(
            p.imports.get(layer, 0.0)
            + sum(s[1] for n, s in p.functions.items() if n.startswith(layer + "."))
            for p in traced)
    for name in COUNTED:
        values[f"{name}.calls"] = _median(traced, name, 0)
    for name in SIZED:
        values[f"{name}.out_mb"] = _median(traced, name, 2) / 2**20
    values["trace.overhead_s"] = med(overheads(passes))
    return values


def function_table(traced: list) -> dict:
    names = sorted({n for p in traced for n in p.functions})
    return {n: {"calls": _median(traced, n, 0), "self_s": _median(traced, n, 1),
                "out_mb": _median(traced, n, 2) / 2**20}
            for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="passed to every operation as --seed, modulo 2^64")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the CLI takes nonnegative seeds and SplitMix64 keeps only the low 64 bits
    seed = args.seed % (1 << 64)
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"perfbench: no {PACKAGE} source tree at {SRC.relative_to(ROOT)}/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so spawn() kills the running child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ops = WORKLOADS[args.workload]
    env = child_env()
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    refs: dict = {}
    passes: list = []
    setup: list = []
    try:
        env_info = environment(env)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(ops, seed, env, workdir, refs))
            if args.trace:
                passes.append(run_pass(ops, seed, env, workdir, refs, traced=True))
            else:
                setup += measure_setup(env, workdir)
            now = time.perf_counter()
            rounds = len(passes) // 2 if args.trace else len(passes)
            # stop when another round like the last would overrun --seconds
            # (once there are MIN_PASSES rounds) or LIMIT_S
            ahead = now + (now - t0) - start
            if (rounds >= MIN_PASSES and ahead > args.seconds) or ahead > LIMIT_S:
                break
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    if args.trace:
        values = layer_metrics(passes)
        units = per_layer_units()
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in untraced),
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_info, "setup_s_samples": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "peak_rss_mb": p.peak_rss_mb, "ops": p.ops, "failures": p.failures}
                   for p in passes],
    }
    if args.trace:
        record["trace_overhead_s_samples"] = overheads(passes)
        record["functions"] = function_table(traced)
    for p in passes:
        for f in p.failures:
            print(f"perfbench: FAILED {f['op']}: {f['why']}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} operations failed", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
