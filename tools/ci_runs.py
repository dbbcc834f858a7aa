"""Every CLI run that CI makes, one row each, and the one runner that checks them:
`python -W error tools/ci_runs.py`.  A row runs `python -W error -m landau_modular
<arguments>` with PYTHONPATH=src, writing to a scratch file where it ends in
--out; a `verify` row runs at --seed 42 unless it gives one (an export takes no
--seed).  Its exit code and its report's failing checks (suite/check) are
checked, then the assertions between rows; a failure names its row.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
from landau_modular import __version__  # noqa: E402
from landau_modular.cli import _EXPORTS as EXPORTS  # noqa: E402
from landau_modular.suites import SUITE_NAMES  # noqa: E402

LANDAU = "landau/fock_eigenvalues landau/fock_orthonormality"
WIGNER = "wigner/closed_form_literal"
DEFAULT_REDS = f"{LANDAU} {WIGNER}"
J, SPECTRAL = "modular/j_antiunitary", "coherent/modular_spectral"
ORTHONORMALITY = "quadrature/basis_orthonormality"
ONE, BOTH = (1,), (1, 2)  # BLAS threads; BOTH must write the same bytes (criterion 13)
# a row that starts with this runs the console script's target, __main__.main
MAIN = "main()"
MAIN_CODE = "import sys; from landau_modular.__main__ import main; sys.exit(main())"

# (arguments, BLAS threads, exit code, failing checks; None for no report,
# and an exit 2 must write nothing)
ROWS = [
    # each suite alone, in the order of SUITE_NAMES: tier-1 imports every
    # layer into one process, so only these runs show a lazily imported name missing
    ("verify modular", ONE, 0, ""),
    ("verify kms", ONE, 0, ""),
    ("verify landau", ONE, 1, LANDAU),
    ("verify hermite", ONE, 0, ""),
    ("verify quadrature", ONE, 0, ""),
    ("verify coherent", ONE, 0, ""),
    ("verify wigner", ONE, 1, WIGNER),
    ("verify all", ONE, 1, DEFAULT_REDS),
    (f"{MAIN} verify all", ONE, 1, DEFAULT_REDS),
    # no default red reads the seeded operators
    ("verify all --seed 7", ONE, 1, DEFAULT_REDS),
    # reach.  From dim 512 rounding outgrows j_antiunitary's absolute bound,
    # and at beta 1e-9 the generator reads the weights' rounding times 1 / beta
    ("verify modular --dim 256", ONE, 0, ""),
    ("verify modular --dim 512", BOTH, 1, J),
    ("verify modular --dim 1024 --beta 0.3", ONE, 1, J),
    ("verify modular --beta 1e-9", ONE, 1, "modular/generator_eigenvalues"),
    # centralizer_predicate's absolute tolerance 1e-10 on [B, rho]_ij =
    # b_ij (alpha_j - alpha_i), about b_ij beta (i - j) / 8 on its 8 levels:
    # green at beta 2e-10, red from 1e-10 on (seeds 42 and 7)
    ("verify modular --beta 2e-10", ONE, 1, "modular/generator_eigenvalues"),
    ("verify modular --beta 1e-10", ONE, 1,
     "modular/generator_eigenvalues modular/centralizer_predicate"),
    ("verify kms --beta 1e-9", ONE, 0, ""),
    ("verify kms --dim 512", BOTH, 0, ""),
    # the largest rules the quadrature accepts, where ring_angle_sum's BLAS
    # product is largest
    ("verify quadrature --radial 194 --angular 75", BOTH, 0, ""),
    ("verify quadrature --radial 86 --angular 171", BOTH, 0, ""),
    ("verify wigner --ncut 128", ONE, 1, WIGNER),
    ("verify wigner --ncut 256", ONE, 1, WIGNER),
    ("verify wigner --ncut 512", BOTH, 1, WIGNER),
    ("verify coherent --cutoff 16 --radial 48 --angular 96", ONE, 1, SPECTRAL),
    ("verify coherent --cutoff 64 --radial 48 --angular 96", ONE, 1, SPECTRAL),
    ("verify coherent --cutoff 170 --radial 86 --angular 171", BOTH, 1, SPECTRAL),
    # modular_spectral's absolute error reads the rounding of e^(beta cutoff):
    # at beta 4 it reads 1.42e-14 at cutoff 2 and 2.91e-11 at cutoff 4.  Not
    # cutoff 5: its 4.55e-13 is green only by how e^20 rounds
    ("verify coherent --beta 4 --cutoff 2", BOTH, 0, ""),
    ("verify coherent --beta 4 --cutoff 4", BOTH, 1, SPECTRAL),
    # the smallest accepted cut, where the banded rows sit closest to its edge;
    # the corrected phase-space form misses its bound up to cut 14
    ("verify landau --ncut 8", ONE, 1, LANDAU),
    ("verify wigner --ncut 8", ONE, 1, f"{WIGNER} wigner/closed_form_corrected"),
    ("verify wigner --ncut 14", ONE, 1, f"{WIGNER} wigner/closed_form_corrected"),
    ("verify wigner --ncut 15", ONE, 1, WIGNER),
    # the quadrature edge: basis_orthonormality reads indices <= 12, so it
    # needs a rule exact to degree 24, radial >= 13 and angular >= 25;
    # moment_exactness checks only the moments the rule covers (59 of 169 at
    # --angular 3, 20 at --radial 2 --angular 3)
    ("verify quadrature --radial 12", ONE, 1, ORTHONORMALITY),
    ("verify quadrature --radial 13", ONE, 0, ""),
    ("verify quadrature --angular 24", ONE, 1, ORTHONORMALITY),
    ("verify quadrature --angular 25", ONE, 0, ""),
    ("verify quadrature --angular 3", ONE, 1, ORTHONORMALITY),
    ("verify quadrature --radial 2 --angular 3", ONE, 1, ORTHONORMALITY),
    # a run applies the whole-configuration rules of its own suites only:
    # 7 beta and beta cutoff (modular, coherent) do not hold kms, nor the
    # rule's underflow and coverage (quadrature, coherent) the modular,
    # landau and wigner suites, nor beta (dim - 1) (modular, kms) the wigner
    # suite.  `all` applies every suite's, before its first suite runs
    ("verify kms --dim 3 --beta 354", ONE, 0, ""),
    ("verify kms --dim 2 --beta 200 --cutoff 2", ONE, 0, ""),
    ("verify coherent --dim 2 --beta 200 --cutoff 2", ONE, 0, ""),
    ("verify modular --radial 194 --angular 80", ONE, 0, ""),
    ("verify wigner --dim 1016", ONE, 1, WIGNER),
    ("verify landau --cutoff 100", ONE, 1, LANDAU),
    ("verify all --dim 2 --beta 200 --cutoff 2", ONE, 2, None),
    ("verify modular --dim 2 --beta 200 --cutoff 2", ONE, 2, None),
    ("verify all --cutoff 100", ONE, 2, None),
    # argparse's own exits, which run after main's deferred import of cli
    ("--version", ONE, 0, None),
    ("", ONE, 2, None),
    *[(f"export {what}{out}", ONE, 0, None) for what in EXPORTS for out in ("", " --out")],
    # the explicit sum far past the suite's 13 x 13 block: 348,552 lines
    ("export hermite_coeffs --cutoff 100", ONE, 0, None),
    # an export takes only the flags it reads: verify's default --dim is
    # not a value out of range but an option the table does not have
    ("export wigner_grid --dim 16", ONE, 2, None),
]


def run(args: str, threads: int, out: Path) -> tuple:
    """Run a row: its exit code, its output (out if it ends in --out, else stdout), stderr."""
    argv, entry = args.split(), ["-m", "landau_modular"]
    if argv[:1] == [MAIN]:
        argv, entry = argv[1:], ["-c", MAIN_CODE]
    if args.endswith("--out"):
        argv.append(str(out))
    if argv[:1] == ["verify"] and "--seed" not in argv:
        argv += ["--seed", "42"]
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS=str(threads),
               OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, "-W", "error", *entry, *argv],
                          env=env, capture_output=True)
    output = out.read_bytes() if args.endswith("--out") else proc.stdout
    return proc.returncode, output, proc.stderr.decode()


def reds(report: bytes) -> dict:
    """suite/check -> max_error of each failing check of a report or of `verify all`'s list."""
    doc = json.loads(report)
    return {f"{r['suite']}/{c['name']}": c["max_error"]
            for r in (doc if isinstance(doc, list) else [doc])
            for c in r["checks"] if not c["pass"]}


def across(out: dict):
    """(what, whether it holds) of each assertion between rows; out[args] is a row's output."""
    alone = [a[7:] for a in out if a.startswith("verify ") and " " not in a[7:]]
    yield "the rows of one suite are SUITE_NAMES, in its order", \
        [s for s in alone if s != "all"] == list(SUITE_NAMES)
    every = out["verify all"]
    joined = b",\n".join(out.get(f"verify {s}", b"").rstrip(b"\n") for s in SUITE_NAMES)
    yield "`verify all` is its suites alone, joined", every == b"[\n" + joined + b"\n]\n"
    yield f"`{MAIN} verify all` is `verify all`", out[f"{MAIN} verify all"] == every
    yield "seed 7 reds are seed 42's", reds(out["verify all --seed 7"]) == reds(every)
    for export in (f"export {what}" for what in EXPORTS):
        yield f"`{export}` is its --out file", out[export] == out[f"{export} --out"]
    yield "`export hermite_coeffs --cutoff 100` has its SHA-256", (
        hashlib.sha256(out["export hermite_coeffs --cutoff 100"]).hexdigest()
        == "c86e9dd5b44542dfc43b041b1f196a07a857e4ee539a780fb9fcb70b289bfefe")
    yield "`--version` prints __version__", out["--version"] == f"{__version__}\n".encode()


def main() -> int:
    out, failures = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        for args, threads, code, failing in ROWS:
            for n in threads:
                row = f"`{args}` on {n} BLAS thread(s)"
                print("==", row, flush=True)
                got, output, stderr = run(args, n, Path(scratch, "out"))
                if got != code:
                    failures.append(f"{row} exited {got}, expected {code}\n{stderr[-2000:]}")
                elif code == 2 and output:
                    failures.append(f"{row} exited 2 but wrote {len(output)} bytes")
                elif failing is not None and set(reds(output)) != set(failing.split()):
                    failures.append(f"{row} fails {sorted(reds(output))}, not {failing!r}")
                elif out.setdefault(args, output) != output:
                    failures.append(f"{row} differs from its run on {threads[0]} thread")
    # the assertions between rows read the outputs of rows that held
    failures = failures or [what for what, holds in across(out) if not holds]
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
