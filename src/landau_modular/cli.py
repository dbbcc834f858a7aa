"""Command-line harness: `verify <suite>` runs a verification suite and
writes a deterministic JSON report; `export <what>` writes plot-ready
tables.  Exit status: 0 all checks passed, 1 at least one check failed,
2 usage or configuration error, or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from . import cgauss_quad as quad
from . import modular_core as mc
from .hs_space import matrix_unit
from .suites import SUITE_NAMES, SuiteConfig, check_flags, report_to_json, run_suite

EXPORT_NAMES = ("hermite_coeffs", "quad_rule", "delta_spectrum", "wigner_grid")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    for f in fields(SuiteConfig):
        p.add_argument(f"--{f.name}", type=type(f.default), default=f.default,
                       help=f.metadata["help"])
    p.add_argument("--out", default=None, help="output file path")


def _config_from_args(args) -> SuiteConfig:
    return SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    start = time.monotonic()
    reports = run_suite(args.suite, cfg)
    elapsed_ms = 1000.0 * (time.monotonic() - start)

    for report in reports:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{report.suite}] {status} {c.name}: "
                  f"max_error={c.max_error:.3e} bound={c.bound:.3e}",
                  file=sys.stderr)
        for e in report.errata:
            print(f"[{report.suite}] ERRATUM {e['name']}: {e['witness']}",
                  file=sys.stderr)

    bodies = [report_to_json(r) for r in reports]
    if len(bodies) == 1:
        text = bodies[0]
    else:
        inner = ",\n".join(b.rstrip("\n") for b in bodies)
        text = "[\n" + inner + "\n]\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    n_fail = sum(1 for r in reports for c in r.checks if not c.passed)
    print(f"{sum(len(r.checks) for r in reports)} checks, {n_fail} failed "
          f"({elapsed_ms:.0f} ms)", file=sys.stderr)
    return 0 if n_fail == 0 else 1


def _export_hermite_coeffs(args, out) -> None:
    from . import complex_hermite as chp

    deg = args.cutoff
    if deg < 0:
        raise ValueError(f"cutoff (--cutoff) must be at least 0, got {deg}")
    if deg > quad.MAX_CUTOFF:
        raise ValueError(f"cutoff (--cutoff) must be at most {quad.MAX_CUTOFF}, "
                         f"got {deg}")
    writer = csv.writer(out)
    writer.writerow(["n", "k", "m", "j", "re", "im"])
    for n in range(deg + 1):
        for k in range(deg + 1):
            p = chp.ch_rodrigues(n, k)
            for (m, j), c in p.coeffs:
                writer.writerow([n, k, m, j, str(c.re), str(c.im)])


def _export_quad_rule(args, out) -> None:
    quad.export_rule_csv(quad.build_rule(args.radial, args.angular), out)


def _export_delta_spectrum(args, out) -> None:
    check_flags({"beta": args.beta, "dim": args.dim})
    w = mc.build_weights(args.beta, args.dim)
    writer = csv.writer(out)
    writer.writerow(["i", "j", "eigenvalue"])
    for i in range(args.dim):
        for j in range(args.dim):
            writer.writerow([i, j, f"{w.alpha[i] / w.alpha[j]:.17g}"])


def _export_wigner_grid(args, out) -> None:
    from . import landau_modes as lm

    check_flags({"ncut": args.ncut})
    grid = np.linspace(-2.0, 2.0, 5)
    x00 = matrix_unit(1, 0, 0)
    writer = csv.writer(out)
    writer.writerow(["x", "y", "re", "im"])
    for x in grid:
        for y in grid:
            v = lm.wigner_sample(x00, float(x), float(y), args.ncut)
            writer.writerow([f"{x:.17g}", f"{y:.17g}",
                             f"{v.real:.17g}", f"{v.imag:.17g}"])


_EXPORTS = {
    "hermite_coeffs": _export_hermite_coeffs,
    "quad_rule": _export_quad_rule,
    "delta_spectrum": _export_delta_spectrum,
    "wigner_grid": _export_wigner_grid,
}


def _cmd_export(args) -> int:
    # the whole table is written to memory first, so an export that is
    # rejected part-way leaves no file and prints nothing
    buf = io.StringIO(newline="")
    _EXPORTS[args.what](args, buf)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landau-modular",
        description="Verification suites for the finite-truncation modular "
                    "structure and its Landau-level realization.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    _add_config_args(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_export = sub.add_parser("export", help="write a data table")
    p_export.add_argument("what", choices=EXPORT_NAMES)
    _add_config_args(p_export)
    p_export.set_defaults(fn=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
