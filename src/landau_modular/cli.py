"""Command-line harness: `verify <suite>` runs a verification suite and
writes a deterministic JSON report; `export <what>` writes plot-ready
tables.  Exit status: 0 all checks passed, 1 at least one check failed,
2 usage or configuration error, a run whose arrays cannot be allocated,
or an output file that cannot be written.

`verify` takes every flag of suites.FLAGS, since each report echoes the
whole configuration; each export table takes only the flags it reads,
plus --out, and any other flag is a usage error, reported with the usage
of the table or of `verify`.

An export streams its CSV rows to `--out` or stdout as it computes them,
so no table is held in memory: `export hermite_coeffs` peaks at about
30 MB RSS at every cutoff from 12 to 170.  On one BLAS thread of a 2-vCPU
x86 machine it takes about 1.4 s at cutoff 100 (348,552 lines) and 10 s
at cutoff 170 (1,681,387 lines, 201 MB).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

import numpy as np

from . import __version__
from . import cgauss_quad as quad
from .hs_space import matrix_unit
from .suites import FLAGS, SUITE_NAMES, SuiteConfig, check_flags, report_to_json, run_suite


def _add_config_args(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        default, text = FLAGS[name]
        p.add_argument(f"--{name}", type=type(default), default=default, help=text)
    p.add_argument("--out", default=None, help="output file path")


def _config_from_args(args) -> SuiteConfig:
    return SuiteConfig(**{name: getattr(args, name) for name in FLAGS})


def _output(path):
    """The file at path, opened for writing, or stdout when no path is given."""
    if path:
        return open(path, "w", newline="", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    start = time.monotonic()
    reports = run_suite(args.suite, cfg)
    elapsed_ms = 1000.0 * (time.monotonic() - start)

    for report in reports:
        # a failing check that an erratum names is red because of the misprint
        witnesses = {e["witness"] for e in report.errata}
        for c in report.checks:
            status = ("PASS" if c.passed
                      else "FAIL (erratum)" if c.name in witnesses else "FAIL")
            print(f"[{report.suite}] {status} {c.name}: "
                  f"max_error={c.max_error:.3e} bound={c.bound:.3e}",
                  file=sys.stderr)
        for e in report.errata:
            print(f"[{report.suite}] ERRATUM {e['name']}: "
                  f"witness check {e['witness']}", file=sys.stderr)

    bodies = [report_to_json(r) for r in reports]
    if len(bodies) == 1:
        text = bodies[0]
    else:
        inner = ",\n".join(b.rstrip("\n") for b in bodies)
        text = "[\n" + inner + "\n]\n"
    with _output(args.out) as fh:
        fh.write(text)

    n_fail = sum(1 for r in reports for c in r.checks if not c.passed)
    print(f"{sum(len(r.checks) for r in reports)} checks, {n_fail} failed "
          f"({elapsed_ms:.0f} ms)", file=sys.stderr)
    return 0 if n_fail == 0 else 1


def _export_hermite_coeffs(args):
    from . import complex_hermite as chp

    deg = args.cutoff
    if deg < 0:
        raise ValueError(f"cutoff (--cutoff) must be at least 0, got {deg}")
    quad.check_flags({"cutoff": deg})
    # each polynomial is built afresh and dropped after its rows, so the
    # export keeps no table of the (cutoff + 1)^2 polynomials
    return ("n", "k", "m", "j", "re", "im"), (
        (n, k, m, j, c, 0)
        for n in range(deg + 1) for k in range(deg + 1)
        for (m, j), c in sorted(chp.ch_explicit(n, k).terms.items()))


def _export_quad_rule(args):
    rule = quad.build_rule(args.radial, args.angular)
    return ("index", "re", "im", "weight"), (
        (i, f"{z.real:.17g}", f"{z.imag:.17g}", f"{w:.17g}")
        for i, (z, w) in enumerate(zip(rule.nodes, rule.weights)))


def _export_delta_spectrum(args):
    from . import modular_core as mc

    check_flags({"beta": args.beta, "dim": args.dim})
    w = mc.build_weights(args.beta, args.dim)  # rejects beta (dim - 1) > ln(DBL_MAX)
    return ("i", "j", "eigenvalue"), (
        (i, j, f"{w.alpha[i] / w.alpha[j]:.17g}")
        for i in range(args.dim) for j in range(args.dim))


def _export_wigner_grid(args):
    from . import phase_space as ps

    check_flags({"ncut": args.ncut})
    grid = np.linspace(-2.0, 2.0, 5)
    x00 = matrix_unit(1, 0, 0)

    def rows():
        for x in grid:
            for y in grid:
                v = ps.wigner_sample(x00, float(x), float(y), args.ncut)
                yield (f"{x:.17g}", f"{y:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}")
    return ("x", "y", "re", "im"), rows()


# table -> (its exporter, the flags it reads: the only flags its parser
# takes).  Each exporter checks every flag it reads before it returns its
# header and a lazy iterable of rows, so a rejected export leaves no file
# and prints nothing
_EXPORTS = {
    "hermite_coeffs": (_export_hermite_coeffs, ("cutoff",)),
    "quad_rule": (_export_quad_rule, ("radial", "angular")),
    "delta_spectrum": (_export_delta_spectrum, ("dim", "beta")),
    "wigner_grid": (_export_wigner_grid, ("ncut",)),
}


def _cmd_export(args) -> int:
    import csv  # here, so that a `verify` process does not load it

    header, rows = _EXPORTS[args.what][0](args)
    with _output(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
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
    _add_config_args(p_verify, FLAGS)
    # parser: the one that reports an argument it does not take, with its usage
    p_verify.set_defaults(fn=_cmd_verify, parser=p_verify)

    p_export = sub.add_parser("export", help="write a data table")
    tables = p_export.add_subparsers(dest="what", required=True)
    for what, (_, names) in _EXPORTS.items():
        p_table = tables.add_parser(what)
        _add_config_args(p_table, names)
        p_table.set_defaults(parser=p_table)
    p_export.set_defaults(fn=_cmd_export)
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.fn(args)
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
