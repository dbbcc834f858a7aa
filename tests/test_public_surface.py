"""Every statement of the library is run by the CLI, or held by a named reader.

One traced in-process run of the CLI records each line of
src/landau_modular that executes.  It runs each suite alone and `verify
all`, `verify kms --out FILE`, the four exports to stdout and `export
quad_rule --out FILE`, one configuration error and one `--out` that cannot
be written, from fresh per-process caches.  A statement inside a function
or method body that no traced line reached is code that no `verify` or
`export` run reads: it is deleted, or HELD names the reader that keeps it.

Not counted: docstrings, imports and nested def or class lines; every
`raise`, and every statement of an if/elif/else or except block that ends
in one (input rejection, which REJECTED in test_cli.py covers); `return
NotImplemented`; module and class bodies, which ran at import, before the
trace; and `__main__.py`.
"""

import ast
import importlib
import sys
from collections import defaultdict
from pathlib import Path

from landau_modular.cli import main
from landau_modular.suites import SUITE_NAMES
from test_checks_can_fail import _fresh_caches

SRC = Path(__file__).resolve().parents[1] / "src" / "landau_modular"
# every module of the package but __main__, whose main only a fresh process
# runs (PROBES in test_cli.py)
MODULES = [path.stem for path in sorted(SRC.glob("*.py")) if path.stem != "__main__"]

QC_PIN = ("perfbench/test_perfbench.py::test_polynomial_arithmetic_is_not_wrapped "
          "reads QC.__add__ and QC.__mul__ (ROADMAP items 1 and 16)")
CRITERION_06 = ("tests/test_acceptance.py::test_criterion_06_hermite_identity_suite "
                "and demo 03")
CRITERION_01 = "tests/test_acceptance.py::test_criterion_01_modular_triple and demo 01"

# qualified function -> the reader that keeps its statements that no CLI
# run executes
HELD = {
    **{f"complex_hermite.QC.{name}": QC_PIN
       for name in ("__init__", "__add__", "__mul__", "__eq__", "__repr__")},
    "rng.SplitMix64.hermitian_matrix":
        "perfbench/tracer.py METHODS wraps it by name (ROADMAP items 1 and 16)",
    "complex_hermite._exact":
        f"its Fraction branch: {CRITERION_06} scale by 1/2 (ROADMAP item 16)",
    "complex_hermite.BivarPoly.__add__": f"{CRITERION_06} (ROADMAP item 16)",
    "complex_hermite.BivarPoly.__repr__": "assertion messages",
    "hs_space.WeightedConjugation.adjoint": CRITERION_01,
    "hs_space.WeightedConjugation.__matmul__": CRITERION_01,
    "hs_space.commutant_dim_within":
        "its empty-basis return 0: tests/test_hs_space.py::"
        "test_joint_commutant_inside_the_left_one_matches_the_joint_solve",
    "landau_modes.BandedOp._product":
        "its continue for an offset outside the matrix, reached only at cuts "
        "of 4 and below: tests/test_landau_modes.py::"
        "test_smallest_banded_products_match_dense",
    "landau_modes.squeezed_vacuum":
        "perfbench/fock_driver.py (landau_reach) and demo 02; ROADMAP items "
        "2, 5, 6, 11 and 17",
}

# (argv, exit code) of each traced run; FILE is a file in a scratch directory
RUNS = [
    *((f"verify {name}", 1 if name in ("landau", "wigner") else 0)
      for name in SUITE_NAMES),
    ("verify all", 1),
    ("verify kms --out FILE", 0),
    ("export hermite_coeffs", 0),
    ("export quad_rule", 0),
    ("export delta_spectrum", 0),
    ("export wigner_grid", 0),
    ("export quad_rule --out FILE", 0),
    ("verify modular --beta -1", 2),
    ("export delta_spectrum --out MISSING/table.csv", 2),
]


def _traced_lines(runs, scratch) -> dict:
    """module -> the line numbers of its code that the runs executed."""
    # the file name that each module's code carries -> the module
    files = {importlib.import_module(f"landau_modular.{stem}".removesuffix(".__init__"))
             .__file__: stem for stem in MODULES}
    hits = defaultdict(set)

    def on_line(frame, event, arg):
        if event == "line":
            hits[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        codes = [main(argv.replace("FILE", str(scratch / "out"))
                      .replace("MISSING", str(scratch / "missing")).split())
                 for argv, _ in runs]
    finally:
        sys.settrace(previous)
    assert codes == [code for _, code in runs]
    return hits


def _ends_in_raise(block) -> bool:
    return bool(block) and isinstance(block[-1], ast.Raise)


def _counted(body, scope, in_function):
    """(qualified function, statement) of each counted statement of body."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            doc = ast.get_docstring(node) is not None
            yield from _counted(node.body[doc:], f"{scope}.{node.name}", True)
        elif isinstance(node, ast.ClassDef):
            yield from _counted(node.body, f"{scope}.{node.name}", False)
        elif isinstance(node, ast.If):
            for block in (node.body, node.orelse):
                if not _ends_in_raise(block):
                    yield from _counted(block, scope, in_function)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(h.body for h in node.handlers if not _ends_in_raise(h.body))):
                yield from _counted(block, scope, in_function)
        elif isinstance(node, (ast.For, ast.While, ast.With)):
            yield from _counted(node.body, scope, in_function)
            yield from _counted(getattr(node, "orelse", []), scope, in_function)
        elif in_function and not (
                isinstance(node, (ast.Raise, ast.Import, ast.ImportFrom))
                or isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented"):
            yield scope, node


def _unexecuted(hits) -> dict:
    """qualified function -> [(line, source)] of its counted statements that
    no traced line reached."""
    out = defaultdict(list)
    for stem in MODULES:
        text = (SRC / f"{stem}.py").read_text()
        lines = text.splitlines()
        for scope, node in _counted(ast.parse(text).body, stem, False):
            if hits[stem].isdisjoint(range(node.lineno, node.end_lineno + 1)):
                out[scope].append((node.lineno, lines[node.lineno - 1].strip()))
    return out


def test_every_statement_is_run_by_the_cli_or_held(tmp_path, monkeypatch):
    _fresh_caches(monkeypatch)
    unexecuted = _unexecuted(_traced_lines(RUNS, tmp_path))
    unheld = [f"{scope}: line {n}: {source}"
              for scope in sorted(unexecuted.keys() - HELD.keys())
              for n, source in unexecuted[scope]]
    stale = [f"{scope}: held, but every statement runs"
             for scope in sorted(HELD.keys() - unexecuted.keys())]
    assert not unheld + stale, "\n".join(unheld + stale)
