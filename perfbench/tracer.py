"""Span tracer for one landau-modular process.

Imports the library's layer modules in dependency order (timing each
import), wraps every public function of each layer in a span, rebinds every
name that other modules copied with ``from ... import``, runs one operation
and writes per-function totals as JSON:

    python3 perfbench/tracer.py SPANS_OUT cli verify all --seed 42
    python3 perfbench/tracer.py SPANS_OUT fock

A span's self time is its duration minus the durations of the spans it
directly contains.  Wrappers return the wrapped result unchanged, so traced
reports are byte-identical to untraced ones.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "landau_modular"

# Dependency order, so each timed import loads only its own module body and
# the third-party modules it is the first to need (numpy is loaded above,
# outside every span).
LAYERS = ("rng", "dense_linalg", "hs_space", "modular_core", "complex_hermite",
          "cgauss_quad", "landau_modes", "coherent_states", "suites")
IMPORTS = {
    "cli": LAYERS + ("cli",),
    "fock": ("dense_linalg", "complex_hermite", "landau_modes"),
}

# Per-term polynomial arithmetic: hundreds of thousands of calls per run, so a
# span on each would swamp the Hermite layer it serves.  QC, BivarPoly and
# Fraction methods are never wrapped (only module functions are).
NOT_WRAPPED = {
    "complex_hermite": {"poly_const", "poly_zero", "mul_zbar", "mul_z",
                        "d_zbar", "d_z", "eval_poly"},
}
# Class methods that do a layer's work; SplitMix64.uniform and next_u64 are
# per-entry and stay unwrapped for the same reason as above.
METHODS = {"rng": {"SplitMix64": ("complex_matrix", "hermitian_matrix")}}


def out_nbytes(obj) -> int:
    """Bytes of the arrays a call returned: arrays, dataclass fields, and
    arrays inside a returned tuple or list."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        values = (getattr(obj, f.name) for f in dataclasses.fields(obj))
        return sum(out_nbytes(v) for v in values
                   if isinstance(v, np.ndarray) or dataclasses.is_dataclass(v))
    if isinstance(obj, (tuple, list)):
        total = 0
        for x in obj:
            if isinstance(x, np.ndarray):
                total += x.nbytes
            elif isinstance(x, list):
                total += sum(y.nbytes for y in x if isinstance(y, np.ndarray))
        return total
    return 0


class Tracer:
    """Per-name span totals for one process: [calls, self_s, total_s, out_bytes]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.imports: dict[str, float] = {}
        self._open: list[float] = []  # child time accumulated per open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                stats[0] += 1
                stats[1] += dur - child
                stats[2] += dur
            stats[3] += out_nbytes(out)
            return out

        return traced

    def import_layers(self, names) -> None:
        for name in names:
            t0 = time.perf_counter()
            importlib.import_module(f"{PACKAGE}.{name}")
            self.imports[name] = time.perf_counter() - t0

    def install(self) -> None:
        """Wrap the loaded layers and rebind every copied reference."""
        replaced: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            skip = NOT_WRAPPED.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                                 getattr(cls, meth)))
            if layer == "suites":
                # suites dispatch through this table of private functions
                for name, fn in list(mod._SUITES.items()):
                    mod._SUITES[name] = self.wrap(f"suites.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def as_dict(self) -> dict:
        return {
            "imports": self.imports,
            "functions": {name: {"calls": s[0], "self_s": s[1], "total_s": s[2],
                                 "out_bytes": s[3]}
                          for name, s in self.stats.items()},
        }


def main(argv) -> int:
    if len(argv) < 2 or argv[1] not in IMPORTS:
        print("usage: tracer.py SPANS_OUT {cli ARGS...|fock}", file=sys.stderr)
        return 2
    out_path, kind, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.import_layers(IMPORTS[kind])
    tracer.install()
    try:
        if kind == "cli":
            from landau_modular import cli
            return cli.main(args)
        import fock_driver
        return fock_driver.main()
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.as_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
