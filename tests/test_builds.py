"""Each object of a run is built as often as BUILDS says, from fresh caches.

A row of BUILDS is one run, the `module.function` of the library (or of
`math` or `numpy`) that it wraps, what each call of it records, and the
exact list of records the run makes.  A run is a `verify` argv run through
`cli.main` in this process, or one library call.  Most wrapped functions
are called only when an object is built, not when a cache returns it.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from landau_modular import complex_hermite as ch
from landau_modular import landau_modes as lm
from landau_modular import phase_space as ps
from landau_modular.cgauss_quad import basis_values
from landau_modular.cli import main
from landau_modular.hs_space import matrix_unit

SRC = Path(__file__).resolve().parents[1] / "src" / "landau_modular"

COHERENT_16 = "verify coherent --cutoff 16 --radial 48 --angular 96"


def coherent_16_twice():
    """Two coherent runs in one process."""
    for _ in range(2):
        main(COHERENT_16.split())


def basis_values_to_degree_12():
    basis_values(np.array([0.3 + 0.1j, -1.2j]), 12)


def rodrigues_sweep():
    """Every Rodrigues chain entry of the 13 x 13 block, from a fresh table."""
    for n in range(13):
        for k in range(13):
            ch.ch_rodrigues(n, k)


def ladders_of_equal_cuts():
    """build_A_pm of two separately made ModeCut(16), then of ModeCut(17)."""
    for ncut in (16, 16, 17):
        lm.build_A_pm(lm.ModeCut(ncut))


def fock_states_at_cut_24():
    for n in range(4):
        for l in range(4):
            lm.fock_psi(lm.ModeCut(24), n, l)


def wigner_samples_at_two_cuts():
    for x, y in ((0.5, -1.0), (2.0, 1.5), (-1.0, 0.0)):
        for n, l in ((0, 0), (1, 2)):
            ps.wigner_sample(matrix_unit(3, n, l), x, y, 40)
    ps.wigner_sample(matrix_unit(2, 1, 1), 0.2, 0.1, 24)


def rule_orders(radii, ring_weights, angular_order):
    return len(radii), angular_order


# the eight points of the wigner suite's 3 x 3 grid but the origin, in the
# order its rotation check reads them: each pair +-p shares one direct
# eigensolve
CORNERS = [(-2.0, -2.0), (2.0, 2.0), (-2.0, 0.0), (2.0, 0.0),
           (-2.0, 2.0), (2.0, -2.0), (0.0, -2.0), (0.0, 2.0)]

# (run, module.function, what each call records, the records of the run)
BUILDS = [
    # the quadrature and coherent suites share the 40 x 64 rule; the
    # quadrature suite's order_convergence builds three rules of its own
    ("verify all", "cgauss_quad.gauss_laguerre", lambda n: n, [40, 4, 8, 16]),
    # the --radial x --angular rule is built by the require of each suite
    # that reads it; no other suite builds a rule
    *((f"verify {suite}", "cgauss_quad.ComplexGaussRule", rule_orders, rules)
      for suite, rules in {
          "modular": [], "kms": [], "landau": [], "hermite": [],
          "quadrature": [(40, 64), (4, 8), (8, 16), (16, 32)],
          "coherent": [(40, 64)], "wigner": []}.items()),
    # 40 values per basis function, on the radii, not one per 2560 nodes
    ("verify quadrature", "cgauss_quad.basis_values", lambda z, deg: z.shape[0], [40]),
    # each n! once, not 2 * 13^2 times
    (basis_values_to_degree_12, "math.factorial", lambda n: n, list(range(13))),
    # one G at the cutoff, read by both resolutions, the bi-coherent block,
    # both isometries and moment_factorization; the only node sums are the
    # independent route of moment_factorization, at cutoff 10
    (COHERENT_16, "coherent_states.moment_matrix",
     lambda rule, cutoff: (rule.radial_order, rule.angular_order, cutoff), [(48, 96, 16)]),
    (COHERENT_16, "coherent_states.integrate_values",
     lambda rule, values: (rule.radial_order, rule.angular_order), [(48, 96)] * 11 ** 2),
    # nothing is kept between runs: the next run builds its own G
    (coherent_16_twice, "coherent_states.moment_matrix",
     lambda rule, cutoff: cutoff, [16, 16]),
    # both displacement checks read one solve at cutoff 10 + 30
    ("verify coherent", "coherent_states.displacement", lambda ncut, x, y: ncut, [40]),
    # the absolute and relative modular-spectrum errors read one Gibbs state
    # on cutoff + 1 levels
    ("verify coherent", "modular_core.build_weights", lambda beta, n: n, [11]),
    # one derivative step per new chain entry, not the n + k steps of every
    # call; each call records the entry it steps from
    (rodrigues_sweep, "complex_hermite.d_z", lambda p: max(p.terms),
     [(i, 0) for i in range(12)]),
    (rodrigues_sweep, "complex_hermite.d_zbar", lambda p: max(p.terms),
     [(n, k) for n in range(13) for k in range(12)]),
    # equal cuts are one cache key; a cut of 17 is not
    (ladders_of_equal_cuts, "landau_modes.mode_ops", lambda cut: cut.ncut, [16, 17]),
    # numpy.kron makes the closed-form vacuum from its per-mode
    # coefficients, once per cut
    (fock_states_at_cut_24, "numpy.kron", lambda a, b: a.shape, [(24,)]),
    # the position eigensystem, once per cut
    (wigner_samples_at_two_cuts, "phase_space.hermitian_eig", lambda a: a.shape,
     [(40, 40), (24, 24)]),
    # both closed forms from one table: the 25 grid points, to degree 3
    ("verify wigner", "cgauss_quad.basis_values",
     lambda z, deg: (np.shape(z), deg), [((25,), 3)]),
    # one block per grid point for the 16 matrix units, one at the origin,
    # and a full-size rotation of each point but the origin against the
    # direct route; each call records its block size, or its point at full size
    ("verify wigner", "phase_space.displacement_block",
     lambda ncut, x, y, n: (x, y) if n == ncut else n, [4] * 25 + [1] + CORNERS),
    # the direct route solves the first point of each pair
    ("verify wigner", "phase_space.displacement", lambda ncut, x, y: (x, y), CORNERS[::2]),
    # the suite's Hamiltonians of the cut-16 space, which ground_state reads
    # too; each call records the dimension of the two-mode space
    ("verify landau", "landau_modes.Hamiltonians",
     lambda h_up, h_down, n_plus, n_minus: h_up.dim, [16 * 16]),
]


def _module(path: str):
    try:
        return importlib.import_module(f"landau_modular.{path}")
    except ModuleNotFoundError:
        return importlib.import_module(path)


@pytest.mark.parametrize(
    "run, target, record, expected", BUILDS,
    ids=[f"{run if isinstance(run, str) else run.__name__}->{target}"
         for run, target, *_ in BUILDS])
def test_build(run, target, record, expected, fresh_caches, monkeypatch):
    path, name = target.rsplit(".", 1)
    module = _module(path)
    function, records = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args, **kwargs: (
        records.append(record(*args, **kwargs)) or function(*args, **kwargs)))
    if isinstance(run, str):
        assert main(run.split()) in (0, 1)
    else:
        run()
    assert records == expected


def _caches() -> list:
    """(module, name, the expression it is set to at import) of each
    module-level dict of the library that a function writes by subscript."""
    caches = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        written = {node.value.id
                   for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                   for node in ast.walk(function)
                   if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                   and isinstance(node.value, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
                target = node.target if isinstance(node, ast.AnnAssign) else node.targets[0]
                if isinstance(target, ast.Name) and target.id in written:
                    caches.append((path.stem, target.id, node.value))
    return caches


def test_fresh_caches_resets_every_cache(request):
    caches = _caches()
    assert sorted(f"{stem}.{name}" for stem, name, _ in caches) == [
        "cgauss_quad._RULES", "complex_hermite._RODRIGUES", "complex_hermite._TABLE",
        "landau_modes._HAMILTONIANS", "landau_modes._LADDERS", "landau_modes._VACUUM",
        "phase_space._POSITION"]
    warm = [getattr(_module(stem), name) for stem, name, _ in caches]
    request.getfixturevalue("fresh_caches")
    stale = []
    for (stem, name, value), before in zip(caches, warm):
        module = _module(stem)
        at_import = eval(compile(ast.Expression(value), stem, "eval"), vars(module))
        now = getattr(module, name)
        if now is before or now != at_import:
            stale.append(f"{stem}.{name}")
    assert not stale, f"fresh_caches does not reset {stale}"
