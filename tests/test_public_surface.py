"""Every public name of the library is read by the library itself.

A public module-level function or class, or a public method, that no other
line of src/ names is surface that only tests or demos read; it is deleted
rather than kept.  The exceptions are held by the benchmark harness, which
names them itself, and each says which pin holds it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "landau_modular"

# qualified name -> the pin that keeps it, until ROADMAP items 1 and 16
# release it
PINNED = {
    "complex_hermite.QC":
        "perfbench/test_perfbench.py::test_polynomial_arithmetic_is_not_wrapped "
        "reads QC.__add__ and QC.__mul__ (ROADMAP items 1 and 16)",
    "rng.SplitMix64.hermitian_matrix":
        "perfbench/tracer.py METHODS wraps it by name (ROADMAP items 1 and 16)",
}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, node) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item


def _names_read(tree: ast.AST) -> Counter:
    """How often each name is read as a Name, an Attribute or an import."""
    return Counter(node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_public_name_is_read_by_the_library():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    # a name read only inside its own definition (QC builds QCs) is unread
    unread = {qualified for module, tree in trees.items()
              for qualified, node in _public_definitions(tree, module)
              if read[node.name] == _names_read(node)[node.name]}
    assert unread == set(PINNED)
