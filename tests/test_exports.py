"""Every name the package exports, and every public method or property of
an exported class, is called by the library or a script.

A reference is a name or attribute read in the parsed code of
src/framings/*.py (outside __init__.py) or scripts/*.py, outside the
definition of the same name; docstrings and comments are not code, and an
import alone is not a use.  A method or property is referenced only by an
attribute read, such as `matrix.det()` or `group.order`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "framings"

# Exports kept without a caller, each for a stated reason.
UNCALLED = {
    # A kernel operation of the north star, timed on its own.
    "smith_normal_form",
}

# Public methods and properties of exported classes kept without a caller,
# as (class, name), each for a stated reason.
UNCALLED_METHODS = {
    # A kernel operation that the ROADMAP north star times on its own
    # (its kernel list: det, exact_signature, smith_normal_form, solve_gf2).
    ("IntMatrix", "det"),
}


def _trees() -> list[ast.Module]:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in files + sorted((ROOT / "scripts").glob("*.py"))]


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _public_methods(classes: set[str]) -> set[tuple[str, str]]:
    """(class, name) for each public method or property defined in the
    body of one of the given top-level classes."""
    return {(top.name, node.name) for tree in _trees() for top in tree.body
            if isinstance(top, ast.ClassDef) and top.name in classes
            for node in top.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _referenced(names: set[str], attributes_only: bool = False) -> set[str]:
    """The names read somewhere in the library or the scripts, not counting
    reads inside a definition of the same name."""
    found = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name) and not attributes_only:
            name = node.id
        else:
            name = None
        if name in names and name not in enclosing:
            found.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in _trees():
        visit(tree, frozenset())
    return found


def test_every_export_has_a_caller():
    exports = _exports()
    assert UNCALLED <= exports, f"not exported: {sorted(UNCALLED - exports)}"
    referenced = _referenced(exports)
    assert sorted(exports - referenced - UNCALLED) == []
    # An allowlisted name that gains a caller leaves the list.
    assert sorted(UNCALLED & referenced) == []


def test_every_public_method_of_an_exported_class_has_a_caller():
    methods = _public_methods(_exports())
    assert UNCALLED_METHODS <= methods, f"not defined: {sorted(UNCALLED_METHODS - methods)}"
    referenced = _referenced({name for _, name in methods}, attributes_only=True)
    assert sorted(m for m in methods - UNCALLED_METHODS if m[1] not in referenced) == []
    # An allowlisted method that gains a caller leaves the list.
    assert sorted(m for m in UNCALLED_METHODS if m[1] in referenced) == []
