"""Every name the package exports is called by the library or a script.

A reference is a name or attribute read in the parsed code of
src/framings/*.py (outside __init__.py) or scripts/*.py, outside the
exported definition itself; docstrings and comments are not code, and an
import alone is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "framings"

# Exports kept without a caller, each for a stated reason.
UNCALLED = {
    # The general fixed-point formula; it goes once an exact route pins
    # its one identity (ROADMAP items 3 and 13).
    "g_signature_local",
    # The paper's splitting criteria for canonical 2-framings, to be wired
    # into a command (ROADMAP item 10).
    "splits_as_double",
    "splits_as_sum",
    # The one-sublink mu entry point, documented in the README.
    "mu_invariant",
    # A kernel operation of the north star, timed on its own.
    "smith_normal_form",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced(names: set[str]) -> set[str]:
    """The names read somewhere in the library or the scripts, not counting
    reads inside a top-level definition of the same name."""
    found = set()
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in files + sorted((ROOT / "scripts").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in names and name != own:
                    found.add(name)
    return found


def test_every_export_has_a_caller():
    exports = _exports()
    assert UNCALLED <= exports, f"not exported: {sorted(UNCALLED - exports)}"
    referenced = _referenced(exports)
    assert sorted(exports - referenced - UNCALLED) == []
    # An allowlisted name that gains a caller leaves the list.
    assert sorted(UNCALLED & referenced) == []
