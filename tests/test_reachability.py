"""Every definition in ``src/repro`` has a user outside ``tests/``.

Code that only the test suite reaches pays for itself neither in speed
nor in a feature, so it goes (or, for a test oracle, moves into
``tests/``).  This scan keeps such code from growing back.

It is a name-based floor, not a call graph.  Each ``def`` and ``class``
name in ``src/repro`` (methods and nested functions included, dunders
excepted) must appear as a name or an attribute somewhere in
``src/repro``, ``examples/``, ``benchmarks/`` or ``bench/``.  An import
in the last three counts; a package re-export or an ``__all__`` string
in ``src/`` does not.  A method that shares its name with a live one
passes, so a clean scan does not prove every definition is used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "benchmarks", "bench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(directory):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"),
                              filename=str(path))


def _referenced(tree, count_imports):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif count_imports and isinstance(node, (ast.Import,
                                                 ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1]
                         for alias in node.names)
    return names


def test_every_definition_has_a_user_outside_tests():
    defined = {}
    referenced = set()
    for path, tree in _trees(SOURCE):
        referenced |= _referenced(tree, count_imports=False)
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                defined.setdefault(node.name, []).append(where)
    for directory in CALLER_DIRS:
        for _, tree in _trees(ROOT / directory):
            referenced |= _referenced(tree, count_imports=True)
    unreached = sorted(f"{where} {name}"
                       for name, places in defined.items()
                       if name not in referenced for where in places)
    assert not unreached, (
        "defined in src/repro but used only by tests (move a test "
        "oracle into tests/, delete the rest):\n  "
        + "\n  ".join(unreached)
    )
