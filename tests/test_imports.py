"""Every top-level import of a package module is used in that module.

No linter ships with the package's test dependencies, so this walks the
syntax tree with the standard library.  ``__init__.py`` is exempt: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import sigembed


def _unused_imports(source):
    """(line, name) of each top-level import binding never read as a name."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_top_level_import():
    unused = {path.name: _unused_imports(path.read_text())
              for path in Path(sigembed.__file__).parent.glob("*.py")
              if path.name != "__init__.py"}
    assert len(unused) > 1
    assert {name: found for name, found in unused.items() if found} == {}


def test_unused_import_is_found():
    source = "import os.path\nfrom math import pi, tau as t\n\nprint(t)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "pi")]
