"""Every top-level import of a package module is used in that module, and
every parameter of a package function is read by it.

No linter ships with the package's test dependencies, so this walks the
syntax tree with the standard library.  ``__init__.py`` is exempt from the
import check: its imports are the package's re-exports.
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


def _unread_params(source):
    """(line, function, parameter) of each parameter that its function,
    nested functions included, never reads as a name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            arg for arg in (args.vararg, args.kwarg) if arg is not None]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)}
        found += [(node.lineno, node.name, arg.arg) for arg in params
                  if arg.arg not in read]
    return sorted(found)


def _package_sources():
    return {path.name: path.read_text()
            for path in Path(sigembed.__file__).parent.glob("*.py")}


def test_no_unused_top_level_import():
    unused = {name: _unused_imports(source)
              for name, source in _package_sources().items()
              if name != "__init__.py"}
    assert len(unused) > 1
    assert {name: found for name, found in unused.items() if found} == {}


def test_no_unread_defaulted_parameter():
    unread = {name: _unread_params(source)
              for name, source in _package_sources().items()}
    assert {name: found for name, found in unread.items() if found} == {}


def test_unused_import_is_found():
    source = "import os.path\nfrom math import pi, tau as t\n\nprint(t)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "pi")]


def test_unread_defaulted_parameter_is_found():
    source = ("def f(a, b=1, *, c=None, d=2, e):\n    return a + d\n\n\n"
              "def g(x=0, y=0):\n    def h(z=None):\n        return x + z\n"
              "    return h\n\n\n"
              "def k(p, q, /, r, *s, **u):\n    return q + r + s\n")
    assert _unread_params(source) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "e"),
                                      (5, "g", "y"), (11, "k", "p"), (11, "k", "u")]
