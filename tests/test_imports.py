"""Every top-level import of a package module is used in that module,
every parameter of a package function is read by it, and every public
top-level function or class is read somewhere in the package.

No linter ships with the package's test dependencies, so this walks the
syntax tree with the standard library.  ``__init__.py`` is exempt from the
import check, and its re-exports count as no read: its imports are the
package's re-exports.
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


def _unread_public_names(sources):
    """(module, name) of each public top-level function or class that no
    module of ``sources`` reads, as a name or an attribute, outside the
    definition itself."""
    defined, reads = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not owner.startswith("_"):
                    defined.append((module, owner))
            else:
                owner = None
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    reads.add((getattr(node, "id", None) or node.attr, owner))
    read = {name for name, owner in reads if name != owner}
    return sorted((module, name) for module, name in defined if name not in read)


# Public names that no package module reads, each with its reader.
_READ_OUTSIDE_THE_PACKAGE = {
    "ChartPoint",  # perfbench/workloads.py (the argument of EmbeddingMap.value_eval)
    "SignatureClass",  # the documented sign codes of classify_signature_grid
    "t_of_theta",  # perfbench/workloads.py (arc round trip of the embed rows)
    "from_misner",  # perfbench/workloads.py (representatives of the misner rows)
    "quotient_isometry_residual",  # perfbench/workloads.py (closed_form sweep)
    "orbit_intersection_count",  # perfbench/workloads.py (closed_form orbit scans)
}


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


def test_no_unread_public_name():
    sources = {name: source for name, source in _package_sources().items()
               if name != "__init__.py"}
    unread = [(module, name) for module, name in _unread_public_names(sources)
              if name not in _READ_OUTSIDE_THE_PACKAGE]
    assert unread == []


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


def test_unread_public_name_is_found():
    # f reads only itself; C is read in b.py, g by _p, h as an attribute
    sources = {"a.py": ("def f():\n    return f()\n\n\n"
                        "class C:\n    pass\n\n\ndef _p():\n    return g\n"),
               "b.py": ("from a import C\n\n\ndef g(x=C):\n    return x.h\n\n\n"
                        "def h():\n    pass\n\n\nclass K:\n    pass\n")}
    assert _unread_public_names(sources) == [("a.py", "f"), ("b.py", "K")]
