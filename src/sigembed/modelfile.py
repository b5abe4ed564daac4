"""User-supplied metric models from declarative expression files.

A model file is JSON:

    {"dimension": 3,
     "spatial_block": [["1 + t^2", "0"], ["0", "1"]]}

Each entry of the (n-1) x (n-1) spatial block is a closed arithmetic
expression in the coordinates t, x1, ..., x{n-1} using + - * / ^ (or **),
parentheses, the functions exp, log, ln, sqrt, abs, sin, cos, tan, sinh,
cosh, tanh, and the constants pi and e.  Expressions are parsed into an
AST and evaluated against a whitelist, never executed, so a model file
cannot run arbitrary code.  The time-time component is always -t and the
time-space components are zero (the radical-adapted canonical form); only
the spatial block is user-defined.  Expressions evaluate on arrays, one
entry per chart point.
"""

import ast
import json
import operator

import numpy as np

from .metric import MetricModel

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "ln": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
}
_CONSTANTS = {"pi": np.pi, "e": np.e}


class ExpressionError(ValueError):
    """Expression outside the documented mini-grammar."""


def _compile_node(node, names):
    if isinstance(node, ast.Expression):
        return _compile_node(node.body, names)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
            value = float(node.value)
            return lambda env: value
        raise ExpressionError(f"literal {node.value!r} is not a number")
    if isinstance(node, ast.Name):
        if node.id in _CONSTANTS:
            value = _CONSTANTS[node.id]
            return lambda env: value
        if node.id in names:
            key = node.id
            return lambda env: env[key]
        raise ExpressionError(
            f"unknown name {node.id!r}; allowed: {sorted(names)} and constants pi, e"
        )
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        op = _BINOPS[type(node.op)]
        left = _compile_node(node.left, names)
        right = _compile_node(node.right, names)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARYOPS:
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        op = _UNARYOPS[type(node.op)]
        arg = _compile_node(node.operand, names)
        return lambda env: op(arg(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(
                f"only the functions {sorted(_FUNCTIONS)} may be called"
            )
        if node.keywords or len(node.args) != 1:
            raise ExpressionError(
                f"{node.func.id} takes exactly one positional argument"
            )
        func = _FUNCTIONS[node.func.id]
        arg = _compile_node(node.args[0], names)
        return lambda env: func(arg(env))
    raise ExpressionError(f"syntax {type(node).__name__} not allowed in expressions")


def compile_expression(text, coordinate_names):
    """Compile one expression of the mini-grammar into env -> value; the
    value is an array when the environment holds arrays."""
    source = str(text).replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    return _compile_node(tree, frozenset(coordinate_names))


def model_from_dict(data):
    """MetricModel from a parsed model-file dictionary."""
    try:
        n = int(data["dimension"])
        rows = data["spatial_block"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ExpressionError(
            "model file needs integer 'dimension' and a 'spatial_block' matrix"
        ) from exc
    if n < 2:
        raise ExpressionError(f"dimension must be >= 2, got {n}")
    m = n - 1
    if len(rows) != m or any(len(row) != m for row in rows):
        raise ExpressionError(
            f"spatial_block must be {m} x {m} for dimension {n}"
        )
    names = ["t"] + [f"x{i}" for i in range(1, n)]
    entries = [
        [compile_expression(rows[i][j], names) for j in range(m)] for i in range(m)
    ]

    def components(coords):
        env = dict(zip(names, coords.T))
        g = np.zeros((coords.shape[0], n, n))
        g[:, 0, 0] = -coords[:, 0]
        for i in range(m):
            for j in range(m):
                g[:, i + 1, j + 1] = entries[i][j](env)
        return g

    return MetricModel(dimension=n, components=components)


def load_model(path):
    """MetricModel from a JSON model file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return model_from_dict(data)
