"""Tiny arithmetic expression grammar for target functions.

Literals, pi, input components (x or x1, x2, ...; ``x`` is ``x1``), + - * /,
unary minus, parentheses and the functions sin, cos, exp, relu.  ``ast``
parses an expression in eval mode, an allow-list of node types checks it, and
it compiles to a vectorized callable on (N, d) point arrays.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError

# most nodes on a root-to-leaf path: Python's own limit on nested parentheses,
# and it keeps the recursive walks far inside the recursion limit
_MAX_DEPTH = 200

_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "relu": lambda z: np.maximum(z, 0.0),
}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}


def _compile(node: ast.AST, source: str, depth: int = 1) -> tuple:
    """The tree ``_eval`` runs: ("const", c), ("var", index), or (ufunc, *operands)."""
    if depth > _MAX_DEPTH:
        raise ConfigError("target.expr", f"nesting deeper than {_MAX_DEPTH} levels")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _compile(node.left, source, depth + 1),
                _compile(node.right, source, depth + 1))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return (np.negative, _compile(node.operand, source, depth + 1))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        return (_FUNCTIONS[node.func.id], _compile(node.args[0], source, depth + 1))
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return ("const", float(node.value))     # OverflowError past the float range
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return ("const", math.pi)
        m = re.fullmatch(r"x(\d{0,18})", node.id)     # int() refuses over 4300 digits
        if m and int(m.group(1) or 1) >= 1:
            return ("var", int(m.group(1) or 1) - 1)
    raise ConfigError("target.expr", f"{ast.get_source_segment(source, node)!r} is not "
                      "allowed; targets take numbers, pi, x1.., + - * /, unary minus "
                      f"and {', '.join(_FUNCTIONS)} of one argument")


def _eval(node: tuple, pts: np.ndarray) -> np.ndarray:
    """Constants become full arrays before a ufunc meets them (a scalar call may
    round differently), and no subtree is folded ahead of time."""
    op, *operands = node
    if op == "const":
        return np.full(pts.shape[0], operands[0])
    if op == "var":
        if operands[0] >= pts.shape[1]:
            raise ConfigError("target.expr", f"variable x{operands[0] + 1} exceeds "
                                             f"input dimension {pts.shape[1]}")
        return pts[:, operands[0]]
    return op(*(_eval(a, pts) for a in operands))


@dataclass(frozen=True)
class TargetExpr:
    """Compiled expression; callable on (N, d) arrays, returns (N,)."""

    text: str
    node: tuple

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _eval(self.node, pts)


def parse_target(text: str) -> TargetExpr:
    source = " ".join(text.split())     # eval mode rejects leading whitespace
    try:
        return TargetExpr(text, _compile(ast.parse(source, mode="eval").body, source))
    except (SyntaxError, RecursionError, OverflowError) as exc:
        raise ConfigError("target.expr", f"cannot parse: {exc}") from None
