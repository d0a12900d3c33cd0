"""Dense linear-algebra helpers with conditioning guards."""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedError

# Numerical proxy for "non-singular with probability one".
COND_LIMIT = 1e12


def check_condition(m: np.ndarray, name: str):
    c = float(np.linalg.cond(np.asarray(m, dtype=float)))
    if not np.isfinite(c) or c >= COND_LIMIT:
        raise IllConditionedError(name, c, COND_LIMIT)


def solve_refined(m: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """LU solve of m @ x = rhs with one step of iterative refinement.

    The refinement step keeps the residual near machine precision even when
    the condition number is large enough to cost digits in a plain solve.
    """
    m = np.asarray(m, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    check_condition(m, name)
    x = np.linalg.solve(m, rhs)
    r = rhs - m @ x
    x = x + np.linalg.solve(m, r)
    return x


def inf_operator_norm(m: np.ndarray) -> float:
    """Operator norm induced by the vector sup norm (max absolute row sum)."""
    return float(np.max(np.sum(np.abs(np.asarray(m, dtype=float)), axis=1)))
