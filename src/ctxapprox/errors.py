"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np

# The most entries an array of 8-byte items (float64, int64) can have, as
# numpy keeps an array's size in bytes in an intp.
MAX_ARRAY_LENGTH = int(np.iinfo(np.intp).max) // 8


class CtxApproxError(Exception):
    """Base class for package-specific failures."""


class DimensionError(CtxApproxError, ValueError):
    """Array shapes are mutually inconsistent."""


class EmptyGridError(CtxApproxError, ValueError):
    """An evaluation grid with no points was supplied."""


class IllConditionedError(CtxApproxError):
    """A matrix exceeded the conditioning threshold for a solve/inverse."""

    def __init__(self, name: str, cond: float, limit: float):
        self.name = name
        self.cond = float(cond)
        self.limit = float(limit)
        super().__init__(f"matrix {name!r} has condition {cond:.3e} >= limit {limit:.3e}")


class EpsilonRangeError(CtxApproxError):
    """Requested accuracy is not representable in floating-point range."""


class NonFiniteTargetError(CtxApproxError):
    """The target is not finite at some grid points."""

    def __init__(self, grid_name: str, points):
        self.grid_name = grid_name
        self.count = len(points)
        self.first = [list(map(float, p)) for p in points[:3]]
        super().__init__(f"target is not finite at {self.count} {grid_name} grid "
                         f"point(s), first: {', '.join(map(str, self.first))}")


class NonFiniteFitError(CtxApproxError):
    """A fit ended with non-finite network parameters, for instance when an
    exp activation overflowed."""

    def __init__(self, names: list, component: int):
        self.names = list(names)
        self.component = component
        super().__init__(f"the fit of output component {component} has non-finite "
                         f"entries in {', '.join(self.names)}")


class KroneckerCapExceeded(CtxApproxError):
    """No integer witness found below the q cap."""

    def __init__(self, beta: float, epsilon: float, q_cap: int, best_q: int, best_error: float):
        self.beta = beta
        self.epsilon = epsilon
        self.q_cap = q_cap
        self.best_q = best_q
        self.best_error = best_error
        super().__init__(
            f"no q <= {q_cap} with |{beta} - q*sqrt2 + l| < {epsilon} "
            f"(best: q={best_q}, error={best_error:.3e}); raise the cap or loosen epsilon"
        )


class PositionScanExhausted(CtxApproxError):
    """Position scan hit its cap before meeting all token demands."""

    def __init__(self, j_cap: int, unmet: list[dict]):
        self.j_cap = j_cap
        self.unmet = unmet
        detail = "; ".join(
            f"target {u['target_index']}: {u['remaining']} tokens missing, "
            f"best distance {u['best_distance']:.3e} vs tol {u['tol']:.3e}"
            for u in unmet
        )
        super().__init__(f"scan exhausted at j_cap={j_cap}: {detail}")


class FloorViolationError(CtxApproxError):
    """A non-UAP audit trial came in under the certified error floor."""

    def __init__(self, trial: int, error: float, floor: float):
        self.trial = trial
        self.error = float(error)
        self.floor = float(floor)
        super().__init__(f"trial {trial} has minmax error {error:.17g}, below the "
                         f"certified floor {floor:g}")


class BudgetError(CtxApproxError):
    """A construction stage exceeded its error budget."""

    def __init__(self, stage: str, measured: float, budget: float):
        self.stage = stage
        self.measured = float(measured)
        self.budget = float(budget)
        super().__init__(f"stage {stage!r} measured error {measured:.6g} exceeds budget {budget:.6g}")


class TokenDemandError(BudgetError):
    """The plans need more tokens than the positions up to j_cap hold, one each."""

    def __init__(self, planned: int, j_cap: int):
        CtxApproxError.__init__(self, f"the plans need at least {planned} tokens, more "
                                      f"than the j_cap = {j_cap} positions can hold")
        self.stage, self.measured, self.budget = "positions", float(planned), float(j_cap)


class ConfigError(CtxApproxError, ValueError):
    """A run configuration is missing or has an invalid field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


def require_count(field: str, value: int, lo: int, hi: int = MAX_ARRAY_LENGTH) -> None:
    """Raise ConfigError naming ``field`` unless lo <= value <= hi; ``hi``
    defaults to the longest array numpy can make of ``value`` entries."""
    if value < lo:
        raise ConfigError(field, f"{field} must be >= {lo}, got {value}")
    if value > hi:
        raise ConfigError(field, f"{field} must be <= {hi}, got {value}")
