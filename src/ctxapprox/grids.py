"""Axis-aligned evaluation grids standing in for compact domains.

All sup-norm contracts in this package are audited on finite grids; the grid
resolution is the caller's responsibility and is recorded in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyGridError


@dataclass(frozen=True)
class Grid:
    """Regular grid over the box [lo, hi], ``counts`` points per dimension."""

    lo: tuple
    hi: tuple
    counts: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        if not (len(lo) == len(hi) == len(counts)):
            raise DimensionError("lo, hi and counts must have equal length")
        if not np.all(np.isfinite(lo + hi)):
            raise ValueError(f"grid bounds must be finite, got lo={lo}, hi={hi}")
        if any(c < 1 for c in counts):
            raise EmptyGridError("counts must all be >= 1")
        if any(h < l for l, h in zip(lo, hi)):
            raise DimensionError("hi must be >= lo componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(l, h, c) if c > 1 else np.array([0.5 * (l + h)])
            for l, h, c in zip(self.lo, self.hi, self.counts)
        ]

    def points(self) -> np.ndarray:
        """All grid points as an (N, dim) array in C order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def refined(self, factor: int = 10) -> "Grid":
        """Grid on the same box with (c-1)*factor + 1 points per dimension."""
        counts = tuple((c - 1) * factor + 1 if c > 1 else 1 for c in self.counts)
        return Grid(self.lo, self.hi, counts)

    def max_x_tilde_l1(self) -> float:
        """Exact max over the box of ||(x, 1)||_1 (attained at a corner)."""
        return 1.0 + sum(max(abs(l), abs(h)) for l, h in zip(self.lo, self.hi))


def as_points(grid_or_points, dim: int | None = None) -> np.ndarray:
    """Normalize a Grid, an (N, d) array, or a list of vectors to (N, d)."""
    if isinstance(grid_or_points, Grid):
        pts = grid_or_points.points()
    else:
        pts = np.asarray(grid_or_points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise DimensionError(f"points must be 2-d, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise EmptyGridError("empty evaluation grid")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionError(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts


def lifted(pts: np.ndarray) -> np.ndarray:
    """The lifted queries x~ = (x, 1) of an (N, d) point array; (N, d + 1)."""
    return np.hstack([pts, np.ones((pts.shape[0], 1))])
