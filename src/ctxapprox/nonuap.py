"""Zero-counting oracle for exponential sums and the finite-family audit.

A sum of k exponentials with pairwise distinct rates has at most k - 1 real
zeros; a softmax network over a finite parameter family regroups to at most
N = #(W x B) distinct numerator exponentials regardless of context length, so
it cannot track a target that alternates sign N + 2 times.  The audit checks
the structural cap (the part the argument actually uses) and reports the
empirical error floor at the alternation points; it produces evidence, never
a proof of the universally quantified statement.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DimensionError, FloorViolationError, require_count

_DISTINCT_TOL = 1e-9
# rounding slack below the certified floor: the target's alternation values
# are +-1 only to within a few ulps
_FLOOR_TOL = 1e-12
# joint (cell, coefficient) counts held per multinomial draw; the trials are
# drawn in chunks of about this many entries, whatever the family size
_JOINT_CELLS = 1 << 16


@dataclass(frozen=True)
class ExpSum:
    """h(x) = sum_i a_i e^{b_i x} with pairwise distinct exponents."""

    coeffs: np.ndarray
    exponents: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        b = np.atleast_1d(np.asarray(self.exponents, dtype=float))
        if a.shape != b.shape or a.ndim != 1:
            raise DimensionError("coeffs and exponents must be 1-d of equal length")
        if a.size == 0:
            raise ValueError("need at least one term")
        if not np.any(a != 0.0):
            raise ValueError("at least one coefficient must be nonzero")
        sb = np.sort(b)
        if b.size > 1 and np.min(np.diff(sb)) <= _DISTINCT_TOL:
            raise ValueError(
                f"exponents must be pairwise distinct (tolerance {_DISTINCT_TOL:g})")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "coeffs", a)
        object.__setattr__(self, "exponents", b)

    @property
    def k(self) -> int:
        return self.coeffs.size

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.exp(x[:, None] * self.exponents) @ self.coeffs


def count_zeros(es: ExpSum, interval: tuple[float, float], grid_points: int) -> int:
    """Strict sign changes of the sum over a regular grid.

    A lower bound on the zero count: tangential (non-crossing) zeros are not
    counted, and exact zero samples are skipped rather than counted twice.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValueError("interval must be finite with hi > lo")
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    vals = es(np.linspace(lo, hi, grid_points))
    signs = np.sign(vals)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] * signs[:-1] < 0))


@dataclass(frozen=True)
class Prop1FuzzRecord:
    """Sign changes of random exponential sums against the k - 1 zero bound."""

    ks: np.ndarray
    sign_changes: np.ndarray

    @property
    def violations(self) -> int:
        return int(np.sum(self.sign_changes > self.ks - 1))

    def to_json_dict(self) -> dict:
        return {"violations": self.violations, "count": len(self.ks)}


def _k_range(k_range) -> tuple[int, int]:
    """``k_range`` as whole numbers 1 <= k_lo <= k_hi, or ConfigError."""
    try:
        k_lo, k_hi = (operator.index(k) for k in k_range)
    except (TypeError, ValueError):
        raise ConfigError("k_range", f"k_range must be two integers, got {k_range!r}") from None
    if not 1 <= k_lo <= k_hi:
        raise ConfigError("k_range", f"k_range must satisfy 1 <= k_lo <= k_hi, got {k_range!r}")
    return k_lo, k_hi


def _interval(interval) -> tuple[float, float]:
    """``interval`` as two finite numbers lo < hi, or ConfigError."""
    try:
        lo, hi = (float(v) for v in interval)
    except (TypeError, ValueError):
        raise ConfigError("interval", f"interval must be two numbers, got {interval!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError("interval", f"interval must be finite with lo < hi, got {(lo, hi)!r}")
    return lo, hi


def _separated_exponents(rng: np.random.Generator, k: int, sep: float) -> np.ndarray:
    """k sorted exponents, uniform on [-3, 3] given that neighbours are at
    least ``sep`` apart: sorted uniforms on [-3, 3 - (k-1) sep], the i-th
    shifted up by i sep.  Needs (k-1) sep < 6."""
    return np.sort(rng.uniform(-3.0, 3.0 - (k - 1) * sep, k)) + sep * np.arange(k)


def prop1_fuzz(count: int, seed: int, *, k_range=(1, 6),
               exponent_separation: float = 0.1, coeff_range: float = 5.0,
               interval=(-8.0, 8.0), grid_points: int = 2001) -> Prop1FuzzRecord:
    """Count sign changes of ``count`` random exponential sums (Proposition 1).

    Each trial draws k in ``k_range``, sorted exponents in [-3, 3] at least
    ``exponent_separation`` apart, and coefficients in +-``coeff_range``, not
    all zero.  A sum with more than k - 1 sign changes is a violation.
    Options that no draw could meet are rejected up front with a ConfigError
    naming the option.
    """
    require_count("count", count, 0)
    k_lo, k_hi = _k_range(k_range)
    sep = float(exponent_separation)
    if not (math.isfinite(sep) and sep > 0.0):
        raise ConfigError("exponent_separation",
                          f"exponent_separation must be positive and finite, got {sep!r}")
    if k_hi > 1 and sep * (k_hi - 1) >= 6.0:
        raise ConfigError("exponent_separation", f"exponent_separation {sep!r} leaves no "
                          f"room for {k_hi} exponents in [-3, 3]; it must be below "
                          f"{6.0 / (k_hi - 1)!r}")
    if not (math.isfinite(coeff_range) and coeff_range > 0.0):
        raise ConfigError("coeff_range",
                          f"coeff_range must be positive and finite, got {coeff_range!r}")
    interval = _interval(interval)
    require_count("grid_points", grid_points, 2)
    rng = np.random.default_rng(seed)
    ks = np.empty(count, dtype=np.int64)
    changes = np.empty(count, dtype=np.int64)
    for trial in range(count):
        k = int(rng.integers(k_lo, k_hi + 1))
        b = _separated_exponents(rng, k, sep)
        while True:
            a = rng.uniform(-coeff_range, coeff_range, k)
            if np.any(a != 0.0):
                break
        ks[trial] = k
        changes[trial] = count_zeros(ExpSum(a, b), interval, grid_points)
    return Prop1FuzzRecord(ks, changes)


def hard_target(N: int):
    """cos((N+1) pi x) on [0, 1] and its alternation points i/(N+1).

    The target has N + 1 zeros; its values at the N + 2 alternation points
    alternate exactly between +1 and -1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")

    def g(x):
        return np.cos((N + 1) * np.pi * np.atleast_1d(np.asarray(x, dtype=float)))

    z = np.arange(N + 2) / (N + 1)
    return g, z


@dataclass(frozen=True)
class FiniteFamilySpec:
    """Finite parameter sets A, W, B; N = #(W x B) exactly."""

    a_set: np.ndarray
    w_set: np.ndarray
    b_set: np.ndarray

    def __post_init__(self):
        for name in ("a_set", "w_set", "b_set"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.size == 0:
                raise ValueError(f"{name} must be non-empty")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        return self.w_set.size * self.b_set.size


@dataclass(frozen=True)
class NonUapAuditRecord:
    """Per-trial minmax errors of sampled finite-family networks.

    ``certified_floor`` is Proposition 1's bound: a network whose error at
    the N + 2 alternation points stayed below 1 would change sign N + 1
    times there, but its numerator sums at most N exponentials.
    """

    certified_floor: ClassVar[float] = 1.0
    N: int
    max_context: int
    trials: int
    seed: int
    min_minmax_error: float
    max_distinct_terms: int
    structural_cap_holds: bool
    minmax_errors: np.ndarray
    distinct_terms: np.ndarray
    context_lengths: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "max_context": self.max_context,
            "trials": self.trials,
            "seed": self.seed,
            "min_minmax_error": self.min_minmax_error,
            "max_distinct_terms": self.max_distinct_terms,
            "structural_cap_holds": self.structural_cap_holds,
            "certified_floor": self.certified_floor,
        }


def nonuap_audit(family: FiniteFamilySpec, max_context: int, trials: int,
                 seed: int) -> NonUapAuditRecord:
    """Sample softmax networks from the family and test them on the hard target.

    Each trial draws a context length k <= max_context and k triples from
    A x W x B (arbitrary multiplicities).  The network depends on the triples
    only through their joint (cell, coefficient) counts, so the trial draws
    those counts directly from one multinomial over the N |A| pairs; the
    regrouped numerator has at most N terms, one per (w, b) cell.  The audit
    verifies that cap and measures the max error against cos((N+1) pi x) at
    the alternation points.  By Proposition 1 no trial can come in under
    ``certified_floor``; one that does raises ``FloorViolationError``.
    """
    require_count("max_context", max_context, 1, int(np.iinfo(np.int64).max))  # drawn as int64
    require_count("trials", trials, 1)
    N = family.N
    n_a = family.a_set.size
    g, z = hard_target(N)
    g_z = g(z)
    n_w, n_b = family.w_set.size, family.b_set.size
    # score matrix e^{w z + b} for the N regrouped cells at the audit points
    wb_w = np.repeat(family.w_set, n_b)
    wb_b = np.tile(family.b_set, n_w)
    cell_scores_t = np.exp(np.outer(z, wb_w) + wb_b).T       # (N, len(z))

    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_context + 1, size=trials)
    pair_probs = np.full(N * n_a, 1.0 / (N * n_a))
    minmax = np.empty(trials)
    distinct = np.empty(trials, dtype=np.int64)
    rows = max(1, _JOINT_CELLS // (N * n_a))
    for start in range(0, trials, rows):
        stop = min(trials, start + rows)
        joint = rng.multinomial(lengths[start:stop], pair_probs).reshape(-1, N, n_a)
        counts = joint.sum(axis=2)
        net = (joint @ family.a_set) @ cell_scores_t / (counts @ cell_scores_t)
        minmax[start:stop] = np.max(np.abs(net - g_z), axis=1)
        distinct[start:stop] = np.count_nonzero(counts, axis=1)
    below = np.flatnonzero(minmax < NonUapAuditRecord.certified_floor - _FLOOR_TOL)
    if below.size:
        raise FloorViolationError(int(below[0]), float(minmax[below[0]]),
                                  NonUapAuditRecord.certified_floor)
    cap_ok = bool(np.all(distinct <= N))
    return NonUapAuditRecord(N, max_context, trials, seed, float(np.min(minmax)),
                             int(np.max(distinct)), cap_ok, minmax, distinct, lengths)
