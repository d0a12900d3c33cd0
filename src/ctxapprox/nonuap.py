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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_DISTINCT_TOL = 1e-9


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

    def write_csv(self, fh):
        fh.write("trial,k,sign_changes\n")
        for t, (k, z) in enumerate(zip(self.ks, self.sign_changes)):
            fh.write(f"{t},{int(k)},{int(z)}\n")


def prop1_fuzz(count: int, seed: int, *, k_range=(1, 6),
               exponent_separation: float = 0.1, coeff_range: float = 5.0,
               interval=(-8.0, 8.0), grid_points: int = 2001) -> Prop1FuzzRecord:
    """Count sign changes of ``count`` random exponential sums (Proposition 1).

    Each trial draws k in ``k_range``, sorted exponents in [-3, 3] at least
    ``exponent_separation`` apart, and coefficients in +-``coeff_range``, not
    all zero.  A sum with more than k - 1 sign changes is a violation.
    """
    k_lo, k_hi = k_range
    rng = np.random.default_rng(seed)
    ks = np.empty(count, dtype=np.int64)
    changes = np.empty(count, dtype=np.int64)
    for trial in range(count):
        k = int(rng.integers(k_lo, k_hi + 1))
        while True:
            b = np.sort(rng.uniform(-3.0, 3.0, k))
            if k == 1 or np.min(np.diff(b)) >= exponent_separation:
                break
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
        }

    def write_csv(self, fh):
        fh.write("trial,context_length,minmax_error,distinct_terms\n")
        for t, (n, e, d) in enumerate(
                zip(self.context_lengths, self.minmax_errors, self.distinct_terms)):
            fh.write(f"{t},{int(n)},{e:.17g},{int(d)}\n")


def regroup_terms(a: np.ndarray, cell: np.ndarray, N: int) -> np.ndarray:
    """Sum coefficients of identical (w, b) keys; returns length-N sums."""
    return np.bincount(cell, weights=a, minlength=N)


def nonuap_audit(family: FiniteFamilySpec, max_context: int, trials: int,
                 seed: int) -> NonUapAuditRecord:
    """Sample softmax networks from the family and test them on the hard target.

    Each trial draws a context length k <= max_context and k triples from
    A x W x B (arbitrary multiplicities), regroups the numerator by exact
    (w, b) key, verifies the distinct-term count stays <= N, and measures the
    max error against cos((N+1) pi x) at the alternation points.  Returns the
    per-trial records and the min over trials of that max error.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if max_context < 1:
        raise ValueError("max_context must be >= 1")
    N = family.N
    g, z = hard_target(N)
    g_z = g(z)
    n_w, n_b = family.w_set.size, family.b_set.size
    # score matrix e^{w z + b} for the N regrouped cells at the audit points
    wb_w = np.repeat(family.w_set, n_b)
    wb_b = np.tile(family.b_set, n_w)
    cell_scores = np.exp(np.outer(z, wb_w) + wb_b)           # (len(z), N)

    rng = np.random.default_rng(seed)
    minmax = np.empty(trials)
    distinct = np.empty(trials, dtype=np.int64)
    lengths = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        k = int(rng.integers(1, max_context + 1))
        cells = rng.integers(0, N, size=k)
        a = rng.choice(family.a_set, size=k)
        a_grouped = regroup_terms(a, cells, N)
        counts = np.bincount(cells, minlength=N)
        distinct[t] = int(np.count_nonzero(counts))
        lengths[t] = k
        num = cell_scores @ a_grouped
        den = cell_scores @ counts
        net = num / den
        minmax[t] = float(np.max(np.abs(net - g_z)))
    cap_ok = bool(np.all(distinct <= N))
    return NonUapAuditRecord(N, max_context, trials, seed, float(np.min(minmax)),
                             int(np.max(distinct)), cap_ok, minmax, distinct, lengths)
