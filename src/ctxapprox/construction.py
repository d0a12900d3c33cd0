"""Finite-vocabulary context construction for a fixed sparse-mode Transformer.

Pipeline per output component: fit a one-hidden-layer network to the target,
express each coefficient with sqrt2/unit token counts (integer witnesses),
scan positional encodings for positions whose mapped rows land within a
per-neuron tolerance of the network's weight rows, and assign y tokens
(sqrt2 for q positions, signed units for l positions, zero elsewhere).
The three error stages (fit, coefficient perturbation, token realization) are
measured on the audit grid and each must stay within its budget; the finished
context is audited against the target on a 10x refined grid.

For relu the fitted network is first re-parameterized by positive homogeneity
into unit-coefficient copies with rows bounded by the vocabulary extent, which
makes the coefficient witnesses exact and keeps token counts (and therefore
the position-scan depth) tractable; non-homogeneous activations take the
literal integer-witness route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import inf_operator_norm, solve_refined
from .errors import (BudgetError, DimensionError, EpsilonRangeError,
                     NonFiniteTargetError, PositionScanExhausted)
from .fnn import RELU, Activation, FitResult, fit_fnn, fnn_forward_batch
from .grids import Grid, as_points, lifted
from .kronecker import SQRT2, TokenDecomposition, coefficient_decompose
from .transformer import TransformerParams
from .vocab_pe import (PeScheme, Vocabulary, _cw_stream_coords, _morton_levels,
                       _morton_offset, _morton_stream_bounds, _morton_split, pe_block)

_TOKEN_SAFETY = 1.25

_J_CAP_MAX = 1 << 62   # position indices, Morton streams and pe_block work in int64
_CHUNK = 1 << 16       # stream values or candidate tuples handled at a time


def _require_positive_finite(name: str, value: float):
    """NaN passes a plain ``<= 0`` check and would stall the scan, so test finiteness too."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_j_cap(j_cap: int):
    if j_cap < 1:
        raise ValueError(f"j_cap must be >= 1, got {j_cap}")
    if j_cap > _J_CAP_MAX:
        raise ValueError(f"j_cap must be <= 2^62, got {j_cap}")


# --------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class StageBudgets:
    """Error budgets for the fit / coefficient-perturbation / token stages."""

    fit: float
    perturb: float
    tokens: float

    def __post_init__(self):
        for name in ("fit", "perturb", "tokens"):
            _require_positive_finite(f"budget {name}", getattr(self, name))

    @property
    def total(self) -> float:
        return self.fit + self.perturb + self.tokens

    @staticmethod
    def thirds(epsilon: float) -> "StageBudgets":
        return StageBudgets(epsilon / 3.0, epsilon / 3.0, epsilon / 3.0)

    def to_json_dict(self) -> dict:
        return {"fit": self.fit, "perturb": self.perturb, "tokens": self.tokens}


@dataclass(frozen=True)
class Caps:
    j_cap: int = 60_000_000
    q_cap: int = 1_000_000

    def __post_init__(self):
        _require_j_cap(self.j_cap)
        if self.q_cap < 1:
            raise ValueError(f"q_cap must be >= 1, got {self.q_cap}")


@dataclass
class NeuronPlan:
    """One token group: a target row and its integer coefficient witness.

    ``token_error_bound`` is the group's term of the stage-3 inequality chain,
    (sqrt2 q + l) * L_sigma * tol * max||x~||_1; the groups' bounds sum to at
    most the token budget.
    """

    index: int
    component: int
    target_row: np.ndarray
    witness: TokenDecomposition
    tol: float = 0.0
    token_error_bound: float = 0.0
    positions_sqrt2: list = field(default_factory=list)
    positions_unit: list = field(default_factory=list)

    @property
    def coefficient(self) -> float:
        return self.witness.value

    @property
    def demand(self) -> int:
        return self.witness.token_count

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "component": self.component,
            "target_row": self.target_row.tolist(),
            "witness": self.witness.to_json_dict(),
            "tol": self.tol,
            "token_error_bound": self.token_error_bound,
            "positions_sqrt2": [int(j) for j in self.positions_sqrt2],
            "positions_unit": [int(j) for j in self.positions_unit],
        }


@dataclass(frozen=True)
class TokenAssignment:
    position: int
    vocab_index: int
    role: str  # sqrt2 | plus_unit | minus_unit
    neuron: int
    component: int
    y_value: float

    def to_json_dict(self) -> dict:
        return {"position": self.position, "vocab_index": self.vocab_index,
                "role": self.role, "neuron": self.neuron,
                "component": self.component, "y_value": self.y_value}


@dataclass(frozen=True)
class ConstructionReport:
    """Constructed context with provenance, budget accounting, and audit.

    The context is stored sparsely: every position up to n that is not listed
    in ``tokens`` is nulled (vocabulary index 0, y = 0).  ``dense_context``
    materializes the full (X, Y) pair for small n.
    """

    mode: str
    epsilon: float
    budgets: StageBudgets
    measured: dict
    achieved_sup_error: float
    n: int
    seed: int
    tokens: tuple
    per_neuron: tuple
    d_x: int
    d_y: int
    scale: float
    lambda_: float | None
    vocab: Vocabulary
    scheme: PeScheme
    fit_sup_error: float

    def __post_init__(self):
        seen = set()
        for t in self.tokens:
            if t.position in seen:
                raise ValueError(f"position {t.position} assigned twice")
            seen.add(t.position)

    @property
    def nulled_count(self) -> int:
        return self.n - len(self.tokens)

    @property
    def max_q_plus_l(self) -> int:
        return max((p.witness.token_count for p in self.per_neuron), default=0)

    def index_sets_disjoint(self) -> bool:
        all_pos = [j for p in self.per_neuron
                   for j in list(p.positions_sqrt2) + list(p.positions_unit)]
        return len(all_pos) == len(set(all_pos))

    def dense_context(self, limit: int = 200_000) -> tuple[np.ndarray, np.ndarray]:
        """Materialize (X, Y) with nulled positions filled in (x token 0, y 0)."""
        if self.n > limit:
            raise MemoryError(f"n = {self.n} exceeds materialization limit {limit}")
        X = np.tile(self.vocab.v_x[0][:, None], (1, self.n))
        Y = np.zeros((self.d_y, self.n))
        for t in self.tokens:
            X[:, t.position - 1] = self.vocab.v_x[t.vocab_index]
            Y[t.component, t.position - 1] = t.y_value
        return X, Y

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "budgets": self.budgets.to_json_dict(),
            "measured": dict(self.measured),
            "achieved_sup_error": self.achieved_sup_error,
            "n": self.n,
            "nulled_count": self.nulled_count,
            "seed": self.seed,
            "d_x": self.d_x,
            "d_y": self.d_y,
            "scale": self.scale,
            "lambda": self.lambda_,
            "fit_sup_error": self.fit_sup_error,
            "max_q_plus_l": self.max_q_plus_l,
            "per_neuron": [p.to_json_dict() for p in self.per_neuron],
            "tokens": [t.to_json_dict() for t in self.tokens],
            "vocab": self.vocab.to_json_dict(),
            "scheme": self.scheme.to_json_dict(),
        }

    def write_tokens_csv(self, fh, nulled_limit: int = 100_000):
        """Token CSV; nulled rows are included only when n <= nulled_limit."""
        fh.write("position,vocab_index,role,neuron,component,y_value\n")
        by_pos = {t.position: t for t in self.tokens}
        if self.n <= nulled_limit:
            for j in range(1, self.n + 1):
                t = by_pos.get(j)
                if t is None:
                    fh.write(f"{j},0,nulled,-1,-1,0\n")
                else:
                    fh.write(f"{j},{t.vocab_index},{t.role},{t.neuron},"
                             f"{t.component},{t.y_value:.17g}\n")
        else:
            for t in sorted(self.tokens, key=lambda t: t.position):
                fh.write(f"{t.position},{t.vocab_index},{t.role},{t.neuron},"
                         f"{t.component},{t.y_value:.17g}\n")


# --------------------------------------------------------------------------
# position scanning


def _sup_dist(cols, point: np.ndarray) -> np.ndarray:
    """Sup-norm distance from N points, given as d columns, to ``point``.

    A running maximum over the d columns: numpy's row reduction and row-wise
    broadcasting are both slow for a handful of columns.
    """
    out = np.abs(cols[0] - point[0])
    for k in range(1, len(cols)):
        np.maximum(out, np.abs(cols[k] - point[k]), out=out)
    return out


def _mapped(cmap: np.ndarray, z) -> list:
    """Columns of the rows cmap @ z_n of N points given as d columns z.

    Each entry is d multiply-adds in a fixed order, so a point's row has the
    same bits however many points are mapped together.  A BLAS product may
    sum in a shape-dependent order, and both grid paths must decide a
    position alike.
    """
    out = []
    for c in cmap:
        acc = c[0] * z[0]
        for k in range(1, len(z)):
            acc = acc + c[k] * z[k]
        out.append(acc)
    return out


@dataclass
class ScanTarget:
    row: np.ndarray
    tol: float
    demand: int


@dataclass(frozen=True)
class ScanHit:
    position: int
    vocab_index: int


class _CellGrid:
    """Nearest-cell data of a grid vocabulary for a set of scan targets."""

    def __init__(self, lo, h, per_dim, cmap, inv, rows):
        self.lo, self.h, self.per_dim = lo, h, per_dim
        self.u = solve_refined(cmap, rows.T, "C^T B").T           # token-space targets
        self.inv_rows = np.sum(np.abs(inv), axis=1)
        # A hit has |cmap (z - u)| <= tol + the rounding of its row (at most
        # ulps |cmap| (|u| + 2 |inv| tol)) + the residual of u, and the
        # computed inverse is off by at most ulps * cond, relatively.
        ulps = 4 * (cmap.shape[0] + 2) * np.finfo(float).eps
        norm = inf_operator_norm(cmap)
        residual = [float(np.max(_sup_dist(_mapped(cmap, u[:, None]), r)))
                    for u, r in zip(self.u, rows)]
        self._slack = residual + ulps * (norm * np.max(np.abs(self.u), axis=1)
                                         + np.max(np.abs(rows), axis=1))
        self._cond_ulps = ulps * norm * float(np.max(self.inv_rows))

    @classmethod
    def build(cls, vocab: Vocabulary, cmap: np.ndarray, rows: np.ndarray,
              tols: np.ndarray) -> "_CellGrid | None":
        """The grid data when the vocabulary is a grid and every tolerance puts
        a hit within 0.45 h of the wanted token in every coordinate, so that
        only the nearest cell can hit; None otherwise."""
        if vocab.x_grid_spec is None:
            return None
        lo, hi, per_dim = vocab.x_grid_spec
        lo = np.array(lo, dtype=float)
        h = (np.array(hi, dtype=float) - lo) / max(per_dim - 1, 1)
        inv = np.linalg.inv(cmap)
        if per_dim < 2 or not np.all(tols * inf_operator_norm(inv) <= 0.45 * np.min(h)):
            return None
        return cls(lo, h, int(per_dim), cmap, inv, rows)

    def nearest(self, ti: int, k: int, coords: np.ndarray):
        """Clipped nearest cell along dimension k at PE coordinates ``coords``,
        and z = its value + the coordinate; the one formula both grid paths use."""
        cell = np.clip(np.rint((self.u[ti, k] - coords - self.lo[k]) / self.h[k]),
                       0, self.per_dim - 1)
        return cell, (self.lo[k] + cell * self.h[k]) + coords

    def half_widths(self, ti: int, tol: float) -> np.ndarray:
        """Per-dimension bound on |z_k - u_k| for every z whose computed row
        lies within ``tol`` of the target row: the box (C^T B)^-1 [-tol, tol]^d,
        widened by the rounding of the row, of u and of the inverse."""
        c = self._cond_ulps
        return (tol * (1 + 2 * c) + self._slack[ti]) * self.inv_rows * (1 + c)


class _Scan:
    """One FCFS scan: its targets, remaining demand, hits and best distances."""

    def __init__(self, targets: list[ScanTarget], vocab: Vocabulary, tp: TransformerParams):
        self.vocab = vocab
        self.cmap = tp.C.T @ tp.B                      # row(v, j) = cmap @ (v + P_j)
        self.rows = np.array([t.row for t in targets])  # (T, d)
        self.tols = np.array([t.tol for t in targets])
        if not np.all(np.isfinite(self.tols) & (self.tols > 0)):
            raise ValueError("scan tolerances must be positive and finite")
        self.demand = np.array([t.demand for t in targets], dtype=np.int64)
        self.collected: list[list[ScanHit]] = [[] for _ in targets]
        self.best = np.full(len(targets), np.inf)
        self.grid = _CellGrid.build(vocab, self.cmap, self.rows, self.tols)

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def dist(self, ti: int, z) -> np.ndarray:
        """Sup distance from the rows of the points z (d columns) to target ti's row."""
        return _sup_dist(_mapped(self.cmap, z), self.rows[ti])

    def check(self, ti: int, dist: np.ndarray) -> np.ndarray:
        """Indices of the hits among the distances to target ti; records the least."""
        self.best[ti] = min(self.best[ti], float(np.min(dist)))
        return np.nonzero(dist < self.tols[ti])[0]

    def vocab_index(self, cells) -> np.ndarray:
        return np.ravel_multi_index([c.astype(np.int64) for c in cells],
                                    (self.grid.per_dim,) * len(cells))

    def assign(self, hits: list):
        """Gives out the hits, (positions, vocab indices, target) triples, in
        (position, vocab index, target) order; a position holds one token and
        a target takes no more than its demand."""
        if not hits:
            return
        hj = np.concatenate([h[0] for h in hits])
        hv = np.concatenate([h[1] for h in hits])
        ht = np.concatenate([np.full(len(h[0]), h[2], dtype=np.int64) for h in hits])
        used_pos = set()
        for idx in np.lexsort((ht, hv, hj)):
            ti = int(ht[idx])
            pos = int(hj[idx])
            if self.demand[ti] <= 0 or pos in used_pos:
                continue
            used_pos.add(pos)
            self.demand[ti] -= 1
            self.collected[ti].append(ScanHit(pos, int(hv[idx])))

    def result(self, j_cap: int) -> list[list[ScanHit]]:
        if np.any(self.demand > 0):
            unmet = [{"target_index": i, "remaining": int(self.demand[i]),
                      "best_distance": float(self.best[i]), "tol": float(self.tols[i])}
                     for i in range(len(self.demand)) if self.demand[i] > 0]
            raise PositionScanExhausted(j_cap, unmet)
        return self.collected


def _block_scan(scan: _Scan, scheme: PeScheme, start_j: int, j_cap: int,
                block: int = 1 << 15) -> list[list[ScanHit]]:
    """Walk over every position from start_j, one block of encodings at a time.

    The path for every case the candidate path does not take, and the
    reference it is tested against.  Under the fast-path condition only the
    nearest cell is checked; a vocabulary that is not a grid tries every entry.
    """
    j = start_j
    while j <= j_cap and np.any(scan.demand > 0):
        count = min(block, j_cap - j + 1)
        pe = pe_block(scheme, j, count)                       # (count, d)
        hits = []
        open_idx = np.nonzero(scan.demand > 0)[0]
        if scan.grid is not None:
            for ti in open_idx:
                cells, z = zip(*(scan.grid.nearest(ti, k, pe[:, k]) for k in range(scan.d)))
                sel = scan.check(ti, scan.dist(ti, z))
                hits.append((sel + j, scan.vocab_index([c[sel] for c in cells]), ti))
        else:
            for vi, v in enumerate(scan.vocab.v_x):
                rv = _mapped(scan.cmap, (v + pe).T)
                for ti in open_idx:
                    sel = scan.check(ti, _sup_dist(rv, scan.rows[ti]))
                    hits.append((sel + j, np.full(sel.size, vi, dtype=np.int64), ti))
        scan.assign(hits)
        j += count
    return scan.result(j_cap)


class _Streams:
    """Per dimension, the stream values of one target whose nearest cell lies
    in a box around its token-space target and that an index up to t_last can
    hold: Morton offset, cell and z of each."""

    def __init__(self, scan: _Scan, ti: int, t_last: int):
        self.scan, self.ti = scan, ti
        self.bounds = _morton_stream_bounds(t_last, scan.d)
        self.kept = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
                     for _ in range(scan.d)]

    def extend(self, s: np.ndarray, coords: np.ndarray, widths: np.ndarray):
        """Adds the values ``s`` (coordinates ``coords``) that lie in the box of
        half-widths ``widths`` and drops the kept values that no longer do."""
        grid, d = self.scan.grid, self.scan.d
        for k in range(d):
            u = grid.u[self.ti, k]
            cell, z = grid.nearest(self.ti, k, coords)
            sel = (np.abs(z - u) <= widths[k]) & (s < self.bounds[k])
            new = (_morton_offset(s[sel], d, k), cell[sel], z[sel])
            still = np.abs(self.kept[k][2] - u) <= widths[k]
            self.kept[k] = tuple(np.concatenate((old[still], add))
                                 for old, add in zip(self.kept[k], new))

    def candidates(self, t_lo: int, t_hi: int):
        """Yields (t, cells, z) for the tuples of kept values whose index t lies
        in [t_lo, t_hi), at most _CHUNK tuples at a time."""
        sizes = [len(kept[0]) for kept in self.kept]
        total = math.prod(sizes)
        for first in range(0, total, _CHUNK):
            idx = np.unravel_index(np.arange(first, min(first + _CHUNK, total)), sizes)
            t = sum(kept[0][i] for kept, i in zip(self.kept, idx))
            sel = np.nonzero((t >= t_lo) & (t < t_hi))[0]
            if sel.size:
                pick = [i[sel] for i in idx]
                yield (t[sel], [kept[1][i] for kept, i in zip(self.kept, pick)],
                       [kept[2][i] for kept, i in zip(self.kept, pick)])


def _walk_levels(scheme: PeScheme, d: int, start_j: int, j_cap: int, extend, visit):
    """Calls ``visit(t_lo, t_hi)`` for the Morton levels of positions [start_j,
    j_cap] in order, with t = j - 1; before a level is visited,
    ``extend(s, coords)`` sees the stream values that the level adds, in
    chunks.  The walk stops when ``visit`` returns False."""
    seen = 0
    for level, t_lo, t_hi in _morton_levels(start_j - 1, j_cap - 1, d):
        for s_lo in range(seen, 1 << level, _CHUNK):
            s = np.arange(s_lo, min(1 << level, s_lo + _CHUNK), dtype=np.int64)
            extend(s, _cw_stream_coords(scheme, s))
        seen = 1 << level
        if not visit(t_lo, t_hi):
            return


def _candidate_scan(scan: _Scan, scheme: PeScheme, start_j: int,
                    j_cap: int) -> list[list[ScanHit]]:
    """Grid fast path for the Calkin-Wilf lattice, from candidates per dimension.

    Coordinate k of P(j) depends only on stream k of j - 1 and the nearest
    cell is taken per coordinate, so a hit needs each stream's z_k inside the
    target's box.  Per level, the streams that pass are combined into
    candidate positions, each re-checked exactly with the block path's
    formula, and the hits are given out in position order; the walk stops at
    the first level that meets every demand.  For targets left unmet, a second
    walk finds the least nearest-cell distance over [start_j, j_cap].
    """
    grid = scan.grid
    streams = {ti: _Streams(scan, ti, j_cap - 1) for ti in np.nonzero(scan.demand > 0)[0]}

    def extend_hits(s, coords):
        for ti in np.nonzero(scan.demand > 0)[0]:
            streams[ti].extend(s, coords, grid.half_widths(ti, scan.tols[ti]))

    def visit_hits(t_lo, t_hi):
        open_idx = np.nonzero(scan.demand > 0)[0]
        # the other targets take at most quota - demand of one target's hits,
        # so its first quota hits in position order are all it can use
        quota = int(np.sum(scan.demand[open_idx]))
        hits = []
        for ti in open_idx:
            pos, vix = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
            for t, cells, z in streams[ti].candidates(t_lo, t_hi):
                sel = scan.check(ti, scan.dist(ti, z))
                pos = np.concatenate((pos, t[sel] + 1))
                vix = np.concatenate((vix, scan.vocab_index([c[sel] for c in cells])))
                if pos.size > quota:
                    first = np.argsort(pos)[:quota]
                    pos, vix = pos[first], vix[first]
            hits.append((pos, vix, ti))
        scan.assign(hits)
        return bool(np.any(scan.demand > 0))

    _walk_levels(scheme, scan.d, start_j, j_cap, extend_hits, visit_hits)

    unmet = np.nonzero(scan.demand > 0)[0]
    if unmet.size and start_j <= j_cap:
        # each box is widened to a distance reached at some j in range, so the
        # minimiser stays inside it while each level shrinks it
        first = _cw_stream_coords(scheme, _morton_split(np.array([start_j - 1]), scan.d))
        for ti in unmet:
            if not np.isfinite(scan.best[ti]):
                scan.check(ti, scan.dist(ti, [grid.nearest(ti, k, first[k])[1]
                                              for k in range(scan.d)]))
        streams = {ti: _Streams(scan, ti, j_cap - 1) for ti in unmet}

        def extend_best(s, coords):
            for ti in unmet:
                streams[ti].extend(s, coords, grid.half_widths(ti, scan.best[ti]))

        def visit_best(t_lo, t_hi):
            for ti in unmet:
                for _, _, z in streams[ti].candidates(t_lo, t_hi):
                    scan.check(ti, scan.dist(ti, z))
            return True

        _walk_levels(scheme, scan.d, start_j, j_cap, extend_best, visit_best)
    return scan.result(j_cap)


def _scan_engine(targets: list[ScanTarget], vocab: Vocabulary, scheme: PeScheme,
                 tp: TransformerParams, start_j: int, j_cap: int) -> list[list[ScanHit]]:
    """FCFS multi-target scan over strictly increasing position index.

    At each position every vocabulary entry is tried in index order and the
    hit with the lowest (vocab index, target index) wins; a position holds at
    most one token.  Deterministic.  A Calkin-Wilf scheme on a grid
    vocabulary under the fast-path condition takes the candidate path, and
    everything else walks every position; both give the same hits and, on
    exhaustion, the same best distances.
    """
    if start_j < 1:
        raise ValueError(f"start_j must be >= 1, got {start_j}")
    _require_j_cap(j_cap)
    if not targets:
        return []
    scan = _Scan(targets, vocab, tp)
    if scan.grid is not None and scheme.kind == "calkin_wilf_lattice":
        return _candidate_scan(scan, scheme, start_j, j_cap)
    return _block_scan(scan, scheme, start_j, j_cap)


# --------------------------------------------------------------------------
# construction


@dataclass(frozen=True)
class FitOptions:
    k: int = 16
    refine_steps: int = 600
    feature_scale: float = 3.0
    ridge: float = 0.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.refine_steps < 0:
            raise ValueError(f"refine_steps must be >= 0, got {self.refine_steps}")
        _require_positive_finite("feature_scale", self.feature_scale)
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")


# rescaled relu route: lambda from the largest |entry| m of the rows [W | b]
_LAMBDA_POLICIES = {
    "max_row": lambda m: max(1.0, m),
    "pow2": lambda m: float(2 ** max(0, math.ceil(math.log2(max(m, 1.0))))),
    "int": lambda m: float(max(1, math.ceil(m))),
}


def _target_values(target, points: np.ndarray, d_y: int, grid_name: str) -> np.ndarray:
    """The target at the points, (N, d_y); a non-finite value is a numerical failure."""
    vals = np.asarray(target(points), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[1] != d_y:
        raise DimensionError(f"target returns {vals.shape[1]} components, expected {d_y}")
    bad = ~np.all(np.isfinite(vals), axis=1)
    if np.any(bad):
        raise NonFiniteTargetError(grid_name, points[bad])
    return vals


def _activation_lipschitz(activation: Activation, z_lo: float, z_hi: float) -> float:
    """Bound on the activation slope over [z_lo, z_hi] (with headroom)."""
    if activation.kind == "relu":
        return 1.0
    if activation.kind == "exp":
        # beyond the float range the derived scan tolerance underflows and
        # the construction reports that instead of overflowing here
        return math.exp(min(z_hi, 700.0))
    z = np.linspace(z_lo, z_hi, 4097)
    dz = np.diff(activation(z)) / np.diff(z)
    return float(np.max(np.abs(dz))) * 1.1 + 1e-12


def _token_rows(tokens, vocab, scheme, cmap) -> np.ndarray:
    """Mapped rows of assigned tokens, recomputed exactly from (i, j)."""
    rows = np.empty((len(tokens), cmap.shape[0]))
    for idx, t in enumerate(tokens):
        pe = pe_block(scheme, t.position, 1)[0]
        rows[idx] = cmap @ (vocab.v_x[t.vocab_index] + pe)
    return rows


def _token_prefix_sums(token_rows, tokens, x_tilde, activation, d_y):
    """Yields sum_{j<=t} y_j sigma(row_j . x~) per component, (N, d_y), for t = 0..T.

    One array is updated in place and yielded after each token.
    """
    out = np.zeros((x_tilde.shape[0], d_y))
    yield out
    if not tokens:
        return
    act = activation(x_tilde @ token_rows.T)            # (N, T)
    for idx, t in enumerate(tokens):
        out[:, t.component] += t.y_value * act[:, idx]
        yield out


def _token_sum(token_rows, tokens, x_tilde, activation, d_y) -> np.ndarray:
    """sum_j y_j sigma(row_j . x~) per component; (N, d_y)."""
    *_, out = _token_prefix_sums(token_rows, tokens, x_tilde, activation, d_y)
    return out


def _readout_error(U: np.ndarray, vals: np.ndarray, f_vals: np.ndarray) -> float:
    """max |U vals - f| over the points; ``vals`` and ``f_vals`` are (N, d_y)."""
    return float(np.max(np.abs((U @ vals.T).T - f_vals)))


def _fit_stage(tp, pts, f_vals, fnn, fit, activation, seed):
    """Stage 1: one fitted (or given) network per output; returns the fits,
    their outputs on the grid (N, d_y) and the fit error."""
    g_vals = solve_refined(tp.U, f_vals.T, "U").T   # token-sum target
    fits: list[FitResult] = []
    for comp in range(tp.d_y):
        params = fnn[comp] if fnn is not None else None
        if params is None:
            fits.append(fit_fnn((pts, g_vals[:, comp]), fit.k, activation, seed + comp,
                                ridge=fit.ridge, refine_steps=fit.refine_steps,
                                feature_scale=fit.feature_scale))
            continue
        if params.d_in != pts.shape[1] or params.d_y != 1:
            raise DimensionError("override network has wrong dimensions")
        err = float(np.max(np.abs(fnn_forward_batch(params, pts)[:, 0] - g_vals[:, comp])))
        fits.append(FitResult(params, err, 0.0, False))
    fnn_eval = np.column_stack([fnn_forward_batch(fr.params, pts)[:, 0] for fr in fits])
    return fits, fnn_eval, _readout_error(tp.U, fnn_eval, f_vals)


def _lambda(nets, policy: str) -> float:
    """Rescaling factor of the relu route for the rows ``[W | b]`` of ``nets``."""
    return _LAMBDA_POLICIES[policy](max(float(np.max(np.abs(rows))) for rows, _ in nets))


def _witness_stage(tp, nets, cmap, x_extent, x_tilde, activation, perturb_inner,
                   use_homog, q_cap, fnn_eval):
    """Stage 2: plans with integer witnesses for the neurons of ``nets``, (rows
    [W | b], coefficients) per output; ``use_homog`` (relu) splits a neuron into
    exact unit-coefficient copies with token-space rows inside the vocabulary's
    reach.  Returns the plans, the perturbed network on the grid and its error."""
    cmap_inv_norm = inf_operator_norm(np.linalg.inv(cmap))
    plans: list[NeuronPlan] = []
    perturbed = np.zeros((x_tilde.shape[0], tp.d_y))
    for comp, (rows, coeffs) in enumerate(nets):
        k = len(coeffs)
        for row_i, a_i in zip(rows, coeffs):
            a_i = float(a_i)
            m1_i = float(np.max(np.abs(activation(x_tilde @ row_i))))
            if abs(a_i) * max(m1_i, 1e-300) <= 0.001 * perturb_inner / max(k, 1):
                continue  # negligible neuron, absorbed by the perturb budget
            if use_homog:
                token_norm = cmap_inv_norm * float(np.max(np.abs(abs(a_i) * row_i)))
                copies = max(1, math.ceil(token_norm / max(x_extent, 1e-12)))
                sign = 1 if a_i >= 0 else -1
                wit = TokenDecomposition(float(sign), 0, 1, sign, 0.0)
                new = [NeuronPlan(len(plans) + c, comp, (abs(a_i) / copies) * row_i, wit)
                       for c in range(copies)]
            else:
                wit = coefficient_decompose(a_i, perturb_inner / (k * max(m1_i, 1e-12)),
                                            q_cap)
                new = [NeuronPlan(len(plans), comp, row_i.copy(), wit)]
            for p in new:
                perturbed[:, comp] += p.coefficient * activation(x_tilde @ p.target_row)
            plans.extend(new)
    return plans, perturbed, float(np.max(np.abs(tp.U @ (perturbed - fnn_eval).T)))


def _token_stage(plans, tp, vocab, scheme, cmap, x_tilde, m_hat, activation,
                 tokens_inner, j_cap, perturbed):
    """Stage 3: scan with one tolerance that splits the token budget over the
    plans' token weights, then put sqrt2 on a plan's first q positions and its
    unit sign on the rest.  Returns the tokens in position order, their mapped
    rows, their sum on the grid and its error."""
    collected = []
    if plans:
        weights = [SQRT2 * p.witness.count_sqrt2 + p.witness.count_unit for p in plans]
        z_vals = np.array([x_tilde @ p.target_row for p in plans])
        lip = _activation_lipschitz(
            activation, float(np.min(z_vals)) - 0.5, float(np.max(z_vals)) + 0.5)
        tol = tokens_inner / (_TOKEN_SAFETY * m_hat * lip * sum(weights))
        if not (math.isfinite(tol) and tol > 0):
            raise EpsilonRangeError(f"scan tolerance {tol!r} is not a positive finite "
                                    f"float (activation slope bound {lip:.3e})")
        for p, w in zip(plans, weights):
            p.tol = tol
            p.token_error_bound = w * lip * tol * m_hat
        collected = _scan_engine([ScanTarget(p.target_row, tol, p.demand) for p in plans],
                                 vocab, scheme, tp, 1, j_cap)

    tokens: list[TokenAssignment] = []
    for p, hits in zip(plans, collected):
        hits = sorted(hits, key=lambda h: h.position)
        q = p.witness.count_sqrt2
        unit = ("plus_unit" if p.witness.unit_sign > 0 else "minus_unit",
                float(p.witness.unit_sign))
        for rank, h in enumerate(hits):
            role, y = ("sqrt2", SQRT2) if rank < q else unit
            (p.positions_sqrt2 if rank < q else p.positions_unit).append(h.position)
            y_vec = np.zeros(tp.d_y)
            y_vec[p.component] = y
            if vocab.y_index_of(y_vec) is None:   # bit-exact membership in V_y
                raise ValueError(f"y token {y_vec} not in V_y")
            tokens.append(TokenAssignment(h.position, h.vocab_index, role,
                                          p.index, p.component, y))
    tokens.sort(key=lambda t: t.position)
    trows = _token_rows(tokens, vocab, scheme, cmap)
    token_vals = _token_sum(trows, tokens, x_tilde, activation, tp.d_y)
    tokens_measured = float(np.max(np.abs(tp.U @ (token_vals - perturbed).T)))
    return tokens, trows, token_vals, tokens_measured


def _audit_stage(tokens, trows, token_vals, tp, activation, f_vals, x_tilde_audit, f_audit):
    """Stage 4: the finished context's readout error on the grid and the refined grid."""
    audit_vals = _token_sum(trows, tokens, x_tilde_audit, activation, tp.d_y)
    return (_readout_error(tp.U, token_vals, f_vals),
            _readout_error(tp.U, audit_vals, f_audit))


def construct_context(target, grid: Grid, vocab: Vocabulary, scheme: PeScheme,
                      tp: TransformerParams, epsilon: float, *,
                      activation: Activation = RELU,
                      budgets: StageBudgets | None = None, seed: int = 0,
                      fit: FitOptions | None = None, fnn: list | None = None,
                      caps: Caps | None = None, coefficient_mode: str = "auto",
                      lambda_policy: str | None = None) -> ConstructionReport:
    """Build a context whose readout approximates ``target`` within epsilon.

    ``target`` is a callable on (N, d_x - 1) query batches returning (N,) or
    (N, d_y) values; ``grid`` is the audit grid standing in for the compact
    domain.  Stages fit -> witnesses -> scan and assign -> audit run in
    turn, each checked against its budget before the next starts.  Each
    output component gets its own plans; one shared scan keeps the position
    sets disjoint, and every y token carries its value in one component.

    ``fnn`` optionally replaces the stage-1 fit with one network per output
    (its sup error on the grid is still measured against the fit budget).
    ``coefficient_mode`` is auto (homogeneous for relu) | homogeneous |
    kronecker.  A ``lambda_policy`` (max_row | pow2 | int) selects the
    rescaled relu route: rows [W | b] / lambda and coefficients A * lambda,
    with lambda from the largest row entry, decomposed by integer witnesses.
    Raises on budget violations, Kronecker cap exhaustion, and position-scan
    exhaustion.
    """
    _require_positive_finite("epsilon", epsilon)
    if coefficient_mode not in ("auto", "homogeneous", "kronecker"):
        raise ValueError("coefficient_mode must be auto | homogeneous | kronecker, "
                         f"got {coefficient_mode!r}")
    if lambda_policy not in (None, *_LAMBDA_POLICIES):
        raise ValueError(f"lambda_policy must be max_row | pow2 | int, got {lambda_policy!r}")
    if lambda_policy is not None and (activation.kind != "relu"
                                      or coefficient_mode == "homogeneous"):
        raise ValueError("lambda_policy selects the rescaled relu route, which needs "
                         f"relu and integer witnesses; got activation {activation.kind!r}, "
                         f"coefficient_mode {coefficient_mode!r}")
    if not tp.is_sparse_mode or np.any(tp.F != 0.0):
        raise ValueError("construction requires strict sparse mode (general "
                         "blocks absent and F = 0); nulled positions cannot "
                         "cancel F-terms")
    if not activation.is_elementwise:
        raise ValueError("softmax-activation construction is out of scope")
    use_homog = lambda_policy is None and (
        coefficient_mode == "homogeneous"
        or (coefficient_mode == "auto" and activation.kind == "relu"))
    if use_homog and activation.kind != "relu":
        raise ValueError("homogeneous coefficient mode needs relu")
    if vocab.d_x != tp.d_x or scheme.d_x != tp.d_x or vocab.d_y != tp.d_y:
        raise DimensionError("vocabulary/scheme dimensions disagree with parameters")
    if grid.dim != tp.d_x - 1:
        raise DimensionError(f"grid dimension {grid.dim} != d_x - 1 = {tp.d_x - 1}")
    budgets = budgets or StageBudgets.thirds(epsilon)
    if budgets.total > epsilon * (1 + 1e-12):
        raise ValueError("stage budgets exceed epsilon")
    caps = caps or Caps()
    if fnn is not None and len(fnn) != tp.d_y:
        raise DimensionError(f"need one override network per output, got "
                             f"{len(fnn)} for d_y = {tp.d_y}")

    pts = grid.points()
    audit_pts = grid.refined(10).points()
    f_vals = _target_values(target, pts, tp.d_y, "fit")
    f_audit = _target_values(target, audit_pts, tp.d_y, "audit")
    x_tilde = lifted(pts)
    u_scale = inf_operator_norm(tp.U) * math.sqrt(tp.d_y)
    cmap = tp.C.T @ tp.B                       # row(v, j) = cmap @ (v + P_j)

    fits, fnn_eval, fit_measured = _fit_stage(tp, pts, f_vals, fnn,
                                              fit or FitOptions(), activation, seed)
    if fit_measured >= budgets.fit:
        raise BudgetError("fit", fit_measured, budgets.fit)

    nets = [(np.hstack([fr.params.W, fr.params.b[:, None]]), fr.params.A[0])
            for fr in fits]
    lam = None if lambda_policy is None else _lambda(nets, lambda_policy)
    if lam is not None:
        nets = [(rows / lam, coeffs * lam) for rows, coeffs in nets]
    plans, perturbed, perturb_measured = _witness_stage(
        tp, nets, cmap, vocab.x_extent, x_tilde, activation, budgets.perturb / u_scale,
        use_homog, caps.q_cap, fnn_eval)
    if perturb_measured >= budgets.perturb:
        raise BudgetError("perturb", perturb_measured, budgets.perturb)

    tokens, trows, token_vals, tokens_measured = _token_stage(
        plans, tp, vocab, scheme, cmap, x_tilde, grid.max_x_tilde_l1(), activation,
        budgets.tokens / u_scale, caps.j_cap, perturbed)
    if tokens_measured >= budgets.tokens:
        raise BudgetError("tokens", tokens_measured, budgets.tokens)

    base_total, achieved = _audit_stage(tokens, trows, token_vals, tp, activation,
                                        f_vals, lifted(audit_pts), f_audit)
    if achieved >= epsilon:
        raise BudgetError("total", achieved, epsilon)

    measured = {"fit": fit_measured, "perturb": perturb_measured,
                "tokens": tokens_measured, "base_grid_total": base_total}
    return ConstructionReport(
        mode="dense" if lam is None else "rescaled", epsilon=epsilon,
        budgets=budgets, measured=measured, achieved_sup_error=achieved,
        n=max((t.position for t in tokens), default=0), seed=seed,
        tokens=tuple(tokens), per_neuron=tuple(plans), d_x=tp.d_x, d_y=tp.d_y,
        scale=1.0, lambda_=lam, vocab=vocab, scheme=scheme,
        fit_sup_error=max(fr.sup_error for fr in fits) if fits else 0.0)


def prefix_errors(report: ConstructionReport, tp: TransformerParams,
                  activation: Activation, points, f_vals) -> list[tuple[int, int, float]]:
    """Sup error at the points using only the first t tokens, for t = 0..T.

    Rows are (n, t, error), where n is the position of the t-th token (0 for
    t = 0) and error is max |U sum_{j<=t} y_j sigma(row_j . x~) - f|.
    """
    x_t = lifted(as_points(points, tp.d_x - 1))
    tokens = sorted(report.tokens, key=lambda t: t.position)
    rows = _token_rows(tokens, report.vocab, report.scheme, tp.C.T @ tp.B)
    sums = _token_prefix_sums(rows, tokens, x_t, activation, tp.d_y)
    return [(tokens[t - 1].position if t else 0, t, _readout_error(tp.U, vals, f_vals))
            for t, vals in enumerate(sums)]
