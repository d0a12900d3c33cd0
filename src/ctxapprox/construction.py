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
from dataclasses import dataclass

import numpy as np

from ._linalg import inf_operator_norm, solve_refined
from .errors import (BudgetError, ConfigError, DimensionError, EpsilonRangeError,
                     NonFiniteFitError, NonFiniteTargetError, PositionScanExhausted,
                     TokenDemandError)
from .fnn import RELU, Activation, FitResult, fit_fnn, fnn_forward_batch
from .grids import Grid, lifted
from .kronecker import SQRT2, TokenDecomposition, coefficient_decompose
from .transformer import TransformerParams
from .vocab_pe import (PeScheme, Vocabulary, _cw_stream_coords, _morton_levels,
                       _morton_offset, _morton_stream_bounds, _same_dimension, pe_block,
                       pe_rows)

_TOKEN_SAFETY = 1.25

_J_CAP_MAX = 1 << 62   # position indices, Morton streams and pe_block work in int64
_CHUNK = 1 << 16       # stream values or candidate tuples handled at a time
_SCAN_BLOCK = 1 << 14   # (position, vocab entry) cells the block scan checks at a time
_SCAN_SPAN = 32        # positions the block scan decodes per pe_block call, at least
_SUM_CELLS = 1 << 14   # (point, token) cells of one row block of a token sum
_HEAD_BITS = 16        # the candidate scan visits the indices below 2^16 together


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

    Its positions are the report's tokens whose ``neuron`` is ``index``.
    ``token_error_bound`` is the group's term of the stage-3 inequality
    chain, (sqrt2 q + l) * L_sigma * tol * max||x~||_1; the groups' bounds
    sum to at most the token budget.
    """

    index: int
    component: int
    target_row: np.ndarray
    witness: TokenDecomposition
    tol: float = 0.0
    token_error_bound: float = 0.0

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
    materializes the full (X, Y) pair for small n.  ``tokens`` is the one
    record of the assignment, in position order; the JSON form records the
    vocabulary by hash.
    ``error_vs_n`` is (n, t, error) for t = 0..T: the fit-grid readout error
    of the first t tokens, the t-th at position n; the JSON form leaves it out.
    The JSON form keeps the keys ``"mode": "dense"`` and ``"lambda": null``
    of the report format, which no route varies.
    """

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
    vocab: Vocabulary
    scheme: PeScheme
    fit_sup_error: float
    error_vs_n: tuple = ()

    def __post_init__(self):
        seen = set()
        for t in self.tokens:
            if t.position in seen:
                raise ValueError(f"position {t.position} assigned twice")
            seen.add(t.position)

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
            "mode": "dense",
            "epsilon": self.epsilon,
            "budgets": self.budgets.to_json_dict(),
            "measured": dict(self.measured),
            "achieved_sup_error": self.achieved_sup_error,
            "n": self.n,
            "seed": self.seed,
            "d_x": self.d_x,
            "d_y": self.d_y,
            "lambda": None,
            "fit_sup_error": self.fit_sup_error,
            "per_neuron": [p.to_json_dict() for p in self.per_neuron],
            "tokens": [t.to_json_dict() for t in self.tokens],
            "vocab": self.vocab.to_json_dict(),
            "scheme": self.scheme.to_json_dict(),
        }


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
    sum in a shape-dependent order; every scan path and the token stage map
    with this one formula, so the rows the context holds are the rows the
    scan tested.
    """
    out = []
    for c in cmap:
        acc = c[0] * z[0]
        for k in range(1, len(z)):
            acc = acc + c[k] * z[k]
        out.append(acc)
    return out


class _CellGrid:
    """Nearest-cell data of a grid vocabulary for a set of scan targets."""

    def __init__(self, grid: Grid, h, cmap, inv, rows):
        self.axes = grid.axes()                 # the tokens' own coordinates, per dimension
        self.lo, self.h, self.per_dim = np.array(grid.lo), h, grid.counts[0]
        self.u = solve_refined(cmap, rows.T, "C^T B").T           # token-space targets
        self.inv_rows = np.sum(np.abs(inv), axis=1)
        # A hit has |cmap (z - u)| <= tol + the rounding of its row (at most
        # ulps |cmap| (|u| + 2 |inv| tol)) + the residual of u, and the
        # computed inverse is off by at most ulps * cond, relatively.
        ulps = 4 * (cmap.shape[0] + 2) * np.finfo(float).eps
        norm = inf_operator_norm(cmap)
        residual = _sup_dist(_mapped(cmap, self.u.T), rows.T)
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
        h = (np.array(hi) - np.array(lo)) / max(per_dim - 1, 1)
        inv = np.linalg.inv(cmap)
        if per_dim < 2 or not np.all(tols * inf_operator_norm(inv) <= 0.45 * np.min(h)):
            return None
        return cls(Grid(lo, hi, (per_dim,) * len(lo)), h, cmap, inv, rows)

    def nearest(self, ti, k: int, coords: np.ndarray):
        """Clipped nearest cell along dimension k at PE coordinates ``coords``,
        and z = the token's own coordinate there + the PE coordinate; the one
        formula both grid paths use.  An array of targets ``ti`` broadcasts
        against ``coords``."""
        cell = np.clip(np.rint((self.u[ti, k] - coords - self.lo[k]) / self.h[k]),
                       0, self.per_dim - 1).astype(np.intp)
        return cell, self.axes[k][cell] + coords

    def half_widths(self, tol: np.ndarray) -> np.ndarray:
        """Per-dimension bound on |z_k - u_k| for every z whose computed row
        lies within ``tol`` of the target row: the box (C^T B)^-1 [-tol, tol]^d,
        widened by the rounding of the row, of u and of the inverse.  One
        tolerance per target gives a (targets, d) array."""
        c = self._cond_ulps
        return (tol[:, None] * (1 + 2 * c) + self._slack[:, None]) * self.inv_rows * (1 + c)


class _Scan:
    """One FCFS scan of targets given as rows (T, d), a tolerance (one scalar or
    one per target) and a demand per target.  ``hits`` holds the (position,
    vocab index, target) triples given out, in increasing position order;
    ``held``, the (positions, vocab indices, targets) offered since; ``quota``,
    the open demand when ``held`` was last emptied; ``best``, the least distances."""

    def __init__(self, rows, tol, demand, vocab: Vocabulary, tp: TransformerParams):
        self.vocab = vocab
        self.cmap = tp.C.T @ tp.B                      # row(v, j) = cmap @ (v + P_j)
        self.rows = np.asarray(rows, dtype=float)
        self.tols = np.full(len(self.rows), tol, dtype=float)
        if not np.all(np.isfinite(self.tols) & (self.tols > 0)):
            raise ValueError("scan tolerances must be positive and finite")
        self.demand = np.array(demand, dtype=np.int64)
        self.hits: list[tuple[int, int, int]] = []
        self.held, self.quota = (np.empty(0, dtype=np.int64),) * 3, int(np.sum(self.demand))
        self.best = np.full(len(self.rows), np.inf)
        self.grid = _CellGrid.build(vocab, self.cmap, self.rows, self.tols)

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def dist(self, ti, z) -> np.ndarray:
        """Sup distance from the rows of the points z (d columns) to the row of
        target ti, one index or one per point."""
        return _sup_dist(_mapped(self.cmap, z), self.rows[ti].T)

    def check(self, ti: int, dist: np.ndarray) -> np.ndarray:
        """Indices of the hits among the distances to target ti; records the least."""
        self.best[ti] = min(self.best[ti], float(np.min(dist)))
        return np.nonzero(dist < self.tols[ti])[0]

    def check_grouped(self, ti: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """``check`` for distances to several targets, one per distance, each
        target's distances adjacent."""
        first = np.flatnonzero(np.diff(ti, prepend=-1))
        least = np.minimum.reduceat(dist, first)
        self.best[ti[first]] = np.minimum(self.best[ti[first]], least)
        return np.nonzero(dist < self.tols[ti])[0]

    def vocab_index(self, cells) -> np.ndarray:
        return np.ravel_multi_index(cells, (self.grid.per_dim,) * len(cells))

    def offer(self, pos: np.ndarray, vix: np.ndarray, tgt):
        """Keeps for ``assign`` each target's first ``quota`` positions among the
        hits ``pos``, ``vix`` (``tgt`` one or one per hit; one target's hits in
        (position, vocab index) order), each at its least vocab index, trimming
        past 2 quota T held hits.  Exact: only that index wins at a position,
        and the other targets take at most quota - demand of its positions."""
        if not pos.size:
            return
        new = pos, vix, np.broadcast_to(tgt, pos.shape)
        if np.ndim(tgt) == 0:          # one target: the first hit of its first quota positions
            first = np.flatnonzero(np.diff(pos, prepend=-1))[:self.quota]
            new = tuple(a[first] for a in new)
        held = [np.concatenate(p) for p in zip(self.held, new)]
        if held[0].size > 2 * self.quota * len(self.demand):
            order = np.lexsort((held[1], held[0], held[2]))    # target, position, vocab index
            p, t = held[0][order], held[2][order]
            first = np.concatenate(([True], (p[1:] != p[:-1]) | (t[1:] != t[:-1])))
            rank = np.cumsum(first)                 # distinct positions, counted per target
            keep = order[first & (rank - rank[np.searchsorted(t, t)] < self.quota)]
            held = [a[keep] for a in held]
        self.held = tuple(held)

    def assign(self):
        """Gives out and drops the held hits in (position, vocab index, target)
        order; a position holds one token and a target takes no more than its
        demand.  Each call covers later positions than the calls before it, so
        a position is taken exactly when it is the last one given out."""
        order = np.lexsort(self.held[::-1])
        last = self.hits[-1][0] if self.hits else 0
        for pos, vi, ti in zip(*(a[order].tolist() for a in self.held)):
            if self.demand[ti] > 0 and pos != last:
                last = pos
                self.demand[ti] -= 1
                self.hits.append((pos, vi, ti))
        self.held, self.quota = (np.empty(0, dtype=np.int64),) * 3, int(np.sum(self.demand))

    def result(self, j_cap: int) -> np.ndarray:
        """The hits as (H, 3) int64 rows (position, vocab index, target), in
        strictly increasing position order."""
        if np.any(self.demand > 0):
            unmet = [{"target_index": i, "remaining": int(self.demand[i]),
                      "best_distance": float(self.best[i]), "tol": float(self.tols[i])}
                     for i in range(len(self.demand)) if self.demand[i] > 0]
            raise PositionScanExhausted(j_cap, unmet)
        return np.array(self.hits, dtype=np.int64).reshape(-1, 3)


def _blocks(scan: _Scan, scheme: PeScheme, j_cap: int, size: int):
    """(j, encodings of positions j .. j + size - 1) for consecutive blocks
    from position 1 to j_cap, while a target of ``scan`` is open.  A
    pe_block call costs about as much as decoding 2,700 Calkin-Wilf
    positions, and a block of a large vocabulary holds few (2 for 6,561
    entries), so one call decodes a span of whole blocks of at least
    _SCAN_SPAN positions."""
    span = size * -(-_SCAN_SPAN // size)
    for start in range(1, j_cap + 1, span):
        if not np.any(scan.demand > 0):
            return
        pe = pe_block(scheme, start, min(span, j_cap - start + 1))     # (count, d)
        for k in range(0, len(pe), size):
            if not np.any(scan.demand > 0):
                return
            yield start + k, pe[k:k + size]


def _block_scan(scan: _Scan, scheme: PeScheme, j_cap: int) -> np.ndarray:
    """Walk over every position from 1, one block of encodings at a time.

    The path for every case the candidate path does not take, and the
    reference it is tested against.  Under the fast-path condition only the
    nearest cell is checked; a vocabulary that is not a grid tries every
    entry.  Each open target checks a block of _SCAN_BLOCK (position, entry)
    cells in one call; hits and best distances do not depend on block ends."""
    entries = 1 if scan.grid is not None else len(scan.vocab.v_x)
    for j, pe in _blocks(scan, scheme, j_cap, max(1, _SCAN_BLOCK // entries)):
        open_idx = np.nonzero(scan.demand > 0)[0]
        if scan.grid is not None:
            for ti in open_idx:
                cells, z = zip(*(scan.grid.nearest(ti, k, pe[:, k]) for k in range(scan.d)))
                sel = scan.check(ti, scan.dist(ti, z))
                scan.offer(sel + j, scan.vocab_index([c[sel] for c in cells]), ti)
        else:
            v_x = scan.vocab.v_x                              # (count, entries) cells, raveled
            rv = _mapped(scan.cmap, [(pe[:, k, None] + v_x[:, k]).ravel() for k in range(scan.d)])
            for ti in open_idx:                               # hits position-major
                pos, vix = np.divmod(scan.check(ti, _sup_dist(rv, scan.rows[ti])), entries)
                scan.offer(pos + j, vix, ti)
        scan.assign()
    return scan.result(j_cap)


class _KeptStreams:
    """Per dimension, the stream values kept for the targets of one walk:
    those whose nearest cell lies in a target's box and that an index up to
    t_last can hold.  Stored flat, each value as (target, Morton offset,
    cell, z)."""

    def __init__(self, scan: _Scan, t_last: int):
        self.scan = scan
        self.bounds = _morton_stream_bounds(t_last, scan.d)
        self.kept = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64),
                      np.empty(0, dtype=np.intp), np.empty(0)) for _ in range(scan.d)]

    def extend(self, s: np.ndarray, coords: np.ndarray, live: np.ndarray,
               widths: np.ndarray):
        """Adds, for each target that ``live`` marks, the values ``s``
        (coordinates ``coords``) that lie in its box of half-widths
        ``widths[target]``, and drops the kept values that no longer do.

        A box test covers at most _CHUNK (target, value) cells at a time, and
        the Morton offsets of the values kept are computed in one call,
        whatever the targets."""
        grid, d = self.scan.grid, self.scan.d
        tids = np.nonzero(live)[0]
        step = max(1, _CHUNK // max(tids.size, 1))
        for k in range(d):
            inside = s < self.bounds[k]
            values, cols = s[inside], coords[inside]
            u, w = grid.u[tids, k][:, None], widths[tids, k][:, None]
            old = self.kept[k]
            parts = [tuple(a[:0] for a in old)]          # typed, for a chunk that adds none
            for first in range(0, values.size, step):
                cells, zs = grid.nearest(tids[:, None], k, cols[first:first + step])
                row, col = np.nonzero(np.abs(zs - u) <= w)
                parts.append((tids[row], values[first + col], cells[row, col], zs[row, col]))
            tid, value, cell, z = (np.concatenate(p) for p in zip(*parts))
            new = (tid, _morton_offset(value, d, k), cell, z)
            still = live[old[0]] & (np.abs(old[3] - grid.u[old[0], k]) <= widths[old[0], k])
            self.kept[k] = tuple(np.concatenate((a[still], b)) for a, b in zip(old, new))

    def candidates(self, live: np.ndarray, t_lo: int, t_hi: int):
        """Yields (targets, t, cells, z) for the tuples of each live target's
        kept values whose index t lies in [t_lo, t_hi), target after target,
        at most _CHUNK tuples at a time."""
        for k, kept in enumerate(self.kept):          # grouped by target, once a visit
            order = np.argsort(kept[0], kind="stable")
            self.kept[k] = tuple(a[order] for a in kept)
        counts = np.array([np.bincount(kept[0], minlength=live.size) for kept in self.kept])
        starts = np.cumsum(counts, axis=1) - counts                   # (d, targets)
        tuples = np.where(live, np.prod(counts, axis=0), 0)
        ends = np.cumsum(tuples)
        for first in range(0, int(ends[-1]), _CHUNK):
            flat = np.arange(first, min(first + _CHUNK, int(ends[-1])), dtype=np.int64)
            tgt = np.searchsorted(ends, flat, side="right")
            rest = flat - (ends[tgt] - tuples[tgt])
            idx = [None] * self.scan.d
            for k in reversed(range(self.scan.d)):               # C order per target
                rest, i = np.divmod(rest, counts[k, tgt])
                idx[k] = starts[k, tgt] + i
            t = sum(kept[1][i] for kept, i in zip(self.kept, idx))
            sel = np.nonzero((t >= t_lo) & (t < t_hi))[0]
            if sel.size:
                pick = [i[sel] for i in idx]
                yield (tgt[sel], t[sel], [kept[2][i] for kept, i in zip(self.kept, pick)],
                       [kept[3][i] for kept, i in zip(self.kept, pick)])


def _walk(scan: _Scan, scheme: PeScheme, j_cap: int, live, widths):
    """Yields the candidates (``_KeptStreams.candidates``) of the Morton
    levels of positions [1, j_cap] in order, with t = j - 1, for the targets
    that ``live()`` marks.  Before a level is yielded, the stream values it
    adds are kept, in chunks, in boxes of half-widths ``widths()``.  The
    levels that hold only indices below 2^_HEAD_BITS are yielded as one
    range: their hits are given out in position order, so the range ends as
    they would one by one, and it saves a pass per tiny level."""
    streams = _KeptStreams(scan, j_cap - 1)
    seen = t_lo = 0
    for level, _, t_hi in _morton_levels(j_cap - 1, scan.d):
        if scan.d * (level + 1) <= _HEAD_BITS and t_hi < j_cap:
            continue                                  # yielded with the next level
        for s_lo in range(seen, 1 << level, _CHUNK):
            s = np.arange(s_lo, min(1 << level, s_lo + _CHUNK), dtype=np.int64)
            streams.extend(s, _cw_stream_coords(scheme, s), live(), widths())
        seen = 1 << level
        yield streams.candidates(live(), t_lo, t_hi)
        t_lo = t_hi


def _candidate_scan(scan: _Scan, scheme: PeScheme, j_cap: int) -> np.ndarray:
    """Grid fast path for the Calkin-Wilf lattice, from candidates per dimension.

    Coordinate k of P(j) depends only on stream k of j - 1 and the nearest
    cell is taken per coordinate, so a hit needs each stream's z_k inside the
    target's box.  One level walk (``_walk``) runs twice.  The hit walk
    re-checks each level's candidates exactly with the block path's formula,
    gives out the hits in position order and stops at the first level that
    meets every demand; each chunk of stream values is tested against the
    boxes of all open targets at once, and each level's candidates of all of
    them are checked together.  For targets left unmet, the best-distance
    walk finds the least nearest-cell distance over [1, j_cap]; a target with
    no distance yet keeps every value of the first level, whose positions are
    those below 2^_HEAD_BITS, and has a finite box from then on.
    """
    tol_widths = scan.grid.half_widths(scan.tols)                  # (targets, d)
    for level in _walk(scan, scheme, j_cap, lambda: scan.demand > 0, lambda: tol_widths):
        for ti, t, cells, z in level:
            sel = scan.check_grouped(ti, scan.dist(ti, z))
            scan.offer(t[sel] + 1, scan.vocab_index([c[sel] for c in cells]), ti[sel])
        scan.assign()
        if not np.any(scan.demand > 0):
            return scan.result(j_cap)
    # each box is widened to a distance reached at some j in range, so the
    # minimiser stays inside it while each level shrinks it
    unmet = scan.demand > 0
    for level in _walk(scan, scheme, j_cap, lambda: unmet,
                       lambda: scan.grid.half_widths(scan.best)):
        for ti, _, _, z in level:
            scan.check_grouped(ti, scan.dist(ti, z))
    return scan.result(j_cap)


def _scan_engine(rows, tol, demand, vocab: Vocabulary, scheme: PeScheme,
                 tp: TransformerParams, j_cap: int) -> np.ndarray:
    """FCFS multi-target scan over positions 1, 2, ... j_cap for the targets
    ``rows`` (T, d), ``tol`` (scalar or (T,)) and ``demand`` (T,).

    At each position every vocabulary entry is tried in index order and the
    hit with the lowest (vocab index, target index) wins; a position holds at
    most one token.  Returns the hits as (H, 3) int64 rows (position, vocab
    index, target) in strictly increasing position order.  Deterministic.  A
    Calkin-Wilf scheme on a grid vocabulary under the fast-path condition
    takes the candidate path, and everything else walks every position; both
    give the same hits and, on exhaustion, the same best distances.
    """
    _require_j_cap(j_cap)
    scan = _Scan(rows, tol, demand, vocab, tp)
    if scan.grid is not None and scheme.kind == "calkin_wilf_lattice":
        return _candidate_scan(scan, scheme, j_cap)
    return _block_scan(scan, scheme, j_cap)


# --------------------------------------------------------------------------
# construction


@dataclass(frozen=True)
class FitOptions:
    k: int = 16
    refine_steps: int = 600
    feature_scale: float = 3.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.refine_steps < 0:
            raise ValueError(f"refine_steps must be >= 0, got {self.refine_steps}")
        _require_positive_finite("feature_scale", self.feature_scale)


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
    """Mapped rows of assigned tokens (T, d), rebuilt from (vocab index,
    position) with the scan's formula: the rows the scan certified, bit for bit."""
    z = vocab.v_x[[t.vocab_index for t in tokens]] + pe_rows(scheme, [t.position for t in tokens])
    return np.column_stack(_mapped(cmap, z.T))


def _row_blocks(n: int, tokens: int) -> list[slice]:
    """Consecutive slices of max(2, _SUM_CELLS // tokens) rows covering n rows.

    No slice has exactly one row unless n = 1: numpy sends a one-row product
    to a vector kernel, whose bits differ from the full product's, so a
    one-row tail joins the block before it."""
    rows = max(2, _SUM_CELLS // max(tokens, 1))
    cuts = [*range(0, n, rows), n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _token_prefix_sums(token_rows, tokens, x_tilde, activation, d_y):
    """Yields (rows, t, sums) for each row block of x~ and t = 0..T, where
    sums is sum_{j<=t} y_j sigma(row_j . x~) per component on the block's
    rows, (rows, d_y).

    Blocks hold about _SUM_CELLS (point, token) cells (see _row_blocks), so
    no temporary grows with points x tokens.  Within a block the tokens are added one after
    another, in position order, into one array that is yielded after each.  Every block
    writes into the same two buffers, so no block allocates.
    """
    blocks = _row_blocks(x_tilde.shape[0], len(tokens))
    size = max((b.stop - b.start for b in blocks), default=0)
    act_buf, out_buf = np.empty((size, len(tokens))), np.empty((size, d_y))
    for rows in blocks:
        size = rows.stop - rows.start
        act = activation.in_place(np.matmul(x_tilde[rows], token_rows.T, out=act_buf[:size]))
        out = out_buf[:size]
        out.fill(0.0)
        yield rows, 0, out
        for idx, t in enumerate(tokens):
            out[:, t.component] += t.y_value * act[:, idx]
            yield rows, idx + 1, out


def _token_pass(token_rows, tokens, x_tilde, activation, tp, f_vals):
    """One pass of _token_prefix_sums over the points: the full token sum
    (N, d_y) and the curve ``ConstructionReport.error_vs_n``."""
    out = np.empty((x_tilde.shape[0], tp.d_y))
    errors = np.zeros(len(tokens) + 1)
    for rows, t, vals in _token_prefix_sums(token_rows, tokens, x_tilde, activation, tp.d_y):
        errors[t] = np.maximum(errors[t], _readout_error(tp.U, vals, f_vals[rows]))
        if t == len(tokens):
            out[rows] = vals
    return out, [(tokens[t - 1].position if t else 0, t, float(err))
                 for t, err in enumerate(errors)]


def _readout_error(U: np.ndarray, vals: np.ndarray, f_vals: np.ndarray) -> float:
    """max |U vals - f| over the points; ``vals`` and ``f_vals`` are (N, d_y)."""
    return float(np.max(np.abs((U @ vals.T).T - f_vals)))


def _fit_stage(tp, pts, f_vals, fnn, fit, activation, seed):
    """Stage 1: one fitted (or given) network per output, output c fitted
    from seed ``seed + c`` and all fitted ones in one ``fit_fnn`` call;
    returns the fits, their outputs on the grid (N, d_y) and the fit error."""
    g_vals = solve_refined(tp.U, f_vals.T, "U").T   # token-sum target
    given = fnn if fnn is not None else [None] * tp.d_y
    fits: list[FitResult | None] = []
    for comp, params in enumerate(given):
        if params is None:
            fits.append(None)
            continue
        if params.d_in != pts.shape[1] or params.d_y != 1:
            raise DimensionError("override network has wrong dimensions")
        err = float(np.max(np.abs(fnn_forward_batch(params, pts)[:, 0] - g_vals[:, comp])))
        fits.append(FitResult(params, err, 0.0, False))
    todo = [comp for comp, params in enumerate(given) if params is None]
    if todo:
        try:
            fitted = fit_fnn((pts, g_vals[:, todo]), fit.k, activation,
                             [seed + comp for comp in todo], refine_steps=fit.refine_steps,
                             feature_scale=fit.feature_scale)
        except NonFiniteFitError as exc:
            raise NonFiniteFitError(exc.names, todo[exc.component]) from None
        for comp, fr in zip(todo, fitted):
            fits[comp] = fr
    fnn_eval = np.column_stack([fnn_forward_batch(fr.params, pts)[:, 0] for fr in fits])
    return fits, fnn_eval, _readout_error(tp.U, fnn_eval, f_vals)


def _witness_stage(tp, nets, cmap, x_extent, x_tilde, activation, perturb_inner,
                   use_homog, caps, fnn_eval):
    """Stage 2: plans with integer witnesses for the neurons of ``nets``, (rows
    [W | b], coefficients) per output; ``use_homog`` (relu) splits a neuron into
    exact unit-coefficient copies with token-space rows inside the vocabulary's
    reach.  Returns the plans, the perturbed network on the grid and its error.
    A position holds one token, so plans that need more than ``caps.j_cap``
    tokens are rejected before they are built."""
    cmap_inv_norm = inf_operator_norm(np.linalg.inv(cmap))
    plans: list[NeuronPlan] = []
    planned = 0
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
                row = (abs(a_i) / copies) * row_i
            else:
                copies = 1
                wit = coefficient_decompose(a_i, perturb_inner / (k * max(m1_i, 1e-12)),
                                            caps.q_cap)
                row = row_i.copy()
            planned += copies * wit.token_count
            if planned > caps.j_cap:
                raise TokenDemandError(planned, caps.j_cap)
            new = [NeuronPlan(len(plans) + c, comp, row, wit) for c in range(copies)]
            for p in new:
                perturbed[:, comp] += p.coefficient * activation(x_tilde @ p.target_row)
            plans.extend(new)
    return plans, perturbed, float(np.max(np.abs(tp.U @ (perturbed - fnn_eval).T)))


def _token_stage(plans, tp, vocab, scheme, cmap, x_tilde, m_hat, activation,
                 tokens_inner, j_cap, perturbed, f_vals):
    """Stage 3: scan with one tolerance that splits the token budget over the
    plans' token weights, then put sqrt2 on a plan's first q positions and its
    unit sign on the rest.  A y token that V_y lacks is rejected before the
    scan.  Returns the tokens in position order, their mapped rows, the stage
    error and the curve ``ConstructionReport.error_vs_n``."""
    needed = {(p.component, y) for p in plans for n, y in (
        (p.witness.count_sqrt2, SQRT2), (p.witness.count_unit, p.witness.unit_sign)) if n}
    for comp, y in sorted(needed):
        y_vec = np.zeros(tp.d_y)
        y_vec[comp] = y
        if vocab.y_index_of(y_vec) is None:   # bit-exact membership in V_y
            raise ConfigError("vocab", f"y token {y_vec} not in V_y")
    hits = np.empty((0, 3), dtype=np.int64)
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
        hits = _scan_engine(np.array([p.target_row for p in plans]), tol,
                            [p.demand for p in plans], vocab, scheme, tp, j_cap)

    units = [("plus_unit" if p.witness.unit_sign > 0 else "minus_unit",
              float(p.witness.unit_sign)) for p in plans]
    taken = [0] * len(plans)                     # each plan's hits so far
    tokens: list[TokenAssignment] = []
    for pos, vi, ti in hits.tolist():            # in position order
        p = plans[ti]
        role, y = ("sqrt2", SQRT2) if taken[ti] < p.witness.count_sqrt2 else units[ti]
        taken[ti] += 1
        tokens.append(TokenAssignment(pos, vi, role, p.index, p.component, y))
    trows = _token_rows(tokens, vocab, scheme, cmap)
    token_vals, curve = _token_pass(trows, tokens, x_tilde, activation, tp, f_vals)
    tokens_measured = float(np.max(np.abs(tp.U @ (token_vals - perturbed).T)))
    return tokens, trows, tokens_measured, curve


def _audit_stage(tokens, trows, tp, activation, x_tilde_audit, f_audit):
    """Stage 4: the finished context's readout error on the refined grid, one
    row block at a time."""
    sums = _token_prefix_sums(trows, tokens, x_tilde_audit, activation, tp.d_y)
    return float(np.max([_readout_error(tp.U, vals, f_audit[rows])
                         for rows, t, vals in sums if t == len(tokens)]))


def construct_context(target, grid: Grid, vocab: Vocabulary, scheme: PeScheme,
                      tp: TransformerParams, epsilon: float, *,
                      activation: Activation = RELU,
                      budgets: StageBudgets | None = None, seed: int = 0,
                      fit: FitOptions | None = None, fnn: list | None = None,
                      caps: Caps | None = None,
                      coefficient_mode: str = "auto") -> ConstructionReport:
    """Build a context whose readout approximates ``target`` within epsilon.

    ``target`` is a callable on (N, d_x - 1) query batches returning (N,) or
    (N, d_y) values; ``grid`` is the audit grid standing in for the compact
    domain.  Stages fit -> witnesses -> scan and assign -> audit run in
    turn, each checked against its budget before the next starts.  Each
    output component gets its own plans; one shared scan keeps the position
    sets disjoint, and every y token carries its value in one component.

    ``fnn`` optionally replaces the stage-1 fit with one network per output
    (its sup error on the grid is still measured against the fit budget).
    ``coefficient_mode`` is auto (homogeneous for relu, kronecker otherwise) |
    homogeneous (relu: unit-coefficient copies) | kronecker (integer
    witnesses).
    Raises on budget violations, Kronecker cap exhaustion, and position-scan
    exhaustion.
    """
    _require_positive_finite("epsilon", epsilon)
    if coefficient_mode == "auto":
        coefficient_mode = "homogeneous" if activation.kind == "relu" else "kronecker"
    if coefficient_mode not in ("homogeneous", "kronecker"):
        raise ConfigError("coefficient_mode", "coefficient_mode must be auto | homogeneous | "
                          f"kronecker, got {coefficient_mode!r}")
    if coefficient_mode == "homogeneous" and activation.kind != "relu":
        raise ConfigError("activation", f"coefficient_mode {coefficient_mode!r} needs relu, "
                                        f"got activation {activation.kind!r}")
    if not tp.is_sparse_mode or np.any(tp.F != 0.0):
        raise ConfigError("transformer", "construction needs general blocks absent and F = 0; "
                                         "nulled positions cannot cancel F-terms")
    if not activation.is_elementwise:
        raise ConfigError("activation", "softmax-activation construction is out of scope")
    _same_dimension(tp.d_x, "transformer.d_x", vocab, scheme)
    if vocab.d_y != tp.d_y:
        raise ConfigError("vocab", f"vocab has d_y {vocab.d_y}, the transformer {tp.d_y}")
    if grid.dim != tp.d_x - 1:
        raise ConfigError("grid", f"grid has dimension {grid.dim}, needs d_x - 1 = {tp.d_x - 1}")
    budgets = budgets or StageBudgets.thirds(epsilon)
    if budgets.total > epsilon * (1 + 1e-12):
        raise ConfigError("budgets", "stage budgets exceed epsilon")
    caps = caps or Caps()
    fit = fit or FitOptions()
    if fnn is not None and len(fnn) != tp.d_y:
        raise DimensionError(f"need one override network per output, got "
                             f"{len(fnn)} for d_y = {tp.d_y}")

    pts = grid.points()
    if fnn is None and fit.k > len(pts):
        raise ConfigError("fit.k", f"need at least k={fit.k} samples, got {len(pts)}")
    audit_pts = grid.refined(10).points()
    f_vals = _target_values(target, pts, tp.d_y, "fit")
    f_audit = _target_values(target, audit_pts, tp.d_y, "audit")
    x_tilde = lifted(pts)
    u_scale = inf_operator_norm(tp.U) * math.sqrt(tp.d_y)
    cmap = tp.C.T @ tp.B                       # row(v, j) = cmap @ (v + P_j)

    fits, fnn_eval, fit_measured = _fit_stage(tp, pts, f_vals, fnn, fit, activation, seed)
    if fit_measured >= budgets.fit:
        raise BudgetError("fit", fit_measured, budgets.fit)

    nets = [(np.hstack([fr.params.W, fr.params.b[:, None]]), fr.params.A[0])
            for fr in fits]
    plans, perturbed, perturb_measured = _witness_stage(
        tp, nets, cmap, vocab.x_extent, x_tilde, activation, budgets.perturb / u_scale,
        coefficient_mode == "homogeneous", caps, fnn_eval)
    if perturb_measured >= budgets.perturb:
        raise BudgetError("perturb", perturb_measured, budgets.perturb)

    tokens, trows, tokens_measured, curve = _token_stage(
        plans, tp, vocab, scheme, cmap, x_tilde, grid.max_x_tilde_l1(), activation,
        budgets.tokens / u_scale, caps.j_cap, perturbed, f_vals)
    if tokens_measured >= budgets.tokens:
        raise BudgetError("tokens", tokens_measured, budgets.tokens)

    achieved = _audit_stage(tokens, trows, tp, activation, lifted(audit_pts), f_audit)
    if achieved >= epsilon:
        raise BudgetError("total", achieved, epsilon)

    measured = {"fit": fit_measured, "perturb": perturb_measured,
                "tokens": tokens_measured, "base_grid_total": curve[-1][2]}
    return ConstructionReport(
        epsilon=epsilon, budgets=budgets, measured=measured, achieved_sup_error=achieved,
        n=max((t.position for t in tokens), default=0), seed=seed,
        tokens=tuple(tokens), per_neuron=tuple(plans), d_x=tp.d_x, d_y=tp.d_y,
        vocab=vocab, scheme=scheme,
        fit_sup_error=max(fr.sup_error for fr in fits) if fits else 0.0,
        error_vs_n=tuple(curve))
