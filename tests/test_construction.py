import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctxapprox as ca
from ctxapprox import construction
from ctxapprox.construction import (Caps, FitOptions, StageBudgets, _block_scan,
                                   _candidate_scan, _mapped, _Scan, _scan_engine, _sup_dist,
                                   _token_rows)
from ctxapprox.kronecker import SQRT2

from conftest import query_readout


def make_setting(d_y=1, vocab_extent=10.0, per_dim=81, seed=101):
    tp = ca.random_sparse_params(seed, 2, d_y)
    vocab = ca.Vocabulary.x_grid((-vocab_extent,) * 2, (vocab_extent,) * 2,
                                 per_dim, d_y)
    scheme = ca.calkin_wilf_lattice(2)
    grid = ca.Grid((0.0,), (1.0,), (800,))
    return tp, vocab, scheme, grid


def first_hit(row, vocab, scheme, tp, tol, j_cap=1_000_000, engine=None):
    """The first (position, vocabulary index) whose mapped row lies within tol of ``row``."""
    rows = np.atleast_1d(np.asarray(row, dtype=float))[None, :]
    hits = (engine or _scan_engine)(rows, tol, [1], vocab, scheme, tp, j_cap)
    assert hits.shape == (1, 3) and hits.dtype == np.int64 and hits[0, 2] == 0
    return int(hits[0, 0]), int(hits[0, 1])


def exhaustive_scan(rows, tol, demand, vocab, scheme, tp, j_cap):
    """The block scan trying every vocabulary entry at every position: the
    reference for the nearest-cell path, whatever grid the vocabulary forms."""
    scan = _Scan(rows, tol, demand, vocab, tp)
    scan.grid = None
    return _block_scan(scan, scheme, j_cap)


def small_dyadic_construction():
    """(tp, grid, target, report) of a construction with a short context:
    a two-neuron relu target on the dyadic scheme, n = 4106."""
    tp = ca.random_sparse_params(33, 2, 1)
    vocab = ca.Vocabulary.x_grid((-3.0, -3.0), (3.0, 3.0), 13, 1)
    scheme = ca.dyadic_lattice(ca.Box((-3.2, -3.2), (3.2, 3.2)))
    grid = ca.Grid((0.0,), (1.0,), (101,))
    rng = np.random.default_rng(5)
    fnn = ca.FnnParams([[1.1, -0.7]], rng.uniform(-1, 1, (2, 1)),
                       rng.uniform(-1, 1, 2), ca.RELU)

    def target(pts):
        return ca.fnn_forward_batch(fnn, pts)[:, 0] * tp.U[0, 0]

    rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.25,
                               fnn=[ca.FnnParams(fnn.A / tp.U[0, 0], fnn.W,
                                                 fnn.b, ca.RELU)],
                               seed=2, caps=Caps(j_cap=500_000))
    return tp, grid, target, rep


class TestSingleTargetScan:
    def test_exact_hit_at_start(self):
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 1)
        scheme = ca.calkin_wilf_lattice(2)
        target = vocab.v_x[7] + ca.pe_rows(scheme, [1])[0]
        assert first_hit(target, vocab, scheme, tp, tol=1e-9) == (1, 7)

    def test_dyadic_brute_force_oracle(self):
        # first dyadic value within 2^-6 of 0.3, confirmed by direct scan
        tp = ca.identity_sparse_params(1, 1)
        vocab = ca.Vocabulary([[0.0]], [[0.0]])
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        tol = 2.0**-6
        position, _ = first_hit([0.3], vocab, scheme, tp, tol=tol)
        vals = ca.pe_block(scheme, 1, position)[:, 0]
        assert abs(vals[-1] - 0.3) < tol
        assert np.all(np.abs(vals[:-1] - 0.3) >= tol)

    def test_huge_tolerance_returns_start(self):
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 1)
        scheme = ca.calkin_wilf_lattice(2)
        assert first_hit([0.1, -0.4], vocab, scheme, tp, tol=100.0) == (1, 0)

    def test_exhaustion_carries_evidence(self):
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary([[0.0, 0.0]], [[0.0]])
        scheme = ca.calkin_wilf_lattice(2)
        with pytest.raises(ca.PositionScanExhausted) as exc:
            first_hit([0.317, 0.811], vocab, scheme, tp, tol=1e-9, j_cap=500)
        info = exc.value.unmet[0]
        assert info["remaining"] == 1 and info["best_distance"] > 1e-9

    def test_matches_engine_order_on_general_vocab(self):
        # engine fast path and the exhaustive path agree on the first hit
        tp = ca.identity_sparse_params(2, 1)
        grid_vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1)
        scheme = ca.calkin_wilf_lattice(2)
        target = [0.37, -0.62]
        fast = first_hit(target, grid_vocab, scheme, tp, tol=0.01)
        slow = first_hit(target, grid_vocab, scheme, tp, tol=0.01, engine=exhaustive_scan)
        assert fast == slow

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_tol(self, tol):
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 1)
        with pytest.raises(ValueError, match="positive and finite"):
            first_hit([0.1, -0.4], vocab, ca.calkin_wilf_lattice(2), tp, tol=tol, j_cap=500)


def _fast_path_tol(tp, vocab, frac):
    """A tolerance at ``frac`` of the largest one the grid fast path accepts."""
    lo, hi, per_dim = vocab.x_grid_spec
    h = np.min((np.array(hi) - np.array(lo)) / (per_dim - 1))
    inv_norm = np.max(np.sum(np.abs(np.linalg.inv(tp.C.T @ tp.B)), axis=1))
    return frac * 0.45 * h / inv_norm


class TestScanFastPath:
    """The nearest-cell grid path against the exhaustive path as reference."""

    @pytest.mark.parametrize("seed,d,per_dim,frac", [
        (1, 2, 9, 0.9), (2, 2, 9, 0.5), (3, 2, 9, 1.0), (4, 2, 9, 0.2),
        (5, 3, 5, 0.9)])
    def test_same_hits_as_exhaustive_path(self, seed, d, per_dim, frac):
        tp = ca.random_sparse_params(seed, d, 1)
        grid_vocab = ca.Vocabulary.x_grid((-1.0,) * d, (1.0,) * d, per_dim, 1)
        scheme = ca.calkin_wilf_lattice(d)
        cmap = tp.C.T @ tp.B
        tol = _fast_path_tol(tp, grid_vocab, frac)
        rng = np.random.default_rng(seed)
        # several open targets with demand > 1 exercise the FCFS tie-break
        rows = np.array([cmap @ u for u in rng.uniform(-1.2, 1.2, (3, d))])
        fast = _scan_engine(rows, tol, [4, 2, 3], grid_vocab, scheme, tp, 1 << 16)
        slow = exhaustive_scan(rows, tol, [4, 2, 3], grid_vocab, scheme, tp, 1 << 16)
        assert np.array_equal(fast, slow)
        assert np.bincount(fast[:, 2]).tolist() == [4, 2, 3]

    def test_off_grid_target_reports_nearest_cell_distance(self):
        # the wanted token lies outside the grid at every position up to
        # j_cap, far out or just past the largest encoding (there the rounded
        # cell of the second coordinate sets the distance): no hit, and the
        # reported best distance is that of the nearest (clipped) cell
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1)
        scheme = ca.calkin_wilf_lattice(2)
        for target in ([500.0, -500.0], [7.02, 0.3]):
            unmet = []
            for engine in (_scan_engine, exhaustive_scan):
                with pytest.raises(ca.PositionScanExhausted) as exc:
                    first_hit(target, vocab, scheme, tp, tol=0.01, j_cap=500,
                              engine=engine)
                unmet.append(exc.value.unmet[0])
            fast, slow = unmet
            assert fast["remaining"] == 1
            assert fast["tol"] < fast["best_distance"] < np.inf
            # identity maps: the nearest cell is the nearest vocabulary entry
            assert fast["best_distance"] == slow["best_distance"]


# a grid whose last np.linspace point is not lo + (n - 1) h: that sum is
# 8.151375368082695, the last token coordinate 8.151375368082697
UNEVEN_GRID = (-9.834723644714709, 8.151375368082697, 10)


def _both_paths(rows, tol, demand, vocab, scheme, tp, j_cap):
    """The hits and the unmet evidence (or None) of the candidate path, checked
    equal to the block scan's.  The hits are (H, 3) int64 rows (position, vocab
    index, target) in strictly increasing position order: the array a path
    returns, or on exhaustion the hits it gave out before.  Every point either
    path maps is, bit for bit, a vocabulary token plus the PE coordinates."""
    nearest, (_, _, per_dim) = construction._CellGrid.nearest, vocab.x_grid_spec

    def token_plus_pe(self, ti, k, coords):
        cell, z = nearest(self, ti, k, coords)
        stride = per_dim ** (vocab.d_x - 1 - k)        # C order: cell c of axis k
        assert np.array_equal(z, vocab.v_x[cell.astype(np.intp) * stride, k] + coords)
        return cell, z

    out = []
    for path in (_candidate_scan, _block_scan):
        scan = _Scan(rows, tol, demand, vocab, tp)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(construction._CellGrid, "nearest", token_plus_pe)
                out.append((path(scan, scheme, j_cap), None))
        except ca.PositionScanExhausted as exc:
            out.append((np.array(scan.hits, dtype=np.int64).reshape(-1, 3), exc.unmet))
    (hits, unmet), (block_hits, block_unmet) = out
    assert hits.dtype == np.int64 and np.array_equal(hits, block_hits)
    assert np.all(np.diff(hits[:, 0]) > 0) and unmet == block_unmet
    return hits, unmet


class TestCandidatePath:
    """The Calkin-Wilf candidate path against the block scan as reference."""

    @settings(max_examples=24, deadline=None)
    @given(seed=st.integers(0, 10_000), frac=st.floats(0.002, 0.99), d=st.sampled_from([2, 3]),
           off_grid=st.booleans(), bounds=st.sampled_from([(-1.0, 1.0, 9), UNEVEN_GRID]))
    @example(seed=5, frac=0.9, d=2, off_grid=False, bounds=UNEVEN_GRID)
    def test_same_hits_as_block_scan(self, seed, frac, d, off_grid, bounds):
        lo, hi, per_dim = bounds
        tp = ca.random_sparse_params(seed, d, 1)
        vocab = ca.Vocabulary.x_grid((lo,) * d, (hi,) * d, per_dim, 1)
        scheme = ca.calkin_wilf_lattice(d)
        cmap = tp.C.T @ tp.B
        tol = _fast_path_tol(tp, vocab, frac)
        rng = np.random.default_rng(seed)
        # several targets with demand > 1 exercise the FCFS tie-break, some
        # past the grid's ends; an off-grid one wants a token that no
        # position holds
        rows = np.array([cmap @ u for u in rng.uniform(1.2 * lo, 1.2 * hi, (3, d))])
        demand = [3, 2, 4]
        if off_grid:
            rows = np.vstack([rows, cmap @ np.r_[40.0, rng.uniform(-1, 1, d - 1)]])
            demand.append(1)
        hits, unmet = _both_paths(rows, tol, demand, vocab, scheme, tp, 1 << 15)
        if off_grid:
            assert [u["target_index"] for u in unmet][-1] == 3
        met = np.array(demand)
        for u in unmet or []:
            met[u["target_index"]] -= u["remaining"]
        assert np.bincount(hits[:, 2], minlength=len(demand)).tolist() == met.tolist()

    @pytest.mark.parametrize("seed,d,j_cap", [
        (11, 2, 3000), (12, 2, 20_000), (13, 3, 5000), (14, 3, 40_000)])
    def test_exhaustion_reports_block_scan_best_distance(self, seed, d, j_cap):
        # a tolerance far below every reachable distance: no hit, and each
        # best distance is the least nearest-cell distance up to j_cap
        tp = ca.random_sparse_params(seed, d, 1)
        cmap = tp.C.T @ tp.B
        assert not np.allclose(cmap, np.eye(d))
        vocab = ca.Vocabulary.x_grid((-1.0,) * d, (1.0,) * d, 9, 1)
        rng = np.random.default_rng(seed)
        rows = np.array([cmap @ u for u in rng.uniform(-1.2, 1.2, (3, d))])
        hits, unmet = _both_paths(rows, 1e-12, [2, 2, 2], vocab, ca.calkin_wilf_lattice(d),
                                  tp, j_cap)
        assert hits.shape == (0, 3) and [u["target_index"] for u in unmet] == [0, 1, 2]
        assert all(1e-12 < u["best_distance"] < np.inf for u in unmet)

    @pytest.mark.parametrize("seed,d", [(21, 2), (22, 2), (23, 3), (24, 3)])
    @pytest.mark.parametrize("chunk", [None, 64])
    def test_many_targets_with_mixed_demands(self, monkeypatch, seed, d, chunk):
        # 14 targets with demands 1-5 close at different levels, and 4 with a
        # tolerance no position reaches take the best-distance walk after
        # them; a _CHUNK of 64 splits levels, box tests and candidate lists
        # within and across targets
        if chunk:
            monkeypatch.setattr(construction, "_CHUNK", chunk)
        tp = ca.random_sparse_params(seed, d, 1)
        vocab = ca.Vocabulary.x_grid((-1.0,) * d, (1.0,) * d, 9, 1)
        cmap = tp.C.T @ tp.B
        rng = np.random.default_rng(seed)
        tol = _fast_path_tol(tp, vocab, 0.4)
        targets = [(cmap @ rng.uniform(-1.0, 1.0, d), tol, int(rng.integers(1, 6)))
                   for _ in range(14)]
        targets += [(cmap @ rng.uniform(-1.0, 1.0, d), 1e-12, 1) for _ in range(4)]
        rows, tols, demand = (list(column) for column in zip(*targets))
        hits, unmet = _both_paths(np.array(rows), np.array(tols), demand, vocab,
                                  ca.calkin_wilf_lattice(d), tp, 1 << (14 if d == 2 else 18))
        assert [u["target_index"] for u in unmet] == [14, 15, 16, 17]
        assert all(1e-12 < u["best_distance"] < np.inf for u in unmet)
        assert np.bincount(hits[:, 2], minlength=18).tolist() == demand[:14] + [0] * 4
        closing = {-(-(int(np.max(hits[hits[:, 2] == ti, 0])) - 1).bit_length() // d)
                   for ti in range(14)}
        assert len(closing) >= 2

    def test_a_dimension_that_keeps_no_value(self, monkeypatch):
        # identity maps: the token-space target is the row.  Coordinate 0.13
        # lies 0.12 from both nearest cells of level 0's value, so dimension
        # 0 keeps no value there while dimension 1 keeps it; levels are
        # visited one by one, level 0 first
        monkeypatch.setattr(construction, "_HEAD_BITS", 0)
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1)
        sizes = []
        candidates = construction._KeptStreams.candidates

        def recording(self, live, t_lo, t_hi):
            sizes.append([kept[0].size for kept in self.kept])
            return candidates(self, live, t_lo, t_hi)

        monkeypatch.setattr(construction._KeptStreams, "candidates", recording)
        hits, unmet = _both_paths(np.array([[0.13, 0.0], [0.13, -0.5]]), 0.01, [2, 1], vocab,
                                  ca.calkin_wilf_lattice(2), tp, 1 << 16)
        assert unmet is None and hits[:, 2].tolist().count(0) == 2
        assert sizes[0][0] == 0 and sizes[0][1] > 0

    def test_stream_work_does_not_grow_with_targets(self, monkeypatch):
        # each chunk of stream values is decoded once and spread once per
        # dimension, for 20 targets as for one; both exhaust j_cap, so both
        # walk every level twice
        tp = ca.random_sparse_params(31, 2, 1)
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1)
        cmap = tp.C.T @ tp.B
        rng = np.random.default_rng(31)
        calls = {}
        for name in ("_morton_offset", "_cw_stream_coords"):
            def counting(*args, _name=name, _real=getattr(construction, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(construction, name, counting)
        counts = []
        for n_targets in (1, 20):
            calls.update({"_morton_offset": 0, "_cw_stream_coords": 0})
            rows = np.array([cmap @ u for u in rng.uniform(-1.0, 1.0, (n_targets, 2))])
            with pytest.raises(ca.PositionScanExhausted):
                _candidate_scan(_Scan(rows, 1e-12, [1] * n_targets, vocab, tp),
                                ca.calkin_wilf_lattice(2), 1 << 16)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["_morton_offset"] == 2 * counts[0]["_cw_stream_coords"] > 0

    def test_box_tests_hold_at_most_a_chunk_of_cells(self, monkeypatch):
        # 20 targets and a _CHUNK of 64: every box test covers at most 64
        # (target, value) cells
        monkeypatch.setattr(construction, "_CHUNK", 64)
        cells = []
        nearest = construction._CellGrid.nearest

        def recording(self, ti, k, coords):
            out = nearest(self, ti, k, coords)
            cells.append(out[0].size)
            return out

        monkeypatch.setattr(construction._CellGrid, "nearest", recording)
        tp = ca.random_sparse_params(32, 2, 1)
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1)
        rng = np.random.default_rng(32)
        rows = np.array([tp.C.T @ tp.B @ u for u in rng.uniform(-1.0, 1.0, (20, 2))])
        with pytest.raises(ca.PositionScanExhausted):
            _candidate_scan(_Scan(rows, 1e-12, [1] * 20, vocab, tp),
                            ca.calkin_wilf_lattice(2), 1 << 16)
        assert cells and max(cells) <= 64

    def test_scan_memory_on_the_multi_output_construct(self, monkeypatch):
        # the criterion-5 construct's scan (23 targets, n = 18,065,916); the
        # per-target scan this path replaced peaked at 525 KB on these inputs
        calls = []
        engine = construction._scan_engine

        def recording(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(construction, "_scan_engine", recording)
        tp = ca.random_sparse_params(7, 2, 2)
        vocab = ca.Vocabulary.x_grid((-10.0, -10.0), (10.0, 10.0), 81, 2)

        def target(pts):
            return np.column_stack([np.sin(2 * np.pi * pts[:, 0]),
                                    np.cos(2 * np.pi * pts[:, 0])])

        rep = ca.construct_context(target, ca.Grid((0.0,), (1.0,), (1500,)), vocab,
                                   ca.calkin_wilf_lattice(2), tp, 0.3, seed=9,
                                   budgets=ca.StageBudgets(0.08, 0.02, 0.20),
                                   fit=FitOptions(k=14, refine_steps=300),
                                   caps=Caps(j_cap=80_000_000))
        assert rep.n == 18_065_916 and len(calls[0][0]) == 23
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            engine(*calls[0])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 525 * 1024

    def test_scan_engine_takes_candidate_path_for_calkin_wilf_grid(self, monkeypatch):
        tp = ca.random_sparse_params(3, 2, 1)
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1)
        target = ([tp.C.T @ tp.B @ np.array([0.3, -0.2])], _fast_path_tol(tp, vocab, 0.5), [2])
        want = _block_scan(_Scan(*target, vocab, tp), ca.calkin_wilf_lattice(2), 1 << 16)

        def no_block(*args, **kwargs):
            raise AssertionError("block scan used")

        monkeypatch.setattr(construction, "_block_scan", no_block)
        got = _scan_engine(*target, vocab, ca.calkin_wilf_lattice(2), tp, 1 << 16)
        assert got.shape == (2, 3) and np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_token_rows_are_the_rows_the_scan_maps(d):
    # the token stage maps (vocab index, position) with the scan's formula:
    # the bits of _mapped, one token at a time or all at once (a BLAS
    # cmap @ (v + P_j) rounds differently)
    lo, hi, per_dim = UNEVEN_GRID
    tp = ca.random_sparse_params(40 + d, d, 1)
    vocab = ca.Vocabulary.x_grid((lo,) * d, (hi,) * d, per_dim, 1)
    scheme = ca.calkin_wilf_lattice(d)
    cmap = tp.C.T @ tp.B
    rng = np.random.default_rng(d)
    tokens = [construction.TokenAssignment(int(j), int(rng.integers(len(vocab.v_x))), "sqrt2",
                                           0, 0, SQRT2)
              for j in np.sort(rng.choice(np.arange(1, 1 << 20), 300, replace=False))]
    one = [np.concatenate(_mapped(cmap, (vocab.v_x[t.vocab_index]
                                         + ca.pe_rows(scheme, [t.position])).T)) for t in tokens]
    z = (vocab.v_x[[t.vocab_index for t in tokens]]
         + ca.pe_rows(scheme, [t.position for t in tokens]))
    batch = np.column_stack(_mapped(cmap, z.T))
    assert np.array_equal(np.array(one), batch)
    assert np.array_equal(_token_rows(tokens, vocab, scheme, cmap), batch)


def _per_position_scan(rows, tol, demand, vocab, scheme, tp, j_cap):
    """The FCFS rule one position at a time, every entry tried: the position
    goes to the least (vocab index, target) hit whose target still has demand.
    Returns the (H, 3) hits and the unmet evidence (or None)."""
    cmap, demand = tp.C.T @ tp.B, list(demand)
    best, hits = np.full(len(rows), np.inf), []
    pe = ca.pe_block(scheme, 1, j_cap)
    for j in range(1, j_cap + 1):
        if not any(demand):
            break
        mapped = _mapped(cmap, (vocab.v_x + pe[j - 1]).T)
        dist = np.array([_sup_dist(mapped, row) for row in rows])      # (targets, entries)
        best = np.minimum(best, dist.min(axis=1))
        won = [(vi, ti) for vi in range(len(vocab.v_x)) for ti in range(len(rows))
               if demand[ti] > 0 and dist[ti, vi] < tol]
        if won:
            vi, ti = won[0]
            demand[ti] -= 1
            hits.append((j, vi, ti))
    unmet = [{"target_index": ti, "remaining": left, "best_distance": float(best[ti]),
              "tol": float(tol)} for ti, left in enumerate(demand) if left]
    return np.array(hits, dtype=np.int64).reshape(-1, 3), unmet or None


class TestHitBuffer:
    """The block path's hit buffer, where every vocabulary entry is tried."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), spread=st.floats(0.3, 2.0),
           demand=st.lists(st.integers(1, 5), min_size=2, max_size=4),
           kind=st.sampled_from(["dyadic", "rotation", "calkin_wilf"]),
           j_cap=st.integers(4, 80), far=st.booleans())
    # blocks hold _SCAN_BLOCK // len(v_x) = 655 positions of the 5x5 vocabulary
    # and end at 655, 1,310, 1,965 and 2,620: these hit on both sides of one
    # or more of them and leave targets unmet, so the scan runs through to j_cap
    @example(seed=6, spread=0.01, demand=[3, 3], kind="rotation", j_cap=1_100, far=True)
    @example(seed=2, spread=0.01, demand=[3, 2], kind="dyadic", j_cap=3_100, far=True)
    @example(seed=3, spread=0.02, demand=[5, 5], kind="calkin_wilf", j_cap=3_100, far=True)
    def test_matches_a_per_position_oracle(self, seed, spread, demand, kind, j_cap, far):
        # a tolerance of `spread` grid steps in token space: several entries
        # hit one (target, position), so a target's hits at a position are
        # cut to its least index and its positions to the open demand; a
        # short j_cap or a far target leaves demands unmet
        tp = ca.random_sparse_params(seed, 2, 1)
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 5, 1)
        box = ca.Box((-0.25, -0.25), (0.25, 0.25))
        scheme = {"dyadic": ca.dyadic_lattice(box), "rotation": ca.irrational_rotation(box),
                  "calkin_wilf": ca.calkin_wilf_lattice(2, 0.25)}[kind]
        cmap = tp.C.T @ tp.B
        tol = spread * 0.5 * float(np.max(np.sum(np.abs(cmap), axis=1)))
        rng = np.random.default_rng(seed)
        rows = np.array([cmap @ u for u in rng.uniform(-1.5, 1.5, (len(demand), 2))])
        if far:
            rows, demand = np.vstack([rows, cmap @ [40.0, 0.0]]), demand + [1]
        want, want_unmet = _per_position_scan(rows, tol, demand, vocab, scheme, tp, j_cap)
        scan = _Scan(rows, tol, demand, vocab, tp)
        scan.grid = None
        try:
            got, unmet = _block_scan(scan, scheme, j_cap), None
        except ca.PositionScanExhausted as exc:
            got, unmet = np.array(scan.hits, dtype=np.int64).reshape(-1, 3), exc.unmet
        assert np.array_equal(got, want) and unmet == want_unmet

    @staticmethod
    def every_entry_hitting():
        """(tp, vocab, scheme, rows): a 21x21 vocabulary on a dyadic scheme and
        4 target rows that every (position, entry) cell hits at tol 1e6."""
        tp = ca.random_sparse_params(5, 2, 1)
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 21, 1)
        scheme = ca.dyadic_lattice(ca.Box((-1.0, -1.0), (1.0, 1.0)))
        rows = np.array([tp.C.T @ tp.B @ u for u in ([0.1, 0.2], [-0.3, 0.4],
                                                      [0.5, -0.6], [0.0, 0.0])])
        return tp, vocab, scheme, rows

    def test_every_entry_hitting_holds_no_block_of_hits(self):
        # 441 entries x 4 targets hit each of the block's _SCAN_BLOCK // 441 =
        # 37 positions; the buffer keeps each target's first 8 positions, where
        # holding every hit as an int64 triple would take 441 * 4 * 37 * 24
        # bytes, 1.6 MB
        tp, vocab, scheme, rows = self.every_entry_hitting()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            hits = exhaustive_scan(rows, 1e6, [3, 1, 2, 2], vocab, scheme, tp, 1024)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # every position is won by entry 0, the targets in index order
        assert hits.tolist() == [[j, 0, ti] for j, ti in
                                 enumerate([0, 0, 0, 1, 2, 2, 3, 3], start=1)]
        assert peak <= 1 << 20

    def test_every_entry_scan_offers_once_per_block_and_target(self, monkeypatch):
        # each open target checks a whole block of (position, entry) cells in
        # one call, so it offers its hits once per block, not once per entry:
        # the 441-entry scan below runs 7 blocks of 37 positions
        tp, vocab, scheme, rows = self.every_entry_hitting()
        scan = _Scan(rows, 1e6, [100, 50, 50, 50], vocab, tp)
        scan.grid = None
        blocks = []                                 # (open targets, offers) per block
        pe_block, offer = construction.pe_block, _Scan.offer

        def block(*args):
            blocks.append([int(np.sum(scan.demand > 0)), 0])
            return pe_block(*args)

        def counted(self, *args):
            blocks[-1][1] += 1
            return offer(self, *args)

        monkeypatch.setattr(construction, "pe_block", block)
        monkeypatch.setattr(_Scan, "offer", counted)
        hits = _block_scan(scan, scheme, 1024)
        assert all(offers <= open_targets for open_targets, offers in blocks)
        assert len(blocks) == 7 and hits[:, 0].tolist() == list(range(1, 251))


    def test_small_blocks_share_one_pe_block_call(self, monkeypatch):
        # 1,000 entries make blocks of _SCAN_BLOCK // 1,000 = 16 positions;
        # one pe_block call decodes a span of two (32 positions), and hits
        # on both sides of span ends keep the per-position rule
        tp = ca.random_sparse_params(3, 2, 1)
        rng = np.random.default_rng(3)
        vocab = ca.Vocabulary(rng.uniform(-1, 1, (1000, 2)),
                              ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 2, 1).v_y)
        scheme = ca.calkin_wilf_lattice(2, 0.25)
        cmap = tp.C.T @ tp.B
        tol = 0.02 * float(np.max(np.sum(np.abs(cmap), axis=1)))
        # the far target stays unmet, so the scan runs to j_cap = 150
        rows = np.array([cmap @ u for u in rng.uniform(-1.5, 1.5, (3, 2))] + [cmap @ [40.0, 0.0]])
        want, want_unmet = _per_position_scan(rows, tol, [4, 4, 4, 1], vocab, scheme, tp, 150)
        assert {33, 34} <= set(want[:, 0].tolist())           # just past the first span
        decoded, pe_block = [], construction.pe_block

        def counting_pe_block(scheme, j_start, count):
            decoded.append((j_start, count))
            return pe_block(scheme, j_start, count)

        monkeypatch.setattr(construction, "pe_block", counting_pe_block)
        scan = _Scan(rows, tol, [4, 4, 4, 1], vocab, tp)
        with pytest.raises(ca.PositionScanExhausted) as exc:
            _block_scan(scan, scheme, 150)
        assert np.array_equal(np.array(scan.hits).reshape(-1, 3), want)
        assert exc.value.unmet == want_unmet
        assert decoded == [(1, 32), (33, 32), (65, 32), (97, 32), (129, 22)]


class TestActivationSlope:
    @pytest.mark.parametrize("fn", [np.tanh, np.sin], ids=["tanh", "sin"])
    @pytest.mark.parametrize("lo,hi", [(-3.0, 3.0), (0.4, 2.5), (1.0, 1.5), (-40.0, 7.0)])
    def test_custom_bound_covers_finite_difference_slopes(self, fn, lo, hi):
        # the sampled bound of a custom activation, against slopes on a grid
        # 244 times finer than the one it samples
        bound = construction._activation_lipschitz(ca.Activation("custom", fn), lo, hi)
        z = np.linspace(lo, hi, 1_000_001)
        assert np.isfinite(bound) and bound >= np.max(np.abs(np.diff(fn(z)) / np.diff(z)))


class TestConstructContext:
    def test_zero_target_empty_context(self):
        tp, vocab, scheme, grid = make_setting()
        rep = ca.construct_context(lambda pts: np.zeros(pts.shape[0]), grid,
                                   vocab, scheme, tp, 0.05, seed=1)
        assert rep.n == 0 and len(rep.tokens) == 0
        assert rep.achieved_sup_error == 0.0

    def test_single_realizable_sqrt2_neuron(self):
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 1)
        scheme = ca.calkin_wilf_lattice(2)
        grid = ca.Grid((0.0,), (1.0,), (101,))
        r = vocab.v_x[12] + ca.pe_rows(scheme, [1])[0]
        fnn = ca.FnnParams([[SQRT2]], [[r[0]]], [r[1]], ca.RELU)

        def target(pts):
            x_t = np.hstack([pts, np.ones((pts.shape[0], 1))])
            return SQRT2 * np.maximum(x_t @ r, 0.0)

        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.1,
                                   fnn=[fnn], coefficient_mode="kronecker")
        assert rep.n == 1 and len(rep.tokens) == 1
        assert rep.tokens[0].role == "sqrt2"
        assert rep.tokens[0].y_value == SQRT2
        assert rep.achieved_sup_error <= 1e-12
        wit = rep.per_neuron[0].witness
        assert (wit.count_sqrt2, wit.count_unit) == (1, 0)

    def test_pipeline_sin_combination(self):
        tp, vocab, scheme, grid = make_setting()
        target = lambda pts: np.sin(2 * np.pi * pts[:, 0]) + 0.5 * np.cos(np.pi * pts[:, 0])
        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.2, seed=4,
                                   fit=FitOptions(k=16, refine_steps=300),
                                   caps=Caps(j_cap=80_000_000))
        assert rep.achieved_sup_error < 0.2
        b = rep.budgets
        assert rep.measured["fit"] <= b.fit
        assert rep.measured["perturb"] <= b.perturb
        assert rep.measured["tokens"] <= b.tokens
        assert b.total <= 0.2 + 1e-12
        assert max(p.demand for p in rep.per_neuron) >= 1
        # per-group accounting: the stage-3 bounds chain to the budget and
        # dominate the measured token-stage error
        u_norm = np.max(np.sum(np.abs(tp.U), axis=1))
        bound_sum = sum(p.token_error_bound for p in rep.per_neuron) * u_norm
        assert rep.measured["tokens"] <= bound_sum <= b.tokens

    def test_report_rejects_a_position_assigned_twice(self):
        _, vocab, scheme, _ = make_setting()
        tokens = (construction.TokenAssignment(3, 5, "plus_unit", 0, 0, 1.0),
                  construction.TokenAssignment(3, 7, "sqrt2", 1, 0, SQRT2))
        with pytest.raises(ValueError, match="position 3 assigned twice"):
            ca.ConstructionReport(
                epsilon=0.3, budgets=StageBudgets.thirds(0.3), measured={},
                achieved_sup_error=0.0, n=3, seed=0, tokens=tokens, per_neuron=(),
                d_x=2, d_y=1, vocab=vocab, scheme=scheme, fit_sup_error=0.0)

    def test_determinism(self):
        tp, vocab, scheme, grid = make_setting()
        target = lambda pts: np.sin(2 * np.pi * pts[:, 0])
        kw = dict(seed=7, fit=FitOptions(k=12, refine_steps=300),
                  caps=Caps(j_cap=40_000_000))
        a = ca.construct_context(target, grid, vocab, scheme, tp, 0.3, **kw)
        b = ca.construct_context(target, grid, vocab, scheme, tp, 0.3, **kw)
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize("d_y", [1, 2])
    def test_prefix_errors_match_per_prefix_recomputation(self, d_y):
        tp, vocab, scheme, grid = make_setting(d_y=d_y)
        target = lambda pts: np.column_stack(
            [np.sin(2 * np.pi * pts[:, 0]), np.cos(np.pi * pts[:, 0])][:d_y])
        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.5, seed=3,
                                   fit=FitOptions(k=12, refine_steps=300),
                                   caps=Caps(j_cap=40_000_000))
        pts = grid.points()
        f_vals = target(pts)
        rows = list(rep.error_vs_n)
        # the sum rebuilt from scratch for every prefix
        x_t = np.hstack([pts, np.ones((pts.shape[0], 1))])
        tokens = sorted(rep.tokens, key=lambda t: t.position)
        trows = _token_rows(tokens, rep.vocab, rep.scheme, tp.C.T @ tp.B)
        expected = []
        for t in range(len(tokens) + 1):
            vals = np.zeros((pts.shape[0], d_y))
            if t:
                act = np.maximum(x_t @ trows[:t].T, 0.0)
                for idx, tok in enumerate(tokens[:t]):
                    vals[:, tok.component] += tok.y_value * act[:, idx]
            expected.append((tokens[t - 1].position if t else 0, t,
                             float(np.max(np.abs((tp.U @ vals.T).T - f_vals)))))
        assert len(tokens) >= 2
        assert rows == expected
        assert rows[-1][2] == rep.measured["base_grid_total"]
        assert rows[-1][0] == rep.n

    def test_budget_error_reports_stage(self):
        tp, vocab, scheme, grid = make_setting()
        target = lambda pts: np.sin(2 * np.pi * pts[:, 0])
        with pytest.raises(ca.BudgetError) as exc:
            ca.construct_context(target, grid, vocab, scheme, tp, 0.2, seed=4,
                                 budgets=StageBudgets(1e-6, 0.1, 0.09),
                                 fit=FitOptions(k=10, refine_steps=100))
        assert exc.value.stage == "fit"

    def test_token_legality_bit_exact(self):
        tp, vocab, scheme, grid = make_setting()
        target = lambda pts: np.sin(2 * np.pi * pts[:, 0])
        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.3, seed=7,
                                   fit=FitOptions(k=12, refine_steps=300),
                                   caps=Caps(j_cap=40_000_000))
        X, Y = rep.dense_context(limit=80_000_000)
        for t in rep.tokens:
            assert X[:, t.position - 1].tobytes() == vocab.v_x[t.vocab_index].tobytes()
            y_col = Y[:, t.position - 1]
            assert vocab.y_index_of(y_col) is not None
        # positions outside the index sets are nulled
        assigned = {t.position for t in rep.tokens}
        null_cols = [j for j in range(1, rep.n + 1) if j not in assigned]
        for j in null_cols[:50]:
            assert np.all(Y[:, j - 1] == 0.0)

    def test_readout_matches_materialized_context(self):
        # independent check of the sparse audit path against the actual
        # attention readout on a materialized small context
        tp, grid, target, rep = small_dyadic_construction()
        assert rep.n <= 200_000
        X, Y = rep.dense_context()
        X_pe = X + ca.pe_block(rep.scheme, 1, rep.n).T
        pts = grid.points()[::10]
        out = ca.readout_batch(tp, SimpleNamespace(X=X_pe, Y=Y), pts, ca.RELU)
        worst = float(np.max(np.abs(out[:, 0] - target(pts))))
        assert worst < 0.25
        # a subset of the audit grid: its sup cannot exceed the token-space one
        assert worst <= rep.measured["base_grid_total"] + 1e-10
        # and the single-query readout agrees on a few points
        for i in (0, 5, 10):
            a = query_readout(tp, ca.InputAssembly(X_pe, Y, pts[i]), ca.RELU)
            assert np.max(np.abs(a - out[i])) < 1e-10

    def test_exp_activation_exact_hit(self):
        # element-wise activations other than relu go through the literal
        # integer-witness route with a measured activation slope bound
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 1)
        scheme = ca.calkin_wilf_lattice(2)
        grid = ca.Grid((0.0,), (1.0,), (101,))
        r = vocab.v_x[12] + ca.pe_rows(scheme, [1])[0]
        fnn = ca.FnnParams([[SQRT2]], [[r[0]]], [r[1]], ca.EXP)

        def target(pts):
            x_t = np.hstack([pts, np.ones((pts.shape[0], 1))])
            return SQRT2 * np.exp(x_t @ r)

        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.1,
                                   fnn=[fnn], activation=ca.EXP)
        assert rep.n == 1
        assert rep.tokens[0].y_value == SQRT2
        assert rep.achieved_sup_error <= 1e-12

    def test_exp_activation_near_miss_pipeline(self):
        # two exp neurons with cheap coefficients realized through nearby
        # (not exact) positions; the exp slope bound drives the tolerance
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 9, 1)
        scheme = ca.irrational_rotation(ca.Box((-0.3, -0.3), (0.3, 0.3)))
        grid = ca.Grid((0.0,), (1.0,), (151,))
        rows = np.array([[0.31, -0.52], [-0.47, 0.23]])
        coeffs = np.array([SQRT2, -1.0])
        fnn = ca.FnnParams(coeffs[None, :], rows[:, :1], rows[:, 1], ca.EXP)

        def target(pts):
            return ca.fnn_forward_batch(fnn, pts)[:, 0]

        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.2,
                                   fnn=[fnn], activation=ca.EXP, seed=1,
                                   caps=Caps(j_cap=3_000_000))
        assert rep.achieved_sup_error < 0.2
        assert rep.measured["tokens"] <= rep.budgets.tokens
        roles = sorted(t.role for t in rep.tokens)
        assert roles == ["minus_unit", "sqrt2"]
        # witnesses are the exact cheap decompositions
        wits = sorted((p.witness.count_sqrt2, p.witness.count_unit)
                      for p in rep.per_neuron)
        assert wits == [(0, 1), (1, 0)]

    def test_three_dimensional_token_space(self):
        # exact-hit construction through the d_x = 3 scan path
        tp = ca.identity_sparse_params(3, 1)
        vocab = ca.Vocabulary.x_grid((-2.0,) * 3, (2.0,) * 3, 5, 1)
        scheme = ca.calkin_wilf_lattice(3)
        grid = ca.Grid((0.0, 0.0), (1.0, 1.0), (21, 21))
        r = vocab.v_x[93] + ca.pe_rows(scheme, [2])[0]
        assert np.max(r) > 0  # the relu stays active on part of the domain
        fnn = ca.FnnParams([[SQRT2]], [r[:2]], [r[2]], ca.RELU)

        def target(pts):
            x_t = np.hstack([pts, np.ones((pts.shape[0], 1))])
            return SQRT2 * np.maximum(x_t @ r, 0.0)

        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.1,
                                   fnn=[fnn], coefficient_mode="kronecker")
        assert rep.achieved_sup_error <= 1e-12
        assert rep.tokens[0].position <= 2

    def test_vocabulary_that_is_not_a_grid(self):
        # 400 random points form no grid, so the scan tries every entry at
        # every position end to end; each token's row, rebuilt from its
        # (vocab index, position), lies within its plan's tol
        rng = np.random.default_rng(0)
        vocab = ca.Vocabulary(rng.uniform(-10.0, 10.0, (400, 2)), [[0.0], [1.0], [-1.0], [SQRT2]])
        tp, scheme = ca.random_sparse_params(101, 2, 1), ca.calkin_wilf_lattice(2)

        def target(pts):
            return np.sin(2 * np.pi * pts[:, 0]) + 0.5 * np.cos(np.pi * pts[:, 0])

        rep = ca.construct_context(target, ca.Grid((0.0,), (1.0,), (200,)), vocab, scheme, tp,
                                   0.4, seed=4, fit=FitOptions(k=16, refine_steps=300),
                                   caps=Caps(j_cap=10**6))
        assert vocab.x_grid_spec is None and rep.achieved_sup_error < 0.4
        assert (rep.n, len(rep.tokens)) == (63_003, 14)
        plans = [rep.per_neuron[t.neuron] for t in rep.tokens]
        rows = _token_rows(rep.tokens, vocab, scheme, tp.C.T @ tp.B)
        assert all(np.max(np.abs(r - p.target_row)) < p.tol for r, p in zip(rows, plans))

    def test_custom_activation_on_the_kronecker_route(self, monkeypatch):
        # a given two-neuron tanh network with coefficients 1 + sqrt2 and -2:
        # four tokens whose rows the first four positions hold; the token
        # sums and the audit run the custom branch of Activation.in_place
        tanh = ca.Activation("custom", np.tanh)
        kinds = []
        in_place = ca.Activation.in_place

        def recording(self, z):
            kinds.append(self.kind)
            return in_place(self, z)

        monkeypatch.setattr(ca.Activation, "in_place", recording)
        W, b, A = np.array([[0.5], [-0.7]]), np.array([0.2, 0.4]), np.array([[1.0 + SQRT2, -2.0]])
        fnn = ca.FnnParams(A, W, b, tanh)

        def target(pts):
            return (np.tanh(pts @ W.T + b) @ A.T)[:, 0]

        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 41, 1)
        rep = ca.construct_context(target, ca.Grid((0.0,), (1.0,), (101,)), vocab,
                                   ca.calkin_wilf_lattice(2), ca.identity_sparse_params(2, 1),
                                   0.2, activation=tanh, fnn=[fnn], coefficient_mode="kronecker")
        assert rep.achieved_sup_error < 0.2 and kinds and set(kinds) == {"custom"}
        assert (rep.n, len(rep.tokens)) == (4, 4)
        z = np.linspace(-3.0, 3.0, 101)
        assert in_place(tanh, z.copy()).tobytes() == tanh(z).tobytes()

    def test_target_components_must_match_d_y(self):
        tp, vocab, scheme, grid = make_setting(d_y=2)
        with pytest.raises(ca.DimensionError, match="1 components, expected 2"):
            ca.construct_context(lambda pts: np.zeros(pts.shape[0]), grid,
                                 vocab, scheme, tp, 0.1)

    @pytest.mark.parametrize("epsilon", [0.0, -0.2, float("nan"), float("inf")])
    def test_rejects_bad_epsilon(self, epsilon):
        tp, vocab, scheme, grid = make_setting()
        target = lambda pts: np.sin(2 * np.pi * pts[:, 0])
        for mode in ("auto", "kronecker"):
            with pytest.raises(ValueError, match="epsilon"):
                ca.construct_context(target, grid, vocab, scheme, tp, epsilon,
                                     coefficient_mode=mode)
        tp2, vocab2, _, _ = make_setting(d_y=2)
        with pytest.raises(ValueError, match="epsilon"):
            ca.construct_context(lambda pts: np.zeros((pts.shape[0], 2)), grid, vocab2,
                                 scheme, tp2, epsilon)

    @pytest.mark.parametrize("j_cap", [0, -5])
    def test_rejects_non_positive_j_cap(self, j_cap):
        with pytest.raises(ValueError, match="j_cap"):
            Caps(j_cap=j_cap)

    @pytest.mark.parametrize("j_cap", [2**62 + 1, 10**30])
    def test_rejects_j_cap_beyond_int64_indices(self, j_cap):
        Caps(j_cap=2**62)
        with pytest.raises(ValueError, match="j_cap must be <= 2\\^62"):
            Caps(j_cap=j_cap)

    @pytest.mark.parametrize("q_cap", [0, -5])
    def test_rejects_non_positive_q_cap(self, q_cap):
        with pytest.raises(ValueError, match="q_cap"):
            Caps(q_cap=q_cap)

    @pytest.mark.parametrize("field,value", [
        ("k", 0), ("k", -3), ("refine_steps", -5)])
    def test_fit_options_reject_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            FitOptions(**{field: value})

    def test_rejects_unknown_choice_strings(self):
        # a misspelled coefficient mode used to take the Kronecker route; the
        # lambda-rescaled routes are removed
        tp, vocab, scheme, grid = make_setting()
        target = lambda pts: np.sin(2 * np.pi * pts[:, 0])
        for mode in ("homogenous", "rescaled_max_row", "rescaled_pow2", "rescaled_int"):
            with pytest.raises(ca.ConfigError, match="coefficient_mode") as exc:
                ca.construct_context(target, grid, vocab, scheme, tp, 0.2,
                                     coefficient_mode=mode)
            assert exc.value.field == "coefficient_mode"

    @pytest.mark.parametrize("vocab,scheme,field", [
        (ca.Vocabulary([[0.0]], [[0.0]]), ca.calkin_wilf_lattice(2), "vocab"),
        (None, ca.calkin_wilf_lattice(3), "scheme.d_x"),
        (None, ca.dyadic_lattice(ca.Box((-1.0,), (1.0,))), "scheme.region")])
    def test_dimension_mismatch_names_its_field(self, vocab, scheme, field):
        tp, grid_vocab, _, grid = make_setting()
        with pytest.raises(ca.ConfigError, match="transformer.d_x has 2") as exc:
            ca.construct_context(lambda pts: pts[:, 0], grid, vocab or grid_vocab, scheme,
                                 tp, 0.2)
        assert exc.value.field == field

    def test_underflowing_scan_tolerance_is_numeric_error(self):
        # a token budget too small for a float tolerance must not reach the scan
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 1)
        scheme = ca.calkin_wilf_lattice(2)
        grid = ca.Grid((0.0,), (1.0,), (101,))
        r = vocab.v_x[12] + ca.pe_rows(scheme, [1])[0]
        fnn = ca.FnnParams([[SQRT2]], [[r[0]]], [r[1]], ca.RELU)
        target = lambda pts: ca.fnn_forward_batch(fnn, pts)[:, 0]
        with pytest.raises(ca.EpsilonRangeError):
            ca.construct_context(target, grid, vocab, scheme, tp, 0.1, fnn=[fnn],
                                 budgets=StageBudgets(0.05, 0.04, 5e-324),
                                 coefficient_mode="kronecker")

    def test_nonzero_F_rejected(self):
        base = ca.random_sparse_params(1, 2, 1)
        tp = ca.TransformerParams(base.B, base.C, base.D, base.E,
                                  np.array([[0.5, 0.0]]), base.U)
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 1)
        scheme = ca.calkin_wilf_lattice(2)
        grid = ca.Grid((0.0,), (1.0,), (50,))
        with pytest.raises(ca.ConfigError, match="F = 0") as exc:
            ca.construct_context(lambda pts: np.zeros(pts.shape[0]), grid,
                                 vocab, scheme, tp, 0.1)
        assert exc.value.field == "transformer"


class TestMultiOutput:
    def test_zero_component_contributes_no_tokens(self):
        # a mixing U spreads one output into both internal targets, so the
        # example's premise needs a diagonal readout block
        _, vocab, scheme, grid = make_setting(d_y=2)
        tp = ca.identity_sparse_params(2, 2)
        target = lambda pts: np.column_stack(
            [np.sin(2 * np.pi * pts[:, 0]), np.zeros(pts.shape[0])])
        rep = ca.construct_context(
            target, grid, vocab, scheme, tp, 0.4, seed=3,
            fit=FitOptions(k=10, refine_steps=150), caps=Caps(j_cap=40_000_000))
        assert all(t.component == 0 for t in rep.tokens)
        assert rep.achieved_sup_error < 0.4

    def test_identical_components_disjoint_sets(self):
        tp, vocab, scheme, grid = make_setting(d_y=2)
        target = lambda pts: np.column_stack(
            [np.sin(2 * np.pi * pts[:, 0]), np.sin(2 * np.pi * pts[:, 0])])
        rep = ca.construct_context(
            target, grid, vocab, scheme, tp, 0.5, seed=3,
            fit=FitOptions(k=10, refine_steps=150), caps=Caps(j_cap=40_000_000))
        per_comp = {0: [], 1: []}
        for t in rep.tokens:
            per_comp[t.component].append(t.position)
        assert per_comp[0] and per_comp[1]
        assert not (set(per_comp[0]) & set(per_comp[1]))
        # every y token has exactly one nonzero component
        _, Y = rep.dense_context(limit=80_000_000)
        assert np.max(np.count_nonzero(Y, axis=0)) <= 1


class TestReluRescaled:
    """Relu's positive homogeneity, which the homogeneous route rests on; a
    lambda-rescaled network (A lambda, W / lambda, b / lambda) is a given
    ``fnn`` on the kronecker route."""

    @pytest.mark.parametrize("mode", ["homogeneous"])
    def test_relu_only_route_names_activation(self, mode):
        tp, vocab, scheme, grid = make_setting()
        target = lambda pts: np.sin(2 * np.pi * pts[:, 0])
        with pytest.raises(ca.ConfigError, match="needs relu") as exc:
            ca.construct_context(target, grid, vocab, scheme, tp, 0.2, activation=ca.EXP,
                                 coefficient_mode=mode)
        assert exc.value.field == "activation"

    def test_two_outputs_with_override_networks(self):
        tp = ca.identity_sparse_params(2, 2)
        vocab = ca.Vocabulary.x_grid((-1.5, -1.5), (1.5, 1.5), 25, 2)
        scheme = ca.calkin_wilf_lattice(2)
        grid = ca.Grid((0.0,), (1.0,), (201,))
        nets = [ca.FnnParams([[0.5, 0.25]], [[3.3], [-2.0]], [-1.0, 1.0], ca.RELU),
                ca.FnnParams([[-1.0]], [[0.8]], [-0.3], ca.RELU)]
        target = lambda pts: np.column_stack(
            [ca.fnn_forward_batch(net, pts)[:, 0] for net in nets])
        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.3, fnn=nets,
                                   coefficient_mode="kronecker",
                                   caps=Caps(j_cap=1_000_000))
        assert {t.component for t in rep.tokens} == {0, 1}
        assert {p.component for p in rep.per_neuron} == {0, 1}
        assert rep.achieved_sup_error < 0.3

    def test_homogeneity_identity_exact(self, rng):
        p = ca.FnnParams([[1.3, -0.4]], rng.uniform(-2, 2, (2, 1)),
                         rng.uniform(-1, 1, 2), ca.RELU)
        lam = 4.0
        scaled = ca.FnnParams(p.A * lam, p.W / lam, p.b / lam, ca.RELU)
        pts = rng.uniform(0, 1, (100, 1))
        gap = np.abs(ca.fnn_forward_batch(p, pts) - ca.fnn_forward_batch(scaled, pts))
        assert np.max(gap) <= 1e-12
        # active sets are scale invariant (value- and argmax-level identity)
        act = (pts @ p.W.T + p.b) > 0
        act_scaled = (pts @ scaled.W.T + scaled.b) > 0
        assert np.array_equal(act, act_scaled)


class TestRoutes:
    # SHA-256 of the report's JSON and of repr(report.tokens) per route
    @pytest.mark.parametrize("activation,mode,report_sha,tokens_sha", [
        (ca.RELU, "auto", "b60c2bd7e0aa5ca366941659f7c2e12547584cd4612d240e4ab593b1ef350b5c",
         "9964a2b3d4a23680f1140dc354aa4965b431aa402772da5f7a658cf86a489027"),
        (ca.RELU, "homogeneous",
         "b60c2bd7e0aa5ca366941659f7c2e12547584cd4612d240e4ab593b1ef350b5c",
         "9964a2b3d4a23680f1140dc354aa4965b431aa402772da5f7a658cf86a489027"),
        (ca.RELU, "kronecker", "84d19311b3820797e76a1edbc31ca962634a2079434d8e8206ea75a47e710cb6",
         "894d0788adc823edb0364c5b43a5ba893c1d72bae324bc8da1f7bd4032f8b3c0"),
        (ca.EXP, "auto", "a41014505020c0bb6d032590c368908bf6c459d245fe1a999ecc8153b49d8cd3",
         "9700c70d137eb199cd5d51846e916c036104bea3bc71eedd2f9005f5b59a8a12")])
    def test_every_route_keeps_its_report(self, activation, mode, report_sha, tokens_sha):
        tp = ca.identity_sparse_params(2, 1)
        vocab = ca.Vocabulary.x_grid((-1.5, -1.5), (1.5, 1.5), 25, 1)
        scheme = ca.calkin_wilf_lattice(2)
        grid = ca.Grid((0.0,), (1.0,), (201,))
        rows = ([[3.3], [-2.0]], [-1.0, 1.0]) if activation is ca.RELU else \
            ([[0.8], [-0.5]], [-1.0, 0.2])
        fnn = ca.FnnParams([[0.5, 0.25]], *rows, activation)
        target = lambda pts: ca.fnn_forward_batch(fnn, pts)[:, 0]
        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.3, fnn=[fnn],
                                   activation=activation, coefficient_mode=mode,
                                   caps=Caps(j_cap=1_000_000))
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert digest(json.dumps(rep.to_json_dict(), sort_keys=True)) == report_sha
        assert digest(repr(rep.tokens)) == tokens_sha


class TestBlockedTokenSums:
    """The token sums run in row blocks of about _SUM_CELLS (point, token)
    cells; every value must keep the bits of the one-pass formula."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cells=st.sampled_from([8, 12, 40]),
           t_count=st.sampled_from([0, 1, 3, 5, 7, 21]), d_x=st.sampled_from([2, 3]),
           d_y=st.sampled_from([1, 2]), kind=st.sampled_from(["relu", "exp"]),
           n_case=st.sampled_from(["1", "2", "rows-1", "rows", "rows+1", "2rows+1"]))
    def test_blocks_match_the_one_pass_sums(self, seed, cells, t_count, d_x, d_y, kind,
                                             n_case):
        rng = np.random.default_rng(seed)
        rows = max(2, cells // max(t_count, 1))   # t_count > cells / 2 leaves 2 rows
        n = {"1": 1, "2": 2, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
             "2rows+1": 2 * rows + 1}[n_case]
        tp = ca.random_sparse_params(seed % 1000, d_x, d_y)
        vocab = ca.Vocabulary.x_grid((-2.0,) * d_x, (2.0,) * d_x, 5, d_y)
        scheme = ca.calkin_wilf_lattice(d_x)
        positions = rng.choice(np.arange(1, 300), t_count, replace=False)
        tokens = sorted((construction.TokenAssignment(
            int(j), int(rng.integers(len(vocab.v_x))), "sqrt2", 0, int(rng.integers(d_y)),
            float(rng.choice([SQRT2, 1.0, -1.0]))) for j in positions),
            key=lambda t: t.position)
        activation = ca.Activation(kind)
        pts = rng.uniform(0.0, 1.0, (n, d_x - 1))
        x_t = np.hstack([pts, np.ones((n, 1))])
        f_vals = rng.uniform(-1.0, 1.0, (n, d_y))
        trows = _token_rows(tokens, vocab, scheme, tp.C.T @ tp.B)

        # the one-pass reference: every point at once, tokens in position order
        sums = [np.zeros((n, d_y))]
        act = activation(x_t @ trows.T)
        for idx, t in enumerate(tokens):
            sums.append(sums[-1].copy())
            sums[-1][:, t.component] += t.y_value * act[:, idx]
        errors = [float(np.max(np.abs((tp.U @ s.T).T - f_vals))) for s in sums]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construction, "_SUM_CELLS", cells)
            blocks = construction._row_blocks(n, t_count)
            got, got_errors = construction._token_pass(trows, tokens, x_t, activation, tp,
                                                       f_vals)
            audit = construction._audit_stage(tokens, trows, tp, activation, x_t, f_vals)
        assert all(b.stop - b.start >= 2 for b in blocks) or n == 1
        assert len(blocks) == max(1, n // rows)
        assert np.array_equal(got, sums[-1])
        assert got_errors == [(tokens[t - 1].position if t else 0, t, e)
                              for t, e in enumerate(errors)]
        assert got_errors[-1][2] == audit == errors[-1]

    def test_audit_stage_memory_is_one_block(self):
        # unblocked, the (points, tokens) products of 50k points and 40
        # tokens are two 16 MB temporaries
        rng = np.random.default_rng(5)
        tp = ca.random_sparse_params(3, 2, 1)
        tokens = [construction.TokenAssignment(j + 1, 0, "plus_unit", 0, 0, 1.0)
                  for j in range(40)]
        trows = rng.uniform(-1.0, 1.0, (40, 2))
        x_audit = np.hstack([rng.uniform(0.0, 1.0, (50_000, 1)), np.ones((50_000, 1))])
        f_audit = rng.uniform(-1.0, 1.0, (50_000, 1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            construction._audit_stage(tokens, trows, tp, ca.RELU, x_audit, f_audit)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
