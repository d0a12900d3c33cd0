import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxapprox as ca
from ctxapprox import vocab_pe
from ctxapprox.vocab_pe import (SQRT2, _cw_stream_coords, _fusc_array, _morton_levels,
                               _morton_offset, _morton_split, _morton_stream_bounds,
                               pe_block, pe_rows)


def cw_iteration_oracle(n):
    """The defining recurrence q_{i+1} = 1/(2 floor(q_i) - q_i + 1), q_1 = 1."""
    q = Fraction(1)
    out = [q]
    for _ in range(n - 1):
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)
        out.append(q)
    return out


def dense_covering_radii(vocab, scheme, region, n_max, probe_per_dim, chunk=256):
    """r(n) by brute force: every probe against every position's points."""
    probes = ca.Grid(region.lo, region.hi, (probe_per_dim,) * region.dim).points()
    best = np.full(probes.shape[0], np.inf)
    radii = []
    for start in range(0, n_max, chunk):
        pe = pe_block(scheme, start + 1, min(chunk, n_max - start))
        dist = np.full((pe.shape[0], probes.shape[0]), np.inf)
        for v in vocab.v_x:
            sup = np.max(np.abs((v + pe)[:, None, :] - probes[None, :, :]), axis=2)
            dist = np.minimum(dist, sup)
        dist[0] = np.minimum(dist[0], best)
        dist = np.minimum.accumulate(dist, axis=0)
        radii.append(dist.max(axis=1))
        best = dist[-1]
    return np.concatenate(radii)


class TestCalkinWilf:
    def test_sequence_seed(self):
        assert ca.calkin_wilf_rational(1) == (1, 1)

    def test_first_steps_match_hand_iteration(self):
        assert ca.calkin_wilf_rational(2) == (1, 2)
        assert ca.calkin_wilf_rational(3) == (2, 1)

    def test_matches_iteration_oracle(self):
        oracle = cw_iteration_oracle(512)
        for i, q in enumerate(oracle, start=1):
            num, den = ca.calkin_wilf_rational(i)
            assert Fraction(num, den) == q

    def test_first_2_16_distinct_and_lowest_terms(self):
        seen = set()
        for i in range(1, 2**16 + 1):
            num, den = ca.calkin_wilf_rational(i)
            assert math.gcd(num, den) == 1
            seen.add((num, den))
        assert len(seen) == 2**16

    def test_fusc_parity(self):
        # Stern's sequence is even exactly at indices divisible by 3, which is
        # what makes the odd/odd shell encoding injective
        for n in range(1, 2000):
            assert (ca.fusc(n) % 2 == 0) == (n % 3 == 0)


def cw_block_reference(d, j_start, count, scale):
    """Calkin-Wilf encodings decoded position by position, (count, d)."""
    t = np.arange(j_start - 1, j_start - 1 + count, dtype=np.int64)
    streams = _morton_split(t, d)
    signs = np.where(streams & 1 == 1, -1.0, 1.0)
    exponent = np.array([0, -1, 1, -2])[(streams >> 1) & 3]
    idx = 3 * (streams >> 3) + 1
    num = _fusc_array(idx)
    den = _fusc_array(idx + 1)
    return (signs * (num / den) * np.exp2(exponent.astype(float)) * scale).T


def morton_join(streams):
    """Interleave per-dimension stream values into one index (inverse split)."""
    d = len(streams)
    t = 0
    for bit in range(64):
        t |= ((streams[bit % d] >> (bit // d)) & 1) << bit
    return t


class TestCalkinWilfBlock:
    """Separable block generation against the per-position decode."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("j_start,count", [
        (1, 1), (1, 10_000), (4096, 3), (4095, 8200), (12_345, 1),
        (2**20 - 7, 70_000), (2**34 - 5000, 9000), (2**34 + 1, 1)])
    def test_bit_identical_to_per_position_decode(self, d, j_start, count):
        scheme = ca.calkin_wilf_lattice(d, scale=0.75)
        got = pe_block(scheme, j_start, count)
        want = cw_block_reference(d, j_start, count, scale=0.75)
        assert got.shape == (count, d)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("streams", [(0,), (9,), (10,), (8 * 77 + 6,),
                                         (3, 8 * 1000 + 5), (13, 2, 8 * 4321 + 1)])
    def test_pinned_coordinates(self, streams):
        # stream u: sign bit, shell e = (0, -1, 1, -2)[bits 1-2], cw(3 (u >> 3) + 1)
        d = len(streams)
        value = pe_rows(ca.calkin_wilf_lattice(d), [morton_join(streams) + 1])[0]
        for u, got in zip(streams, value):
            num, den = ca.calkin_wilf_rational(3 * (u >> 3) + 1)
            sign = -1.0 if u & 1 else 1.0
            shell = (0, -1, 1, -2)[(u >> 1) & 3]
            assert got == sign * (num / den) * 2.0**shell


class TestStreamFormat:
    """The per-stream coordinate and the stream -> position interleave."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_interleave_round_trips_split(self, d):
        rng = np.random.default_rng(d)
        t = np.concatenate((np.arange(5000), rng.integers(0, 2**62, 5000)))
        streams = _morton_split(t, d)
        joined = sum(_morton_offset(s, d, k) for k, s in enumerate(streams))
        assert np.array_equal(joined, t)
        assert all(morton_join(tuple(int(s) for s in streams[:, i])) == t[i]
                   for i in range(0, 10_000, 997))

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("t_probe,t_last", [(0, 0), (0, 5000), (37, 37), (999, 2**40),
                                                (2**62 - 9, 2**62 - 1)])
    def test_levels_partition_the_range_in_order(self, d, t_probe, t_last):
        levels = list(_morton_levels(t_last, d))
        assert levels[0][:2] == (0, 0) and levels[-1][2] == t_last + 1
        assert all(a[2] == b[1] and a[0] + 1 == b[0] for a, b in zip(levels, levels[1:]))
        for level, t_lo, t_hi in levels:
            # a level's indices are those whose streams all lie below 2^L,
            # and not all below 2^(L - 1)
            probe = {t_probe} if t_lo <= t_probe < t_hi else set()
            for t in {t_lo, t_hi - 1, (t_lo + t_hi) // 2} | probe:
                streams = _morton_split(np.array([t]), d)
                assert np.all(streams < 2**level)
                assert level == 0 or np.any(streams >= 2 ** (level - 1))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7])
    @pytest.mark.parametrize("t_last", [0, 1, 1000, 2**40, 2**62 - 1])
    def test_stream_bounds_hold_every_index_and_fit_int64(self, d, t_last):
        bounds = _morton_stream_bounds(t_last, d)
        rng = np.random.default_rng(d)
        t = np.concatenate(([0, t_last], rng.integers(0, t_last + 1, 200)))
        assert np.all(_morton_split(t, d) < np.array(bounds)[:, None])
        # the largest value each stream may take lands below 2^bit_length(t_last)
        tops = [_morton_offset(np.array([b - 1]), d, k)[0] for k, b in enumerate(bounds)]
        assert 0 <= sum(int(x) for x in tops) < 2 ** max(t_last.bit_length(), 1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 9))
    def test_table_offsets_equal_the_bit_loop(self, data, d):
        # every value a stream can hold below j_cap = 2^62, its ends and 0
        k = data.draw(st.integers(0, d - 1))
        bound = _morton_stream_bounds(2**62 - 1, d)[k]
        s = np.array(data.draw(st.lists(st.one_of(st.integers(0, bound - 1),
                                                  st.sampled_from([0, 1, bound - 1])),
                                        max_size=40)), dtype=np.int64)
        want = np.zeros_like(s)
        for bit in range(int(s.max()).bit_length() if s.size else 0):
            want |= ((s >> bit) & 1) << (bit * d + k)
        got = _morton_offset(s, d, k)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), count=st.integers(0, 70), scale=st.sampled_from([1.0, 0.75]))
    def test_stream_coords_of_a_range_equal_the_per_value_decode(self, data, count, scale):
        # a contiguous range decodes each m = s >> 3 once; the values must
        # keep the bits of the per-value fusc decode, near 0, near the stream
        # bounds and near 2^62
        top = 2**62 - count
        near = [0, 2**62 - count] + [b - count // 2 for d in (2, 3)
                                      for b in _morton_stream_bounds(2**62 - 1, d)]
        start = data.draw(st.one_of(st.integers(0, top),
                                    st.sampled_from(near).flatmap(
                                        lambda a: st.integers(max(0, a - 9), min(top, a + 9)))))
        s = np.arange(start, start + count, dtype=np.int64)
        num, den = _fusc_array(np.stack((3 * (s >> 3) + 1, 3 * (s >> 3) + 2)))
        want = (np.where(s & 1 == 1, -1.0, 1.0) * (num / den)
                * np.exp2(np.array([0, -1, 1, -2])[(s >> 1) & 3].astype(float)) * scale)
        scheme = ca.calkin_wilf_lattice(2, scale=scale)
        assert _cw_stream_coords(scheme, s).tobytes() == want.tobytes()
        # any other order takes the per-value route, with the same bits
        assert _cw_stream_coords(scheme, s[::-1])[::-1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_stream_coords_through_interleave_equal_pe_block(self, d):
        scheme = ca.calkin_wilf_lattice(d, scale=0.75)
        rng = np.random.default_rng(40 + d)
        js = np.concatenate(([1, 2, 2**40 - 1, 2**40], rng.integers(1, 2**40, 300)))
        coords = _cw_stream_coords(scheme, _morton_split(js - 1, d))     # (d, N)
        for i, j in enumerate(js):
            assert coords[:, i].tobytes() == pe_block(scheme, int(j), 1)[0].tobytes()


class TestPeValue:
    def test_dyadic_first_levels_one_dim(self):
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        vals = pe_rows(scheme, range(1, 8))[:, 0]
        assert vals[0] == 0.0
        assert sorted(vals[1:3]) == [-0.5, 0.5]
        assert sorted(vals[3:7]) == [-0.75, -0.25, 0.25, 0.75]

    def test_dyadic_levels_cover_grid(self):
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        m = 6
        vals = sorted(pe_block(scheme, 1, 2**m - 1)[:, 0])
        expected = [k * 2.0**(1 - m) - 1.0 for k in range(1, 2**m)]
        np.testing.assert_allclose(vals, expected, atol=0)

    def test_irrational_rotation_distinct(self):
        scheme = ca.irrational_rotation(ca.Box((0.0,), (1.0,)), primes=(2,))
        vals = pe_block(scheme, 1, 10_000)[:, 0]
        assert len(np.unique(vals)) == 10_000
        j = 137
        assert vals[j - 1] == pytest.approx((j * math.sqrt(2)) % 1.0, abs=1e-9)

    def test_cw_lattice_injective_first_1e4(self):
        for d in (1, 2, 3):
            scheme = ca.calkin_wilf_lattice(d)
            blk = pe_block(scheme, 1, 10_000)
            assert len(np.unique(blk, axis=0)) == 10_000

    def test_pe_value_reproducible_and_pure(self):
        scheme = ca.calkin_wilf_lattice(2, scale=0.5)
        a = [pe_rows(scheme, [j])[0] for j in (3, 77, 1234)]
        b = pe_block(scheme, 1, 1300)
        for j, v in zip((3, 77, 1234), a):
            assert np.array_equal(v, b[j - 1])

    def test_custom_scheme(self):
        gen = lambda j0, c: np.arange(j0, j0 + c, dtype=float)[:, None] * 0.125
        scheme = ca.custom_scheme(gen, ca.Box((0.0,), (10.0,)))
        assert pe_rows(scheme, [5])[0, 0] == 0.625


class TestPeRows:
    @pytest.mark.parametrize("scheme", [
        ca.calkin_wilf_lattice(1), ca.calkin_wilf_lattice(2, scale=0.75),
        ca.calkin_wilf_lattice(3, scale=2.0)], ids=["cw1", "cw2", "cw3"])
    def test_calkin_wilf_rows_equal_pe_block(self, scheme):
        # unsorted, repeated and near 2^34, where the chunks are far apart
        rng = np.random.default_rng(scheme.d_x)
        js = np.concatenate(([1, 2, 4097, 4096, 2, 2**34 - 1, 2**34, 2**34 + 1],
                             rng.integers(1, 2**35, 40)))
        rows = pe_rows(scheme, js)
        assert rows.shape == (js.size, scheme.d_x)
        for row, j in zip(rows, js):
            assert row.tobytes() == pe_block(scheme, int(j), 1)[0].tobytes()

    @pytest.mark.parametrize("scheme", [
        ca.dyadic_lattice(ca.Box((-1.0, 0.0), (1.0, 2.0))),
        ca.irrational_rotation(ca.Box((-3.0, -1.0, 0.0), (3.0, 1.0, 0.5))),
        ca.dyadic_lattice(ca.Box((-1.0, -2.0, 0.1), (1.0, 0.5, 0.7)))],
        ids=["dyadic", "rotation", "dyadic3"])
    def test_other_schemes_rows_equal_pe_block(self, scheme):
        # unsorted and repeated, and random positions up to 2^40
        rng = np.random.default_rng(scheme.d_x)
        js = np.concatenate(([300, 1, 7, 7, 2000, 45, 2**40, 2**40 - 1],
                             rng.integers(1, 2**40, 200)))
        rows = pe_rows(scheme, js)
        for row, j in zip(rows, js):
            assert row.tobytes() == pe_block(scheme, int(j), 1)[0].tobytes()
        block = pe_block(scheme, 2**40 - 30, 60)
        order = rng.permutation(60)
        assert pe_rows(scheme, 2**40 - 30 + order).tobytes() == block[order].tobytes()

    def test_no_positions_and_position_zero(self):
        for scheme in (ca.calkin_wilf_lattice(2), ca.dyadic_lattice(ca.Box((0.0,), (1.0,)))):
            assert pe_rows(scheme, []).shape == (0, scheme.d_x)
            with pytest.raises(ValueError):
                pe_rows(scheme, [3, 0])


def dyadic_levels_reference(box, levels):
    """Levels 1..levels of the dyadic lattice, built level by level: every
    tuple of {1 .. 2^m - 1}^d with an odd entry, in lexicographic order."""
    lo, hi = np.array(box.lo), np.array(box.hi)
    out = []
    for m in range(1, levels + 1):
        t = np.arange(1, 2**m)
        mesh = np.meshgrid(*([t] * box.dim), indexing="ij")
        tuples = np.stack([g.ravel() for g in mesh], axis=1)
        new = tuples[np.any(tuples % 2 == 1, axis=1)]
        out.append(lo + new * (hi - lo) / 2.0**m)
    return np.concatenate(out)


def dyadic_unrank(d, j):
    """Level m and integer tuple of position j, in Python ints throughout."""
    t = j - 1
    m = 1
    while (2**m - 1) ** d <= t:
        m += 1
    n, e = 2**m - 1, 2 ** (m - 1) - 1
    r = t - e**d
    tup, odd = [], False
    for rest in range(d - 1, -1, -1):
        full, with_odd = n**rest, n**rest - e**rest
        if odd:
            v, r = divmod(r, full)
            tup.append(v + 1)
            continue
        i, r = divmod(r, full + with_odd)     # values 2i+1 (full) and 2i+2 (with_odd)
        odd = r < full
        tup.append(2 * i + 1 if odd else 2 * i + 2)
        if not odd:
            r -= full
    return m, tup


class TestDyadicClosedForm:
    """The closed-form dyadic ranking against the levels built one by one."""

    BOXES = {1: ca.Box((-1.0,), (1.0,)), 2: ca.Box((-3.0, 0.0), (3.0, 1.0)),
             3: ca.Box((-1.0, -2.0, 0.1), (1.0, 0.5, 0.7))}

    @pytest.mark.parametrize("d,levels", [(1, 12), (2, 7), (3, 5)])
    def test_bit_identical_to_levels_built_one_by_one(self, d, levels):
        scheme = ca.dyadic_lattice(self.BOXES[d])
        want = dyadic_levels_reference(scheme.region, levels)
        assert len(want) == (2**levels - 1) ** d
        # blocks of 997 straddle the level boundaries at (2^m - 1)^d
        for j in range(1, len(want) + 1, 997):
            got = pe_block(scheme, j, min(997, len(want) + 1 - j))
            assert got.tobytes() == np.ascontiguousarray(want[j - 1:j - 1 + len(got)]).tobytes()
        js = np.random.default_rng(d).permutation(len(want)) + 1
        assert pe_rows(scheme, js).tobytes() == want[js - 1].tobytes()

    def test_deep_position_lies_on_its_level_grid(self):
        # (2^20 - 1)^2 < 2^40 <= (2^21 - 1)^2: level 21, far past any
        # level that could be built and stored
        box = ca.Box((-1.0, 0.0), (1.0, 2.0))
        rows = pe_block(ca.dyadic_lattice(box), 2**40, 4)
        ticks = (rows - np.array(box.lo)) / (np.array(box.hi) - np.array(box.lo)) * 2**21
        assert np.array_equal(ticks, np.rint(ticks))
        assert np.all((ticks >= 1) & (ticks <= 2**21 - 1))
        assert np.all(np.any(ticks % 2 == 1, axis=1))
        for i in range(4):
            m, tup = dyadic_unrank(2, 2**40 + i)
            assert m == 21 and np.array_equal(ticks[i], tup)

    @pytest.mark.parametrize("j", [2**62, 2**62 - 1, 2**61 + 12345, 2**63 - 2])
    def test_ten_dims_at_deep_positions_match_python_int_unrank(self, j):
        # level 7: 127^9 completions per first value, so 2N - E is beyond int64
        box = ca.Box(tuple(-1.0 - k for k in range(10)), tuple(1.0 + k for k in range(10)))
        m, tup = dyadic_unrank(10, j)
        lo, hi = np.array(box.lo), np.array(box.hi)
        want = lo + np.array(tup) * (hi - lo) / 2.0**m
        assert pe_block(ca.dyadic_lattice(box), j, 1)[0].tobytes() == want.tobytes()
        assert pe_rows(ca.dyadic_lattice(box), [j])[0].tobytes() == want.tobytes()


class TestVocabulary:
    def test_standard_tokens_single_nonzero(self):
        toks = ca.standard_y_tokens(3)
        assert toks.shape == (10, 3)
        assert np.count_nonzero(toks, axis=1).max() <= 1
        vals = {round(float(v), 12) for v in toks.ravel()}
        assert vals == {0.0, 1.0, -1.0, round(SQRT2, 12)}

    def test_grid_vocab_has_standard_y_tokens(self):
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 2)
        assert all(vocab.y_index_of(tok) is not None for tok in ca.standard_y_tokens(2))
        assert vocab.v_x.shape == (25, 2)
        assert vocab.y_index_of([0.0, SQRT2]) is not None
        assert vocab.y_index_of([SQRT2, SQRT2]) is None

    @pytest.mark.parametrize("d,per_dim", [(1, 2), (1, 81), (2, 5), (2, 9), (2, 13),
                                           (2, 65), (2, 81), (3, 5), (3, 9)])
    def test_grid_spec_is_found_from_the_points(self, d, per_dim):
        lo, hi = (-1.5,) * d, (2.0,) * d
        vocab = ca.Vocabulary.x_grid(lo, hi, per_dim, 1)
        assert vocab.x_grid_spec == (lo, hi, per_dim)
        # the same points written out as a list form the same grid
        listed = ca.Vocabulary(vocab.v_x.tolist(), vocab.v_y)
        assert listed.x_grid_spec == (lo, hi, per_dim)

    def test_single_point_grid_records_its_point(self):
        vocab = ca.Vocabulary.x_grid((-1.0, 2.0), (3.0, 4.0), 1, 1)
        assert vocab.v_x.tolist() == [[1.0, 3.0]]
        assert vocab.x_grid_spec == ((1.0, 3.0), (1.0, 3.0), 1)

    @pytest.mark.parametrize("case", ["reversed", "nudged", "3x5", "no_coordinates",
                                      "span_overflow", "midpoint_overflow"])
    def test_no_grid_spec_for_points_that_form_no_grid(self, case):
        grid = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1).v_x
        if case == "reversed":
            v_x = grid[::-1]
        elif case == "nudged":
            v_x = grid.copy()
            v_x[40, 1] = np.nextafter(v_x[40, 1], 1.0)
        elif case == "3x5":
            v_x = ca.Grid((-1.0, -1.0), (1.0, 1.0), (3, 5)).points()
        elif case == "span_overflow":
            v_x = [[-1e308], [1e308]]
        elif case == "midpoint_overflow":
            v_x = [[1.7e308]]
        else:
            v_x = np.zeros((1, 0))
        assert ca.Vocabulary(v_x, [[0.0]]).x_grid_spec is None

    def test_grid_spec_is_not_an_argument(self):
        vocab = ca.Vocabulary.x_grid((-1.0, -1.0), (1.0, 1.0), 9, 1)
        with pytest.raises(TypeError):
            ca.Vocabulary(vocab.v_x, vocab.v_y, x_grid_spec=vocab.x_grid_spec)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ca.EmptyGridError):
            ca.Vocabulary(np.zeros((0, 2)), np.zeros((1, 1)))

    @pytest.mark.parametrize("v_x,v_y", [([[0.0, np.inf]], [[0.0]]),
                                         ([[0.0, 0.0]], [[0.0], [np.nan]])])
    def test_non_finite_token_rejected(self, v_x, v_y):
        with pytest.raises(ValueError, match="tokens must be finite"):
            ca.Vocabulary(v_x, v_y)


class TestDensityAudit:
    def test_dyadic_exact_staircase(self):
        # r(2^m - 1) = 2^(1-m), attained at the boundary probes
        vocab = ca.Vocabulary([[0.0]], [[0.0]])
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        region = ca.Box((-1.0,), (1.0,))
        prof = ca.density_audit(vocab, scheme, region, 2**7 - 1, probe_per_dim=257)
        for m in range(1, 8):
            assert prof.radii[2**m - 2] == pytest.approx(2.0**(1 - m), abs=1e-15)

    def test_radius_non_increasing(self):
        vocab = ca.Vocabulary([[0.0, 0.0]], [[0.0]])
        scheme = ca.calkin_wilf_lattice(2)
        prof = ca.density_audit(vocab, scheme, ca.Box((-1.0, -1.0), (1.0, 1.0)),
                                2000, probe_per_dim=21)
        assert np.all(np.diff(prof.radii) <= 0)

    def test_cw_lattice_reaches_005_on_square(self):
        vocab = ca.Vocabulary([[0.0, 0.0]], [[0.0]])
        scheme = ca.calkin_wilf_lattice(2)
        prof = ca.density_audit(vocab, scheme, ca.Box((-1.0, -1.0), (1.0, 1.0)),
                                100_000, probe_per_dim=41)
        hits = np.nonzero(prof.radii < 0.05)[0]
        assert hits.size > 0
        # record the achieved n for the report
        assert int(prof.ns[hits[0]]) <= 100_000

    @pytest.mark.parametrize("kind", ["dyadic_lattice", "irrational_rotation",
                                      "calkin_wilf_lattice"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("tokens", [1, 3])
    @pytest.mark.parametrize("probe_per_dim", [1, 2, 64])
    @pytest.mark.parametrize("n_max", [128, 150])
    def test_matches_dense_reference(self, monkeypatch, kind, d, tokens, probe_per_dim,
                                     n_max):
        # a small pair budget: many chunks, positions whose boxes exceed it
        # (applied a token slice at a time) and falls of r inside runs; the
        # third token sits partly outside the region
        monkeypatch.setattr(vocab_pe, "_DENSITY_PAIRS", 256)
        region = ca.Box((-1.0,) * d, (1.0,) * d)
        scheme = (ca.calkin_wilf_lattice(d) if kind == "calkin_wilf_lattice"
                  else getattr(ca, kind)(region))
        offsets = [[0.013, -0.029], [-0.41, 0.37], [1.7, -2.3]][:tokens]
        vocab = ca.Vocabulary([o[:d] for o in offsets], [[0.0]])
        prof = ca.density_audit(vocab, scheme, region, n_max, probe_per_dim=probe_per_dim)
        ref = dense_covering_radii(vocab, scheme, region, n_max, probe_per_dim)
        assert np.array_equal(prof.radii, ref)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["dyadic_lattice", "irrational_rotation",
                                                  "calkin_wilf_lattice"]),
           d=st.integers(1, 3), budget=st.sampled_from([1, 16, 64, 256, 4096]))
    def test_matches_dense_reference_random(self, data, kind, d, budget):
        # budgets this small make many chunks, positions past the budget and
        # falls of r inside runs; offsets up to 2.5 put tokens outside the region
        lo = data.draw(st.lists(st.floats(-2.0, 1.0), min_size=d, max_size=d))
        width = data.draw(st.lists(st.floats(0.25, 3.0), min_size=d, max_size=d))
        region = ca.Box(lo, [l + w for l, w in zip(lo, width)])
        scheme = (ca.calkin_wilf_lattice(d) if kind == "calkin_wilf_lattice"
                  else getattr(ca, kind)(region))
        coord = st.floats(-2.5, 2.5, allow_nan=False)
        offsets = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                     min_size=1, max_size=3))
        vocab = ca.Vocabulary(offsets, [[0.0]])
        probe_per_dim = data.draw(st.integers(1, (33, 12, 6)[d - 1]))
        n_max = data.draw(st.integers(1, 200))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vocab_pe, "_DENSITY_PAIRS", budget)
            prof = ca.density_audit(vocab, scheme, region, n_max, probe_per_dim=probe_per_dim)
        assert np.array_equal(prof.radii,
                              dense_covering_radii(vocab, scheme, region, n_max, probe_per_dim))

    @pytest.mark.parametrize("kind", ["dyadic_lattice", "irrational_rotation"])
    def test_matches_dense_reference_across_a_full_block(self, kind):
        # the final boxes hold at most 4 x 4 probes, so the last chunk is
        # at least _DENSITY_PAIRS / 16 positions long
        n_max = vocab_pe._DENSITY_PAIRS // 16 + 45
        region = ca.Box((-1.0, -1.0), (1.0, 1.0))
        vocab = ca.Vocabulary([[0.031, -0.017]], [[0.0]])
        scheme = getattr(ca, kind)(region)
        prof = ca.density_audit(vocab, scheme, region, n_max, probe_per_dim=24)
        assert np.array_equal(prof.radii,
                              dense_covering_radii(vocab, scheme, region, n_max, 24))

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_n_max_below_one(self, n_max):
        vocab = ca.Vocabulary([[0.0]], [[0.0]])
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            ca.density_audit(vocab, scheme, ca.Box((-1.0,), (1.0,)), n_max)

    @pytest.mark.parametrize("offsets", [[[1e308]], [[0.0], [1e308], [-1e308]]])
    def test_tokens_far_outside_the_region(self, recwarn, offsets):
        # a point's probe index (1e308 - lo) / step overflows to inf, and at
        # the first radius, inf, its box start inf - inf is NaN, which used to
        # reach the intp cast as index -2^63 and fail with an IndexError
        region = ca.Box((-1.0,), (1.0,))
        scheme = ca.dyadic_lattice(region)
        vocab = ca.Vocabulary(offsets, [[0.0]])
        prof = ca.density_audit(vocab, scheme, region, 200, probe_per_dim=65)
        assert np.isfinite(prof.radii).all() and np.all(np.diff(prof.radii) <= 0)
        assert np.array_equal(prof.radii, dense_covering_radii(vocab, scheme, region, 200, 65))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_rejects_vocabulary_of_another_dimension(self):
        # a 1-d token used to be broadcast over a 2-d region
        region = ca.Box((-1.0, -1.0), (1.0, 1.0))
        with pytest.raises(ca.DimensionError, match="dimensions disagree: 2, 2, 1"):
            ca.density_audit(ca.Vocabulary([[0.5]], [[0.0]]), ca.dyadic_lattice(region),
                             region, 7)


class TestSchemeSerde:
    def test_round_trip(self):
        scheme = ca.irrational_rotation(ca.Box((0.0, 0.0), (1.0, 2.0)))
        doc = scheme.to_json_dict()
        back = ca.PeScheme.from_json_dict(doc)
        assert back == scheme

    def test_custom_not_serializable(self):
        scheme = ca.custom_scheme(lambda j0, c: np.zeros((c, 1)),
                                  ca.Box((0.0,), (1.0,)))
        with pytest.raises(TypeError):
            scheme.to_json_dict()


class TestFiniteBounds:
    @pytest.mark.parametrize("lo,hi", [((float("nan"),), (1.0,)), ((0.0,), (float("inf"),)),
                                       ((-float("inf"), 0.0), (1.0, 1.0))])
    def test_box_and_grid_reject_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="box bounds must be finite"):
            ca.Box(lo, hi)
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            ca.Grid(lo, hi, (5,) * len(lo))

    def test_box_and_grid_reject_a_span_past_the_float_range(self):
        with pytest.raises(ValueError, match=r"box span hi - lo must be finite, got \(inf,\)"):
            ca.Box((-1e308,), (1e308,))
        with pytest.raises(ValueError, match=r"grid span hi - lo must be finite, got \(inf,\)"):
            ca.Grid((-1e308,), (1e308,), (5,))

    def test_grid_rejects_a_one_point_axis_whose_midpoint_overflows(self):
        with pytest.raises(ValueError, match=r"grid midpoint \(lo \+ hi\) / 2 .* \(inf,\)"):
            ca.Grid((1.7e308, 0.0), (1.7e308, 1.0), (1, 5))
        # two points need no midpoint
        assert ca.Grid((1.7e308, 0.0), (1.7e308, 1.0), (2, 5)).points().shape == (10, 2)
