import math
from fractions import Fraction

import numpy as np
import pytest

import ctxapprox as ca
from ctxapprox.vocab_pe import (SQRT2, _cw_stream_coords, _dyadic_levels, _fusc_array,
                               _morton_levels, _morton_offset, _morton_split,
                               _morton_stream_bounds, pe_block)


def cw_iteration_oracle(n):
    """The defining recurrence q_{i+1} = 1/(2 floor(q_i) - q_i + 1), q_1 = 1."""
    q = Fraction(1)
    out = [q]
    for _ in range(n - 1):
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)
        out.append(q)
    return out


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
        value = ca.pe_value(ca.calkin_wilf_lattice(d), morton_join(streams) + 1)
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
    @pytest.mark.parametrize("t_first,t_last", [(0, 0), (0, 5000), (37, 37), (999, 2**40),
                                                (2**62 - 9, 2**62 - 1)])
    def test_levels_partition_the_range_in_order(self, d, t_first, t_last):
        levels = list(_morton_levels(t_first, t_last, d))
        assert levels[0][1] == t_first and levels[-1][2] == t_last + 1
        assert all(a[2] == b[1] and a[0] < b[0] for a, b in zip(levels, levels[1:]))
        for level, t_lo, t_hi in levels:
            # a level's indices are those whose streams all lie below 2^L,
            # and not all below 2^(L - 1)
            for t in {t_lo, t_hi - 1, (t_lo + t_hi) // 2}:
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
        vals = [ca.pe_value(scheme, j)[0] for j in range(1, 8)]
        assert vals[0] == 0.0
        assert sorted(vals[1:3]) == [-0.5, 0.5]
        assert sorted(vals[3:7]) == [-0.75, -0.25, 0.25, 0.75]

    def test_dyadic_levels_cover_grid(self):
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        m = 6
        vals = sorted(pe_block(scheme, 1, 2**m - 1)[:, 0])
        expected = [k * 2.0**(1 - m) - 1.0 for k in range(1, 2**m)]
        np.testing.assert_allclose(vals, expected, atol=0)

    def test_dyadic_cache_is_bounded_and_reused(self):
        _dyadic_levels.cache_clear()
        bound = _dyadic_levels.cache_info().maxsize
        for i in range(bound + 5):
            scheme = ca.dyadic_lattice(ca.Box((-1.0 - i,), (1.0,)))
            pe_block(scheme, 1, 7)
            assert _dyadic_levels.cache_info().currsize <= bound
        region = ca.Box((-3.0, 0.0), (3.0, 1.0))
        first = pe_block(ca.dyadic_lattice(region), 1, 40)
        levels = _dyadic_levels(region.lo, region.hi)
        built = list(levels.levels)
        again = pe_block(ca.dyadic_lattice(region), 1, 40)
        assert np.array_equal(first, again)
        assert _dyadic_levels(region.lo, region.hi) is levels
        assert all(a is b for a, b in zip(levels.levels, built))
        assert len(levels.levels) == len(built)

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
        a = [ca.pe_value(scheme, j) for j in (3, 77, 1234)]
        b = pe_block(scheme, 1, 1300)
        for j, v in zip((3, 77, 1234), a):
            assert np.array_equal(v, b[j - 1])

    def test_custom_scheme(self):
        gen = lambda j0, c: np.arange(j0, j0 + c, dtype=float)[:, None] * 0.125
        scheme = ca.custom_scheme(gen, ca.Box((0.0,), (10.0,)))
        assert ca.pe_value(scheme, 5)[0] == 0.625


class TestVocabulary:
    def test_standard_tokens_single_nonzero(self):
        toks = ca.standard_y_tokens(3)
        assert toks.shape == (10, 3)
        assert np.count_nonzero(toks, axis=1).max() <= 1
        vals = {round(float(v), 12) for v in toks.ravel()}
        assert vals == {0.0, 1.0, -1.0, round(SQRT2, 12)}

    def test_grid_vocab_has_standard_y_tokens(self):
        vocab = ca.Vocabulary.x_grid((-2.0, -2.0), (2.0, 2.0), 5, 2)
        assert vocab.has_standard_y_tokens(2)
        assert vocab.v_x.shape == (25, 2)
        assert vocab.y_index_of([0.0, SQRT2]) is not None
        assert vocab.y_index_of([SQRT2, SQRT2]) is None

    def test_empty_vocab_rejected(self):
        with pytest.raises(ca.EmptyGridError):
            ca.Vocabulary(np.zeros((0, 2)), np.zeros((1, 1)))


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

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_n_max_below_one(self, n_max):
        vocab = ca.Vocabulary([[0.0]], [[0.0]])
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            ca.density_audit(vocab, scheme, ca.Box((-1.0,), (1.0,)), n_max)

    def test_csv_output(self, tmp_path):
        vocab = ca.Vocabulary([[0.0]], [[0.0]])
        scheme = ca.dyadic_lattice(ca.Box((-1.0,), (1.0,)))
        prof = ca.density_audit(vocab, scheme, ca.Box((-1.0,), (1.0,)), 7,
                                probe_per_dim=65)
        path = tmp_path / "density.csv"
        with path.open("w") as fh:
            prof.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,covering_radius"
        assert len(lines) == 8


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
