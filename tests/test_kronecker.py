import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxapprox as ca
from ctxapprox import kronecker
from ctxapprox.kronecker import SQRT2, _chain, _first_hits, _verified_error


def brute_force_smallest_q(beta, epsilon, q_max):
    """Independent oracle: exhaustive scan in 50-digit arithmetic."""
    with mpmath.workdps(50):
        rt2 = mpmath.sqrt(2)
        for q in range(1, q_max + 1):
            r = q * rt2 - mpmath.mpf(beta)
            err = abs(r - mpmath.nint(r))
            if err < epsilon:
                return q, int(mpmath.nint(r)), float(err)
    return None


def brute_force_closest(beta, q_max):
    """Independent oracle: (first q <= q_max of least error, that error)."""
    with mpmath.workdps(50):
        rt2 = mpmath.sqrt(2)
        errs = []
        for q in range(1, q_max + 1):
            r = q * rt2 - mpmath.mpf(beta)
            errs.append(abs(r - mpmath.nint(r)))
        best = min(range(q_max), key=errs.__getitem__)
        return best + 1, float(errs[best])


def mpmath_verified_error(beta, q):
    """Independent oracle: (nearest l, |beta - q*sqrt2 + l|) with 60 digits
    after the point."""
    with mpmath.workdps(60 + len(str(int(abs(beta)) + 2 * q))):
        r = mpmath.mpf(q) * mpmath.sqrt(2) - mpmath.mpf(beta)
        l = int(mpmath.nint(r))
        return l, float(abs((mpmath.mpf(l) - mpmath.mpf(q) * mpmath.sqrt(2))
                            + mpmath.mpf(beta)))


def mpmath_nearest(a):
    """Independent oracle: (nint(a), |a - nint(a)|); nint breaks ties to even."""
    with mpmath.workdps(60):
        l = int(mpmath.nint(mpmath.mpf(a)))
        return l, float(abs(mpmath.mpf(a) - l))


class TestVerifiedError:
    """The exact integer check against an extended-precision oracle."""

    @settings(max_examples=300, deadline=None)
    @given(beta=st.floats(-1e6, 1e6, allow_nan=False), q=st.integers(1, 2**62))
    def test_matches_mpmath(self, beta, q):
        assert _verified_error(beta, q) == mpmath_verified_error(beta, q)

    @settings(max_examples=200, deadline=None)
    @given(beta=st.floats(allow_nan=False, allow_infinity=False),
           q=st.integers(1, 2**62))
    def test_matches_mpmath_over_all_doubles(self, beta, q):
        assert _verified_error(beta, q) == mpmath_verified_error(beta, q)

    @settings(max_examples=300, deadline=None)
    @given(beta=st.floats(-100, 100, allow_nan=False), q=st.integers(1, 10**6))
    def test_matches_mpmath_from_a_one_bit_bracket(self, beta, q):
        # the first brackets straddle l or a half-integer; the loop narrows them
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kronecker, "_CHECK_BITS", 1)
            assert _verified_error(beta, q) == mpmath_verified_error(beta, q)

    @pytest.mark.parametrize("q", ca.pell_denominators(10**15))
    def test_pell_denominators_beta_zero(self, q):
        # the best approximations of sqrt2: the least errors for their size
        assert _verified_error(0.0, q) == mpmath_verified_error(0.0, q)

    @pytest.mark.parametrize("q", ca.pell_denominators(2**130)[20::4])
    def test_errors_far_below_the_first_bracket(self, q):
        # beta is the double nearest q*sqrt2 - p for a Pell pair (q, p), so the
        # error is down to 1e-56: the bracket must narrow, past l itself
        with mpmath.workdps(300):
            r = mpmath.mpf(q) * mpmath.sqrt(2)
            beta = float(r - mpmath.nint(r))
            r -= mpmath.mpf(beta)
            want = int(mpmath.nint(r)), float(abs(r - mpmath.nint(r)))
        assert _verified_error(beta, q) == want

    @pytest.mark.parametrize("q", [q // 2 for q in ca.pell_denominators(2**140)
                                   if q % 2 == 0 and q > 2**60])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    @pytest.mark.parametrize("bits", [1, 128])
    def test_r_next_to_a_half_integer(self, q, side, bits):
        # 2q*sqrt2 is near an odd integer, so r = q*sqrt2 - beta is within
        # 1e-40 or so of m + 1/2: the ends of a bracket round to m and m + 1
        with mpmath.workdps(300):
            r = mpmath.mpf(q) * mpmath.sqrt(2)
            beta = float(r - mpmath.floor(r) - mpmath.mpf(0.5))
            beta = math.nextafter(beta, side * math.inf) if side else beta
            r -= mpmath.mpf(beta)
            want = int(mpmath.nint(r)), float(abs(r - mpmath.nint(r)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kronecker, "_CHECK_BITS", bits)
            assert _verified_error(beta, q) == want

    @pytest.mark.parametrize("beta", [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                      1e300, -1e300])
    @pytest.mark.parametrize("q", [1, 2, 12, 985, 10**7 + 1, 2**62])
    def test_extreme_betas(self, beta, q):
        assert _verified_error(beta, q) == mpmath_verified_error(beta, q)


def first_hits(a, m, lo, hi, dtype):
    return _first_hits(_chain(a, m), np.array(lo, dtype), np.array(hi, dtype)).tolist()


class TestFirstHit:
    """``_first_hits`` against a brute force, on int64 and on object arrays."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 300), data=st.data())
    def test_matches_brute_force(self, m, data):
        a = data.draw(st.sampled_from([0, m, 2 * m, 3 * m]) | st.integers(0, 3 * m))
        windows = data.draw(st.lists(st.integers(0, m - 1).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo, m - 1))), min_size=1,
            max_size=8))
        want = []
        for lo, hi in windows:
            hits = [x for x in range(m) if lo <= a * x % m <= hi]
            want.append(hits[0] if hits else -1)
        lo, hi = zip(*windows)
        assert first_hits(a, m, lo, hi, np.int64) == first_hits(a, m, lo, hi, object) == want

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_window_at_zero_and_empty_chain(self, dtype):
        # lo = 0 is hit by x = 0; a = 0 mod m leaves an empty chain, which
        # hits only windows holding 0
        assert first_hits(7, 30, [0, 0, 5], [0, 3, 6], dtype) == [0, 0, 5]
        assert _chain(60, 30) == []
        assert first_hits(60, 30, [0, 0, 1], [0, 29, 29], dtype) == [0, 0, -1]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_entries_stop_at_different_depths(self, dtype):
        # one batch whose windows hold a multiple of a_j first at levels 0, 1,
        # 8, 9, 10 and 11 of the 13-level chain, and one between two
        # multiples of gcd(a, m) = 4 that no level hits
        a, m = 4 * 377, 4 * 610
        windows = [(a, a), (2 * a - m, 2 * a - m), (400, 403), (1000, 1010), (4, 4), (8, 8),
                   (1, 2)]
        want = []
        for lo, hi in windows:
            hits = [x for x in range(m) if lo <= a * x % m <= hi]
            want.append(hits[0] if hits else -1)
        assert want == [1, 2, 120, 156, 233, 466, -1]
        lo, hi = zip(*windows)
        assert first_hits(a, m, lo, hi, dtype) == want

    def test_descent_depth_of_a_wide_modulus(self):
        # sqrt2's partial quotients are all 2, the slowest Euclid descent
        m = 1 << 400
        a = math.isqrt(2 * m * m)
        [x] = first_hits(a, m, [m // 3], [m // 3 + 5], object)
        assert m // 3 <= a * x % m <= m // 3 + 5


class TestKroneckerSearch:
    def test_beta_sqrt2_exact(self):
        w = ca.kronecker_search(SQRT2, 1e-12)
        assert (w.q, w.l) == (1, 0)
        assert w.achieved_error < 1e-12

    def test_beta_zero_pell_convergent(self):
        w = ca.kronecker_search(0.0, 0.01)
        assert (w.q, w.l) == (70, 99)
        assert abs(w.achieved_error - abs(70 * math.sqrt(2) - 99)) < 1e-12
        # oracle: no smaller q admits an l at this tolerance
        assert brute_force_smallest_q(0.0, 0.01, 200)[0] == 70

    def test_beta_1p5_matches_brute_force(self):
        oracle = brute_force_smallest_q(1.5, 0.01, 200)
        w = ca.kronecker_search(1.5, 0.01)
        assert (w.q, w.l) == oracle[:2]
        assert abs(1.5 - w.q * SQRT2 + w.l) < 0.01

    def test_witness_inequality_reverified_extended_precision(self):
        rng = np.random.default_rng(0)
        for beta in rng.uniform(-10, 10, 25):
            w = ca.kronecker_search(float(beta), 1e-3)
            with mpmath.workdps(60):
                err = abs(mpmath.mpf(float(beta)) - w.q * mpmath.sqrt(2) + w.l)
            assert float(err) < 1e-3
            assert abs(float(err) - w.achieved_error) < 1e-15

    def test_minimality_of_returned_q(self):
        rng = np.random.default_rng(1)
        for beta in rng.uniform(-5, 5, 10):
            w = ca.kronecker_search(float(beta), 5e-3)
            oracle = brute_force_smallest_q(float(beta), 5e-3, w.q)
            assert oracle[0] == w.q
            # every smaller q errs by at least epsilon > achieved error
            assert w.achieved_error < 5e-3

    def test_cap_exhaustion_reports_best(self):
        with pytest.raises(ca.KroneckerCapExceeded) as exc:
            ca.kronecker_search(0.5, 1e-9, q_cap=50)
        assert exc.value.q_cap == 50
        assert exc.value.best_error >= 1e-9

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            ca.kronecker_search(1.0, 0.0)

    def test_tight_epsilon_extended_precision_path(self):
        # q beyond 2^22 loses digits in plain double evaluation; the integer
        # fixed-point search does not, and the witness still verifies
        w = ca.kronecker_search(0.0, 1e-8, q_cap=10**8)
        assert w.q == 38613965  # Pell denominator; smaller q all miss 1e-8
        with mpmath.workdps(60):
            err = abs(mpmath.mpf(0) - w.q * mpmath.sqrt(2) + w.l)
        assert float(err) < 1e-8

    @pytest.mark.parametrize("beta", [1e20, 1e50, 1e70])
    def test_large_integer_beta_keeps_fractional_digits(self, beta):
        # floats this large are integers, so beta acts as 0 modulo 1; the
        # check must keep digits after the point at any magnitude of beta
        base = ca.kronecker_search(0.0, 1e-3)
        w = ca.kronecker_search(beta, 1e-3)
        assert base.q == w.q == 408
        assert abs(w.achieved_error - base.achieved_error) <= 1e-15
        assert w.l == base.l - int(beta)

    def test_witness_within_float_rounding_of_epsilon(self):
        # error 9.9985e-8 in 60 digits, but float64 evaluation of
        # q*sqrt2 - beta gives 1.0058e-7: a float prefilter misses this q
        beta, eps = 7.809544193956217, 1e-7
        w = ca.kronecker_search(beta, eps, q_cap=10**8)
        assert (w.q, w.l) == (3_517_050, 4_973_852)
        with mpmath.workdps(60):
            err = abs(mpmath.mpf(beta) - w.q * mpmath.sqrt(2) + w.l)
        assert float(err) < eps
        # no smaller q: an 80-bit scan errs by under 1e-12 at these q, and
        # every q it puts within 1e-12 of epsilon is decided in 60 digits
        assert np.finfo(np.longdouble).eps < 1e-18
        rt2 = np.sqrt(np.longdouble(2))
        near = []
        for lo in range(1, w.q, 1 << 20):
            q = np.arange(lo, min(lo + (1 << 20), w.q), dtype=np.int64)
            r = q.astype(np.longdouble) * rt2 - np.longdouble(beta)
            frac = np.abs(r - np.rint(r))
            near.extend(int(v) for v in q[frac < eps + 1e-12])
        with mpmath.workdps(60):
            for q in near:
                r = q * mpmath.sqrt(2) - mpmath.mpf(beta)
                assert abs(r - mpmath.nint(r)) >= eps

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(-20, 20), eps=st.sampled_from([1e-2, 1e-3]))
    def test_equals_brute_force(self, beta, eps):
        w = ca.kronecker_search(beta, eps)
        assert (w.q, w.l, w.achieved_error) == brute_force_smallest_q(beta, eps, w.q)

    @pytest.mark.parametrize("beta", [3.0 - 2e-4, -5.0 + 1e-4, 1e-5, -1e-5, 12.0])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_window_wrapping_past_an_integer(self, beta, eps):
        # beta within epsilon of an integer puts the window across 0 mod 1
        w = ca.kronecker_search(beta, eps)
        assert (w.q, w.l, w.achieved_error) == brute_force_smallest_q(beta, eps, w.q)

    @pytest.mark.parametrize("beta", [0.5, -3.7, 0.123456, 9.99])
    @pytest.mark.parametrize("q_cap", [1, 20, 50, 500])
    def test_cap_exhaustion_reports_closest_q(self, beta, q_cap):
        with pytest.raises(ca.KroneckerCapExceeded) as exc:
            ca.kronecker_search(beta, 1e-9, q_cap=q_cap)
        best_q, best_err = brute_force_closest(beta, q_cap)
        assert exc.value.best_q == best_q
        assert exc.value.best_error == pytest.approx(best_err, rel=1e-12)

    @pytest.mark.parametrize("beta,eps,q_cap,named", [
        (1.0, 1e-3, 0, "q_cap"), (1.0, 1e-3, -4, "q_cap"),
        (1.0, float("nan"), 100, "epsilon"), (1.0, float("inf"), 100, "epsilon"),
        (float("nan"), 1e-3, 100, "beta"), (float("-inf"), 1e-3, 100, "beta")])
    def test_rejects_bad_inputs(self, beta, eps, q_cap, named):
        for search in (ca.kronecker_search, ca.coefficient_decompose):
            with pytest.raises(ValueError, match=named):
                search(beta, eps, q_cap)

    def test_pell_denominators(self):
        assert ca.pell_denominators(500) == [1, 2, 5, 12, 29, 70, 169, 408]

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(-20, 20), exp10=st.integers(2, 5))
    def test_witness_property(self, beta, exp10):
        eps = 10.0 ** -exp10
        w = ca.kronecker_search(beta, eps, q_cap=10**6)
        assert w.q >= 1
        assert abs(beta - w.q * SQRT2 + w.l) < eps


class TestKroneckerWitnesses:
    """The batch entry: one circle and one chain for every beta."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), eps=st.sampled_from([1e-2, 1e-3]))
    def test_equals_per_beta_and_brute_force(self, data, eps):
        # betas within eps of an integer put their window across 0 mod 1
        near_integer = st.builds(lambda k, d: k + d, st.integers(-20, 20), st.floats(-eps, eps))
        betas = data.draw(st.lists(st.floats(-20, 20) | near_integer, min_size=1, max_size=8))
        wits = ca.kronecker_witnesses(betas, eps)
        assert wits == [ca.kronecker_search(b, eps) for b in betas]
        for beta, w in zip(betas, wits):
            assert (w.q, w.l, w.achieved_error) == brute_force_smallest_q(beta, eps, w.q)

    @settings(max_examples=20, deadline=None)
    @given(betas=st.lists(st.floats(-20, 20), min_size=1, max_size=8))
    @pytest.mark.parametrize("eps,q_cap", [(1e-3, 2**41), (1e-2, 2**44)])
    def test_int64_and_object_circles_agree(self, eps, q_cap, betas):
        # bits = bit length of q_cap + bit length of floor(1/eps) + 8: 60 for
        # q_cap (an int64 circle), 61 for 2*q_cap (object arrays)
        dtypes = []
        first_hits = kronecker._first_hits

        def spy(chain, lo, hi):
            dtypes.append(lo.dtype)
            return first_hits(chain, lo, hi)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kronecker, "_first_hits", spy)
            narrow = ca.kronecker_witnesses(betas, eps, q_cap)
            assert set(dtypes) <= {np.dtype(np.int64)}
            dtypes.clear()
            wide = ca.kronecker_witnesses(betas, eps, 2 * q_cap)
            assert set(dtypes) <= {np.dtype(object)}
        assert narrow == wide

    @settings(max_examples=30, deadline=None)
    @given(beta=st.floats(-20, 20), q_cap=st.integers(1, 500), data=st.data())
    @pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
    def test_closest_up_to_equals_brute_force(self, dtype, beta, q_cap, data):
        # the cap path on the search's own circle, whatever its size: int64
        # circles (M <= 2^60) and object ones; a window of 2 * (q_cap + 1) or
        # more covers a small circle whole
        cut = 60 - q_cap.bit_length()
        bits = data.draw(st.integers(1, cut) if dtype is np.int64 else st.integers(cut + 1, 64))
        circle = kronecker._circle(q_cap, bits)
        assert circle.dtype is dtype
        best_q, best_error = kronecker._closest_up_to(circle, beta, q_cap)
        want_q, want_error = brute_force_closest(beta, q_cap)
        assert type(best_q) is int and best_q == want_q
        assert best_error == pytest.approx(want_error, rel=1e-12)

    def test_cap_failure_names_the_first_beta_in_input_order(self):
        # 0.0 and -3.7 both have no witness up to q = 300; 0.0 comes first
        with pytest.raises(ca.KroneckerCapExceeded) as exc:
            ca.kronecker_witnesses([1.5, 0.0, 0.5, -3.7], 1e-3, q_cap=300)
        assert (exc.value.beta, exc.value.best_q) == (0.0, 169)
        assert exc.value.best_error == pytest.approx(brute_force_closest(0.0, 300)[1], rel=1e-12)
        with pytest.raises(ca.KroneckerCapExceeded) as exc:
            ca.kronecker_witnesses([-3.7], 1e-3, q_cap=300)
        assert exc.value.best_q == brute_force_closest(-3.7, 300)[0]

    def test_tiny_epsilon_keeps_64_fraction_bits(self, monkeypatch):
        # fraction bits = bit length of floor(1/eps) + 8, at most 64: 63 at
        # eps = 2^-54, 64 from 2^-55 down, and 64 at 1e-300, where floor(1/eps)
        # has 997 bits; the cap path searches on the same circle
        bits, circle = [], kronecker._circle

        def spy(q_cap, fraction_bits):
            bits.append(fraction_bits)
            return circle(q_cap, fraction_bits)

        monkeypatch.setattr(kronecker, "_circle", spy)
        for eps in (2.0**-54, 2.0**-56, 1e-300):
            with pytest.raises(ca.KroneckerCapExceeded):
                ca.kronecker_witnesses([0.25], eps, q_cap=1000)
        assert bits == [63, 64, 64]
        assert ca.kronecker_witnesses([], 1e-3) == []


class TestCoefficientDecompose:
    def test_sqrt2_exact(self):
        d = ca.coefficient_decompose(SQRT2, 1e-9)
        assert (d.count_sqrt2, d.count_unit) == (1, 0)

    def test_integer_needs_no_sqrt2_tokens(self):
        d = ca.coefficient_decompose(3.0, 0.05)
        assert (d.count_sqrt2, d.count_unit, d.unit_sign) == (0, 3, 1)
        assert abs(3.0 - d.value) < 0.05
        # brute force over q <= 500 confirms q = 0 is minimal
        assert abs(3.0 - round(3.0)) < 0.05

    def test_negative_target_uses_minus_tokens(self):
        d = ca.coefficient_decompose(-2.2, 0.05)
        assert d.unit_sign == -1 and d.count_sqrt2 >= 0
        assert abs(-2.2 - d.value) < 0.05
        # both sign branches explored by brute force
        best = None
        for q in range(0, 500):
            r = -2.2 - q * SQRT2
            l = round(r)
            if abs(r - l) < 0.05:
                best = (q, abs(l), 1 if l >= 0 else -1)
                break
        assert (d.count_sqrt2, d.count_unit, d.unit_sign) == best

    def test_counts_non_negative_and_reconstruct(self):
        rng = np.random.default_rng(2)
        for a in rng.uniform(-8, 8, 30):
            d = ca.coefficient_decompose(float(a), 1e-2)
            assert d.count_sqrt2 >= 0 and d.count_unit >= 0
            assert abs(d.value - a) < 1e-2
            recon = d.count_sqrt2 * SQRT2 + d.unit_sign * d.count_unit
            assert recon == d.value

    def test_propagates_cap_failure(self):
        with pytest.raises(ca.KroneckerCapExceeded):
            ca.coefficient_decompose(0.123456, 1e-10, q_cap=20)

    @pytest.mark.parametrize("a", [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -3.4999999999999996,
                                   2.0**51 + 0.5, 2.0**52 - 0.5, 2.0**52 + 0.5,
                                   -(2.0**52 + 0.5), 0.0, -0.0, 5e-324, 1e300])
    def test_nearest_integer_matches_mpmath(self, a):
        # q = 0 takes the nearest integer in floats; ties go to even, as in mpmath
        d = ca.coefficient_decompose(a, 0.75)
        l, err = mpmath_nearest(a)
        assert (d.count_sqrt2, d.unit_sign * d.count_unit, d.achieved_error) == (0, l, err)

    def test_token_count(self):
        d = ca.coefficient_decompose(2.0 + SQRT2, 1e-6)
        assert d.token_count == d.count_sqrt2 + d.count_unit

