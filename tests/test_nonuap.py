import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxapprox as ca
from ctxapprox import nonuap
from ctxapprox.nonuap import _separated_exponents


class TestExpSum:
    def test_distinct_exponents_required(self):
        with pytest.raises(ValueError):
            ca.ExpSum([1.0, 2.0], [0.5, 0.5 + 1e-10])

    def test_all_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            ca.ExpSum([0.0, 0.0], [0.0, 1.0])

    def test_evaluation(self):
        es = ca.ExpSum([1.0, -1.0], [1.0, -1.0])
        x = np.array([0.0, 0.5])
        np.testing.assert_allclose(es(x), [0.0, 2 * np.sinh(0.5)], atol=1e-14)


class TestCountZeros:
    def test_single_positive_exponential(self):
        es = ca.ExpSum([1.0], [2.0])
        assert ca.count_zeros(es, (-5.0, 5.0), 2001) == 0

    def test_odd_function_one_crossing(self):
        es = ca.ExpSum([1.0, -1.0], [1.0, -1.0])
        assert ca.count_zeros(es, (-1.0, 1.0), 2001) == 1

    def test_three_term_two_crossings(self):
        # 3 - e^x - e^{-x} = 0 at +-arccosh(1.5)
        es = ca.ExpSum([3.0, -1.0, -1.0], [0.0, 1.0, -1.0])
        x0 = float(np.arccosh(1.5))
        assert ca.count_zeros(es, (-2.0, 2.0), 4001) == 2
        assert abs(es(np.array([x0]))[0]) < 1e-12

    def test_exact_zero_sample_not_double_counted(self):
        # e^x - 1 crosses at x = 0, which lands exactly on the grid
        es = ca.ExpSum([1.0, -1.0], [1.0, 0.0])
        assert ca.count_zeros(es, (-1.0, 1.0), 3) == 1
        assert ca.count_zeros(es, (-1.0, 1.0), 2001) == 1

    def test_invalid_interval(self):
        es = ca.ExpSum([1.0], [1.0])
        with pytest.raises(ValueError):
            ca.count_zeros(es, (1.0, 1.0), 100)
        with pytest.raises(ValueError):
            ca.count_zeros(es, (0.0, 1.0), 1)

    def test_fuzz_respects_zero_bound(self):
        # 1000 random sums with k in [1, 6]: sign changes <= k - 1, always
        rec = ca.prop1_fuzz(1000, 123)
        assert rec.violations == 0
        assert np.all(rec.sign_changes <= rec.ks - 1)
        assert set(rec.ks.tolist()) == {1, 2, 3, 4, 5, 6}


class TestProp1Fuzz:
    def test_trials_match_direct_draws(self):
        # the record holds the sign changes of the sums drawn from the seed
        rec = ca.prop1_fuzz(20, 9)
        (k_lo, k_hi), sep, coeff = nonuap._K_RANGE, nonuap._EXPONENT_SEPARATION, nonuap._COEFF_RANGE
        rng = np.random.default_rng(9)
        for k_rec, z_rec in zip(rec.ks, rec.sign_changes):
            k = int(rng.integers(k_lo, k_hi + 1))
            b = np.sort(rng.uniform(-3.0, 3.0 - (k - 1) * sep, k)) + sep * np.arange(k)
            while True:
                a = rng.uniform(-coeff, coeff, k)
                if np.any(a != 0.0):
                    break
            assert k_rec == k
            assert z_rec == ca.count_zeros(ca.ExpSum(a, b), nonuap._INTERVAL,
                                           nonuap._GRID_POINTS)

    def test_rejects_a_negative_count(self):
        # numpy used to fail with "negative dimensions are not allowed"
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            ca.prop1_fuzz(-1, 1)

    def test_separation_near_the_limit_returns(self):
        # k = 6 at separation 1.19 (the limit is 1.2): a rejection draw
        # succeeds with chance about 3e-13, so the old loop never returned
        rng = np.random.default_rng(0)
        for _ in range(2000):
            b = _separated_exponents(rng, 6, 1.19)
            assert np.all(np.diff(b) >= 1.19)
            assert -3.0 <= b[0] and b[-1] <= 3.0

    @pytest.mark.parametrize("k,sep", [(2, 0.5), (3, 1.0), (5, 0.3)])
    def test_exponents_follow_the_conditioned_uniform_law(self, k, sep):
        # sorted uniforms on [-3, 3] conditioned on gaps >= sep have spacings
        # uniform on the simplex of total 6 - (k-1) sep: E b_i is exact
        rng = np.random.default_rng(k)
        draws = np.array([_separated_exponents(rng, k, sep) for _ in range(20_000)])
        i = np.arange(k)
        expected = -3.0 + i * sep + (i + 1) * (6.0 - (k - 1) * sep) / (k + 1)
        np.testing.assert_allclose(draws.mean(axis=0), expected, atol=0.03)

    def test_any_separation_fits_a_single_exponent(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            (b,) = _separated_exponents(rng, 1, 100.0)
            assert -3.0 <= b <= 3.0

    def test_record_json(self):
        rec = ca.Prop1FuzzRecord(np.array([1, 2, 3]), np.array([0, 2, 1]))
        assert rec.to_json_dict() == {"violations": 1, "count": 3}


class TestHardTarget:
    def test_n_equal_one(self):
        g, z = ca.hard_target(1)
        np.testing.assert_allclose(z, [0.0, 0.5, 1.0])
        assert abs(g(np.array([0.25]))[0]) < 1e-15
        assert abs(g(np.array([0.75]))[0]) < 1e-15

    def test_alternation_signs_exact(self):
        for N in (1, 3, 4, 7):
            g, z = ca.hard_target(N)
            vals = g(z)
            expected = np.array([(-1.0) ** i for i in range(N + 2)])
            np.testing.assert_allclose(vals, expected, atol=1e-12)
            assert np.all(np.sign(vals) == expected)

    def test_sign_change_count_on_unit_interval(self):
        for N in (2, 4, 6):
            g, _ = ca.hard_target(N)
            x = np.linspace(0, 1, 5001)
            s = np.sign(g(x))
            s = s[s != 0]
            assert int(np.sum(s[1:] * s[:-1] < 0)) == N + 1


class TestNonUapAudit:
    def test_single_pair_family_floor(self):
        # N = 1: every net is a constant from the a-set; cos(2 pi x) alternates
        family = ca.FiniteFamilySpec([1.0, -1.0, 0.5], [0.7], [0.1])
        rec = ca.nonuap_audit(family, 64, 500, seed=11)
        assert rec.N == 1
        assert rec.max_distinct_terms == 1
        assert rec.min_minmax_error >= 0.9

    def test_regrouped_term_cap(self):
        family = ca.FiniteFamilySpec([2.0, -2.0], [0.5, -0.5], [0.0, 1.0])
        rec = ca.nonuap_audit(family, 200, 400, seed=3)
        assert rec.structural_cap_holds
        assert rec.max_distinct_terms <= family.N == 4

    def test_floor_does_not_drop_with_context_growth(self):
        family = ca.FiniteFamilySpec([-2.0, -1.0, 1.0, 2.0], [0.5, -1.0], [0.0, 0.7])
        small = ca.nonuap_audit(family, 100, 1500, seed=5)
        big = ca.nonuap_audit(family, 10_000, 1500, seed=5)
        assert small.min_minmax_error >= 0.5
        assert big.min_minmax_error >= 0.5
        assert big.min_minmax_error >= small.min_minmax_error - 1e-9

    @pytest.mark.parametrize("field", ["a_set", "w_set", "b_set"])
    def test_family_rejects_non_finite_entries(self, field):
        sets = {"a_set": [1.0, -1.0], "w_set": [0.5], "b_set": [0.0]}
        sets[field] = sets[field] + [float("nan")]
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ca.FiniteFamilySpec(**sets)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_regrouping_is_exact(self, seed):
        # the joint (cell, coefficient) counts carry the whole network: the
        # regrouped coefficients joint @ a_set reproduce the per-token sum
        rng = np.random.default_rng(seed)
        n_w, n_b = 2, 2
        w_set = rng.uniform(-1, 1, n_w)
        b_set = rng.uniform(-1, 1, n_b)
        a_set = rng.uniform(-2, 2, 3)
        k = int(rng.integers(1, 50))
        cells = rng.integers(0, n_w * n_b, k)
        a_idx = rng.integers(0, a_set.size, k)
        x = rng.uniform(0, 1, 7)
        w = np.repeat(w_set, n_b)[cells]
        b = np.tile(b_set, n_w)[cells]
        raw = np.exp(np.outer(x, w) + b) @ a_set[a_idx]
        joint = np.zeros((n_w * n_b, a_set.size), dtype=np.int64)
        np.add.at(joint, (cells, a_idx), 1)
        assert joint.sum() == k
        ww = np.repeat(w_set, n_b)
        bb = np.tile(b_set, n_w)
        grouped = np.exp(np.outer(x, ww) + bb) @ (joint @ a_set)
        assert np.max(np.abs(raw - grouped)) <= 1e-12 * max(1.0, np.max(np.abs(raw)))

    @pytest.mark.parametrize("joint_cells", [nonuap._JOINT_CELLS, 64, 1])
    def test_vectorised_audit_matches_per_trial_loop(self, monkeypatch, joint_cells):
        # the same seed's joint counts, evaluated one trial at a time; the
        # chunk size changes neither the draws nor the errors
        monkeypatch.setattr(nonuap, "_JOINT_CELLS", joint_cells)
        family = ca.FiniteFamilySpec([-2.0, -1.0, 1.0, 2.0], [0.5, -1.0], [0.0, 0.7])
        trials, max_context, seed = 300, 400, 3
        rec = ca.nonuap_audit(family, max_context, trials, seed)
        N, n_a = family.N, family.a_set.size
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, max_context + 1, size=trials)
        joint = rng.multinomial(lengths, np.full(N * n_a, 1.0 / (N * n_a)))
        joint = joint.reshape(trials, N, n_a)
        g, z = ca.hard_target(N)
        scores = np.exp(np.outer(z, np.repeat(family.w_set, family.b_set.size))
                        + np.tile(family.b_set, family.w_set.size))
        np.testing.assert_array_equal(rec.context_lengths, lengths)
        for t in range(trials):
            counts = joint[t].sum(axis=1)
            net = (scores @ (joint[t] @ family.a_set)) / (scores @ counts)
            # matmul summation order may move the last bits
            assert rec.minmax_errors[t] == pytest.approx(np.max(np.abs(net - g(z))),
                                                         rel=0, abs=1e-13)
            assert rec.distinct_terms[t] == np.count_nonzero(counts)

    @settings(max_examples=40, deadline=None)
    @given(n_w=st.integers(1, 3), n_b=st.integers(1, 2), n_a=st.integers(1, 4),
           max_context=st.integers(1, 200), seed=st.integers(0, 10_000))
    def test_certified_floor_holds(self, n_w, n_b, n_a, max_context, seed):
        # Proposition 1: no network from a finite family gets under error 1
        rng = np.random.default_rng(seed)
        family = ca.FiniteFamilySpec(rng.uniform(-5, 5, n_a), rng.uniform(-3, 3, n_w),
                                     rng.uniform(-3, 3, n_b))
        rec = ca.nonuap_audit(family, max_context, 200, seed)
        assert rec.certified_floor == 1.0
        assert rec.min_minmax_error >= rec.certified_floor - 1e-12
        assert rec.structural_cap_holds

    def test_trial_under_the_floor_raises(self, monkeypatch):
        monkeypatch.setattr(ca.NonUapAuditRecord, "certified_floor", 2.0)
        family = ca.FiniteFamilySpec([1.0, -1.0], [0.5], [0.0])
        with pytest.raises(ca.FloorViolationError, match="trial 0 has minmax error"):
            ca.nonuap_audit(family, 10, 20, seed=0)
