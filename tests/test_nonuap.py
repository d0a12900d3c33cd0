import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxapprox as ca


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
        rec = ca.prop1_fuzz(1000, 123, grid_points=1501)
        assert rec.violations == 0
        assert np.all(rec.sign_changes <= rec.ks - 1)
        assert set(rec.ks.tolist()) == {1, 2, 3, 4, 5, 6}


class TestProp1Fuzz:
    def test_trials_match_direct_draws(self):
        # the record holds the sign changes of the sums drawn from the seed
        rec = ca.prop1_fuzz(20, 9, k_range=(2, 3), exponent_separation=0.2,
                            coeff_range=2.0, interval=(-4.0, 4.0), grid_points=501)
        rng = np.random.default_rng(9)
        for k_rec, z_rec in zip(rec.ks, rec.sign_changes):
            k = int(rng.integers(2, 4))
            while True:
                b = np.sort(rng.uniform(-3.0, 3.0, k))
                if np.min(np.diff(b)) >= 0.2:
                    break
            while True:
                a = rng.uniform(-2.0, 2.0, k)
                if np.any(a != 0.0):
                    break
            assert k_rec == k
            assert z_rec == ca.count_zeros(ca.ExpSum(a, b), (-4.0, 4.0), 501)

    def test_record_json_and_csv(self):
        rec = ca.Prop1FuzzRecord(np.array([1, 2, 3]), np.array([0, 2, 1]))
        assert rec.to_json_dict() == {"violations": 1, "count": 3}
        buf = io.StringIO()
        rec.write_csv(buf)
        assert buf.getvalue() == "trial,k,sign_changes\n0,1,0\n1,2,2\n2,3,1\n"


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

    def test_record_csv(self, tmp_path):
        family = ca.FiniteFamilySpec([1.0], [0.3], [0.0])
        rec = ca.nonuap_audit(family, 10, 20, seed=0)
        path = tmp_path / "audit.csv"
        with path.open("w") as fh:
            rec.write_csv(fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,context_length,minmax_error,distinct_terms"
        assert len(lines) == 21

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_regrouping_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        n_w, n_b = 2, 2
        w_set = rng.uniform(-1, 1, n_w)
        b_set = rng.uniform(-1, 1, n_b)
        a_set = rng.uniform(-2, 2, 3)
        k = int(rng.integers(1, 50))
        cells = rng.integers(0, n_w * n_b, k)
        a = rng.choice(a_set, k)
        x = rng.uniform(0, 1, 7)
        w = np.repeat(w_set, n_b)[cells]
        b = np.tile(b_set, n_w)[cells]
        raw = np.exp(np.outer(x, w) + b) @ a
        grouped_coeff = ca.regroup_terms(a, cells, n_w * n_b)
        ww = np.repeat(w_set, n_b)
        bb = np.tile(b_set, n_w)
        grouped = np.exp(np.outer(x, ww) + bb) @ grouped_coeff
        assert np.max(np.abs(raw - grouped)) <= 1e-12 * max(1.0, np.max(np.abs(raw)))
