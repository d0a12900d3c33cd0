import numpy as np
import pytest

import ctxapprox as ca

from conftest import random_fnn


class TestExactEmbedding:
    def test_identity_blocks_closed_form(self, rng):
        d_x, d_y, k = 3, 2, 5
        tp = ca.identity_sparse_params(d_x, d_y)
        fnn = random_fnn(rng, k, d_x - 1, d_y, ca.RELU)
        res = ca.embed_fnn(tp, fnn)
        np.testing.assert_allclose(res.X, np.hstack([fnn.W, fnn.b[:, None]]).T, atol=1e-15)
        np.testing.assert_allclose(res.Y, fnn.A, atol=1e-15)
        assert res.certified_sup_error == 0.0 and res.n == k

    def test_ten_seeds_grid_gap(self):
        # max grid gap <= 1e-10 over 1000 points in [-1, 1]^3
        grid = ca.Grid((-1.0,) * 3, (1.0,) * 3, (10, 10, 10))
        pts = grid.points()
        for seed in range(10):
            r = np.random.default_rng(seed)
            tp = ca.random_sparse_params(seed, 4, 2)
            fnn = random_fnn(r, 8, 3, 2, ca.RELU)
            res = ca.embed_fnn(tp, fnn)
            gap = np.abs(ca.readout_batch(tp, res, pts, ca.RELU)
                         - ca.fnn_forward_batch(fnn, pts))
            assert np.max(gap) <= 1e-10

    def test_nonzero_F_accommodated(self, rng):
        # Y = U^{-1}(A - F X) restores equality for arbitrary F
        d_x, d_y = 3, 2
        base = ca.random_sparse_params(9, d_x, d_y)
        tp = ca.TransformerParams(base.B, base.C, base.D, base.E,
                                  rng.standard_normal((d_y, d_x)), base.U)
        fnn = random_fnn(rng, 6, d_x - 1, d_y, ca.RELU)
        res = ca.embed_fnn(tp, fnn)
        pts = rng.uniform(-1, 1, (50, d_x - 1))
        gap = np.abs(ca.readout_batch(tp, res, pts, ca.RELU)
                     - ca.fnn_forward_batch(fnn, pts))
        assert np.max(gap) <= 1e-11

    def test_left_inverse_recovers_fnn(self, rng, small_tp):
        fnn = random_fnn(rng, 7, 3, 2, ca.EXP)
        res = ca.embed_fnn(small_tp, fnn)
        back = ca.extract_fnn(small_tp, res, ca.EXP)
        assert np.max(np.abs(back.W - fnn.W)) <= 1e-12
        assert np.max(np.abs(back.b - fnn.b)) <= 1e-12
        assert np.max(np.abs(back.A - fnn.A)) <= 1e-12

    def test_composition_reproduces_fit_error(self, small_tp, unit_interval_grid):
        # fit -> embed -> readout achieves the fitter's sup error; the two
        # single-output fits side by side are one two-output network
        rng = np.random.default_rng(4)
        pts3 = rng.uniform(-1, 1, (300, 3))
        f = np.column_stack([np.sin(pts3 @ [1.0, 0.5, -0.3]),
                             np.cos(pts3 @ [0.2, -1.0, 0.4])])
        fits = ca.fit_fnn((pts3, f), 24, ca.RELU, [6, 7])
        A = np.zeros((2, 48))
        A[0, :24], A[1, 24:] = fits[0].params.A[0], fits[1].params.A[0]
        both = ca.FnnParams(A, np.vstack([fr.params.W for fr in fits]),
                            np.concatenate([fr.params.b for fr in fits]), ca.RELU)
        res = ca.embed_fnn(small_tp, both)
        out = ca.readout_batch(small_tp, res, pts3, ca.RELU)
        achieved = np.max(np.abs(out - f))
        assert abs(achieved - max(fr.sup_error for fr in fits)) <= 1e-10

    def test_softmax_source_rejected(self, small_tp, rng):
        fnn = random_fnn(rng, 4, 3, 2, ca.SOFTMAX)
        with pytest.raises(ValueError):
            ca.embed_fnn(small_tp, fnn)

    def test_serde_schema(self, rng, small_tp):
        fnn = random_fnn(rng, 4, 3, 2, ca.RELU)
        doc = ca.embed_fnn(small_tp, fnn).to_json_dict()
        assert set(doc) == {"X", "Y", "s", "certified_sup_error"}
        assert doc["s"] is None and doc["certified_sup_error"] == 0.0


class TestExpToSoftmaxLift:
    def test_zero_coefficient_gap_zero(self):
        src = ca.FnnParams([[0.0]], [[1.0]], [0.2], ca.EXP)
        grid = ca.Grid((0.0,), (1.0,), (50,))
        lifted = ca.exp_to_softmax_fnn(src, grid.points(), 1e-3)
        assert lifted.k == 2 and lifted.activation.kind == "softmax"
        pts = grid.points()
        gap = np.abs(ca.fnn_forward_batch(lifted, pts) - ca.fnn_forward_batch(src, pts))
        assert np.max(gap) == 0.0

    def test_single_exponential_on_unit_interval(self):
        src = ca.FnnParams([[1.0]], [[1.0]], [0.0], ca.EXP)
        grid = ca.Grid((0.0,), (1.0,), (200,))
        lifted = ca.exp_to_softmax_fnn(src, grid.points(), 1e-3)
        fine = ca.Grid((0.0,), (1.0,), (1991,)).points()
        gap = np.abs(ca.fnn_forward_batch(lifted, fine) - ca.fnn_forward_batch(src, fine))
        assert np.max(gap) <= 1e-3

    def test_gap_bound_formula(self, rng):
        src = random_fnn(rng, 4, 2, 1, ca.EXP)
        grid = ca.Grid((-1.0, -1.0), (1.0, 1.0), (25, 25))
        pts = grid.points()
        lifted = ca.exp_to_softmax_fnn(src, pts, 1e-3)
        gap = np.max(np.abs(ca.fnn_forward_batch(lifted, pts)
                            - ca.fnn_forward_batch(src, pts)))
        z = pts @ lifted.W.T + lifted.b
        bound = (np.max(np.abs(ca.fnn_forward_batch(src, pts)))
                 * np.max(np.sum(np.exp(z[:, :-1]), axis=1)))
        assert gap <= bound <= 1e-3

    def test_lifted_structure(self, rng):
        src = random_fnn(rng, 3, 2, 2, ca.EXP)
        lifted = ca.exp_to_softmax_fnn(src, rng.uniform(-1, 1, (40, 2)), 1e-2)
        assert np.all(lifted.W[-1] == 0.0) and lifted.b[-1] == 0.0
        assert np.all(lifted.A[:, -1] == 0.0)

    def test_epsilon_too_small_raises(self):
        src = ca.FnnParams([[1.0]], [[1.0]], [400.0], ca.EXP)
        with pytest.raises(ca.EpsilonRangeError):
            ca.exp_to_softmax_fnn(src, np.linspace(0, 1, 20)[:, None], 1e-280)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_epsilon_must_be_positive_and_finite(self, rng, epsilon):
        # NaN passed the old `epsilon <= 0` check and failed later as
        # "non-finite entries in A"
        src = random_fnn(rng, 3, 1, 1, ca.EXP)
        grid = ca.Grid((-1.0,), (1.0,), (21,))
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            ca.exp_to_softmax_fnn(src, grid.points(), epsilon)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            ca.embed_softmax_fnn(ca.random_sparse_params(25, 2, 1), src, grid, epsilon)


class TestSoftmaxEmbedding:
    def test_constant_output_softmax(self, rng):
        # all a_i equal: the softmax net is identically c
        c = np.array([1.7])
        A = np.tile(c[:, None], (1, 3))
        fnn = ca.FnnParams(A, rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 3),
                           ca.SOFTMAX)
        tp = ca.random_sparse_params(21, 3, 1)
        grid = ca.Grid((-1.0, -1.0), (1.0, 1.0), (15, 15))
        res = ca.embed_softmax_fnn(tp, fnn, grid, 1e-3)
        assert res.n == 3 and res.certified_sup_error <= 1e-3

    def test_hand_instance_within_epsilon(self, rng):
        fnn = ca.FnnParams([[1.0, -0.5]], [[0.8], [-0.4]], [0.1, 0.3], ca.SOFTMAX)
        tp = ca.random_sparse_params(22, 2, 1)
        grid = ca.Grid((-1.0,), (1.0,), (101,))
        res = ca.embed_softmax_fnn(tp, fnn, grid, 1e-3)
        assert res.certified_sup_error <= 1e-3
        assert res.n == fnn.k  # no zero row for softmax sources

    def test_exp_source_n_is_k_plus_one(self, rng):
        src = random_fnn(rng, 5, 2, 1, ca.EXP)
        tp = ca.random_sparse_params(23, 3, 1)
        grid = ca.Grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        res = ca.embed_softmax_fnn(tp, src, grid, 1e-3)
        assert res.n == src.k + 1
        assert res.certified_sup_error <= 1e-3
        assert res.certified_sup_error <= res.closed_form_bound

    def test_softmax_source_with_subunit_normalizer(self, rng):
        # very negative biases push the source normalizer below 1; the shift
        # absorbs the correction and the reported bound stays valid
        fnn = ca.FnnParams([[1.5, -0.8]], [[0.6], [-0.3]], [-3.0, -4.0],
                           ca.SOFTMAX)
        tp = ca.random_sparse_params(27, 2, 1)
        grid = ca.Grid((-1.0,), (1.0,), (101,))
        pts = grid.points()
        z = pts @ fnn.W.T + fnn.b
        assert np.max(np.sum(np.exp(z), axis=1)) < 1.0
        res = ca.embed_softmax_fnn(tp, fnn, grid, 1e-3)
        assert res.certified_sup_error <= 1e-3
        assert res.certified_sup_error <= res.closed_form_bound

    def test_deterministic(self, rng):
        src = random_fnn(rng, 3, 1, 1, ca.EXP)
        tp = ca.random_sparse_params(25, 2, 1)
        grid = ca.Grid((0.0,), (1.0,), (60,))
        a = ca.embed_softmax_fnn(tp, src, grid, 1e-3)
        b = ca.embed_softmax_fnn(tp, src, grid, 1e-3)
        assert a.shift_s == b.shift_s
        assert a.X.tobytes() == b.X.tobytes() and a.Y.tobytes() == b.Y.tobytes()

    def test_readout_matches_closed_form_ratio(self, rng):
        # for an exp source the readout must equal
        # sum a_i e^{w_i.x + b_i} / (sum_j e^{w_j.x + b'_j} + 1 + e^{t(x) - s})
        src = random_fnn(rng, 4, 2, 1, ca.EXP)
        tp = ca.random_sparse_params(28, 3, 1)
        grid = ca.Grid((-1.0, -1.0), (1.0, 1.0), (15, 15))
        pts = grid.points()
        res = ca.embed_softmax_fnn(tp, src, grid, 1e-3)
        lifted = ca.exp_to_softmax_fnn(src, pts, 1e-3 / 2.0)
        got = ca.readout_batch(tp, res, pts, ca.SOFTMAX)[:, 0]
        num = ca.fnn_forward_batch(src, pts)[:, 0]
        damped = np.sum(np.exp(pts @ lifted.W[:-1].T + lifted.b[:-1]), axis=1)
        x_t = np.hstack([pts, np.ones((pts.shape[0], 1))])
        t_vals = np.einsum("ni,ij,nj->n", x_t, tp.B.T @ tp.C, x_t)
        expected = num / (damped + 1.0 + np.exp(t_vals - res.shift_s))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_y_sup_norm_reported(self, rng):
        src = random_fnn(rng, 3, 1, 1, ca.EXP)
        tp = ca.random_sparse_params(26, 2, 1)
        res = ca.embed_softmax_fnn(tp, src, ca.Grid((0.0,), (1.0,), (50,)), 1e-2)
        assert res.y_sup_norm == np.max(np.abs(res.Y)) > 0
