from types import SimpleNamespace

import numpy as np
import pytest

import ctxapprox as ca

from conftest import query_readout, random_fnn


def random_assembly(rng, d_x, d_y, n):
    return ca.InputAssembly(rng.standard_normal((d_x, n)),
                            rng.standard_normal((d_y, n)),
                            rng.standard_normal(d_x - 1))


def full_readout(tp, asm, activation):
    """Reference: y-block of the query column of Z + attention_forward(Z)."""
    Z = asm.Z()
    return (Z + ca.attention_forward(tp, Z, activation))[tp.d_x:, asm.n]


def collapsed_readout(tp, asm, activation):
    """The simplified sparse-mode formula (F X + U Y) sigma(X^T B^T C x~).

    Softmax normalizes the context scores together with the query
    self-score, whose term is left out of the sum.
    """
    x_t = asm.x_tilde
    bc = tp.B.T @ tp.C
    scores = asm.X.T @ (bc @ x_t)
    values = tp.F @ asm.X + tp.U @ asm.Y
    if activation.kind == "softmax":
        e = np.exp(np.append(scores, x_t @ bc @ x_t))
        return values @ (e[:-1] / np.sum(e))
    return values @ activation(scores)


def general_params(rng, d_x, d_y):
    """General blocks with nonzero F and O21 (B = C = I are ignored on the score path)."""
    general = ca.GeneralBlocks(*(rng.standard_normal(s) for s in
                                 ((d_x, d_x), (d_x, d_y), (d_y, d_x), (d_y, d_y))))
    return ca.TransformerParams(np.eye(d_x), np.eye(d_x), rng.standard_normal((d_x, d_x)),
                                rng.standard_normal((d_x, d_y)),
                                rng.standard_normal((d_y, d_x)), np.eye(d_y) * 1.3,
                                general)


class TestAttentionForward:
    def test_output_linear_in_value_matrix(self, rng):
        # attention equals V @ (Z M sigma(scores)), so V = 0 yields the zero
        # matrix (the type itself insists on a non-singular U block)
        tp = ca.random_sparse_params(1, 3, 2)
        Z = rng.standard_normal((5, 5))
        out = ca.attention_forward(tp, Z, ca.RELU)
        zm = Z.copy()
        zm[:, -1] = 0.0
        scores = (tp.Q @ Z).T @ (tp.K @ Z)
        kernel = zm @ np.maximum(scores, 0.0)
        np.testing.assert_allclose(out, tp.V @ kernel, atol=1e-12)
        assert np.max(np.abs(np.zeros_like(tp.V) @ kernel)) == 0.0

    def test_scalar_hand_expansion(self):
        one = np.array([[1.0]])
        tp = ca.TransformerParams(one, one, one, one, one, one)
        Z = np.array([[2.0, 1.0], [3.0, 0.0]])
        out = ca.attention_forward(tp, Z, ca.RELU)
        # QZ = KZ = [[2,1],[0,0]]; scores = [[4,2],[2,1]]; VZM = [[5,0],[5,0]]
        expected = np.array([[20.0, 10.0], [20.0, 10.0]])
        np.testing.assert_allclose(out, expected, atol=1e-14)
        # readout = y-row of Z + Attn at the query column
        asm = ca.InputAssembly([[2.0]], [[3.0]], [])
        np.testing.assert_allclose(query_readout(tp, asm, ca.RELU), [10.0], atol=1e-14)

    def test_softmax_score_columns_sum_to_one(self, rng):
        tp = ca.random_sparse_params(1, 3, 2)
        Z = rng.standard_normal((5, 7))
        scores = (tp.Q @ Z).T @ (tp.K @ Z)
        sig = ca.softmax_columns(scores)
        np.testing.assert_allclose(sig.sum(axis=0), 1.0, atol=1e-12)

    def test_empty_context_rejected(self, rng):
        tp = ca.random_sparse_params(1, 3, 1)
        with pytest.raises(ca.DimensionError):
            ca.attention_forward(tp, rng.standard_normal((4, 1)), ca.RELU)
        with pytest.raises(ca.DimensionError):
            ca.InputAssembly(np.zeros((3, 0)), np.zeros((1, 0)), np.zeros(2))


class TestReadout:
    def test_y_zero_f_zero_gives_zero(self, rng):
        tp = ca.random_sparse_params(2, 4, 2)
        asm = ca.InputAssembly(rng.standard_normal((4, 6)), np.zeros((2, 6)),
                               rng.standard_normal(3))
        np.testing.assert_allclose(query_readout(tp, asm, ca.RELU), 0.0, atol=1e-14)

    @pytest.mark.parametrize("activation", [ca.RELU, ca.EXP, ca.SOFTMAX])
    def test_readout_equals_simplified_100_instances(self, activation):
        for seed in range(100):
            r = np.random.default_rng(seed)
            tp = ca.random_sparse_params(seed, 3, 2)
            asm = random_assembly(r, 3, 2, 5)
            a = query_readout(tp, asm, activation)
            b = collapsed_readout(tp, asm, activation)
            assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.parametrize("activation", [ca.RELU, ca.EXP, ca.SOFTMAX])
    def test_efficient_path_matches_full_matrix(self, activation, rng):
        tp = ca.random_sparse_params(11, 4, 3)
        asm = random_assembly(rng, 4, 3, 6)
        fast = query_readout(tp, asm, activation)
        assert np.max(np.abs(fast - full_readout(tp, asm, activation))) <= 1e-12
        # the same kernel over a batch, also under general blocks with nonzero
        # F and O21; rounding grows with the readout, so the bound is relative
        # above magnitude 1
        for tp in (tp, general_params(rng, 4, 3)):
            queries = rng.standard_normal((25, 3))
            got = ca.readout_batch(tp, asm, queries, activation)
            assert got.shape == (25, 3)
            for q, row in zip(queries, got):
                ref = full_readout(tp, ca.InputAssembly(asm.X, asm.Y, q), activation)
                assert np.max(np.abs(row - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_batch_rejects_wrong_query_dimension(self, rng):
        tp = ca.random_sparse_params(3, 3, 1)
        ctx = random_assembly(rng, 3, 1, 4)
        with pytest.raises(ca.DimensionError):
            ca.readout_batch(tp, ctx, np.zeros((5, 3)), ca.RELU)

    def test_batch_rejects_context_of_other_dimensions(self, rng, small_tp):
        # X or Y rows that disagree with the parameters used to reach numpy's
        # matmul and fail there with a bare ValueError
        d_x, d_y = small_tp.d_x, small_tp.d_y
        q = np.zeros((1, d_x - 1))
        for shape in ((d_x + 1, d_y), (d_x - 1, d_y), (d_x, d_y + 1)):
            with pytest.raises(ca.DimensionError, match="disagrees with parameters"):
                ca.readout_batch(small_tp, random_assembly(rng, *shape, 5), q, ca.RELU)
        other = ca.random_sparse_params(3, d_x, d_y + 1)
        res = ca.embed_fnn(other, random_fnn(rng, 4, d_x - 1, d_y + 1, ca.RELU))
        with pytest.raises(ca.DimensionError, match=rf"\({d_x}, {d_y + 1}\)"):
            ca.readout_batch(small_tp, res, q, ca.SOFTMAX)

    def test_general_blocks_matching_sparse_pattern(self, rng):
        tp = ca.random_sparse_params(5, 3, 2)
        d_x, d_y = 3, 2
        general = ca.GeneralBlocks(tp.B.T @ tp.C, np.zeros((d_x, d_y)),
                                   np.zeros((d_y, d_x)), np.zeros((d_y, d_y)))
        tpg = ca.TransformerParams(tp.B, tp.C, tp.D, tp.E, tp.F, tp.U, general)
        asm = random_assembly(rng, 3, 2, 5)
        for act in (ca.RELU, ca.EXP, ca.SOFTMAX):
            a = query_readout(tpg, asm, act)
            b = query_readout(tp, asm, act)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_general_path_with_nonzero_F_and_O21(self, rng):
        # readout equals (F X + U Y) sigma((X^T O11 + Y^T O21) x~)
        d_x, d_y = 3, 2
        O = [rng.standard_normal(s) for s in
             ((d_x, d_x), (d_x, d_y), (d_y, d_x), (d_y, d_y))]
        general = ca.GeneralBlocks(*O)
        F = rng.standard_normal((d_y, d_x))
        tp = ca.TransformerParams(np.eye(d_x), np.eye(d_x), rng.standard_normal((d_x, d_x)),
                                  rng.standard_normal((d_x, d_y)), F, np.eye(d_y) * 1.3,
                                  general)
        asm = random_assembly(rng, d_x, d_y, 7)
        got = query_readout(tp, asm, ca.EXP)
        x_t = asm.x_tilde
        scores = asm.X.T @ O[0] @ x_t + asm.Y.T @ O[2] @ x_t
        expected = (F @ asm.X + tp.U @ asm.Y) @ np.exp(scores)
        assert np.max(np.abs(got - expected)) <= 1e-10
        # cross-check against the direct full-matrix evaluation
        assert np.max(np.abs(got - full_readout(tp, asm, ca.EXP))) <= 1e-10

    def test_permutation_invariance(self, rng):
        tp = ca.random_sparse_params(8, 3, 2)
        asm = random_assembly(rng, 3, 2, 9)
        base = {act.kind: query_readout(tp, asm, act)
                for act in (ca.RELU, ca.SOFTMAX)}
        for trial in range(100):
            perm = np.random.default_rng(trial).permutation(asm.n)
            pasm = ca.InputAssembly(asm.X[:, perm], asm.Y[:, perm], asm.query)
            for act in (ca.RELU, ca.SOFTMAX):
                out = query_readout(tp, pasm, act)
                assert np.max(np.abs(out - base[act.kind])) <= 1e-12

    def test_d_and_e_blocks_have_no_readout_effect(self, rng):
        tp = ca.random_sparse_params(4, 3, 2)
        alt = ca.TransformerParams(tp.B, tp.C, rng.standard_normal((3, 3)),
                                   rng.standard_normal((3, 2)), tp.F, tp.U)
        asm = random_assembly(rng, 3, 2, 5)
        for act in (ca.RELU, ca.EXP, ca.SOFTMAX):
            a = full_readout(tp, asm, act)
            b = full_readout(alt, asm, act)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_query_y_slot_structurally_zero(self, rng):
        # the assembly accepts only a raw query; its Z column has a zero y part
        asm = random_assembly(rng, 3, 2, 4)
        Z = asm.Z()
        assert np.all(Z[3:, 4] == 0.0)
        with pytest.raises(ca.DimensionError):
            ca.InputAssembly(asm.X, asm.Y, np.zeros(3))  # full-length query rejected

    def test_identity_blocks_reduce_to_fnn_forward(self, rng):
        # B = C = U = I with Y = A, X = [W b]^T is the element-wise network
        d_x, d_y, k = 3, 2, 5
        tp = ca.identity_sparse_params(d_x, d_y)
        fnn = random_fnn(rng, k, d_x - 1, d_y, ca.RELU)
        X = np.hstack([fnn.W, fnn.b[:, None]]).T
        qs = rng.uniform(-1, 1, (20, d_x - 1))
        out = ca.readout_batch(tp, SimpleNamespace(X=X, Y=fnn.A), qs, ca.RELU)
        np.testing.assert_allclose(out, ca.fnn_forward_batch(fnn, qs), atol=1e-13)

    def test_softmax_readout_n1_scalars_hand_expansion(self):
        b, c, u = 1.3, 0.7, 2.0
        x_ctx, y_ctx, x_query = 0.4, 0.9, 0.2
        tp = ca.TransformerParams([[b]], [[c]], [[0.0]], [[0.0]], [[0.0]], [[u]])
        asm = ca.InputAssembly([[x_ctx]], [[y_ctx]], [])
        # x~ = [1]; s1 = x_ctx * b * c * 1, t = 1 * b * c * 1
        s1 = x_ctx * b * c
        t = b * c
        expected = u * y_ctx * np.exp(s1) / (np.exp(s1) + np.exp(t))
        got = query_readout(tp, asm, ca.SOFTMAX)
        assert got[0] == pytest.approx(expected, rel=1e-13)


class TestParams:
    def test_embed_rejects_general_blocks(self, rng):
        general = ca.GeneralBlocks(np.eye(3), np.zeros((3, 2)),
                                   np.zeros((2, 3)), np.zeros((2, 2)))
        base = ca.random_sparse_params(6, 3, 2)
        tpg = ca.TransformerParams(base.B, base.C, base.D, base.E, base.F,
                                   base.U, general)
        with pytest.raises(ca.ConfigError, match="sparse mode") as exc:
            ca.embed_fnn(tpg, random_fnn(rng, 4, 2, 2, ca.RELU))
        assert exc.value.field == "transformer"

    def test_singular_blocks_rejected(self):
        sing = np.zeros((2, 2))
        with pytest.raises(ca.IllConditionedError):
            ca.TransformerParams(sing, np.eye(2), np.zeros((2, 2)),
                                 np.zeros((2, 1)), np.zeros((1, 2)), np.eye(1))

    def test_serde_round_trip(self, rng):
        tp = ca.random_sparse_params(2, 3, 2)
        doc = tp.to_json_dict()
        assert doc["general"] is None
        back = ca.TransformerParams.from_json_dict(doc)
        for name in ("B", "C", "D", "E", "F", "U"):
            assert np.array_equal(getattr(tp, name), getattr(back, name))
        general = ca.GeneralBlocks(np.eye(3), np.zeros((3, 2)),
                                   np.zeros((2, 3)), np.zeros((2, 2)))
        tpg = ca.TransformerParams(tp.B, tp.C, tp.D, tp.E, tp.F, tp.U, general)
        back2 = ca.TransformerParams.from_json_dict(tpg.to_json_dict())
        assert np.array_equal(back2.general.O11, np.eye(3))

    def test_embedded_fnn_matches_forward(self, rng, small_tp):
        fnn = random_fnn(rng, 8, 3, 2, ca.RELU)
        res = ca.embed_fnn(small_tp, fnn)
        pts = rng.uniform(-1, 1, (10, 3))
        out = ca.readout_batch(small_tp, res, pts, ca.RELU)
        assert np.max(np.abs(out - ca.fnn_forward_batch(fnn, pts))) <= 1e-11
