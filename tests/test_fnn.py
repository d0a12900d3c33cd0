import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxapprox as ca
from ctxapprox import construction, fnn
from ctxapprox.cli import main
from ctxapprox.fnn import _adam_refine, _run_sum_gradient

from conftest import random_fnn


def _adam_refine_reference(W, b, A, x, f, activation, steps, lr=2e-2):
    """Fixed-iteration full-batch Adam on the mean-squared residual."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    ms = [np.zeros_like(W), np.zeros_like(b), np.zeros_like(A)]
    vs = [np.zeros_like(W), np.zeros_like(b), np.zeros_like(A)]
    n = x.shape[0]
    for t in range(1, steps + 1):
        z = x @ W.T + b
        if activation.kind == "relu":
            phi, dphi = np.maximum(z, 0.0), (z > 0).astype(float)
        else:  # exp
            phi = np.exp(z)
            dphi = phi
        r = phi @ A.T - f  # (n, d_y)
        g_phi = (r @ A) * dphi / n  # (n, k)
        grads = [g_phi.T @ x, g_phi.sum(axis=0), (r.T @ phi) / n]
        for p, g, m, v in zip((W, b, A), grads, ms, vs):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g * g
            p -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return W, b, A


def _bits_equal(a, b) -> bool:
    """Equal to the bit, so the signs of zeros count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _refine_problem(seed, activation, d, d_y, k, n):
    """A start point and samples shaped like fit_fnn's: the normalized box, a
    least-squares A and a smooth target."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, d))
    f = np.column_stack([np.sin((c + 1) * x.sum(axis=1)) for c in range(d_y)])
    W = rng.uniform(-3.0, 3.0, (k, d))
    b = rng.uniform(-3.0, 3.0, k)
    if activation.kind == "exp":
        W, b = W / 4, b / 4
    A = np.linalg.lstsq(activation(x @ W.T + b), f, rcond=None)[0].T
    return W, b, A, x, f


def _recording(routes, name, refine):
    """``refine`` that appends ``name`` to ``routes`` on each call."""
    def recorded(*args):
        routes.append(name)
        return refine(*args)
    return recorded


def _reference_refine(W, b, A, x, f, steps):
    """``_run_sum_refine``'s contract, each net refined alone by the dense
    per-parameter loop."""
    nets = [_adam_refine_reference(w[:, None], c.copy(), a[None], x, f[:, [i]], ca.RELU, steps)
            for i, (w, c, a) in enumerate(zip(W, b, A))]
    return np.stack([np.stack([w[:, 0], c, a[0]]) for w, c, a in nets], axis=1)


def _assert_matches_dense_reference_fit(monkeypatch, args, kwargs, column):
    """The fit takes the run-sum route, and its network for ``column``
    matches to rounding the one whose refinement is the dense per-parameter
    loop.  On the three shipped fits (acceptance, both multi-output
    components) the parameters differ by at most 1.6e-8 of their largest
    entry and the sup errors by 2.1e-7 relative; the bounds leave a margin
    of about 5."""
    routes = []
    monkeypatch.setattr(fnn, "_run_sum_refine",
                        _recording(routes, "run sums", fnn._run_sum_refine))
    got = ca.fit_fnn(*args, **kwargs)[column]
    monkeypatch.setattr(fnn, "_run_sum_refine", _recording(routes, "dense", _reference_refine))
    want = ca.fit_fnn(*args, **kwargs)[column]
    assert routes == ["run sums", "dense"]
    for name in ("A", "W", "b"):
        g, w = getattr(got.params, name), getattr(want.params, name)
        assert np.max(np.abs(g - w)) <= 1e-7 * np.max(np.abs(w))
    assert got.sup_error == pytest.approx(want.sup_error, rel=1e-6, abs=0)


def _recorded_fit_calls(mp, argv):
    """The construction.fit_fnn calls of ``main(argv)``, in order."""
    calls = []

    def recording_fit(*args, **kwargs):
        calls.append((args, kwargs))
        return ca.fit_fnn(*args, **kwargs)

    mp.setattr(construction, "fit_fnn", recording_fit)
    assert main(argv) == 0
    return calls


class TestForward:
    def test_zero_weight_makes_output_constant(self):
        p = ca.FnnParams([[3.0]], [[0.0]], [0.5], ca.RELU)
        for x in (-4.0, 0.0, 11.0):
            assert ca.fnn_forward_batch(p, [x])[0] == pytest.approx([1.5], abs=0)

    def test_exp_identity_case(self):
        p = ca.FnnParams([[1.0]], [[1.0]], [0.0], ca.EXP)
        assert ca.fnn_forward_batch(p, [0.0])[0, 0] == 1.0

    def test_softmax_hand_expanded(self):
        # (2 e - e^{-1}) / (e + e^{-1}) by direct expansion of the ratio form
        p = ca.FnnParams([[2.0, -1.0]], [[1.0], [-1.0]], [0.0, 0.0], ca.SOFTMAX)
        e = math.e
        expected = (2 * e - 1 / e) / (e + 1 / e)
        assert ca.fnn_forward_batch(p, [1.0])[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_softmax_equal_coefficients_is_convex_identity(self, rng):
        a = rng.standard_normal(3)
        A = np.tile(a[:, None], (1, 5))
        p = ca.FnnParams(A, rng.standard_normal((5, 2)), rng.standard_normal(5),
                         ca.SOFTMAX)
        pts = rng.uniform(-2, 2, (40, 2))
        out = ca.fnn_forward_batch(p, pts)
        assert np.max(np.abs(out - a)) <= 1e-12

    def test_softmax_large_scores_no_overflow(self):
        p = ca.FnnParams([[1.0, 2.0]], [[400.0], [-400.0]], [0.0, 0.0], ca.SOFTMAX)
        out = ca.fnn_forward_batch(p, [3.0])[0]
        assert np.isfinite(out).all() and out[0] == pytest.approx(1.0)

    def test_relu_positive_homogeneity(self, rng):
        p = random_fnn(rng, 6, 3, 2, ca.RELU)
        lam = 3.7
        q = ca.FnnParams(p.A / lam, lam * p.W, lam * p.b, ca.RELU)
        pts = rng.uniform(-1, 1, (60, 3))
        gap = np.abs(ca.fnn_forward_batch(p, pts) - ca.fnn_forward_batch(q, pts))
        assert np.max(gap) <= 1e-12

    def test_custom_elementwise(self):
        act = ca.Activation("custom", np.tanh)
        p = ca.FnnParams([[2.0]], [[1.0]], [0.0], act)
        assert ca.fnn_forward_batch(p, [0.3])[0, 0] == pytest.approx(2 * math.tanh(0.3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ca.DimensionError):
            ca.FnnParams([[1.0, 2.0]], [[1.0]], [0.0], ca.RELU)
        p = ca.FnnParams([[1.0]], [[1.0, 0.0]], [0.0], ca.RELU)
        with pytest.raises(ca.DimensionError):
            ca.fnn_forward_batch(p, [1.0])


class TestFit:
    def test_constant_target_realizable(self):
        # W = 0 rows and A solving A * sigma(b) = c realize f == c exactly
        c = 2.5
        b = np.array([1.0])
        p = ca.FnnParams([[c / max(b[0], 0.0)]], [[0.0]], b, ca.RELU)
        x = np.linspace(0, 1, 20)[:, None]
        assert np.max(np.abs(ca.fnn_forward_batch(p, x) - c)) == 0.0

    def test_realizable_relu_target(self):
        manual = ca.FnnParams([[1.0]], [[1.0]], [-0.3], ca.RELU)
        x = np.linspace(0, 1, 100)[:, None]
        f = np.maximum(x[:, 0] - 0.3, 0.0)
        assert np.max(np.abs(ca.fnn_forward_batch(manual, x)[:, 0] - f)) == 0.0
        # a k=1 draw whose feature orientation matches the target refines to
        # the realizable optimum (up to descent stopping accuracy)
        res = ca.fit_fnn((x, f), 1, ca.RELU, seed=0, refine_steps=800)
        assert res.sup_error <= 1e-5

    def test_sin_fit_below_threshold(self):
        # threshold confirmed on an independent dense grid before asserting
        x = np.linspace(0, 1, 200)[:, None]
        f = np.sin(2 * np.pi * x[:, 0])
        res = ca.fit_fnn((x, f), 32, ca.RELU, seed=7)
        assert res.sup_error < 0.05
        dense = np.linspace(0, 1, 4001)[:, None]
        gap = ca.fnn_forward_batch(res.params, dense)[:, 0] - np.sin(2 * np.pi * dense[:, 0])
        assert np.max(np.abs(gap)) < 0.05

    def test_deterministic_bit_identical(self):
        x = np.linspace(-1, 2, 80)[:, None]
        f = np.cos(x[:, 0])
        a = ca.fit_fnn((x, f), 9, ca.RELU, seed=5, refine_steps=120)
        b = ca.fit_fnn((x, f), 9, ca.RELU, seed=5, refine_steps=120)
        assert a.params.A.tobytes() == b.params.A.tobytes()
        assert a.params.W.tobytes() == b.params.W.tobytes()
        assert a.params.b.tobytes() == b.params.b.tobytes()

    def test_rank_deficient_flagged(self):
        # duplicate sample locations with k close to sample count force deficiency
        x = np.zeros((8, 1))
        f = np.ones(8)
        res = ca.fit_fnn((x, f), 8, ca.RELU, seed=1)
        assert res.rank_deficient and res.ridge_used > 0

    def test_exp_activation_fit(self):
        x = np.linspace(0, 1, 60)[:, None]
        f = np.exp(0.8 * x[:, 0])
        res = ca.fit_fnn((x, f), 8, ca.EXP, seed=3)
        assert res.sup_error < 1e-4

    def test_overflowing_fit_is_a_numerical_error(self, recwarn):
        # exp features of scale 200 overflow; this is not an argument error
        x = np.linspace(0, 1, 200)[:, None]
        with pytest.raises(ca.NonFiniteFitError) as info:
            ca.fit_fnn((x, np.sin(x[:, 0])), 16, ca.EXP, seed=4, refine_steps=300,
                       feature_scale=200)
        assert not isinstance(info.value, ValueError) and info.value.component is None
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestAdamRefine:
    """The dense refinement against the plain per-parameter loop, to the bit."""

    @pytest.mark.parametrize("activation", [ca.RELU, ca.EXP], ids=["relu", "exp"])
    @pytest.mark.parametrize("d,d_y", [(1, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("k", [1, 5, 16])
    @pytest.mark.parametrize("n", ["k", 37, 2000])
    @pytest.mark.parametrize("steps", [0, 1, 7, 300])
    def test_bit_identical_to_reference(self, activation, d, d_y, k, n, steps):
        n = k if n == "k" else n
        W, b, A, x, f = _refine_problem(k + n + d, activation, d, d_y, k, n)
        got = _adam_refine(W.copy(), b.copy(), A.copy(), x, f, activation, steps)
        want = _adam_refine_reference(W.copy(), b.copy(), A.copy(), x, f, activation, steps)
        assert all(_bits_equal(g, w) for g, w in zip(got, want))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), relu=st.booleans(), d=st.integers(1, 3),
           d_y=st.integers(1, 2), k=st.integers(1, 16), steps=st.integers(0, 40))
    def test_bit_identical_on_random_problems(self, seed, relu, d, d_y, k, steps):
        activation = ca.RELU if relu else ca.EXP
        n = k + seed % 50
        W, b, A, x, f = _refine_problem(seed, activation, d, d_y, k, n)
        got = _adam_refine(W.copy(), b.copy(), A.copy(), x, f, activation, steps)
        want = _adam_refine_reference(W.copy(), b.copy(), A.copy(), x, f, activation, steps)
        assert all(_bits_equal(g, w) for g, w in zip(got, want))

    def test_acceptance_fit_matches_reference_driven_fit(self, monkeypatch, tmp_path):
        # the one fit the shipped acceptance construct makes: k 16, seed 4, 300 steps
        config = Path(__file__).resolve().parent.parent / "configs" / "construct_sin_acceptance.json"
        [(args, kwargs)] = _recorded_fit_calls(
            monkeypatch, ["construct", "--config", str(config), "--out", str(tmp_path)])
        assert (args[0][1].shape[1], args[1], args[3], kwargs["refine_steps"]) == (1, 16, [4], 300)
        _assert_matches_dense_reference_fit(monkeypatch, args, kwargs, 0)


# workloads.MULTI_OUTPUT of the benchmark: its two fits are k 14, 300 steps on
# a 1500-point grid, seeds 9 and 10
MULTI_OUTPUT = {
    "target": {"exprs": ["sin(2*pi*x)", "cos(2*pi*x)"]},
    "transformer": {"kind": "random", "seed": 7, "d_x": 2, "d_y": 2},
    "vocab": {"x_grid": {"lo": [-10.0, -10.0], "hi": [10.0, 10.0], "per_dim": 81},
              "d_y": 2},
    "scheme": {"kind": "calkin_wilf_lattice", "d_x": 2},
    "grid": {"lo": [0.0], "hi": [1.0], "counts": [1500]},
    "epsilon": 0.3,
    "seed": 9,
    "budgets": {"fit": 0.08, "perturb": 0.02, "tokens": 0.20},
    "fit": {"k": 14, "refine_steps": 300},
    "caps": {"j_cap": 80000000},
}


@pytest.fixture(scope="module")
def multi_output_fit_calls(tmp_path_factory):
    """The fit_fnn calls of the multi-output construct, in order: one for both outputs."""
    tmp = tmp_path_factory.mktemp("multi")
    config = tmp / "multi.json"
    config.write_text(json.dumps(MULTI_OUTPUT))
    with pytest.MonkeyPatch.context() as mp:
        return _recorded_fit_calls(
            mp, ["construct", "--config", str(config), "--out", str(tmp / "out")])


@pytest.mark.parametrize("component,seed", [(0, 9), (1, 10)])
def test_multi_output_fit_matches_reference_driven_fit(multi_output_fit_calls, monkeypatch,
                                                       component, seed):
    [(args, kwargs)] = multi_output_fit_calls
    assert (args[0][0].shape, args[0][1].shape, args[1], args[3][component],
            kwargs["refine_steps"]) == ((1500, 1), (1500, 2), 14, seed, 300)
    _assert_matches_dense_reference_fit(monkeypatch, args, kwargs, component)


def _dense_gradient(theta, x, f):
    """Mean-squared-loss gradient of the relu net [w, b, a] on (x, f), d = d_y = 1."""
    w, b, a = theta.reshape(3, -1)
    z = x[:, None] * w + b
    phi = np.maximum(z, 0.0)
    r = phi @ a - f
    g = r[:, None] * a * (z > 0) / len(x)
    return np.concatenate([g.T @ x, g.sum(axis=0), r @ phi / len(x)])


# neuron kinds of the run-sum cases: a random neuron, w = 0 with b > 0 and with
# b <= 0, a kink within rounding of a sample and exactly on one, a kink outside the data
_NEURONS = ("random", "flat_on", "flat_off", "near_sample", "on_sample", "outside")


def _run_sum_case(seed, n, kinds, duplicates):
    """Unsorted samples on [-1, 1] (on a coarse grid with ``duplicates``) and
    a net with one neuron of each kind in ``kinds``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    if duplicates:
        x = np.round(x * 4) / 4
    f = np.sin(3 * x) + rng.normal(0.0, 0.1, n)
    return _run_sum_net(rng, x, kinds), x, f


def _run_sum_net(rng, x, kinds):
    """theta = [w, b, a] of a net on the samples x with one neuron of each kind in ``kinds``."""
    k = len(kinds)
    w, b, a = rng.uniform(-3.0, 3.0, k), rng.uniform(-3.0, 3.0, k), rng.normal(0.0, 1.0, k)
    for j, kind in enumerate(kinds):
        sample = x[rng.integers(len(x))]
        if kind in ("flat_on", "flat_off"):
            w[j] = 0.0
            b[j] = rng.uniform(0.1, 2.0) if kind == "flat_on" else rng.choice([0.0, -0.0, -1.0])
        elif kind == "near_sample":
            b[j] = -w[j] * sample
        elif kind == "on_sample":
            w[j] = rng.choice([-2.0, 2.0])
            b[j] = -w[j] * sample
        elif kind == "outside":
            b[j] = -w[j] * rng.choice([-1.0, 1.0]) * rng.uniform(1.01, 4.0)
    return np.concatenate([w, b, a])


class TestRunSumGradient:
    """The O(k log n) relu gradient against the dense one."""

    @staticmethod
    def _check(theta, x, f):
        grad = np.empty_like(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            e, suffix = _run_sum_gradient(x[:, None], f[:, None], theta, grad)()
        want = _dense_gradient(theta, x, f)
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))
        # each run is the dense mask on the sorted samples
        k = len(e)
        w, b = theta[:k], theta[k:2 * k]
        xs = np.sort(x)
        mask = xs[:, None] * w + b > 0
        at = np.arange(len(x))[:, None]
        assert np.array_equal(mask, np.where(suffix, at >= e, at < e))

    @pytest.mark.parametrize("kinds", [
        ("flat_on",), ("flat_off",), ("on_sample",), ("near_sample",), ("outside",),
        ("flat_on", "flat_off", "random"), _NEURONS, _NEURONS * 3])
    @pytest.mark.parametrize("n", ["k", 1, 2, 57, 2000])
    @pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "duplicates"])
    def test_matches_dense_gradient(self, kinds, n, duplicates):
        n = len(kinds) if n == "k" else max(n, len(kinds))
        self._check(*_run_sum_case(n + len(kinds), n, kinds, duplicates))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(_NEURONS), min_size=1, max_size=20),
           extra=st.integers(0, 300), duplicates=st.booleans())
    def test_matches_dense_gradient_on_random_nets(self, seed, kinds, extra, duplicates):
        self._check(*_run_sum_case(seed, len(kinds) + extra, kinds, duplicates))

    @pytest.mark.parametrize("activation,d,d_y,route", [
        (ca.RELU, 1, 1, "_run_sum_refine"), (ca.RELU, 1, 2, "_adam_refine"),
        (ca.RELU, 2, 1, "_adam_refine"), (ca.EXP, 1, 1, "_adam_refine")])
    def test_route(self, monkeypatch, activation, d, d_y, route):
        routes = []
        for name in ("_adam_refine", "_run_sum_refine"):
            monkeypatch.setattr(fnn, name, _recording(routes, name, getattr(fnn, name)))
        x = np.random.default_rng(0).uniform(0, 1, (200, d))
        ca.fit_fnn((x, np.sin(x[:, :1] + np.arange(d_y))), 8, activation, seed=1, refine_steps=5)
        assert routes == [route]

    def test_overflowing_relu_fit_is_a_numerical_error(self, recwarn):
        # a target of 1e200 overflows the squared gradient in Adam's second moment
        x = np.linspace(0, 1, 2000)[:, None]
        with pytest.raises(ca.NonFiniteFitError):
            ca.fit_fnn((x, 1e200 * np.sin(2 * np.pi * x[:, 0])), 16, ca.RELU, seed=4,
                       refine_steps=300)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestBatchedRunSums:
    """B nets refined in one run-sum Adam loop, each as if alone."""

    @staticmethod
    def _refine(thetas, x, F, steps):
        """``_run_sum_refine`` on the nets ``thetas`` (each [w, b, a]), net i on column i of F."""
        W, b, A = np.stack([t.reshape(3, -1) for t in thetas], axis=1)
        return fnn._run_sum_refine(W, b, A, x[:, None], F, steps)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nets=st.integers(1, 4), k=st.integers(1, 16),
           steps=st.integers(0, 40), extra=st.integers(0, 60), duplicates=st.booleans(),
           data=st.data())
    def test_each_net_gets_its_bits_alone(self, seed, nets, k, steps, extra, duplicates, data):
        kinds = [data.draw(st.lists(st.sampled_from(_NEURONS), min_size=k, max_size=k))
                 for _ in range(nets)]
        theta, x, f = _run_sum_case(seed, k + extra, kinds[0], duplicates)
        rng = np.random.default_rng(seed + 1)
        thetas = [theta] + [_run_sum_net(rng, x, ks) for ks in kinds[1:]]
        F = np.column_stack([f] + [np.cos((i + 2) * x) + rng.normal(0.0, 0.1, len(x))
                                   for i in range(1, nets)])
        together = self._refine(thetas, x, F, steps)
        for i, t in enumerate(thetas):
            alone = self._refine([t], x, F[:, [i]], steps)
            assert _bits_equal(together[:, i], alone[:, 0])

    def test_an_overflowing_net_leaves_the_others_alone(self, recwarn):
        # a target of 1e200, and output weights of its scale, overflow their
        # net's Adam moments; the others keep their bits
        x = np.linspace(-1.0, 1.0, 2000)
        rng = np.random.default_rng(3)
        thetas = [_run_sum_net(rng, x, _NEURONS[i:] + _NEURONS[:i]) for i in range(3)]
        thetas[1][12:] *= 1e200
        F = np.column_stack([np.sin(3 * x), 1e200 * np.sin(3 * x), np.cos(2 * x)])
        together = self._refine(thetas, x, F, 300)
        assert not np.isfinite(together[:, 1]).all()
        for i in (0, 2):
            assert _bits_equal(together[:, i], self._refine([thetas[i]], x, F[:, [i]], 300)[:, 0])
        # fit_fnn names the overflowing column, without a warning, and fits
        # each other one as alone
        recwarn.clear()
        x = x[:, None]
        with pytest.raises(ca.NonFiniteFitError) as info:
            ca.fit_fnn((x, F), 16, ca.RELU, seed=[4, 5, 6], refine_steps=300)
        assert info.value.component == 1
        good = ca.fit_fnn((x, F[:, [0, 2]]), 16, ca.RELU, seed=[4, 6], refine_steps=300)
        for fr, c, s in zip(good, (0, 2), (4, 6)):
            alone = ca.fit_fnn((x, F[:, c]), 16, ca.RELU, seed=s, refine_steps=300)
            assert all(_bits_equal(getattr(fr.params, n), getattr(alone.params, n))
                       for n in ("A", "W", "b"))
            assert (fr.sup_error, fr.ridge_used, fr.rank_deficient) == \
                (alone.sup_error, alone.ridge_used, alone.rank_deficient)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("seed", [[], [1], [1, 2, 3]])
    def test_one_seed_per_column(self, seed):
        x = np.linspace(0, 1, 50)[:, None]
        with pytest.raises(ca.DimensionError):
            ca.fit_fnn((x, np.hstack([x, x])), 4, ca.RELU, seed=seed)

    def test_exp_columns_take_one_dense_loop_each(self, monkeypatch):
        routes = []
        for name in ("_adam_refine", "_run_sum_refine"):
            monkeypatch.setattr(fnn, name, _recording(routes, name, getattr(fnn, name)))
        x = np.linspace(0, 1, 60)[:, None]
        F = np.exp(np.hstack([0.5 * x, -x]))
        fits = ca.fit_fnn((x, F), 6, ca.EXP, seed=[3, 8], refine_steps=20)
        assert routes == ["_adam_refine"] * 2
        for fr, c, s in zip(fits, (0, 1), (3, 8)):
            alone = ca.fit_fnn((x, F[:, c]), 6, ca.EXP, seed=s, refine_steps=20)
            assert all(_bits_equal(getattr(fr.params, n), getattr(alone.params, n))
                       for n in ("A", "W", "b"))

    @staticmethod
    def _mixed_setting(target1):
        """A d_y = 2 construct whose output 0 is a given relu network."""
        tp = ca.identity_sparse_params(2, 2)
        given = ca.FnnParams([[0.6, -0.4]], [[1.0], [-1.0]], [-0.2, 0.7], ca.RELU)

        def target(pts):
            return np.column_stack([ca.fnn_forward_batch(given, pts)[:, 0], target1(pts)])

        vocab = ca.Vocabulary.x_grid((-10.0, -10.0), (10.0, 10.0), 81, 2)
        return target, ca.Grid((0.0,), (1.0,), (800,)), vocab, ca.calkin_wilf_lattice(2), tp, given

    def test_mixed_outputs_fit_only_the_missing_one(self, monkeypatch):
        calls = []

        def recording_fit(*args, **kwargs):
            calls.append((args, kwargs, ca.fit_fnn(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(construction, "fit_fnn", recording_fit)
        target, grid, vocab, scheme, tp, given = self._mixed_setting(
            lambda pts: np.sin(2 * np.pi * pts[:, 0]))
        fit = construction.FitOptions(k=14, refine_steps=300)
        rep = ca.construct_context(target, grid, vocab, scheme, tp, 0.5, seed=3, fit=fit,
                                   fnn=[given, None],
                                   caps=construction.Caps(j_cap=40_000_000))
        assert rep.achieved_sup_error < 0.5
        [(args, kwargs, [fitted])] = calls
        assert (args[0][1].shape, args[3]) == ((800, 1), [4])
        pts = grid.points()
        alone = ca.fit_fnn((pts, np.sin(2 * np.pi * pts[:, 0])), 14, ca.RELU, seed=4,
                           refine_steps=300)
        assert all(_bits_equal(getattr(fitted.params, n), getattr(alone.params, n))
                   for n in ("A", "W", "b"))

    def test_mixed_outputs_name_the_overflowing_component(self):
        target, grid, vocab, scheme, tp, given = self._mixed_setting(
            lambda pts: 1e200 * np.sin(2 * np.pi * pts[:, 0]))
        with pytest.raises(ca.NonFiniteFitError) as info:
            ca.construct_context(target, grid, vocab, scheme, tp, 0.5, seed=3,
                                 fit=construction.FitOptions(k=16, refine_steps=300),
                                 fnn=[given, None])
        assert info.value.component == 1


    def test_overflow_into_the_least_squares_is_a_numerical_error(self, recwarn):
        # this draw's refined features end non-finite, which LAPACK's least
        # squares rejects with LinAlgError unless the fit reports it first
        x = np.linspace(-1, 1, 2000)[:, None]
        with pytest.raises(ca.NonFiniteFitError) as info:
            ca.fit_fnn((x, 1e200 * np.sin(3 * x[:, 0])), 16, ca.RELU, seed=5, refine_steps=300)
        assert info.value.names == ["A", "W", "b"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestSerde:
    def test_round_trip(self, rng):
        p = random_fnn(rng, 4, 3, 2, ca.EXP)
        doc = p.to_json_dict()
        assert doc["activation"] == "exp"
        q = ca.FnnParams.from_json_dict(doc)
        assert np.array_equal(p.A, q.A) and np.array_equal(p.W, q.W)
        assert np.array_equal(p.b, q.b)

    def test_custom_not_serializable(self):
        p = ca.FnnParams([[1.0]], [[1.0]], [0.0], ca.Activation("custom", np.tanh))
        with pytest.raises(TypeError):
            p.to_json_dict()
