"""One-hidden-layer networks with element-wise, exponential and softmax heads.

The element-wise forward is ``A @ sigma(W x + b)``; the softmax forward is the
normalized form ``sum_i a_i e^{w_i.x+b_i} / sum_j e^{w_j.x+b_j}``, evaluated
with a log-sum-exp shift so overflow cannot occur for representable inputs.
All norms are uniform (max over components, max over grid points).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, NonFiniteFitError
from .grids import as_points


# --------------------------------------------------------------------------
# activations


@dataclass(frozen=True)
class Activation:
    """Activation tag; ``custom`` wraps an element-wise scalar function.

    A custom function must be defined on all of the reals; local boundedness
    and piecewise continuity are the caller's responsibility.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)

    _KINDS = ("relu", "exp", "softmax", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom activation needs a function handle")

    @property
    def is_elementwise(self) -> bool:
        return self.kind != "softmax"

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "exp":
            return np.exp(z)
        if self.kind == "custom":
            return np.asarray(self.fn(z), dtype=float)
        raise ValueError("softmax is not an element-wise map; use the forward routines")

    def in_place(self, z: np.ndarray) -> np.ndarray:
        """``self(z)`` written over the float64 array ``z``, which is returned;
        the same bits, and relu and exp allocate nothing."""
        if self.kind == "relu":
            return np.maximum(z, 0.0, out=z)
        if self.kind == "exp":
            return np.exp(z, out=z)
        z[...] = self(z)
        return z


RELU = Activation("relu")
EXP = Activation("exp")
SOFTMAX = Activation("softmax")


# --------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class FnnParams:
    """One-hidden-layer network (A, W, b, activation).

    Immutable after construction and safe to share across threads.
    """

    A: np.ndarray
    W: np.ndarray
    b: np.ndarray
    activation: Activation

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if W.shape[0] != A.shape[1] or b.shape[0] != W.shape[0]:
            raise DimensionError(
                f"inconsistent shapes: A {A.shape}, W {W.shape}, b {b.shape}"
            )
        if W.shape[0] < 1:
            raise DimensionError("need at least one hidden neuron")
        for name, arr in (("A", A), ("W", W), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def k(self) -> int:
        return self.W.shape[0]

    @property
    def d_in(self) -> int:
        return self.W.shape[1]

    @property
    def d_y(self) -> int:
        return self.A.shape[0]

    def to_json_dict(self) -> dict:
        if self.activation.kind == "custom":
            raise TypeError("custom activations are not serializable")
        return {
            "A": self.A.tolist(),
            "W": self.W.tolist(),
            "b": self.b.tolist(),
            "activation": self.activation.kind,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "FnnParams":
        return FnnParams(
            np.array(doc["A"], dtype=float),
            np.array(doc["W"], dtype=float),
            np.array(doc["b"], dtype=float),
            Activation(doc["activation"]),
        )


# --------------------------------------------------------------------------
# forward passes


def fnn_forward_batch(params: FnnParams, points) -> np.ndarray:
    """Evaluate the network at an (N, d_in) batch; returns (N, d_y)."""
    x = as_points(points, params.d_in)
    z = x @ params.W.T + params.b  # (N, k)
    if params.activation.is_elementwise:
        return params.activation(z) @ params.A.T
    shift = np.max(z, axis=1, keepdims=True)
    e = np.exp(z - shift)
    return (e @ params.A.T) / np.sum(e, axis=1, keepdims=True)


# --------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitResult:
    params: FnnParams
    sup_error: float
    ridge_used: float
    rank_deficient: bool


def _adam(theta, grad, gradient, steps):
    """``steps`` full-batch Adam steps on ``theta``, in place and in work arrays
    allocated once; ``gradient()`` writes the loss gradient at ``theta`` into
    ``grad``.  The two moments are the rows of one array, so each update
    that both take is one call; every entry is rounded as in the textbook
    loop (``v`` adds ``((1 - beta2) * g) * g``)."""
    lr, beta1, beta2, eps = 2e-2, 0.9, 0.999, 1e-8
    betas, keep = np.array([[beta1], [beta2]]), np.array([[1 - beta1], [1 - beta2]])
    bias = np.empty((2, 1))
    moments, new, hat = (np.zeros((2, theta.shape[0])) for _ in range(3))
    for t in range(1, steps + 1):
        gradient()
        moments *= betas
        np.multiply(keep, grad, out=new)
        new[1] *= grad
        moments += new
        bias[0, 0], bias[1, 0] = 1 - beta1**t, 1 - beta2**t
        np.divide(moments, bias, out=hat)
        step, root = hat
        np.multiply(lr, step, out=step)
        np.add(np.sqrt(root, out=root), eps, out=root)
        theta -= np.divide(step, root, out=step)


def _adam_refine(W, b, A, x, f, activation, steps):
    """Fixed-iteration full-batch Adam on the mean-squared residual, with the
    gradient from dense (n, k) passes: the route for exp, d > 1 and d_y > 1.

    W, b, A and their gradients are views of two flat vectors, so Adam runs
    once per step on one short vector.  The sums keep the operand layouts and
    order of a per-parameter loop, so the result is bit-identical to it.
    Three passes take a cheaper route to the same bits:

    * d = 1 < k: ``x @ W.T + b`` is ``[x, 1] @ [W.T; b]``, a BLAS product
      with inner dimension 2 that rounds ``x*w`` and then adds ``b``, as the
      loop does; ``W.T`` alone is a strided view that matmul cannot hand to
      BLAS;
    * ``R @ A`` goes through ``np.dot``, which hands it to BLAS also when it
      is an outer product (d_y = 1: one exact multiply per entry);
    * k > 1: the column sums of ``G`` add its rows in order, as
      ``G.sum(axis=0)`` does, in one strided pass per column.  For k = 1 the
      column is contiguous and ``sum`` adds it pairwise, so it stays there.
    """
    (k, d), d_y, n = W.shape, A.shape[0], x.shape[0]
    theta, grad = np.concatenate([W.ravel(), b, A.ravel()]), np.empty(k * (d + 1 + d_y))
    (W, b, A), (gW, gb, gA) = (
        (p[:k * d].reshape(k, d), p[k * d:k * (d + 1)], p[k * (d + 1):].reshape(d_y, k))
        for p in (theta, grad))
    Z, Phi, G, R = np.empty((n, k)), np.empty((n, k)), np.empty((n, k)), np.empty((n, d_y))
    relu = activation.kind == "relu"
    dphi = np.empty((n, k), dtype=bool) if relu else Phi  # exp is its own derivative
    fused = d == 1 < k
    if fused:  # for d = 1, W.ravel() is W.T's row, so [W.T; b] is theta's head
        x1, Wb = np.hstack([x, np.ones((n, 1))]), theta[:2 * k].reshape(2, k)

    def gradient():
        if fused:
            np.matmul(x1, Wb, out=Z)
        else:
            np.add(np.matmul(x, W.T, out=Z), b, out=Z)
        if relu:
            np.maximum(Z, 0.0, out=Phi)
            np.greater(Z, 0, out=dphi)
        else:
            np.exp(Z, out=Phi)
        np.subtract(np.matmul(Phi, A.T, out=R), f, out=R)
        np.divide(np.multiply(np.dot(R, A, out=G), dphi, out=G), n, out=G)
        np.matmul(G.T, x, out=gW)
        if k > 1:
            np.einsum("ij->j", G, out=gb)
        else:
            G.sum(axis=0, out=gb)
        np.divide(np.matmul(R.T, Phi, out=gA), n, out=gA)

    _adam(theta, grad, gradient, steps)
    return W, b, A


def _run_sum_refine(W, b, A, x, f, steps):
    """The Adam of ``_adam_refine`` for B relu nets with d = d_y = 1, all on
    the samples x, net i fitting column i of f (n, B), on the gradient of
    ``_run_sum_gradient``: O(n log n) once, then O(B k log n) a step instead
    of O(B n k).  W, b and A are (B, k), and so are the three returned.  One
    Adam loop serves every net: theta is parameter-major, [w (B·k), b (B·k),
    a (B·k)], which for B = 1 is [w, b, a].  The gradient is the dense one
    added in another order, so the result matches ``_adam_refine`` to
    rounding, not to the bit; each net gets the same bits in a batch as
    alone, since ``_adam`` is elementwise and the gradient keeps every net's
    sums apart, down to one first-stretch ``np.matmul`` per net.
    """
    theta = np.concatenate([W.ravel(), b.ravel(), A.ravel()])
    grad = np.empty_like(theta)
    with np.errstate(divide="ignore", invalid="ignore"):  # w = 0 and the infinite pads
        _adam(theta, grad, _run_sum_gradient(x, f, theta, grad), steps)
    return theta.reshape(3, *W.shape)


def _run_sum_gradient(x, f, theta, grad):
    """A function that writes the mean-squared-loss gradient of B relu nets
    (d = d_y = 1), net i fitting column i of f (n, B) on the samples x, into
    ``grad``, and returns each neuron's run: its end e, and whether the run
    is the suffix [e, n) of the sorted samples or the prefix [0, e).

    ``theta`` is parameter-major, [w (B·k), b (B·k), a (B·k)] with net i's
    neurons at i·k..(i + 1)·k in each, so for B = 1 it is [w, b, a]; ``grad``
    and the returned runs are laid out the same way.

    Neuron j is active (``x*w + b > 0``, the dense mask) on one run of the
    sorted samples: a suffix when w > 0, a prefix otherwise.  Once, the
    samples are sorted and the prefix sums of x², x, 1, f·x and f taken,
    one row per net.  Per call, in O(B k log n):

    * ``searchsorted`` on the kink -b/w puts each run end, and the dense
      formula at the samples either side of it confirms the end; where it
      does not (w = 0, a kink within rounding of a sample), the end is
      counted from that neuron's dense mask, so every run is exactly the
      dense pass's active set;
    * between consecutive run ends the net is one line s·x + c, with (s, c)
      the running sum of ±a·(w, b) in run-end order;
    * so the residual sums Σ r·x and Σ r over each stretch come from the
      prefix sums, their running sums give each run's, and every gradient
      entry is a run sum / n.

    The nets share each call, not a loop: net i's run ends are offset by
    i·(n + 2), its row's place in the padded samples and prefix sums, so
    one stable argsort orders every net's run ends at once and keeps them
    apart, and the running sums go along the last axis of (…, B, k + 1)
    arrays.  Only each net's first-stretch (2, k) @ (k,) product is one
    ``np.matmul`` per net: a batched product may add in another order, and
    a net would then get other bits in a batch than alone.
    """
    n, nets = f.shape
    k = theta.shape[0] // (3 * nets)
    WB, a = theta[:2 * nets * k].reshape(2, -1), theta[2 * nets * k:]
    w, b = WB
    WB3, a3 = WB.reshape(2, nets, k), a.reshape(nets, k)
    gWb3, gA3 = grad[:2 * nets * k].reshape(2, nets, k), grad[2 * nets * k:].reshape(nets, k)
    by_x = np.argsort(x[:, 0], kind="stable")
    xs, fs = x[by_x, 0], f[by_x].T
    # row i of padded: -inf, the sorted samples, inf; padded[e], padded[e + 1]
    # are then the samples either side of run end e of net i, at e + i·(n + 2)
    pad = np.full((nets, 1), np.inf)
    padded = np.hstack([-pad, np.broadcast_to(xs, (nets, n)), pad]).ravel()
    first = (n + 2) * np.arange(nets)
    beside = np.repeat(first, k) + np.array([[0], [1]])
    # prefix sums over the sorted samples, divided by n, at the same offsets:
    # of (x², x, f·x) and of (x, 1, f)
    P = np.zeros((2, 3, nets, n + 2))
    for row, v in zip(P.reshape(6, nets, n + 2), (xs * xs, xs, fs * xs, xs, np.ones(n), fs)):
        np.cumsum(np.broadcast_to(v, (nets, n)), axis=1, out=row[:, 1:-1])
    P /= n
    P = P.reshape(2, 3, -1)
    ends, E = np.empty((2, nets * k), dtype=np.intp), np.empty((nets, k + 2), dtype=np.intp)
    # E: each net's run ends in ascending order, between its 0 and n
    E[:, 0], E[:, -1] = first, first + n
    PE, D, DL = (np.empty((2, 3, nets, k + m)) for m in (2, 1, 1))
    L, S = np.full((3, nets, k + 1), -1.0), np.empty((2, nets, k + 1))  # (s, c, -1) on each stretch
    Q = np.empty((2, nets, k + 1))  # (Σ r·x, Σ r) / n over the samples up to each stretch's end
    signed, R = np.empty((2, nets * k)), np.empty((2, nets, k))
    t, asg, ad = np.empty(nets * k), np.empty(nets * k), np.empty(nets * k)
    U, Z = np.empty((2, nets * k), dtype=bool), np.empty((2, nets * k), dtype=bool)
    prefix, suffix = U  # the dense mask wanted at the samples below and at each run end
    keys, E1, SC, SC0, SC1 = ends[0], E[:, 1:-1], L[:2], L[:2, :, 0], L[:2, :, 1:]
    PE0, PE1, Qmid, Qall = PE[..., :-1], PE[..., 1:], Q[..., :-1], Q[..., -1:]
    R2, suffix3 = R.reshape(2, -1), suffix.reshape(nets, k)
    firsts = [(WB3[:, i], ad[i * k:(i + 1) * k], SC0[:, i]) for i in range(nets)]

    def gradient():
        np.greater(w, 0, out=suffix)
        np.logical_not(suffix, out=prefix)
        sgn = np.where(suffix, 1.0, -1.0)
        e = xs.searchsorted(np.negative(np.divide(b, w, out=t), out=t), "right")
        # every index taken here is in range: mode="clip" only skips take's
        # buffered bounds check, a large share of a call on arrays this short
        z = padded.take(np.add(e, beside, out=ends), mode="clip")
        z *= w
        z += b
        if not np.equal(np.greater(z, 0, out=Z), U, out=Z).all():
            bad = np.flatnonzero(~Z.all(axis=0))
            active = np.count_nonzero(xs[:, None] * w[bad] + b[bad] > 0, axis=0)
            e[bad] = np.where(suffix[bad], n - active, active)
            keys[bad] = e[bad] + beside[0, bad]
        order = keys.argsort(kind="stable").reshape(nets, k)
        keys.take(order, out=E1, mode="clip")
        # (s, c) of each net's first stretch: its prefix neurons' a·(w, b),
        # from a - a·sgn = 2a on them and 0 elsewhere; then each run end adds
        # its neuron's ±a·(w, b)
        np.multiply(WB, np.multiply(a, sgn, out=asg), out=signed)
        np.subtract(a, asg, out=ad)
        for lhs, rhs, out in firsts:
            np.matmul(lhs, rhs, out=out)
        np.multiply(SC0, 0.5, out=SC0)
        signed.take(order, axis=1, out=SC1)
        np.add.accumulate(SC, axis=2, out=SC)
        P.take(E, axis=2, out=PE, mode="clip")
        np.subtract(PE1, PE0, out=D)  # (x², x, f·x) and (x, 1, f) summed over each stretch
        np.add.reduce(np.multiply(D, L, out=DL), axis=1, out=S)  # Σ r·x, Σ r over each
        np.add.accumulate(S, axis=2, out=Q)
        R2[:, order] = Qmid
        np.subtract(Qall, R, out=R, where=suffix3)  # (Σ r·x, Σ r) / n over each run
        np.multiply(a3, R, out=gWb3)
        np.multiply(WB3, R, out=R)
        np.add(R[0], R[1], out=gA3)
        return e, suffix
    return gradient


def fit_fnn(samples, k: int, activation: Activation, seed: int | list[int], *,
            refine_steps: int = 0, feature_scale: float = 3.0) -> FitResult | list[FitResult]:
    """Fit a one-hidden-layer network to samples ``(x, f)``; deterministic given seed.

    An int ``seed`` fits one network with one output per column of the
    sample values f, all on one hidden layer, and returns its FitResult.  A
    sequence of ints, one per column of f, fits one single-output network
    per column, column c from ``seed[c]`` and with the bits it would get
    alone, and returns their FitResults in column order.

    Random-feature hidden layer plus linear least squares for A, optionally
    followed by a fixed-iteration Adam refinement of all parameters and a
    least-squares A again.  Relu nets with d = d_y = 1 (each output's fit in
    a relu construction on a 1-d grid) refine together, in one Adam loop on
    run sums of the sorted samples, O(k log n) a step and net
    (``_run_sum_refine``).  Its parameters are parameter-major, all w, then
    all b, then all a, so each numpy call of a step serves every net; only
    the first-stretch (2, k) @ (k,) product stays one ``np.matmul`` per net,
    as a batched product may add in another order and so change a net's
    bits.  Exp, d > 1 and d_y > 1 refine on dense (n, k) passes, one loop
    per network (``_adam_refine``).  The routes agree to rounding.
    The samples' bounding box is affinely normalized to [-1, 1]^d; rows of W are
    drawn from the fixed symmetric distribution
    uniform(-feature_scale, feature_scale) in normalized coordinates and b is
    set so each activation kink plane passes through a Latin-hypercube anchor
    of the box (the joint (W, b) law is fixed and sign-symmetric).  The affine
    map is composed back into the returned parameters.  A rank-deficient
    least-squares system is re-solved with a ridge term of 1e-8 and flagged
    in the result.  A fit whose parameters end non-finite (an exp activation
    that overflows, say) raises NonFiniteFitError, which names the column of
    a per-column fit.
    """
    if activation.kind not in ("relu", "exp"):
        raise ValueError("fit_fnn supports relu and exp activations")
    x, f = samples
    x = as_points(x)
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if x.shape[0] != f.shape[0]:
        raise DimensionError("sample inputs and values disagree in length")
    if x.shape[0] < k:
        raise ValueError(f"need at least k={k} samples, got {x.shape[0]}")
    per_column = not isinstance(seed, (int, np.integer))
    seeds = list(seed) if per_column else [seed]
    if not 0 < len(seeds) == (f.shape[1] if per_column else 1):
        raise DimensionError(f"need one seed per column of the sample values, got "
                             f"{len(seeds)} for {f.shape[1]}")
    targets = [f[:, [c]] for c in range(f.shape[1])] if per_column else [f]

    lo, hi = x.min(axis=0), x.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    half = np.where(half < 1e-12, 1.0, half)
    z = (x - center) / half
    d = x.shape[1]

    def features(seed):
        rng = np.random.default_rng(seed)
        W = rng.uniform(-feature_scale, feature_scale, size=(k, d))
        # activation kink planes pass through Latin-hypercube anchors, so the
        # features stay independent over the normalized box instead of collapsing
        # to the affine span when kinks miss the data; the anchor box is slightly
        # wider than the data so some features act affinely on it
        perms = np.stack([rng.permutation(k) for _ in range(d)], axis=1)
        anchors = -1.25 + 2.5 * (perms + rng.uniform(0.0, 1.0, size=(k, d))) / k
        return W, -np.einsum("ij,ij->i", W, anchors)

    def solve_A(W, b, lam, f):
        phi = activation(z @ W.T + b)
        if not np.isfinite(phi).all():  # LAPACK may fail on it; reported below
            return np.full((f.shape[1], k), np.nan), False
        if lam == 0.0:
            A, _, rank, _ = np.linalg.lstsq(phi, f, rcond=None)
            return A.T, rank < k
        gram = phi.T @ phi + lam * np.eye(k)
        return np.linalg.solve(gram, phi.T @ f).T, False

    nets = [features(s) for s in seeds]
    # overflow is reported once, as non-finite parameters, below
    with np.errstate(all="ignore"):
        ridges, deficient, As = [], [], []
        for (W, b), g in zip(nets, targets):
            A, short = solve_A(W, b, 0.0, g)
            ridges.append(1e-8 if short else 0.0)
            As.append(solve_A(W, b, ridges[-1], g)[0] if short else A)
            deficient.append(short)

        if refine_steps > 0:
            if activation.kind == "relu" and d == targets[0].shape[1] == 1:
                Ws, bs, As = _run_sum_refine(np.vstack([W.T for W, _ in nets]),
                                             np.vstack([b for _, b in nets]),
                                             np.vstack(As), z, f, refine_steps)
                nets = [(W[:, None], b) for W, b in zip(Ws, bs)]
            else:
                refined = [_adam_refine(W, b, A, z, g, activation, refine_steps)
                           for (W, b), A, g in zip(nets, As, targets)]
                nets = [(W, b) for W, b, _ in refined]
            As = []
            for c, ((W, b), g) in enumerate(zip(nets, targets)):
                A, short = solve_A(W, b, ridges[c], g)
                As.append(A)
                deficient[c] = deficient[c] or short

        composed = [(A, W / half, b - W @ (center / half)) for A, (W, b) in zip(As, nets)]
    fits = []
    for c, (A, W, b) in enumerate(composed):
        bad = [name for name, arr in (("A", A), ("W", W), ("b", b))
               if not np.all(np.isfinite(arr))]
        if bad:
            raise NonFiniteFitError(bad, c if per_column else None)
        params = FnnParams(A, W, b, activation)
        resid = fnn_forward_batch(params, x) - targets[c]
        fits.append(FitResult(params, float(np.max(np.abs(resid))), ridges[c], deficient[c]))
    return fits if per_column else fits[0]
