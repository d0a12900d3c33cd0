"""Embedding one-hidden-layer networks into attention contexts.

Element-wise activations embed exactly: X = (C^T B)^{-1} [W b]^T, Y = U^{-1} A
(with Y = U^{-1}(A - F X) when F is nonzero).  The softmax route approximates:
an exponential network is first lifted to a softmax network by adding an
all-zero neuron and damping the biases, and any softmax network is then
realized by shifting all context scores by a constant s large enough that the
query's self-score term in the normalizer becomes negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import solve_refined
from .errors import ConfigError, DimensionError, EpsilonRangeError
from .fnn import SOFTMAX, Activation, FnnParams, fnn_forward_batch
from .grids import Grid, as_points, lifted
from .transformer import TransformerParams, readout_batch

_LOG_SAFETY = math.log(10.0)


@dataclass(frozen=True)
class EmbeddingResult:
    """Constructed context (X, Y), optional softmax shift, and certified error.

    ``certified_sup_error`` is 0 for exact embeddings and otherwise the sup
    gap measured on a refined audit grid; ``closed_form_bound`` is the bound
    from the shift inequality chain when applicable.
    """

    X: np.ndarray
    Y: np.ndarray
    shift_s: float | None
    certified_sup_error: float
    closed_form_bound: float | None = None

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if X.shape[1] != Y.shape[1]:
            raise DimensionError("X and Y disagree in context length")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def y_sup_norm(self) -> float:
        """Max-abs entry of Y; large values flag ill-conditioned U."""
        return float(np.max(np.abs(self.Y)))

    def to_json_dict(self) -> dict:
        return {
            "X": self.X.tolist(),
            "Y": self.Y.tolist(),
            "s": self.shift_s,
            "certified_sup_error": self.certified_sup_error,
        }


def _solve_context(tp: TransformerParams, rows: np.ndarray, A: np.ndarray):
    """(X, Y) with X^T B^T C = rows and F X + U Y = A."""
    X = solve_refined(tp.C.T @ tp.B, rows.T, "C^T B")    # (d_x, k)
    Y = solve_refined(tp.U, A - tp.F @ X, "U")           # (d_y, k)
    return X, Y


def embed_fnn(tp: TransformerParams, fnn: FnnParams) -> EmbeddingResult:
    """Exact context for an element-wise network: the readout reproduces it.

    Requires sparse mode and fnn input dimension d_x - 1 (the bias rides on
    the appended query coordinate).
    """
    if not tp.is_sparse_mode:
        raise ConfigError("transformer", "embedding requires sparse mode (no general blocks)")
    if not fnn.activation.is_elementwise:
        raise ConfigError("fnn", "embed_fnn handles element-wise activations; "
                                 "use embed_softmax_fnn for softmax")
    if (fnn.d_in, fnn.d_y) != (tp.d_x - 1, tp.d_y):
        raise ConfigError("fnn", f"fnn (d_in, d_y) = {(fnn.d_in, fnn.d_y)} != (d_x - 1, d_y) "
                                 f"= {(tp.d_x - 1, tp.d_y)}")
    X, Y = _solve_context(tp, np.hstack([fnn.W, fnn.b[:, None]]), fnn.A)
    return EmbeddingResult(X, Y, None, 0.0)


def extract_fnn(tp: TransformerParams, result: EmbeddingResult,
                activation: Activation) -> FnnParams:
    """Inverse of embed_fnn: recover (W, b, A) from a context."""
    wb = (tp.C.T @ tp.B @ result.X).T
    A = tp.U @ result.Y + tp.F @ result.X
    return FnnParams(A, wb[:, :-1], wb[:, -1], activation)


def exp_to_softmax_fnn(src: FnnParams, domain_grid, epsilon: float) -> FnnParams:
    """Lift an exponential network to a (k+1)-neuron softmax network.

    The extra neuron has zero weights and coefficient; the original biases are
    damped to b'_i so that e^{w_i.x + b'_i} < eps / (2 k (1 + max||src||)) on
    the grid, and coefficients become a'_i = a_i e^{b_i - b'_i}.  The grid sup
    gap to the source is then below epsilon (bounded by
    max||src|| * max sum_j e^{w_j.x + b'_j}).
    """
    if src.activation.kind != "exp":
        raise ValueError("source must be an exp network")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    pts = as_points(domain_grid, src.d_in)
    with np.errstate(over="ignore", invalid="ignore"):  # reported as non-finite a_dash
        src_max = float(np.max(np.abs(fnn_forward_batch(src, pts))))
        log_cap = math.log(epsilon) - math.log(2.0 * src.k * (1.0 + src_max))
        z_max = np.max(pts @ src.W.T, axis=0)  # max over the grid of w_i.x
        b_dash = log_cap - z_max - _LOG_SAFETY
        a_dash = src.A * np.exp(src.b - b_dash)
    if not np.isfinite(a_dash).all():
        raise EpsilonRangeError(
            "epsilon too small: lifted coefficients a_i e^{b_i - b'_i} overflow")
    A = np.hstack([a_dash, np.zeros((src.d_y, 1))])
    W = np.vstack([src.W, np.zeros((1, src.d_in))])
    b = np.concatenate([b_dash, [0.0]])
    return FnnParams(A, W, b, SOFTMAX)


def _shift_terms(tp: TransformerParams, net: FnnParams, pts: np.ndarray):
    """Terms of the shift inequality at the points.

    Returns t(x) = x~^T B^T C x~, max||net||, the net's neuron
    pre-activations z and the log of its softmax normalizer sum_i e^{z_i}.
    """
    x_t = lifted(pts)
    t_vals = np.einsum("ni,ij,nj->n", x_t, tp.B.T @ tp.C, x_t)
    net_max = float(np.max(np.abs(fnn_forward_batch(net, pts))))
    z = pts @ net.W.T + net.b
    zmax = np.max(z, axis=1)
    log_den = zmax + np.log(np.sum(np.exp(z - zmax[:, None]), axis=1))
    return t_vals, net_max, z, log_den


def _softmax_shift(tp: TransformerParams, net: FnnParams, pts: np.ndarray,
                   epsilon: float) -> float:
    """Smallest shift satisfying the normalizer inequality, plus ln 10 margin.

    Requires e^{x~^T B^T C x~ - s} < eps / (2 (1 + max||net||)) on the grid;
    when the net's own normalizer can drop below 1 (no zero neuron), s is
    raised further by -log(min normalizer) so the certified bound survives.
    """
    t_vals, net_max, _, log_den = _shift_terms(tp, net, pts)
    s = (float(np.max(t_vals))
         - (math.log(epsilon) - math.log(2.0 * (1.0 + net_max)))
         - min(0.0, float(np.min(log_den)))
         + _LOG_SAFETY)
    if not math.isfinite(s):
        raise EpsilonRangeError(f"required shift s is not finite (s = {s})")
    return s


def _embed_softmax_net(tp: TransformerParams, net: FnnParams,
                       s: float) -> EmbeddingResult:
    """Context realizing a softmax net: X^T B^T C = [W  b + s 1], U Y = A."""
    X, Y = _solve_context(tp, np.hstack([net.W, (net.b + s)[:, None]]), net.A)
    return EmbeddingResult(X, Y, s, 0.0)


def embed_softmax_fnn(tp: TransformerParams, fnn: FnnParams, domain_grid,
                      epsilon: float) -> EmbeddingResult:
    """Context whose softmax readout tracks the network within epsilon.

    An exp source with k neurons is lifted first (epsilon/2) and embedded with
    the remaining budget, giving n = k + 1 (the lift's zero neuron becomes the
    [0, s] context row); a softmax source embeds directly with n = k.  The
    certified error is audited on a 10x refined grid when a Grid is supplied.
    """
    if not tp.is_sparse_mode:
        raise ConfigError("transformer", "embedding requires sparse mode (no general blocks)")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigError("epsilon", f"epsilon must be positive and finite, got {epsilon!r}")
    if fnn.activation.kind not in ("exp", "softmax"):
        raise ConfigError("fnn", "source must be an exp or softmax network")
    if (fnn.d_in, fnn.d_y) != (tp.d_x - 1, tp.d_y):
        raise ConfigError("fnn", f"fnn (d_in, d_y) = {(fnn.d_in, fnn.d_y)} != (d_x - 1, d_y) "
                                 f"= {(tp.d_x - 1, tp.d_y)}")
    pts = as_points(domain_grid, fnn.d_in)
    audit_pts = (domain_grid.refined().points()
                 if isinstance(domain_grid, Grid) else pts)

    if fnn.activation.kind == "exp":
        shift_budget = epsilon / 2.0
        if shift_budget == 0.0:
            raise EpsilonRangeError(f"epsilon {epsilon!r} halved for the exp lift underflows to 0")
        net = exp_to_softmax_fnn(fnn, pts, shift_budget)
    else:
        net = fnn
        shift_budget = epsilon

    s = _softmax_shift(tp, net, pts, shift_budget)
    result = _embed_softmax_net(tp, net, s)

    gap = np.abs(readout_batch(tp, result, audit_pts, SOFTMAX)
                 - fnn_forward_batch(fnn, audit_pts))
    measured = float(np.max(gap))

    # Closed-form chain: max||net|| * max e^{t(x) - s}, corrected by the net's
    # minimum normalizer when it can drop below 1 (never for lifted nets).
    t_vals, net_max, z, log_den = _shift_terms(tp, net, audit_pts)
    den_floor = min(1.0, float(np.exp(np.min(log_den))))
    bound = net_max * float(np.max(np.exp(t_vals - s))) / den_floor
    if fnn.activation.kind == "exp":
        # Lift stage adds its own bound: max||src|| * max sum_j e^{w_j.x+b'_j}.
        src_max = float(np.max(np.abs(fnn_forward_batch(fnn, audit_pts))))
        bound += src_max * float(np.max(np.sum(np.exp(z[:, :-1]), axis=1)))

    return EmbeddingResult(result.X, result.Y, s, measured, closed_form_bound=bound)
