"""Single-layer masked attention and its block-partition readouts.

The attention map is ``V Z M sigma((QZ)^T K Z)`` with mask M = diag(I_n, 0);
the readout is the y-block of the final (query) column of ``Z + Attn(Z)``.
Under the sparse partition (Q = [[B,0],[0,0]], K = [[C,0],[0,0]],
V = [[D,E],[F,U]]) the readout collapses to ``(F X + U Y) sigma(X^T B^T C x~)``
for element-wise activations; a general Q^T K block decomposition
(O11, O12, O21, O22) adds ``Y^T O21 x~`` to the scores.  ``readout_batch`` is
the one readout kernel; ``attention_forward`` is the full-matrix reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import check_condition
from .errors import DimensionError
from .fnn import Activation
from .grids import as_points, lifted


@dataclass(frozen=True)
class GeneralBlocks:
    """Direct Q^T K block decomposition (score path ignores B and C)."""

    O11: np.ndarray
    O12: np.ndarray
    O21: np.ndarray
    O22: np.ndarray

    def __post_init__(self):
        for name in ("O11", "O12", "O21", "O22"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        d_x = self.O11.shape[0]
        d_y = self.O22.shape[0]
        ok = (self.O11.shape == (d_x, d_x) and self.O12.shape == (d_x, d_y)
              and self.O21.shape == (d_y, d_x) and self.O22.shape == (d_y, d_y))
        if not ok:
            raise DimensionError("inconsistent O-block shapes")


@dataclass(frozen=True)
class TransformerParams:
    """Q, K, V assembled from the sparse block partition (B, C, D, E, F, U).

    B, C and U must pass the conditioning check (threshold 1e12, the numerical
    proxy for non-singularity).  F may be nonzero; strict sparse mode sets it
    to 0.  When ``general`` is present it defines Q^T K directly and B, C are
    ignored on the attention-score path.
    """

    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    U: np.ndarray
    general: GeneralBlocks | None = None

    def __post_init__(self):
        mats = {}
        for name in ("B", "C", "D", "E", "F", "U"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            arr.setflags(write=False)
            mats[name] = arr
            object.__setattr__(self, name, arr)
        d_x, d_y = mats["B"].shape[0], mats["U"].shape[0]
        expected = {"B": (d_x, d_x), "C": (d_x, d_x), "D": (d_x, d_x),
                    "E": (d_x, d_y), "F": (d_y, d_x), "U": (d_y, d_y)}
        for name, shape in expected.items():
            if mats[name].shape != shape:
                raise DimensionError(f"block {name} has shape {mats[name].shape}, expected {shape}")
        for name in ("B", "C", "U"):
            check_condition(mats[name], name)
        if self.general is not None:
            if self.general.O11.shape != (d_x, d_x) or self.general.O22.shape != (d_y, d_y):
                raise DimensionError("general blocks disagree with (d_x, d_y)")

    @property
    def d_x(self) -> int:
        return self.B.shape[0]

    @property
    def d_y(self) -> int:
        return self.U.shape[0]

    @property
    def is_sparse_mode(self) -> bool:
        return self.general is None

    @property
    def Q(self) -> np.ndarray:
        d = self.d_x + self.d_y
        q = np.zeros((d, d))
        q[:self.d_x, :self.d_x] = self.B
        return q

    @property
    def K(self) -> np.ndarray:
        d = self.d_x + self.d_y
        k = np.zeros((d, d))
        k[:self.d_x, :self.d_x] = self.C
        return k

    @property
    def V(self) -> np.ndarray:
        return np.block([[self.D, self.E], [self.F, self.U]])

    def qtk(self) -> np.ndarray:
        """Q^T K as a full matrix (general blocks take precedence)."""
        d = self.d_x + self.d_y
        if self.general is not None:
            g = self.general
            return np.block([[g.O11, g.O12], [g.O21, g.O22]])
        m = np.zeros((d, d))
        m[:self.d_x, :self.d_x] = self.B.T @ self.C
        return m

    def to_json_dict(self) -> dict:
        doc = {name: getattr(self, name).tolist() for name in ("B", "C", "D", "E", "F", "U")}
        if self.general is None:
            doc["general"] = None
        else:
            doc["general"] = {n: getattr(self.general, n).tolist()
                              for n in ("O11", "O12", "O21", "O22")}
        return doc

    @staticmethod
    def from_json_dict(doc: dict) -> "TransformerParams":
        general = None
        if doc.get("general") is not None:
            g = doc["general"]
            general = GeneralBlocks(*(np.array(g[n], dtype=float)
                                      for n in ("O11", "O12", "O21", "O22")))
        return TransformerParams(*(np.array(doc[n], dtype=float)
                                   for n in ("B", "C", "D", "E", "F", "U")),
                                 general=general)


def random_sparse_params(seed: int, d_x: int, d_y: int) -> TransformerParams:
    """Seeded well-conditioned sparse-partition parameters (F = 0).

    B, C, U are built as Q R-orthogonal factors times diagonals in [0.6, 1.6],
    so their condition numbers stay small by construction.
    """
    rng = np.random.default_rng(seed)

    def well_conditioned(n):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return q @ np.diag(rng.uniform(0.6, 1.6, size=n))

    B, C = well_conditioned(d_x), well_conditioned(d_x)
    U = well_conditioned(d_y)
    D = rng.standard_normal((d_x, d_x))
    E = rng.standard_normal((d_x, d_y))
    return TransformerParams(B, C, D, E, np.zeros((d_y, d_x)), U)


def identity_sparse_params(d_x: int, d_y: int) -> TransformerParams:
    return TransformerParams(np.eye(d_x), np.eye(d_x), np.zeros((d_x, d_x)),
                             np.zeros((d_x, d_y)), np.zeros((d_y, d_x)), np.eye(d_y))


# --------------------------------------------------------------------------
# input assembly


@dataclass(frozen=True)
class InputAssembly:
    """Demonstration matrices plus the query, assembled as Z = [[X, x~],[Y, 0]].

    The query is passed raw (length d_x - 1); the assembly appends the final 1
    itself so callers never hand-build x~, and the query column's y slot is
    structurally zero (there is no way to set it).
    """

    X: np.ndarray
    Y: np.ndarray
    query: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        q = np.atleast_1d(np.asarray(self.query, dtype=float))
        if X.shape[1] != Y.shape[1]:
            raise DimensionError(f"X has {X.shape[1]} columns but Y has {Y.shape[1]}")
        if X.shape[1] < 1:
            raise DimensionError("empty context (n = 0)")
        if q.shape[0] != X.shape[0] - 1:
            raise DimensionError(
                f"query has length {q.shape[0]}, expected d_x - 1 = {X.shape[0] - 1}"
            )
        for arr in (X, Y, q):
            arr.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "query", q)

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def d_x(self) -> int:
        return self.X.shape[0]

    @property
    def d_y(self) -> int:
        return self.Y.shape[0]

    @property
    def x_tilde(self) -> np.ndarray:
        return np.concatenate([self.query, [1.0]])

    def Z(self) -> np.ndarray:
        d_x, d_y, n = self.d_x, self.d_y, self.n
        z = np.zeros((d_x + d_y, n + 1))
        z[:d_x, :n] = self.X
        z[d_x:, :n] = self.Y
        z[:d_x, n] = self.x_tilde
        return z


# --------------------------------------------------------------------------
# forward passes


def softmax_columns(scores: np.ndarray) -> np.ndarray:
    """Column softmax (normalizes over the first index), log-sum-exp shifted."""
    shifted = scores - np.max(scores, axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=0, keepdims=True)


def attention_forward(tp: TransformerParams, Z: np.ndarray,
                      activation: Activation) -> np.ndarray:
    """V Z M sigma((QZ)^T K Z) over the full (d_x+d_y) x (n+1) input."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    d = tp.d_x + tp.d_y
    if Z.shape[0] != d:
        raise DimensionError(f"Z has {Z.shape[0]} rows, expected {d}")
    n = Z.shape[1] - 1
    if n < 1:
        raise DimensionError("empty context (n = 0)")
    if tp.general is None:
        scores = (tp.Q @ Z).T @ (tp.K @ Z)
    else:
        scores = Z.T @ tp.qtk() @ Z
    sig = softmax_columns(scores) if activation.kind == "softmax" else activation(scores)
    zm = Z.copy()
    zm[:, n] = 0.0  # mask column n+1
    return tp.V @ zm @ sig


def readout_batch(tp: TransformerParams, ctx, points,
                  activation: Activation) -> np.ndarray:
    """y-block of the query column of Z + Attn(Z) at a batch of raw queries; (N, d_y).

    ``ctx`` is anything with context matrices ``.X`` (d_x, n) and ``.Y`` (d_y,
    n); an ``InputAssembly``'s own query is ``asm.query[None, :]``.  Softmax
    stacks the query self-score under the context scores: its weight is
    masked out of the sum but kept in the normalizer.
    """
    if ctx.X.shape[0] != tp.d_x or ctx.Y.shape[0] != tp.d_y:
        raise DimensionError(f"context (d_x, d_y) = {(ctx.X.shape[0], ctx.Y.shape[0])} "
                             f"disagrees with parameters {(tp.d_x, tp.d_y)}")
    pts = as_points(points, tp.d_x - 1)
    x_t = lifted(pts)                                    # (N, d_x)
    qk = tp.B.T @ tp.C if tp.general is None else tp.general.O11
    scores = ctx.X.T @ qk @ x_t.T                        # (n, N)
    if tp.general is not None:
        scores = scores + ctx.Y.T @ tp.general.O21 @ x_t.T
    values = tp.F @ ctx.X + tp.U @ ctx.Y                 # (d_y, n)
    if activation.kind == "softmax":
        self_scores = np.einsum("ni,ij,nj->n", x_t, qk, x_t)
        stacked = np.vstack([scores, self_scores[None, :]])
        weights = softmax_columns(stacked)
        return (values @ weights[:-1]).T
    return (values @ activation(scores)).T
