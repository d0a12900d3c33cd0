"""Exponential finite-difference networks: the dense-in-a-ball route.

A polynomial times ``e^{w*.x}`` is a finite combination of exponentials
``e^{(w* + lam beta).x}`` through forward-difference stencils, so an exp
network whose weight rows all lie in a small ball around ``w*`` approximates
it.  ``fit_polynomial`` fits the polynomial factor of a damped target and
``build_exp_fd_network`` turns its coefficients into that network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .errors import DimensionError
from .fnn import EXP, FnnParams


def build_exp_fd_network(poly_coeffs: dict, w_star, delta: float,
                         lam: float) -> FnnParams:
    """Exp network with zero biases approximating P(x) e^{w*.x}.

    Each monomial coefficient c_alpha contributes the forward-difference
    stencil sum_{beta <= alpha} (-1)^{|alpha - beta|} C(alpha, beta)
    h(w* + lam beta) / lam^{|alpha|}; rows coincide across stencils and are
    merged, so all weight rows lie in the ball B(w*, |alpha|_max * lam) inside
    B(w*, delta).  The grid error against P(x) e^{w*.x} is O(lam).
    """
    w_star = np.atleast_1d(np.asarray(w_star, dtype=float))
    d = w_star.shape[0]
    if not poly_coeffs:
        raise ValueError("empty polynomial")
    alphas = [tuple(int(t) for t in a) for a in poly_coeffs]
    if any(len(a) != d or min(a) < 0 for a in alphas):
        raise DimensionError("multi-indices must be non-negative and match w_star")
    alpha_max = max(sum(a) for a in alphas)
    if lam <= 0 or lam * max(alpha_max, 1) >= delta:
        raise ValueError(f"need 0 < lam < delta/|alpha|_max = {delta / max(alpha_max, 1):g}")

    weights: dict[tuple, float] = {}
    for alpha, c in poly_coeffs.items():
        alpha = tuple(int(t) for t in alpha)
        order = sum(alpha)
        for beta in iter_product(*(range(t + 1) for t in alpha)):
            w = float(c) * lam ** (-order)
            for at, bt in zip(alpha, beta):
                w *= (-1.0) ** (at - bt) * math.comb(at, bt)
            weights[beta] = weights.get(beta, 0.0) + w

    betas = sorted(weights)
    W = np.array([w_star + lam * np.array(b, dtype=float) for b in betas])
    if float(np.max(np.abs(W - w_star))) >= delta:
        raise ValueError("stencil rows left the ball B(w_star, delta)")
    A = np.array([[weights[b] for b in betas]])
    return FnnParams(A, W, np.zeros(len(betas)), EXP)


@dataclass(frozen=True)
class PolyFit:
    coeffs: dict
    residual: float
    degree: int

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for alpha, c in self.coeffs.items():
            term = np.full(pts.shape[0], c)
            for t, power in enumerate(alpha):
                if power:
                    term = term * pts[:, t] ** power
            out += term
        return out


def _leg2mono(degree: int) -> np.ndarray:
    """Columns: monomial coefficients of Legendre P_0..P_degree."""
    m = np.zeros((degree + 1, degree + 1))
    for p in range(degree + 1):
        c = np.polynomial.legendre.leg2poly(np.eye(degree + 1)[p])
        m[:c.size, p] = c
    return m


def _affine_subst(degree: int, center: float, half: float) -> np.ndarray:
    """Matrix taking z-monomials to x-monomials under z = (x - center)/half."""
    s = np.zeros((degree + 1, degree + 1))
    for p in range(degree + 1):
        for mth in range(p + 1):
            s[mth, p] = math.comb(p, mth) * (-center) ** (p - mth) / half ** p
    return s


def fit_polynomial(points, damped_values, degree: int) -> PolyFit:
    """Least-squares total-degree polynomial fit of samples of f(x) e^{-w*.x}.

    The design matrix uses a tensor-Legendre basis on the affinely normalized
    box (well conditioned); the returned coefficients are raw monomials in the
    original coordinates.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(damped_values, dtype=float).ravel()
    if pts.shape[0] != vals.shape[0]:
        raise DimensionError("points and values disagree in length")
    d = pts.shape[1]
    alphas = [a for a in iter_product(*([range(degree + 1)] * d)) if sum(a) <= degree]
    if pts.shape[0] < len(alphas):
        raise ValueError(f"need at least {len(alphas)} samples for degree {degree}")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = (lo + hi) / 2.0
    half = np.maximum((hi - lo) / 2.0, 1e-12)
    z = (pts - center) / half

    legs = [np.polynomial.legendre.legvander(z[:, t], degree) for t in range(d)]
    design = np.column_stack([
        np.prod([legs[t][:, a[t]] for t in range(d)], axis=0) for a in alphas])
    c_leg, *_ = np.linalg.lstsq(design, vals, rcond=None)

    tensor = np.zeros((degree + 1,) * d)
    for a, c in zip(alphas, c_leg):
        tensor[a] = c
    for t in range(d):
        # convert axis t: Legendre -> z-monomials, then z -> x monomials
        mono = _affine_subst(degree, center[t], half[t]) @ _leg2mono(degree)
        tensor = np.moveaxis(np.tensordot(mono, tensor, axes=(1, t)), 0, t)

    coeffs = {a: float(tensor[a])
              for a in iter_product(*([range(degree + 1)] * d)) if tensor[a] != 0.0}
    fitted = PolyFit(coeffs, 0.0, degree)
    residual = float(np.max(np.abs(fitted(pts) - vals)))
    return PolyFit(coeffs, residual, degree)
