"""Scalar Kronecker approximation: integer pairs (q, l) with q*sqrt(2) - l
approximating a real target modulo integers.

``kronecker_witnesses`` finds the smallest q for a whole list of targets in
one call: one fixed-point circle, one Euclid chain of sqrt2 on it, and a
first-hit descent that runs level by level over arrays of the open targets.
Every returned witness is re-verified in exact integer arithmetic, which
gives the correctly rounded error, since cancellation in q*sqrt(2) - l
destroys double precision once q is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import KroneckerCapExceeded

SQRT2 = math.sqrt(2.0)

# Fixed-point fraction bits beyond those of q_cap and of floor(1/epsilon):
# the circle then has more than 2^8 * (q_cap + 1) steps per epsilon, so the
# fixed-point error lets false candidates into about 2^-6 of the window at
# most, and the exact check rejects them.
_GUARD_BITS = 8
# At most this many fraction bits beyond those of q_cap, whatever epsilon:
# epsilon = 1e-300 at q_cap 10^7 then gets a chain of 58 levels, not 692.
_MAX_FRACTION_BITS = 64
# Circles up to this size run in int64 arrays, since every intermediate of
# the first-hit kernel stays below 3M < 2^62; larger ones in Python ints.
_INT64_CIRCLE = 1 << 60
# First bracket width 2^-p of the exact check; 128 bits settle errors down to
# about 2^-70 in one pass, and the bracket narrows by doubling p.
_CHECK_BITS = 128


def pell_denominators(limit: int) -> list[int]:
    """Continued-fraction denominators of sqrt(2): 1, 2, 5, 12, 29, 70, ..."""
    out = []
    a, b = 1, 2
    while a <= limit:
        out.append(a)
        a, b = b, 2 * b + a
    return out


def _verified_error(beta: float, q: int) -> tuple[int, float]:
    """(l, |beta - q*sqrt2 + l|) for q >= 1: l is the integer nearest to
    r = q*sqrt2 - beta, and the error is correctly rounded to a double.

    With beta = num/den exactly and s = isqrt(2 * q^2 * 4^p), r*den*2^p lies
    strictly between s*den - num*2^p and that plus den, since q*sqrt2 is
    irrational.  Rounding is monotone, so when both ends give the same
    nearest integer l and the same double l - r (int / int divides correctly
    rounded), r gives them too; otherwise p doubles.  Equal signed errors
    also keep l outside the bracket.  r is irrational, so the bracket
    settles.
    """
    num, den = float(beta).as_integer_ratio()
    p = _CHECK_BITS
    while True:
        scale = den << p
        lo = math.isqrt(2 * q * q << 2 * p) * den - (num << p)
        hi = lo + den
        l = (2 * lo + scale) // (2 * scale)
        err = (l * scale - lo) / scale
        if l == (2 * hi + scale) // (2 * scale) and err == (l * scale - hi) / scale:
            return l, abs(err)
        p *= 2


@dataclass(frozen=True)
class KroneckerWitness:
    """Integers q > 0 and l with |beta - q*sqrt(2) + l| < the requested epsilon."""

    beta: float
    q: int
    l: int
    achieved_error: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("q must be a positive integer")

    def to_json_dict(self) -> dict:
        return {"beta": self.beta, "q": self.q, "l": self.l,
                "achieved_error": self.achieved_error}


def _check_inputs(betas: list[float], epsilon: float, q_cap: int):
    """NaN passes plain ``<=`` comparisons, so test finiteness explicitly."""
    for beta in betas:
        if not math.isfinite(beta):
            raise ValueError(f"beta must be finite, got {beta!r}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if q_cap < 1:
        raise ValueError(f"q_cap must be >= 1, got {q_cap!r}")


def _chain(a: int, m: int) -> list[tuple[int, int]]:
    """Euclid chain of (a, m): the pairs (a_j, m_j // a_j) with a_0 = a mod m,
    m_0 = m, a_{j+1} = m_j mod a_j and m_{j+1} = a_j, while a_j > 0."""
    out = []
    a %= m
    while a:
        out.append((a, m // a))
        a, m = m % a, a
    return out


def _first_hits(chain: list[tuple[int, int]], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Entry by entry, the smallest x >= 0 with lo <= a*x mod m <= hi
    (0 <= lo <= hi < m), or -1; ``chain`` is ``_chain(a, m)``.

    Euclid-like descent: when [lo_j, hi_j] holds no multiple of a_j, the
    residue a_j*x - m_j*y lies in it exactly when a_{j+1}*y mod a_j lies in
    [-hi_j mod a_j, -lo_j mod a_j], the same problem one level down with
    the same width.  An entry stops at the first level whose window holds a
    multiple of a_j; below it its window is pinned to [0, width], which
    brings back x = 0.  The smallest solutions come back up by the residue
    recurrence x_j = c_j*x_{j+1} + x_{j+2} + t_j, s_j = a_j*t_j - s_{j+1}
    with t_j = ceil((lo_j + s_{j+1}) / a_j), where s_j = a_j*x_j - m_j*x_{j+1}
    is the level's residue, so every intermediate stays below 3m.  The
    arrays may be int64 or object (Python ints): the same code runs on both.
    """
    if not chain:                       # a = 0 mod m: only x = 0 is ever hit
        return np.where(lo == 0, 0, -1).astype(lo.dtype)
    width = hi - lo
    levels = []
    for a, c in chain:
        levels.append((a, c, lo))
        r = (lo + width) % a
        hit = r <= width                # the window holds a multiple of a
        if hit.all():
            break
        lo = np.where(hit, 0, a - r)
    x1 = x2 = s = np.zeros_like(lo)
    for a, c, lo in reversed(levels):
        t = -(-(lo + s) // a)
        x1, x2, s = c * x1 + x2 + t, x1, a * t - s
    x1[~hit] = -1                       # the chain ran out before these hit
    return x1


class _Circle(NamedTuple):
    """M = 2^bits fixed-point steps per turn, A = floor(sqrt2*M) mod M, the
    Euclid chain of (A, M), and the array dtype its arithmetic runs in."""

    m: int
    a: int
    chain: list[tuple[int, int]]
    dtype: type


def _circle(q_cap: int, fraction_bits: int) -> _Circle:
    m = 1 << (int(q_cap).bit_length() + fraction_bits)
    chain = _chain(math.isqrt(2 * m * m), m)
    return _Circle(m, chain[0][0], chain, np.int64 if m <= _INT64_CIRCLE else object)


def _center(beta: float, m: int) -> int:
    """round(beta*M) mod M, exactly."""
    num, den = float(beta).as_integer_ratio()
    return (2 * num * m + den) // (2 * den) % m


def _next_candidates(circle: _Circle, centers: np.ndarray, half: int,
                     after: np.ndarray) -> np.ndarray:
    """Entry by entry, the smallest q > after with q*A mod M within ``half``
    of the center on Z_M, or -1."""
    q = after + 1
    if 2 * half >= circle.m:            # every window covers Z_M
        return q
    # & (M - 1) is mod M, also after int64's wrapping products: M divides 2^64
    lo = (centers - half - q * circle.a) & (circle.m - 1)
    # a window that wraps past 0 holds q = after + 1 itself
    inside = lo + 2 * half < circle.m
    x = _first_hits(circle.chain, lo[inside], lo[inside] + 2 * half)
    q[inside] = np.where(x < 0, -1, q[inside] + x)
    return q


def kronecker_witnesses(betas: list[float], epsilon: float,
                        q_cap: int = 10**7) -> list[KroneckerWitness]:
    """For each beta, the smallest q <= q_cap admitting an l with
    |beta - q*sqrt2 + l| < epsilon.

    In fixed point with M = 2^bits, A = floor(sqrt2*M) and B = round(beta*M),
    q*sqrt2 - beta differs from (q*A - B)/M by less than (q_cap + 1)/M, so
    every witness q has q*A mod M within epsilon*M + q_cap + 1 of B.  The
    candidates are the q with q*A mod M within epsilon*M + 2*(q_cap + 1) of
    B (twice the slack needed), so they hold every witness whatever M is;
    bits = bit length of q_cap + min(bit length of floor(1/epsilon) + 8, 64)
    keeps false candidates rare.  One pass finds every open beta's next
    candidate with ``_first_hits`` over the chain all betas share, and the
    exact check decides it; the betas it rejects go to the next pass.
    When some beta has no witness up to q_cap, ``KroneckerCapExceeded``
    names the first such beta in input order.  Existence for some cap
    follows from the scalar Kronecker approximation theorem (sqrt2
    irrational).
    """
    betas = [float(b) for b in betas]
    _check_inputs(betas, epsilon, q_cap)
    num, den = float(epsilon).as_integer_ratio()
    circle = _circle(q_cap, min((den // num).bit_length() + _GUARD_BITS, _MAX_FRACTION_BITS))
    half = -(-num * circle.m // den) + 2 * (q_cap + 1)  # ceil(epsilon*M) + slack
    centers = np.array([_center(b, circle.m) for b in betas], circle.dtype)
    after = np.zeros(len(betas), circle.dtype)
    witnesses: list = [None] * len(betas)
    exhausted = []
    todo = np.arange(len(betas))
    while len(todo):
        rejected = []
        for i, q in zip(todo.tolist(), _next_candidates(circle, centers[todo], half,
                                                        after[todo]).tolist()):
            if not 0 < q <= q_cap:
                exhausted.append(i)
                continue
            l, err = _verified_error(betas[i], q)
            if err < epsilon:
                witnesses[i] = KroneckerWitness(betas[i], q, l, err)
            else:
                after[i] = q
                rejected.append(i)
        todo = np.array(rejected, np.intp)
    if exhausted:
        beta = betas[min(exhausted)]
        best_q, best_err = _closest_up_to(beta, q_cap)
        raise KroneckerCapExceeded(beta, float(epsilon), q_cap, best_q, best_err)
    return witnesses


def kronecker_search(beta: float, epsilon: float, q_cap: int = 10**7) -> KroneckerWitness:
    """Smallest q <= q_cap admitting an l with |beta - q*sqrt2 + l| < epsilon:
    ``kronecker_witnesses`` on the one beta."""
    return kronecker_witnesses([beta], epsilon, q_cap)[0]


def _closest_up_to(beta: float, q_cap: int) -> tuple[int, float]:
    """(q, exact error) of the first q <= q_cap that reaches the least error.

    On the circle of 64 fraction bits, bisection on the window's half-width
    finds the least fixed-point distance d over q <= q_cap, each step one
    ``_first_hits`` call on one entry; every q of least true error lies
    within d + slack, and the exact check decides among those few candidates.
    """
    circle = _circle(q_cap, _MAX_FRACTION_BITS)
    center = np.array([_center(beta, circle.m)], circle.dtype)

    def first_after(half: int, after: int) -> int:
        return _next_candidates(circle, center, half, np.array([after], circle.dtype))[0]

    lo, hi = 0, circle.m // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if 0 < first_after(mid, 0) <= q_cap:
            hi = mid
        else:
            lo = mid + 1
    best = []
    q = first_after(lo + 2 * (q_cap + 1), 0)
    while 0 < q <= q_cap:
        best.append((_verified_error(beta, q)[1], q))
        q = first_after(lo + 2 * (q_cap + 1), q)
    best_err, best_q = min(best)
    return best_q, best_err


@dataclass(frozen=True)
class TokenDecomposition:
    """Token counts realizing a ~= q*sqrt(2) + sign*l with q, l >= 0.

    q counts sqrt2 tokens and l counts unit tokens of the given sign; negative
    targets are reached with -1 tokens (the vocabulary carries +sqrt2, +1, -1).
    """

    target: float
    count_sqrt2: int
    count_unit: int
    unit_sign: int
    achieved_error: float

    def __post_init__(self):
        if self.count_sqrt2 < 0 or self.count_unit < 0:
            raise ValueError("token counts must be non-negative")
        if self.unit_sign not in (-1, 1):
            raise ValueError("unit_sign must be +1 or -1")

    @property
    def value(self) -> float:
        return self.count_sqrt2 * SQRT2 + self.unit_sign * self.count_unit

    @property
    def token_count(self) -> int:
        return self.count_sqrt2 + self.count_unit

    def to_json_dict(self) -> dict:
        return {"target": self.target, "count_sqrt2": self.count_sqrt2,
                "count_unit": self.count_unit, "unit_sign": self.unit_sign,
                "achieved_error": self.achieved_error}


def coefficient_decompose(a: float, epsilon: float, q_cap: int = 10**7) -> TokenDecomposition:
    """Cheapest-q token decomposition of a real coefficient.

    Returns the smallest q >= 0 whose integer remainder satisfies
    |a - (q*sqrt2 + sign*l)| < epsilon.  q = 0 covers (near-)integer
    coefficients, which need no sqrt2 tokens at all.
    """
    _check_inputs([a], epsilon, q_cap)
    a = float(a)
    l0 = round(a)               # ties to even; a - l0 is exact in floats
    err0 = abs(a - l0)
    if err0 < epsilon:
        sign = 1 if l0 >= 0 else -1
        return TokenDecomposition(a, 0, abs(l0), sign, err0)
    wit = kronecker_search(a, epsilon, q_cap)
    # the witness gives a ~= q*sqrt2 - l, i.e. sign = -sign(l) in q*sqrt2 + s*l
    sign = 1 if wit.l <= 0 else -1
    return TokenDecomposition(a, wit.q, abs(wit.l), sign, wit.achieved_error)
