"""Scalar Kronecker approximation: integer pairs (q, l) with q*sqrt(2) - l
approximating a real target modulo integers.

Every returned witness is re-verified in exact integer arithmetic, which
gives the correctly rounded error, since cancellation in q*sqrt(2) - l
destroys double precision once q is large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import KroneckerCapExceeded

SQRT2 = math.sqrt(2.0)

# Fixed-point fraction bits beyond those of q_cap: the slack then widens the
# candidate window by at most 2^-62 of a turn, which holds q_cap * 2^-62
# extra q <= q_cap on average, so the exact check rarely rejects a candidate.
_GUARD_BITS = 64
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


def _check_inputs(beta: float, epsilon: float, q_cap: int):
    """NaN passes plain ``<=`` comparisons, so test finiteness explicitly."""
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if q_cap < 1:
        raise ValueError(f"q_cap must be >= 1, got {q_cap!r}")


def _first_hit(a: int, m: int, lo: int, hi: int) -> int | None:
    """Smallest x >= 0 with lo <= a*x mod m <= hi (0 <= lo <= hi < m), or None.

    Euclid-like descent: when [lo, hi] holds no multiple of a, a*x - m*y lies
    in it exactly when (m mod a)*y mod a lies in [-hi mod a, -lo mod a], the
    same problem one Euclid step smaller; the smallest such y gives the
    smallest x = ceil((lo + m*y) / a).  The descent takes O(log m) steps.
    """
    frames = []
    while lo > 0:
        a %= m
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        frames.append((a, m, lo))
        a, m, lo, hi = m % a, a, -hi % a, -lo % a
    else:
        x = 0
    for a, m, lo in reversed(frames):
        x = -(-(lo + m * x) // a)
    return x


def _next_candidate(a: int, m: int, center: int, half: int, after: int) -> int | None:
    """Smallest q > after with a*q mod m within ``half`` of ``center`` on Z_m."""
    lo = (center - half - (after + 1) * a) % m
    if lo + 2 * half >= m:
        # the shifted window wraps past 0 (or covers Z_m), so q = after + 1 is in it
        return after + 1
    x = _first_hit(a, m, lo, lo + 2 * half)
    return None if x is None else after + 1 + x


def _candidates(a: int, m: int, center: int, half: int, q_cap: int):
    """The q <= q_cap with a*q mod m within ``half`` of ``center``, in increasing order."""
    q = _next_candidate(a, m, center, half, 0)
    while q is not None and q <= q_cap:
        yield q
        q = _next_candidate(a, m, center, half, q)


def _fixed_point(beta: float, q_cap: int) -> tuple[int, int, int, int]:
    """(M, A, B, slack): the fixed-point circle, sqrt2 and beta on it, and twice
    the largest fixed-point error of q*A - B for q <= q_cap."""
    m = 1 << (int(q_cap).bit_length() + _GUARD_BITS)
    a = math.isqrt(2 * m * m)
    num, den = float(beta).as_integer_ratio()
    center = (2 * num * m + den) // (2 * den) % m      # round(beta*M), exactly
    return m, a, center, 2 * (q_cap + 1)


def kronecker_search(beta: float, epsilon: float, q_cap: int = 10**7) -> KroneckerWitness:
    """Smallest q <= q_cap admitting an l with |beta - q*sqrt2 + l| < epsilon.

    In fixed point with M = 2^bits, A = floor(sqrt2*M) and B = round(beta*M),
    q*sqrt2 - beta differs from (q*A - B)/M by less than (q_cap + 1)/M, so
    every witness q has q*A mod M within epsilon*M + q_cap + 1 of B.  The
    candidates are the q with q*A mod M within epsilon*M + 2*(q_cap + 1) of
    B (twice the slack needed); they are walked in increasing order with
    exact integer first-hit solves, and the first one whose exact error is
    below epsilon is returned.  Existence for some cap follows from the
    scalar Kronecker approximation theorem (sqrt2 irrational).
    """
    _check_inputs(beta, epsilon, q_cap)
    m, a, center, slack = _fixed_point(beta, q_cap)
    num, den = float(epsilon).as_integer_ratio()
    half = -(-num * m // den) + slack                   # ceil(epsilon*M) + slack
    for q in _candidates(a, m, center, half, q_cap):
        l, err = _verified_error(beta, q)
        if err < epsilon:
            return KroneckerWitness(float(beta), q, l, err)
    best_q, best_err = _closest_up_to(beta, q_cap)
    raise KroneckerCapExceeded(float(beta), float(epsilon), q_cap, best_q, best_err)


def _closest_up_to(beta: float, q_cap: int) -> tuple[int, float]:
    """(q, exact error) of the first q <= q_cap that reaches the least error.

    Bisection on the window's half-width finds the least fixed-point distance
    d over q <= q_cap; every q of least true error lies within d + slack, and
    the exact check decides among those few candidates.
    """
    m, a, center, slack = _fixed_point(beta, q_cap)
    lo, hi = 0, m // 2
    while lo < hi:
        mid = (lo + hi) // 2
        q = _next_candidate(a, m, center, mid, 0)
        if q is not None and q <= q_cap:
            hi = mid
        else:
            lo = mid + 1
    best_err, best_q = min((_verified_error(beta, q)[1], q)
                           for q in _candidates(a, m, center, lo + slack, q_cap))
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
    _check_inputs(a, epsilon, q_cap)
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
