"""Finite vocabularies, positional-encoding enumerators, and density audits.

Positional encodings are deterministic functions of the index j with zero
y component.  The Calkin-Wilf lattice drives exact integer arithmetic
(Stern's diatomic sequence) up to the single float division at the output,
so encodings are bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import MAX_ARRAY_LENGTH, ConfigError, DimensionError, EmptyGridError, require_count
from .grids import Grid

SQRT2 = math.sqrt(2.0)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


# --------------------------------------------------------------------------
# Calkin-Wilf enumeration


def _fusc_array(idx: np.ndarray) -> np.ndarray:
    """Stern's diatomic sequence, vectorized (idx >= 0, int64)."""
    idx = np.asarray(idx, dtype=np.int64)
    a = np.ones_like(idx)
    b = np.zeros_like(idx)
    nbits = int(idx.max()).bit_length() if idx.size else 0
    for bit in range(nbits):
        is_one = (idx >> bit) & 1 == 1
        b = np.where(is_one, b + a, b)
        a = np.where(is_one, a, a + b)
    return np.where(idx == 0, 0, b)


def fusc(n: int) -> int:
    """Stern's diatomic sequence via exact integer arithmetic."""
    if n < 0:
        raise ValueError("fusc is defined for n >= 0")
    a, b = 1, 0
    while n:
        if n & 1:
            b += a
        else:
            a += b
        n >>= 1
    return b


def calkin_wilf_rational(i: int) -> tuple[int, int]:
    """i-th positive rational of the Calkin-Wilf sequence, in lowest terms.

    Matches the iteration q_{n+1} = 1 / (2*floor(q_n) - q_n + 1), q_1 = 1;
    adjacent diatomic values are coprime, so (fusc(i), fusc(i+1)) is already
    reduced.  Every positive rational appears exactly once.
    """
    if i < 1:
        raise ValueError("index must be >= 1")
    return fusc(i), fusc(i + 1)


# --------------------------------------------------------------------------
# schemes


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError(f"box bounds must be finite, got lo={lo}, hi={hi}")
        if len(lo) != len(hi) or any(h <= l for l, h in zip(lo, hi)):
            raise DimensionError("box needs hi > lo componentwise")
        span = tuple(h - l for l, h in zip(lo, hi))
        if not all(math.isfinite(v) for v in span):
            raise ValueError(f"box span hi - lo must be finite, got {span}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def to_json_dict(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True)
class PeScheme:
    """Indexed positional-encoding enumerator with a declared density target.

    ``kind`` is one of calkin_wilf_lattice / dyadic_lattice /
    irrational_rotation / custom.  ``region`` is the box the scheme is dense
    in; for the Calkin-Wilf lattice the image is dense in all of R^{d_x} and
    ``region`` records the unit cell of interest.  P_y is identically zero:
    a scheme encodes only the x part of a position.
    """

    kind: str
    region: Box
    params: dict = field(default_factory=dict)
    generator: Callable[[int, int], np.ndarray] | None = field(default=None, compare=False)

    _KINDS = ("calkin_wilf_lattice", "dyadic_lattice", "irrational_rotation", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "custom" and self.generator is None:
            raise ValueError("custom scheme needs a generator(j_start, count) -> array")

    @property
    def d_x(self) -> int:
        return self.region.dim

    def to_json_dict(self) -> dict:
        if self.kind == "custom":
            raise TypeError("custom schemes are not serializable")
        return {"kind": self.kind, "region": self.region.to_json_dict(),
                "params": dict(self.params)}

    @staticmethod
    def from_json_dict(doc: dict) -> "PeScheme":
        region = Box(tuple(doc["region"]["lo"]), tuple(doc["region"]["hi"]))
        return PeScheme(doc["kind"], region, dict(doc.get("params", {})))


def calkin_wilf_lattice(d_x: int, scale: float = 1.0) -> PeScheme:
    """Signed, scale-shelled Calkin-Wilf tuples, bit-interleaved across dims.

    Index j-1 is Morton-split into d_x unsigned streams.  Each stream value u
    decodes to a sign bit, a 2-bit scale shell e in {0, -1, 1, -2},
    and a Calkin-Wilf index i = 3m + 1; the coordinate is
    sign * cw(i) * 2^e * scale.  Indices i = 3m + 1 enumerate exactly the
    odd/odd coprime rationals (Stern's sequence is even iff the index is
    divisible by 3), and every nonzero rational is uniquely odd/odd times a
    power of two, so the encoding is injective.  The scale shells put every
    magnitude within reach of small tree depths; the image is dense in
    R^{d_x}.
    """
    region = Box((-scale,) * d_x, (scale,) * d_x)
    return PeScheme("calkin_wilf_lattice", region, {"scale": float(scale)})


def dyadic_lattice(box: Box) -> PeScheme:
    """Interior dyadic grids of the box, completed shell by shell.

    Level m holds the tuples of {lo + t (hi-lo) / 2^m, t = 1..2^m - 1} with at
    least one odd t; completing level m halves the covering radius.
    """
    return PeScheme("dyadic_lattice", box)


def irrational_rotation(box: Box, primes: tuple = None) -> PeScheme:
    """j -> frac(j * gamma) mapped affinely into the box.

    gamma is a vector of square roots of distinct primes, so the orbit is
    equidistributed in the box (a Kronecker low-discrepancy sequence).
    """
    d = box.dim
    primes = tuple(primes) if primes is not None else _PRIMES[:d]
    if len(primes) != d or len(set(primes)) != d:
        raise ValueError("need one distinct prime per dimension")
    return PeScheme("irrational_rotation", box, {"primes": list(primes)})


def custom_scheme(generator: Callable[[int, int], np.ndarray], box: Box) -> PeScheme:
    return PeScheme("custom", box, generator=generator)


# --------------------------------------------------------------------------
# enumerator engines


def _morton_split(t: np.ndarray, d: int) -> np.ndarray:
    """De-interleave bits of t (int64 >= 0) into d streams; returns (d, N)."""
    t = np.asarray(t, dtype=np.int64)
    out = np.zeros((d, t.shape[0]), dtype=np.int64)
    nbits = int(t.max()).bit_length() if t.size else 0
    for bit in range(nbits):
        out[bit % d] |= ((t >> bit) & 1) << (bit // d)
    return out


@functools.lru_cache(maxsize=16)
def _morton_spread(d: int) -> np.ndarray:
    """Read-only table of the 256 byte values b with bit i of b moved to bit
    i*d; bits that would pass bit 62 are dropped, as no offset holds them."""
    b = np.arange(256, dtype=np.int64)
    table = np.zeros(256, dtype=np.int64)
    for i in range(min(8, 62 // d + 1)):
        table |= ((b >> i) & 1) << (i * d)
    table.setflags(write=False)
    return table


def _morton_offset(s: np.ndarray, d: int, k: int) -> np.ndarray:
    """The index bits that value s of stream k (of d) contributes: bit i of s
    becomes index bit i*d + k.  An index is the sum of its streams' offsets.

    One table lookup per byte of s, for the values of stream k below
    ``_morton_stream_bounds(2^62 - 1, d)[k]``, whose offsets fit int64."""
    s = np.asarray(s, dtype=np.int64)
    spread = _morton_spread(d)
    out = spread[s & 255]
    nbytes = -(-int(s.max()).bit_length() // 8) if s.size else 0
    for byte in range(1, nbytes):
        out |= spread[(s >> (8 * byte)) & 255] << (8 * byte * d)
    return out << k


def _morton_stream_bounds(t_last: int, d: int) -> list[int]:
    """Per stream, 2^n for the n index bits below bit_length(t_last) it owns: every
    index <= t_last has stream values below these, and every value below them
    has an offset below 2^bit_length(t_last), so offsets stay in int64."""
    b = int(t_last).bit_length()
    return [1 << max(0, -(-(b - k) // d)) for k in range(d)]


def _morton_levels(t_last: int, d: int):
    """Yields (L, t_lo, t_hi) for the levels that meet the indices [0, t_last].

    Level L holds the indices below 2^(d L) that no earlier level holds; an
    index is below 2^(d L) exactly when its d streams are all below 2^L.  So
    level order is index order, and [t_lo, t_hi) is the level's part of the
    range.
    """
    for level in range(-(-int(t_last).bit_length() // d) + 1):
        t_lo = 1 << (d * (level - 1)) if level else 0
        yield level, t_lo, min(t_last + 1, 1 << (d * level))


# sign * 2^e for the low three bits of a stream value: bit 0 the sign, bits
# 1-2 the shell e in (0, -1, 1, -2); both factors are exact, so one product
# has the bits of the two
_CW_SIGNED_SHELLS = np.array([1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 0.25, -0.25])


def _cw_stream_coords(scheme: PeScheme, streams: np.ndarray) -> np.ndarray:
    """Coordinate of each stream value under a Calkin-Wilf scheme (elementwise,
    any shape).

    Every dimension decodes its stream the same way, so coordinate k of
    P(j) is this value at stream k of ``_morton_split(j - 1)``, bit for bit
    equal to ``pe_block``.
    """
    streams = np.asarray(streams, dtype=np.int64)
    m = streams >> 3
    if streams.ndim == 1 and streams.size and np.all(np.diff(streams) == 1):
        # a contiguous range: eight consecutive values share each m, so each
        # distinct m is decoded once and its ratio gathered
        ratio = _cw_ratio(np.arange(m[0], m[-1] + 1))[m - m[0]]
    else:
        ratio = _cw_ratio(m)
    scale = float(scheme.params.get("scale", 1.0))
    return ratio * _CW_SIGNED_SHELLS[streams & 7] * scale


def _cw_ratio(m: np.ndarray) -> np.ndarray:
    """cw(3m + 1) = fusc(3m + 1) / fusc(3m + 2), the odd/odd coprime
    Calkin-Wilf entries, as floats."""
    idx = 3 * m + 1
    num, den = _fusc_array(np.stack((idx, idx + 1)))
    return num / den


def _cw_chunk_bits(d: int) -> int:
    """Width L of the aligned index chunks _cw_block decodes separably (d | L)."""
    return d * max(1, 12 // d)


@functools.lru_cache(maxsize=16)
def _cw_low_split(d: int) -> np.ndarray:
    """Read-only Morton split of the offsets 0..2^L-1 inside one chunk; (d, 2^L)."""
    low = _morton_split(np.arange(1 << _cw_chunk_bits(d), dtype=np.int64), d)
    low.setflags(write=False)
    return low


def _cw_block(scheme: PeScheme, j_start: int, count: int) -> np.ndarray:
    """Calkin-Wilf encodings of j_start..j_start+count-1, one chunk at a time.

    Index bits at and above L only reach stream bits at and above L/d, so in
    an aligned 2^L chunk every stream is (chunk part) | (offset part) with the
    offset part below 2^(L/d).  Each coordinate is computed once per (chunk,
    dimension, offset part) by ``_cw_stream_coords`` and gathered through the
    cached offset split; every element goes through the same float operations
    on the same integers as a per-position decode, so the result is
    bit-identical.
    """
    d = scheme.d_x
    bits = _cw_chunk_bits(d)
    t0 = j_start - 1
    c0 = t0 >> bits
    c1 = (t0 + count - 1) >> bits
    # chunk c starts at index c << L, whose streams are those of c shifted by L/d
    high = _morton_split(np.arange(c0, c1 + 1, dtype=np.int64), d) << (bits // d)
    offsets = np.arange(1 << (bits // d), dtype=np.int64)
    coords = _cw_stream_coords(scheme, high[:, :, None] | offsets)  # (d, chunks, 2^(L/d))
    low = _cw_low_split(d)
    first = t0 - (c0 << bits)
    out = np.empty((d, count))
    for k in range(d):
        out[k] = coords[k][:, low[k]].ravel()[first:first + count]
    return out.T


_COUNT_CLAMP = (1 << 63) - 1   # int64 max: above every index, so a clamped count decides alike


def _dyadic_rows(box: Box, t: np.ndarray) -> np.ndarray:
    """Dyadic encodings of the indices t = j - 1 (int64), ranked in closed form.

    Level m holds the tuples of {1 .. n}^d, n = 2^m - 1, with at least one odd
    entry, in lexicographic order; its all-even tuples are those of the levels
    before it, so level m starts at index (2^(m-1) - 1)^d.  A tuple is
    unranked one coordinate at a time.  Until an odd entry appears the values
    (2i+1, 2i+2) take 2N - E indices: N = n^rest for the odd one and N - E,
    E = (n // 2)^rest, for the even one.  After it the rest is mixed radix.
    """
    d = box.dim
    t_max = int(t.max(initial=0))
    sizes = [2**m - 1 for m in range(1, 64)]                      # n of level m
    starts = [0] + [n**d for n in sizes if n**d <= t_max]
    sizes = sizes[:len(starts)]
    level = np.searchsorted(np.array(starts), t, side="right")     # m of each index
    r = t - np.array(starts)[level - 1]
    odd = np.zeros(t.shape, dtype=bool)
    tup = np.empty((d, t.size), dtype=np.int64)
    for k, rest in enumerate(range(d - 1, 0, -1)):
        big_n = np.array([min(n**rest, _COUNT_CLAMP) for n in sizes])[level - 1]
        pair = np.array([min(2 * n**rest - (n // 2)**rest, _COUNT_CLAMP)
                         for n in sizes])[level - 1]
        i, rr = np.divmod(r, pair)
        even = rr >= big_n
        tup[k] = 2 * i + 1 + even
        rr[even] -= big_n[even]
        if odd.any():
            digit, free = np.divmod(r, big_n)
            tup[k, odd] = digit[odd] + 1
            rr[odd] = free[odd]
        r = rr
        odd |= ~even
    tup[d - 1] = np.where(odd, r + 1, 2 * r + 1)                  # rest 0: N = E = 1
    lo = np.array(box.lo)
    width = np.array(box.hi) - lo
    scale = np.ldexp(1.0, level)
    out = np.empty((d, t.size))
    for k in range(d):
        out[k] = lo[k] + tup[k] * width[k] / scale
    return out.T


def pe_block(scheme: PeScheme, j_start: int, count: int) -> np.ndarray:
    """P_x(j) for j in [j_start, j_start + count); returns (count, d_x)."""
    if j_start < 1 or count < 1:
        raise ValueError("need j_start >= 1 and count >= 1")
    if scheme.kind == "calkin_wilf_lattice":
        return _cw_block(scheme, j_start, count)
    if scheme.kind == "custom":
        return np.asarray(scheme.generator(j_start, count), dtype=float).reshape(count, scheme.d_x)
    return pe_rows(scheme, np.arange(j_start, j_start + count, dtype=np.int64))


def pe_rows(scheme: PeScheme, positions) -> np.ndarray:
    """P_x(j) for each j in ``positions`` (any order); returns (len, d_x).

    The rows ``pe_block`` gives, bit for bit: every built-in scheme computes
    P(j) from j alone.  A Calkin-Wilf position decodes its own streams, where
    ``pe_block`` would decode the aligned chunk around it; a custom scheme
    takes one generator row per position.
    """
    positions = np.asarray(positions, dtype=np.int64).reshape(-1)
    if positions.size and positions.min() < 1:
        raise ValueError("positions must be >= 1")
    if scheme.kind == "calkin_wilf_lattice":
        return _cw_stream_coords(scheme, _morton_split(positions - 1, scheme.d_x)).T
    if scheme.kind == "dyadic_lattice":
        return _dyadic_rows(scheme.region, positions - 1)
    if scheme.kind == "irrational_rotation":
        gamma = np.sqrt(np.array(scheme.params["primes"], dtype=float))
        frac = np.mod(positions.astype(float)[:, None] * gamma, 1.0)
        lo = np.array(scheme.region.lo)
        hi = np.array(scheme.region.hi)
        return lo + frac * (hi - lo)
    rows = [pe_block(scheme, int(j), 1) for j in positions]
    return np.concatenate(rows) if rows else np.empty((0, scheme.d_x))


# --------------------------------------------------------------------------
# vocabulary


def standard_y_tokens(d_y: int) -> np.ndarray:
    """Vectors of {1, -1, sqrt2, 0}^{d_y} with at most one nonzero component."""
    tokens = [np.zeros(d_y)]
    for comp in range(d_y):
        for val in (1.0, -1.0, SQRT2):
            v = np.zeros(d_y)
            v[comp] = val
            tokens.append(v)
    return np.array(tokens)


def _grid_spec(v_x: np.ndarray) -> tuple | None:
    """(lo, hi, per_dim) when the (count, d) points ``v_x`` are, bit for bit,
    the C-order points of the grid over [v_x[0], v_x[-1]] with per_dim points
    per dimension; None otherwise."""
    count, d = v_x.shape
    per_dim = round(count ** (1 / d)) if d else 0
    if d == 0 or per_dim ** d != count or np.any(v_x[-1] < v_x[0]):
        return None
    try:
        g = Grid(v_x[0], v_x[-1], (per_dim,) * d)
    except ValueError:                         # a span past the float range
        return None                            # has no finite points to match
    return (g.lo, g.hi, per_dim) if g.points().tobytes() == v_x.tobytes() else None


@dataclass(frozen=True)
class Vocabulary:
    """Finite token sets V_x and V_y; every token is finite.

    ``x_grid_spec`` is the grid the points of V_x form, else None: it is
    (lo, hi, per_dim) when V_x is, bit for bit, the C-order points of
    ``Grid(V_x[0], V_x[-1], (per_dim,) * d)``.  It is derived from V_x, never
    given, and lets position scans locate the nearest x token in O(1); other
    vocabularies work through the exhaustive path.
    """

    v_x: np.ndarray
    v_y: np.ndarray
    x_grid_spec: tuple | None = field(init=False)

    def __post_init__(self):
        v_x = np.atleast_2d(np.asarray(self.v_x, dtype=float))
        v_y = np.atleast_2d(np.asarray(self.v_y, dtype=float))
        if v_x.shape[0] == 0 or v_y.shape[0] == 0:
            raise EmptyGridError("vocabulary sets must be non-empty")
        if not (np.all(np.isfinite(v_x)) and np.all(np.isfinite(v_y))):
            raise ValueError("vocabulary tokens must be finite")
        v_x.setflags(write=False)
        v_y.setflags(write=False)
        object.__setattr__(self, "v_x", v_x)
        object.__setattr__(self, "v_y", v_y)
        object.__setattr__(self, "x_grid_spec", _grid_spec(v_x))

    @property
    def d_x(self) -> int:
        return self.v_x.shape[1]

    @property
    def d_y(self) -> int:
        return self.v_y.shape[1]

    @property
    def x_extent(self) -> float:
        return float(np.max(np.abs(self.v_x)))

    def y_index_of(self, vec) -> int | None:
        """Bit-exact index of a y token, or None."""
        vec = np.asarray(vec, dtype=float)
        hits = np.where(np.all(self.v_y == vec, axis=1))[0]
        return int(hits[0]) if hits.size else None

    @staticmethod
    def x_grid(lo, hi, per_dim: int, d_y: int) -> "Vocabulary":
        """Regular grid V_x over [lo, hi] plus the standard V_y token set."""
        return Vocabulary(Grid(lo, hi, (per_dim,) * len(np.atleast_1d(lo))).points(),
                          standard_y_tokens(d_y))

    def to_json_dict(self) -> dict:
        """V_x as the grid it forms (None if none), size and SHA-256 of its
        points as row-major little-endian float64; V_y verbatim."""
        return {"x_grid_spec": list(self.x_grid_spec) if self.x_grid_spec else None,
                "v_x_count": self.v_x.shape[0],
                "v_x_sha256": hashlib.sha256(np.ascontiguousarray(self.v_x, dtype="<f8")).hexdigest(),
                "v_y": self.v_y.tolist()}


# --------------------------------------------------------------------------
# density audit


@dataclass(frozen=True)
class DensityProfile:
    """Covering radius r(n) of {x_i + P_x(j) : j <= n} over a probe grid."""

    ns: np.ndarray
    radii: np.ndarray


# (point, probe) pairs a density audit computes per chunk of positions
_DENSITY_PAIRS = 1 << 16


class _ProbeBoxes:
    """The probe grid of a density audit, and one box of probe indices per point.

    A probe's index along an axis is (coordinate - lo) / step.  The box of a point at
    radius r holds every index within r of it, widened to whole indices and by a margin
    far above the rounding of indices and probe coordinates: a superset of the probes
    within r, which is all it must be."""

    def __init__(self, region: Box, per_dim: int):
        grid = Grid(region.lo, region.hi, (per_dim,) * region.dim)
        self.axes = grid.axes()
        self.per_dim = per_dim
        self.lo = np.array(grid.lo)
        self.step = (np.array(grid.hi) - self.lo) / max(per_dim - 1, 1)
        self.extent = np.maximum(np.abs(self.lo), np.abs(grid.hi)) / self.step
        self.strides = per_dim ** np.arange(region.dim - 1, -1, -1)

    def box(self, r: float) -> tuple[np.ndarray, list[int]]:
        """Per axis, the reach of radius r in indices and the box side that holds it."""
        with np.errstate(over="ignore"):  # a radius past float range / step reaches all
            half = r / self.step
        reach = half + 2.0**-30 * (1 + 2 * half + self.per_dim + self.extent)
        return reach, [int(min(self.per_dim, np.floor(2 * h) + 3)) for h in reach]

    def pairs(self, pts: np.ndarray, reach: np.ndarray, sides: list[int]):
        """Flat probe index and sup-norm distance of each (point, box entry) pair of ``pts``
        (points, d), as two (points, box) arrays; a clipped box repeats its last index.
        A point whose index overflows has index inf, and at reach inf its box start
        inf - inf is NaN; ``fmax`` takes index 0 for it, where the full box starts."""
        with np.errstate(over="ignore", invalid="ignore"):
            first = np.floor((pts - self.lo) / self.step - reach)
        first = np.fmin(np.fmax(first, 0), self.per_dim - 1)
        flat, dist = np.zeros((len(pts), 1), dtype=np.intp), np.zeros((len(pts), 1))
        for t, side in enumerate(sides):
            at = np.minimum(first[:, t, None] + np.arange(side), self.per_dim - 1).astype(np.intp)
            dv = np.abs(pts[:, t, None] - self.axes[t][at])
            flat = (flat[:, :, None] + at[:, None, :] * self.strides[t]).reshape(len(pts), -1)
            dist = np.maximum(dist[:, :, None], dv[:, None, :]).reshape(len(pts), -1)
        return flat, dist


def _lowered(best: np.ndarray, seen: np.ndarray, flat, dist, r: float) -> int:
    """How many of the probes whose best distance is r the pairs lower below it.  Each hit
    writes its number into ``seen`` (scratch per probe); one number per probe stays."""
    hit = flat[dist < r]
    hit = hit[best[hit] == r]
    seen[hit] = order = np.arange(hit.size)
    return np.count_nonzero(seen[hit] == order)


def density_audit(vocab: Vocabulary, scheme: PeScheme, region: Box,
                  n_max: int, probe_per_dim: int = 64) -> DensityProfile:
    """Covering radius r(n) (sup-norm) for n = 1..n_max; non-increasing in n.

    Position n can lower a probe's best distance only where one of its points lies
    within r(n-1) of it, so a chunk of positions pairs each point with its own box at
    the radius before the chunk, as many as fit ``_DENSITY_PAIRS``.  As r(n) never
    increases, it is constant on a run of positions when some probe at r before the run
    is still at r after it; such a run is applied at once, and a run where r falls is
    halved until the fall sits at one position.  Every step is an exact min or max of the
    distances a dense probes-by-positions pass computes, so the radii are bit-identical."""
    require_count("n_max", n_max, 1)
    require_count("probe_per_dim", probe_per_dim, 1)
    if not region.dim == scheme.d_x == vocab.d_x:
        raise DimensionError(f"region, scheme and vocabulary dimensions disagree: "
                             f"{region.dim}, {scheme.d_x}, {vocab.d_x}")
    if probe_per_dim ** region.dim > MAX_ARRAY_LENGTH:
        raise ConfigError("probe_per_dim", f"probe_per_dim^{region.dim} probes are more than "
                                           f"numpy can index, {MAX_ARRAY_LENGTH}")
    boxes = _ProbeBoxes(region, probe_per_dim)
    tokens = len(vocab.v_x)
    best = np.full(probe_per_dim ** region.dim, np.inf)
    seen = np.empty(best.size, dtype=np.intp)
    radii = np.empty(n_max)
    r, at_r = np.inf, best.size               # r(n) and how many probes attain it
    done = 0
    while done < n_max:
        reach, sides = boxes.box(r)
        box = math.prod(sides)
        rows = min(n_max - done, max(1, _DENSITY_PAIRS // (tokens * box)))
        part = max(1, _DENSITY_PAIRS // box)  # tokens per pair block of one position
        points = pe_block(scheme, done + 1, rows)[:, None, :] + vocab.v_x   # (rows, tokens, d)
        if rows > 1:
            flat, dist = (m.reshape(rows, -1) for m in
                          boxes.pairs(points.reshape(rows * tokens, -1), reach, sides))
        runs = [(0, rows)]
        while runs:
            a, b = runs.pop()
            if b - a == 1:                    # one position, a block of its tokens at a time
                lowered = 0
                for pair_flat, pair_dist in ([(flat[a], dist[a])] if rows > 1 else (
                        boxes.pairs(points[0, s:s + part], reach, sides)
                        for s in range(0, tokens, part))):
                    lowered += _lowered(best, seen, pair_flat, pair_dist, r)
                    np.minimum.at(best, pair_flat, pair_dist)
                if lowered == at_r:           # r falls here: the new maximum
                    r = best.max()
                    lowered, at_r = 0, np.count_nonzero(best == r)
            else:
                lowered = _lowered(best, seen, flat[a:b], dist[a:b], r)
                if lowered == at_r:           # r falls in the run: halve it
                    runs += [((a + b) // 2, b), (a, (a + b) // 2)]
                    continue
                np.minimum.at(best, flat[a:b].ravel(), dist[a:b].ravel())
            at_r -= lowered
            radii[done + a:done + b] = r
        done += rows
    return DensityProfile(np.arange(1, n_max + 1), radii)
