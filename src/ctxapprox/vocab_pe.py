"""Finite vocabularies, positional-encoding enumerators, and density audits.

Positional encodings are deterministic functions of the index j with zero
y component.  The Calkin-Wilf lattice drives exact integer arithmetic
(Stern's diatomic sequence) up to the single float division at the output,
so encodings are bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, EmptyGridError
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


def _morton_offset(s: np.ndarray, d: int, k: int) -> np.ndarray:
    """The index bits that value s of stream k (of d) contributes: bit i of s
    becomes index bit i*d + k.  An index is the sum of its streams' offsets."""
    s = np.asarray(s, dtype=np.int64)
    out = np.zeros_like(s)
    nbits = int(s.max()).bit_length() if s.size else 0
    for bit in range(nbits):
        out |= ((s >> bit) & 1) << (bit * d + k)
    return out


def _morton_stream_bounds(t_last: int, d: int) -> list[int]:
    """Per stream, 2^n for the n index bits below bit_length(t_last) it owns: every
    index <= t_last has stream values below these, and every value below them
    has an offset below 2^bit_length(t_last), so offsets stay in int64."""
    b = int(t_last).bit_length()
    return [1 << max(0, -(-(b - k) // d)) for k in range(d)]


def _morton_levels(t_first: int, t_last: int, d: int):
    """Yields (L, t_lo, t_hi) for the levels that meet the indices [t_first, t_last].

    Level L holds the indices below 2^(d L) that no earlier level holds; an
    index is below 2^(d L) exactly when its d streams are all below 2^L.  So
    level order is index order, and [t_lo, t_hi) is the level's part of the
    range.
    """
    first, last = (-(-int(t).bit_length() // d) for t in (t_first, t_last))
    for level in range(first, last + 1):
        t_lo = max(t_first, 1 << (d * (level - 1)) if level else 0)
        yield level, t_lo, min(t_last + 1, 1 << (d * level))


_CW_SHELL_EXPONENTS = np.array([0, -1, 1, -2], dtype=np.int64)


def _cw_coords(streams: np.ndarray, scale: float) -> np.ndarray:
    """Coordinate of each stream value (elementwise, any shape)."""
    signs = np.where(streams & 1 == 1, -1.0, 1.0)
    exponent = _CW_SHELL_EXPONENTS[(streams >> 1) & 3]
    idx = 3 * (streams >> 3) + 1          # odd/odd coprime Calkin-Wilf entries
    num, den = _fusc_array(np.stack((idx, idx + 1)))
    return signs * (num / den) * np.exp2(exponent.astype(float)) * scale


def _cw_stream_coords(scheme: PeScheme, streams: np.ndarray) -> np.ndarray:
    """Coordinate of each stream value under a Calkin-Wilf scheme.

    Every dimension decodes its stream the same way, so coordinate k of
    P(j) is this value at stream k of ``_morton_split(j - 1)``, bit for bit
    equal to ``pe_block``.
    """
    return _cw_coords(np.asarray(streams, dtype=np.int64),
                      float(scheme.params.get("scale", 1.0)))


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
    dimension, offset part) by ``_cw_coords`` and gathered through the cached
    offset split; every element goes through the same float operations on the
    same integers as a per-position decode, so the result is bit-identical.
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


class _DyadicLevels:
    """Materialized dyadic levels with cumulative sizes, cached per region."""

    def __init__(self, box: Box):
        self.box = box
        self.levels: list[np.ndarray] = []
        self.cum = [0]

    def _build_level(self, m: int) -> np.ndarray:
        d = self.box.dim
        t = np.arange(1, 2**m)
        mesh = np.meshgrid(*([t] * d), indexing="ij")
        tuples = np.stack([g.ravel() for g in mesh], axis=1)
        new = tuples[np.any(tuples % 2 == 1, axis=1)]
        lo = np.array(self.box.lo)
        hi = np.array(self.box.hi)
        return lo + new * (hi - lo) / 2.0**m

    def ensure(self, n: int):
        while self.cum[-1] < n:
            m = len(self.levels) + 1
            if (2**m - 1) ** self.box.dim > 5e7:
                raise MemoryError(
                    "dyadic level materialization cap reached; "
                    "use calkin_wilf_lattice for scans of this depth")
            pts = self._build_level(m)
            self.levels.append(pts)
            self.cum.append(self.cum[-1] + len(pts))

    def block(self, j_start: int, count: int) -> np.ndarray:
        self.ensure(j_start - 1 + count)
        out = np.empty((count, self.box.dim))
        pos = j_start - 1
        filled = 0
        while filled < count:
            level = np.searchsorted(self.cum, pos, side="right") - 1
            offset = pos - self.cum[level]
            take = min(count - filled, len(self.levels[level]) - offset)
            out[filled:filled + take] = self.levels[level][offset:offset + take]
            filled += take
            pos += take
        return out


@functools.lru_cache(maxsize=8)
def _dyadic_levels(lo: tuple, hi: tuple) -> _DyadicLevels:
    """The levels of one region, shared by every dyadic scheme over it."""
    return _DyadicLevels(Box(lo, hi))


def pe_block(scheme: PeScheme, j_start: int, count: int) -> np.ndarray:
    """P_x(j) for j in [j_start, j_start + count); returns (count, d_x)."""
    if j_start < 1 or count < 1:
        raise ValueError("need j_start >= 1 and count >= 1")
    if scheme.kind == "calkin_wilf_lattice":
        return _cw_block(scheme, j_start, count)
    if scheme.kind == "dyadic_lattice":
        return _dyadic_levels(scheme.region.lo, scheme.region.hi).block(j_start, count)
    if scheme.kind == "irrational_rotation":
        primes = scheme.params["primes"]
        gamma = np.sqrt(np.array(primes, dtype=float))
        j = np.arange(j_start, j_start + count, dtype=float)[:, None]
        frac = np.mod(j * gamma, 1.0)
        lo = np.array(scheme.region.lo)
        hi = np.array(scheme.region.hi)
        return lo + frac * (hi - lo)
    return np.asarray(scheme.generator(j_start, count), dtype=float).reshape(count, scheme.d_x)


def pe_value(scheme: PeScheme, j: int) -> np.ndarray:
    """P_x(j), deterministic in j."""
    return pe_block(scheme, j, 1)[0]


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


@dataclass(frozen=True)
class Vocabulary:
    """Finite token sets V_x and V_y.

    ``x_grid_spec`` (lo, hi, per_dim) is populated by the grid constructor and
    lets position scans locate the nearest x token in O(1); general
    vocabularies work through the exhaustive path.
    """

    v_x: np.ndarray
    v_y: np.ndarray
    x_grid_spec: tuple | None = None

    def __post_init__(self):
        v_x = np.atleast_2d(np.asarray(self.v_x, dtype=float))
        v_y = np.atleast_2d(np.asarray(self.v_y, dtype=float))
        if v_x.shape[0] == 0 or v_y.shape[0] == 0:
            raise EmptyGridError("vocabulary sets must be non-empty")
        v_x.setflags(write=False)
        v_y.setflags(write=False)
        object.__setattr__(self, "v_x", v_x)
        object.__setattr__(self, "v_y", v_y)

    @property
    def d_x(self) -> int:
        return self.v_x.shape[1]

    @property
    def d_y(self) -> int:
        return self.v_y.shape[1]

    @property
    def x_extent(self) -> float:
        return float(np.max(np.abs(self.v_x)))

    def has_standard_y_tokens(self, d_y: int) -> bool:
        """True when every one-nonzero-component token over {1,-1,sqrt2,0} is present."""
        return all(self.y_index_of(tok) is not None for tok in standard_y_tokens(d_y))

    def y_index_of(self, vec) -> int | None:
        """Bit-exact index of a y token, or None."""
        vec = np.asarray(vec, dtype=float)
        hits = np.where(np.all(self.v_y == vec, axis=1))[0]
        return int(hits[0]) if hits.size else None

    @staticmethod
    def x_grid(lo, hi, per_dim: int, d_y: int) -> "Vocabulary":
        """Regular grid V_x over [lo, hi] plus the standard V_y token set."""
        g = Grid(lo, hi, (per_dim,) * len(np.atleast_1d(lo)))
        return Vocabulary(g.points(), standard_y_tokens(d_y),
                          x_grid_spec=(g.lo, g.hi, per_dim))

    def to_json_dict(self) -> dict:
        return {"v_x": self.v_x.tolist(), "v_y": self.v_y.tolist(),
                "x_grid_spec": list(self.x_grid_spec) if self.x_grid_spec else None}


# --------------------------------------------------------------------------
# density audit


@dataclass(frozen=True)
class DensityProfile:
    """Covering radius r(n) of {x_i + P_x(j) : j <= n} over a probe grid."""

    ns: np.ndarray
    radii: np.ndarray

    def write_csv(self, fh):
        fh.write("n,covering_radius\n")
        for n, r in zip(self.ns, self.radii):
            fh.write(f"{int(n)},{r:.17g}\n")


def density_audit(vocab: Vocabulary, scheme: PeScheme, region: Box,
                  n_max: int, probe_per_dim: int = 64,
                  block: int = 4096) -> DensityProfile:
    """Covering radius r(n) (sup-norm) for n = 1..n_max; non-increasing in n."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if vocab.v_x.shape[0] == 0:
        raise EmptyGridError("empty vocabulary")
    if region.dim != scheme.d_x:
        raise DimensionError("region and scheme dimensions disagree")
    probes = Grid(region.lo, region.hi, (probe_per_dim,) * region.dim).points()
    n_probes = probes.shape[0]
    block = max(64, min(block, (1 << 22) // max(n_probes, 1)))
    best = np.full(n_probes, np.inf)
    radii = np.empty(n_max)
    done = 0
    dv = np.empty((block, n_probes))
    buf = np.empty((block, n_probes))
    while done < n_max:
        take = min(block, n_max - done)
        pe = pe_block(scheme, done + 1, take)                  # (take, d)
        # distance from each probe to the nearest token of each position,
        # accumulated per dimension to avoid 3-d temporaries
        d = np.full((take, n_probes), np.inf)
        for v in vocab.v_x:
            pts = v + pe
            dvt = dv[:take]
            np.abs(np.subtract(pts[:, :1], probes[None, :, 0], out=dvt), out=dvt)
            for t in range(1, probes.shape[1]):
                bt = buf[:take]
                np.abs(np.subtract(pts[:, t:t + 1], probes[None, :, t], out=bt), out=bt)
                np.maximum(dvt, bt, out=dvt)
            np.minimum(d, dvt, out=d)
        np.minimum(d[0], best, out=d[0])
        np.minimum.accumulate(d, axis=0, out=d)
        radii[done:done + take] = np.max(d, axis=1)
        best = d[take - 1].copy()
        done += take
    return DensityProfile(np.arange(1, n_max + 1), radii)
