"""Randomized unbiased compression operators with exact bit-cost bookkeeping.

Every operator C satisfies E[C(x)] = x and E||C(x)||^2 <= (omega+1)||x||^2
for its variance parameter omega. ``compress_with_info`` takes one vector
or an (n, m) block of n workers' vectors and draws one (n, K) block of raw
uniforms for it, row i for row i, so a round compresses every worker in one
call. Draws come from counter-based streams (see rngs.RngStream), so a
server holding the same stream identity can replay worker-side randomness
bit-for-bit.

Bit costs are ledger conventions, not an encoding: scalars count 32 bits
regardless of the 64-bit arithmetic used internally.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, _finite_real
from .rngs import RngStream

SCALAR_BITS = 32

# each kind and the spec fields it reads
_READS = {"identity": (), "random_r": ("r",), "dithering": ("s",),
          "natural": (), "bernoulli": ("p", "inner")}
KINDS = tuple(_READS)

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class CompressorSpec:
    """Declarative description of a compressor; see the factory helpers below.

    Dithering rounds each |x_j| / ||x||_2 to one of s levels (QSGD's l2 form);
    ``s=None`` means "round(sqrt(length))", resolved per call.
    """

    kind: str
    r: Optional[int] = None
    s: Optional[int] = None
    p: Optional[float] = None
    inner: Optional["CompressorSpec"] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown compressor kind {self.kind!r}")
        # a JSON config can put any type here, and bool is an int subclass
        for name, kind, what in (("r", numbers.Integral, "an integer"),
                                 ("s", numbers.Integral, "an integer"),
                                 ("p", numbers.Real, "a number")):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, kind)):
                raise InputError(f"compressor {name} must be {what}, not {value!r}")
        if self.kind == "random_r" and (self.r is None or self.r < 1):
            raise InputError("random_r needs r >= 1")
        if self.kind == "dithering" and self.s is not None and not (
                _finite_real(self.s) and self.s >= 1):
            raise InputError(f"dithering needs a finite s >= 1, not {self.s!r}")
        if self.kind == "bernoulli":
            if self.inner is None or not (_finite_real(self.p) and 0 < self.p <= 1):
                raise InputError("bernoulli needs an inner spec and p in (0, 1]")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in _READS[self.kind]:
            value = getattr(self, name)
            out[name] = value.to_dict() if name == "inner" else value
        return out

    @staticmethod
    def from_dict(d: dict) -> "CompressorSpec":
        if not isinstance(d, dict) or "kind" not in d:
            raise InputError(f"a compressor must be an object with a kind, not {d!r}")
        kind = d["kind"]
        if kind not in KINDS:
            raise InputError(f"unknown compressor kind {kind!r}")
        unread = sorted(set(d) - {"kind", *_READS[kind]})
        if unread:
            raise InputError(f"compressor kind {kind!r} does not read "
                             f"{', '.join(map(str, unread))}")
        given = {name: d[name] for name in _READS[kind] if name in d}
        if kind == "bernoulli":
            given["inner"] = CompressorSpec.from_dict(d.get("inner"))
        return CompressorSpec(kind=kind, **given)


def identity() -> CompressorSpec:
    return CompressorSpec(kind="identity")


def random_r(r: int) -> CompressorSpec:
    return CompressorSpec(kind="random_r", r=r)


def dithering(s: Optional[int] = None) -> CompressorSpec:
    return CompressorSpec(kind="dithering", s=s)


def natural() -> CompressorSpec:
    return CompressorSpec(kind="natural")


def bernoulli(inner: CompressorSpec, p: float) -> CompressorSpec:
    return CompressorSpec(kind="bernoulli", p=p, inner=inner)


def _dither_levels(spec: CompressorSpec, length: int) -> int:
    if spec.s is not None:
        return spec.s
    return max(1, round(math.sqrt(length)))


def omega(spec: CompressorSpec, length: int) -> float:
    """Closed-form variance parameter of the operator at this input length."""
    if spec.kind == "identity":
        return 0.0
    if spec.kind == "random_r":
        if spec.r > length:
            raise InputError(f"r={spec.r} exceeds vector length {length}")
        return length / spec.r - 1.0
    if spec.kind == "natural":
        return 0.125
    if spec.kind == "dithering":
        s = _dither_levels(spec, length)
        return min(length / s ** 2, math.sqrt(length) / s)
    # bernoulli wrapper
    return (omega(spec.inner, length) + 1.0) / spec.p - 1.0


@dataclass(frozen=True)
class CompressedPayload:
    """Result of one compression: the vectors plus what was actually sent.

    ``fired`` is False only for a bernoulli wrapper that sent zero: a bool
    for one vector, an (n,) bool array for a block of n rows.
    """

    values: np.ndarray
    fired: bool | np.ndarray = True


def _draw_count(spec: CompressorSpec, m: int) -> int:
    """Uniforms one row of length m consumes, before rounding to counters."""
    if spec.kind == "identity":
        return 0
    if spec.kind == "random_r":
        if spec.r > m:
            raise InputError(f"r={spec.r} exceeds vector length {m}")
        return spec.r
    if spec.kind == "bernoulli":
        # the fire uniform first, then the inner operator's draws
        return 1 + _draw_count(spec.inner, m)
    return m


def _row_draws(spec: CompressorSpec, m: int) -> int:
    """K, the draw-block width: the draw count rounded up to whole Philox counters."""
    return -(-_draw_count(spec, m) // 4) * 4


def compress_with_info(spec: CompressorSpec, x: np.ndarray, rng) -> CompressedPayload:
    """Compress one vector (m,) or every row of a block (n, m).

    ``rng`` is an RngStream or a numpy Generator. One ``random((n, K))``
    call draws every row's uniforms (see rngs.RngStream for K), and each
    row consumes all K of its draws whatever it does with them, so row i
    depends only on x[i] and the stream advanced by i*K/4 counters. A
    vector is the n=1 case.
    """
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= x.ndim <= 2:
        raise InputError(f"compress takes (m,) or (n, m) input, got shape {x.shape}")
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise InputError("cannot compress non-finite values")
    block = x if x.ndim == 2 else x[None]
    width = _row_draws(spec, block.shape[1])
    uniforms = None
    if width:
        gen = rng.generator() if isinstance(rng, RngStream) else rng
        uniforms = gen.random((block.shape[0], width))
    values, fired = _compress(spec, block, uniforms)
    if x.ndim == 1:
        return CompressedPayload(values=values[0], fired=fired is None or bool(fired[0]))
    if fired is None:
        fired = np.ones(block.shape[0], dtype=bool)
    return CompressedPayload(values=values, fired=fired)


def compress(spec: CompressorSpec, x: np.ndarray, rng) -> np.ndarray:
    return compress_with_info(spec, x, rng).values


def _fisher_yates(u: np.ndarray, m: int, r: int) -> np.ndarray:
    """Flat indices into an (n, m) block of r distinct picks per row.

    A partial Fisher-Yates shuffle of each row's index list: step j swaps
    position j with position j + floor(u[:, j] * (m - j)) and never touches
    positions below j again, so positions 0..r-1 end up holding the picks.
    """
    n = u.shape[0]
    if n == 1:
        # one row: Python ints, with only the swapped positions stored
        moved: dict = {}
        picks = []
        for j, uj in enumerate(u[0, :r].tolist()):
            other = j + int(uj * (m - j))
            picks.append(moved.get(other, other))
            moved[other] = moved.get(j, j)
        return np.array(picks)
    start = np.arange(0, n * m, m)
    other = (u[:, :r] * (m - np.arange(r))).astype(np.intp)
    other += start[:, None] + np.arange(r)
    if r == 1:
        return other[:, 0]
    # the list starts as the identity, so step 0 needs no lookup
    perm = np.arange(n * m)
    perm[other[:, 0]] = start
    picks = [other[:, 0]]
    for j in range(1, r):
        to = other[:, j]
        picks.append(perm[to])
        perm[to] = perm[start + j]
    return np.concatenate(picks)


def _compress(spec: CompressorSpec, x: np.ndarray,
              u: Optional[np.ndarray]) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Row-wise kernel over x (n, m), row i reading its uniforms from u[i].

    Returns the compressed rows and the (n,) fired mask, None when every
    row was sent.
    """
    n, m = x.shape
    if spec.kind == "identity":
        return x.copy(), None

    if spec.kind == "random_r":
        picks = _fisher_yates(u, m, spec.r)
        out = np.zeros(n * m)
        out[picks] = (m / spec.r) * x.ravel()[picks]
        return out.reshape(n, m), None

    if spec.kind == "dithering":
        s = _dither_levels(spec, m)
        norm = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))
        # the floor on the norm keeps 0/0 out: a zero row scales to level 0
        # everywhere and sends zero
        scaled = np.abs(x) / np.maximum(norm, _TINY) * s
        low = np.floor(scaled)
        levels = low + (u[:, :m] < scaled - low)
        return np.copysign(levels, x) * (norm / s), None

    if spec.kind == "natural":
        mag = np.abs(x)
        _, expo = np.frexp(mag)               # mag = mant * 2**expo, mant in [0.5, 1)
        low = np.ldexp(0.5, expo)             # 2**floor(log2 mag); exact power of two
        high = np.ldexp(1.0, expo)
        # p(down) = (2**ceil - |t|) / 2**floor, 1 when |t| is a power of two.
        # A zero entry has low = 0.5 (frexp gives exponent 0), so nothing
        # warns, and sign(0) = 0 sends it as zero
        down = u[:, :m] < (high - mag) / low
        return np.sign(x) * np.where(down, low, high), None

    # bernoulli wrapper: column 0 decides, the inner operator reads the rest
    fired = u[:, 0] < spec.p
    out = np.zeros((n, m))
    if np.count_nonzero(fired):
        inner, inner_fired = _compress(spec.inner, x[fired], u[fired, 1:])
        out[fired] = inner / spec.p
        if inner_fired is not None:           # a nested wrapper that held back sent nothing
            fired[fired] = inner_fired
    return out, fired


def ceil_log2(value: int) -> int:
    return 0 if value <= 1 else (value - 1).bit_length()


def bit_cost(spec: CompressorSpec, length: int, fired: bool = True) -> int:
    """Ledger bits for transmitting one compressed vector of this length.

    A bernoulli wrapper that did not fire costs a single flag bit; when it
    fires it costs exactly the inner payload.
    """
    if length < 1:
        raise InputError("payload length must be positive")
    if spec.kind == "identity":
        return SCALAR_BITS * length
    if spec.kind == "random_r":
        if spec.r > length:
            raise InputError(f"r={spec.r} exceeds vector length {length}")
        return SCALAR_BITS * spec.r + ceil_log2(math.comb(length, spec.r))
    if spec.kind == "dithering":
        # ceil(2.8 * length) + 32 in exact integer arithmetic
        return (14 * length + 4) // 5 + SCALAR_BITS
    if spec.kind == "natural":
        return 9 * length
    if not fired:
        return 1
    return bit_cost(spec.inner, length, fired=True)
