"""Randomized unbiased compression operators with exact bit-cost bookkeeping.

Every operator C satisfies E[C(x)] = x and E||C(x)||^2 <= (omega+1)||x||^2
for its variance parameter omega. Draws come from counter-based streams
(see rngs.RngStream), so a server holding the same stream identity can
replay worker-side randomness bit-for-bit.

Bit costs are ledger conventions, not an encoding: scalars count 32 bits
regardless of the 64-bit arithmetic used internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .rngs import RngStream

SCALAR_BITS = 32

KINDS = ("identity", "random_r", "dithering", "natural", "bernoulli")


@dataclass(frozen=True)
class CompressorSpec:
    """Declarative description of a compressor; see the factory helpers below.

    ``s=None`` for dithering means "round(sqrt(length))", resolved per call.
    """

    kind: str
    r: Optional[int] = None
    s: Optional[int] = None
    q: float = 2.0
    p: Optional[float] = None
    inner: Optional["CompressorSpec"] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown compressor kind {self.kind!r}")
        if self.kind == "random_r" and (self.r is None or self.r < 1):
            raise InputError("random_r needs r >= 1")
        if self.kind == "dithering" and self.s is not None and self.s < 1:
            raise InputError("dithering needs s >= 1")
        if self.kind == "bernoulli":
            if self.inner is None or self.p is None or not 0 < self.p <= 1:
                raise InputError("bernoulli needs an inner spec and p in (0, 1]")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "random_r":
            out["r"] = self.r
        elif self.kind == "dithering":
            out["s"] = self.s
            out["q"] = self.q
        elif self.kind == "bernoulli":
            out["p"] = self.p
            out["inner"] = self.inner.to_dict()
        return out

    @staticmethod
    def from_dict(d: dict) -> "CompressorSpec":
        kind = d["kind"]
        if kind == "bernoulli":
            return bernoulli(CompressorSpec.from_dict(d["inner"]), d["p"])
        return CompressorSpec(kind=kind, r=d.get("r"), s=d.get("s"),
                              q=d.get("q", 2.0))


def identity() -> CompressorSpec:
    return CompressorSpec(kind="identity")


def random_r(r: int) -> CompressorSpec:
    return CompressorSpec(kind="random_r", r=r)


def dithering(s: Optional[int] = None, q: float = 2.0) -> CompressorSpec:
    return CompressorSpec(kind="dithering", s=s, q=q)


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
        if spec.q == 2.0:
            return min(length / s ** 2, math.sqrt(length) / s)
        return 2.0 + (math.sqrt(length) + length ** (1.0 / spec.q)) / s
    # bernoulli wrapper
    return (omega(spec.inner, length) + 1.0) / spec.p - 1.0


@dataclass(frozen=True)
class CompressedPayload:
    """Result of one compression: the vector plus what was actually sent."""

    values: np.ndarray
    fired: bool = True      # False only for a bernoulli wrapper that sent zero


def compress_with_info(spec: CompressorSpec, x: np.ndarray, rng) -> CompressedPayload:
    """Apply the operator; ``rng`` is an RngStream or a numpy Generator.

    Bernoulli wrappers consume their fire/no-fire uniform before any inner
    draws, so replicas replaying the same stream always stay in sync.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InputError("cannot compress non-finite values")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return _compress(spec, x, gen)


def compress(spec: CompressorSpec, x: np.ndarray, rng) -> np.ndarray:
    return compress_with_info(spec, x, rng).values


def _compress(spec: CompressorSpec, x: np.ndarray, gen: np.random.Generator) -> CompressedPayload:
    m = x.shape[0]
    if spec.kind == "identity":
        return CompressedPayload(values=x.copy())

    if spec.kind == "random_r":
        if spec.r > m:
            raise InputError(f"r={spec.r} exceeds vector length {m}")
        idx = gen.choice(m, size=spec.r, replace=False)
        out = np.zeros(m)
        out[idx] = (m / spec.r) * x[idx]
        return CompressedPayload(values=out)

    if spec.kind == "dithering":
        s = _dither_levels(spec, m)
        norm = float(np.linalg.norm(x, ord=spec.q))
        if norm == 0.0:
            return CompressedPayload(values=np.zeros(m))
        scaled = np.abs(x) / norm * s
        low = np.floor(scaled)
        bump = gen.random(m) < (scaled - low)
        levels = low + bump
        return CompressedPayload(values=np.sign(x) * (norm / s) * levels)

    if spec.kind == "natural":
        mag = np.abs(x)
        mant, expo = np.frexp(mag)            # mag = mant * 2**expo, mant in [0.5, 1)
        low = np.ldexp(0.5, expo)             # 2**floor(log2 mag); exact power of two
        high = np.ldexp(1.0, expo)
        # p(down) = (2**ceil - |t|) / 2**floor; equals 1 when |t| is a power of
        # two. low > 0 even for mag == 0 (frexp gives exponent 0), so the
        # division never warns
        p_down = np.where(mag > 0, (high - mag) / low, 1.0)
        down = gen.random(m) < p_down
        out = np.sign(x) * np.where(down, low, high)
        out[mag == 0] = 0.0
        return CompressedPayload(values=out)

    # bernoulli wrapper: fire decision first, then the inner operator
    fired = bool(gen.random() < spec.p)
    if not fired:
        return CompressedPayload(values=np.zeros(m), fired=False)
    inner = _compress(spec.inner, x, gen)
    return CompressedPayload(values=inner.values / spec.p, fired=True)


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
