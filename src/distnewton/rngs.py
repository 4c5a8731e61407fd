"""Deterministic, platform-independent random streams.

All randomness in the simulator flows through counter-based Philox
generators keyed by (seed, subkey...). Compression and synthesis draw only
raw uniform doubles from them, which numpy pins across versions, unlike its
samplers (NEP 19); ``data.partition`` still shuffles with
``Generator.permutation``. A given key always yields the same draw
sequence, which is what lets the simulated server rebuild worker-side
compressor outcomes without communication.

Keys in use: ``data.partition`` takes ``(shuffle_seed,)``,
``data.synth_artificial`` takes ``(seed, 0)`` and ``(seed, 1)``, and the
compressor draws of round k take ``(seed, _ROUND_TAG, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Middle subkey of every round stream; no other stream's key has three parts
# with this value in the middle, so round draws never overlap data draws.
_ROUND_TAG = 0x726E64


def seeded_generator(seed: int, *subkeys: int) -> np.random.Generator:
    """Philox generator for (seed, subkeys); same key -> same sequence.
    InputError on a negative key."""
    if min((seed, *subkeys)) < 0:
        raise InputError(f"seed keys must be nonnegative, not {(seed, *subkeys)}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(subkeys))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class RngStream:
    """Identity of one round's compressor draws: (seed, iteration).

    A round draws one (n, K) block of raw uniforms, ``random((n, K))``, with
    K the compressor's per-row draw count rounded up to a multiple of 4.
    Philox emits four 64-bit words per counter step, so row i, worker i's
    K draws, is exactly the stream advanced by i*K/4 counters: a worker can
    derive its own row from the key alone (``Philox.advance``), and the
    server replays every row from the same key.

    ``generator`` restarts the stream from counter zero on every call, so two
    holders of an equal RngStream observe bit-identical draws.
    """

    seed: int
    iteration: int

    def generator(self) -> np.random.Generator:
        return seeded_generator(self.seed, _ROUND_TAG, self.iteration)


def standard_normals(gen: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller normals from raw uniform doubles.

    Raw uniforms are part of the bit-generator stream contract, unlike the
    library's own normal sampler, so this stays reproducible across numpy
    versions and platforms.
    """
    pairs = (count + 1) // 2
    # 1 - U keeps the argument of log in (0, 1].
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])
    return z[:count]
