"""The round stream contract: one (n, K) draw block per round.

Round k of a run with seed s draws every worker's uniforms from one Philox
stream, ``RngStream(s, k)``, as an (n, K) block; K is the compressor's
per-row draw count rounded up to a multiple of 4. Philox is counter-based,
so worker i's row is the round stream advanced by i*K/4 counters, and a
worker can produce its own draws without the others. These tests pin that
contract and the compressor properties that hold on top of it.
"""

import math

import numpy as np
import pytest

from distnewton.compressors import (_row_draws, bernoulli, bit_cost,
                                    compress_with_info, dithering, identity,
                                    natural, omega, random_r)
from distnewton.errors import InputError
from distnewton.rngs import RngStream, seeded_generator

SPECS = [identity(), random_r(1), random_r(3), random_r(7), dithering(),
         natural(), bernoulli(random_r(1), 0.25),
         bernoulli(dithering(s=3), 0.5), bernoulli(natural(), 0.7),
         bernoulli(bernoulli(random_r(2), 0.5), 0.5)]
IDS = ["identity", "random_r1", "random_r3", "random_r7", "dithering",
       "natural", "bernoulli_random_r", "bernoulli_dithering",
       "bernoulli_natural", "bernoulli_bernoulli"]


def advanced(stream: RngStream, counters: int) -> np.random.Generator:
    """The round generator moved forward by ``counters`` Philox counters."""
    gen = stream.generator()
    gen.bit_generator.advance(counters)
    return gen


def block(n=23, m=9, seed=0):
    x = np.random.default_rng(seed).standard_normal((n, m)) * 3.0
    x[4] = 0.0                              # a zero row
    x[5, :4] = 0.0                          # zero entries in a nonzero row
    return x


@pytest.mark.parametrize("m", [9, 151])
@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_row_i_is_the_round_stream_advanced_by_i_k_over_4(spec, m):
    x = block(m=m)
    n, m = x.shape
    k = _row_draws(spec, m)
    assert k % 4 == 0
    stream = RngStream(13, 5)
    out = compress_with_info(spec, x, stream)
    assert out.values.shape == (n, m) and out.fired.shape == (n,)
    for i in range(n):
        row = compress_with_info(spec, x[i], advanced(stream, i * k // 4))
        assert np.array_equal(row.values.view(np.uint64),
                              out.values[i].view(np.uint64))
        assert row.fired == out.fired[i]


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_vector_call_is_the_one_row_block_call(spec):
    x = block()[7]
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(50):
        vec = compress_with_info(spec, x, a)
        one = compress_with_info(spec, x[None], b)
        assert one.values.shape == (1, x.size)
        assert np.array_equal(vec.values, one.values[0])
        assert vec.fired is bool(one.fired[0])
    # both consumed the same draws
    assert a.random() == b.random()


def test_draw_widths():
    assert _row_draws(identity(), 9) == 0
    assert _row_draws(random_r(1), 9) == 4
    assert _row_draws(random_r(4), 9) == 4
    assert _row_draws(random_r(5), 9) == 8
    assert _row_draws(dithering(), 9) == 12
    assert _row_draws(natural(), 8) == 8
    assert _row_draws(bernoulli(random_r(3), 0.5), 9) == 4
    assert _row_draws(bernoulli(natural(), 0.5), 8) == 12
    assert _row_draws(bernoulli(identity(), 0.5), 8) == 4


def test_identity_draws_nothing():
    gen = np.random.default_rng(4)
    x = block()
    assert np.array_equal(compress_with_info(identity(), x, gen).values, x)
    assert gen.random() == np.random.default_rng(4).random()


@pytest.mark.parametrize("r", [1, 2, 5, 11, 12])
def test_random_r_rows_pick_r_distinct_indices(r):
    n, m = 3000, 12
    x = np.tile(np.arange(1.0, m + 1.0), (n, 1))
    out = compress_with_info(random_r(r), x, RngStream(2, 9)).values
    nonzero = out != 0.0
    assert np.all(nonzero.sum(axis=1) == r)
    assert np.array_equal(out[nonzero], (m / r) * x[nonzero])
    # every index is picked at the uniform rate r/m
    rate = nonzero.mean(axis=0)
    se = math.sqrt((r / m) * (1 - r / m) / n)
    assert np.all(np.abs(rate - r / m) <= 4 * se + 1e-12)


def test_random_r_vector_path_picks_r_distinct_indices():
    m, r = 12, 5
    x = np.arange(1.0, m + 1.0)
    gen = np.random.default_rng(6)
    for _ in range(500):
        out = compress_with_info(random_r(r), x, gen).values
        assert np.count_nonzero(out) == r
        assert np.array_equal(out[out != 0], (m / r) * x[out != 0])


def test_bernoulli_rows_that_did_not_fire_send_zero_and_cost_one_bit():
    spec = bernoulli(random_r(2), 0.4)
    x = block(n=400) + 10.0                 # every entry nonzero
    out = compress_with_info(spec, x, RngStream(8, 1))
    fired = out.fired
    assert 0 < fired.sum() < len(fired)
    assert np.all(out.values[~fired] == 0.0)
    assert np.all(np.count_nonzero(out.values[fired], axis=1) == 2)
    bits = [bit_cost(spec, x.shape[1], fired=f) for f in fired.tolist()]
    assert all(b == 1 for b, f in zip(bits, fired) if not f)
    assert all(b == bit_cost(random_r(2), x.shape[1]) for b, f in zip(bits, fired) if f)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_one_block_is_unbiased_with_bounded_second_moment(spec):
    n, m = 40_000, 7
    x = np.random.default_rng(20).standard_normal(m) * 3.0
    out = compress_with_info(spec, np.tile(x, (n, 1)), RngStream(21, 0)).values
    mean = out.mean(axis=0)
    sq = np.einsum("ij,ij->i", out, out)
    bound = (omega(spec, m) + 1.0) * float(x @ x)
    coord_se = out.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(mean - x) <= 4.0 * coord_se + 1e-10)   # + summation rounding
    assert sq.mean() <= bound * (1.0 + 4.0 * sq.std() / (sq.mean() * math.sqrt(n))) + 1e-10


def test_round_key_differs_from_the_data_keys():
    def key(gen):
        return tuple(gen.bit_generator.state["state"]["key"].tolist())

    data_keys = set()
    for seed in range(6):
        data_keys |= {key(seeded_generator(seed, 0)), key(seeded_generator(seed, 1)),
                      key(seeded_generator(seed))}
    round_keys = {key(RngStream(seed, k).generator())
                  for seed in range(6) for k in range(6)}
    assert len(round_keys) == 36
    assert not round_keys & data_keys


@pytest.mark.parametrize("key", [(-1,), (1, -2), (3, 0, -1)])
def test_negative_key_is_an_input_error(key):
    with pytest.raises(InputError, match="nonnegative"):
        seeded_generator(*key)


def test_block_shape_must_be_one_or_two_dimensional():
    with pytest.raises(InputError):
        compress_with_info(random_r(1), np.ones((2, 2, 2)), RngStream(0, 0))
    with pytest.raises(InputError):
        compress_with_info(random_r(3), np.ones((4, 2)), RngStream(0, 0))
