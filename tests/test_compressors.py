import itertools
import math
import warnings

import numpy as np
import pytest

from distnewton.compressors import (CompressorSpec, bernoulli, bit_cost,
                                    compress, compress_with_info, dithering,
                                    identity, natural, omega, random_r)
from distnewton.errors import InputError
from distnewton.rngs import RngStream


def gen(seed=0):
    return np.random.default_rng(seed)


class TestOmega:
    def test_identity(self):
        assert omega(identity(), 7) == 0.0

    def test_random_r(self):
        assert omega(random_r(1), 4) == 3.0
        assert omega(random_r(2), 8) == 3.0

    def test_natural(self):
        assert omega(natural(), 300) == 0.125

    def test_bernoulli_over_identity(self):
        assert omega(bernoulli(identity(), 1.0 / 20.0), 10) == pytest.approx(19.0)

    def test_bernoulli_composes(self):
        w_inner = omega(random_r(1), 4)
        assert omega(bernoulli(random_r(1), 0.5), 4) == pytest.approx((w_inner + 1) / 0.5 - 1)

    def test_dithering_q2_bound(self):
        assert omega(dithering(s=1), 2) == pytest.approx(math.sqrt(2.0))
        assert omega(dithering(s=4), 4) == pytest.approx(min(4 / 16, 2 / 4))

    def test_random_r_exceeding_length(self):
        with pytest.raises(InputError):
            omega(random_r(5), 4)


class TestSpecFieldTypes:
    def test_numpy_scalars_are_accepted(self):
        assert bit_cost(random_r(np.int64(2)), 8) == bit_cost(random_r(2), 8)
        assert omega(bernoulli(dithering(np.int32(3), np.float64(2.0)), np.float64(0.5)),
                     8) == omega(bernoulli(dithering(3, 2.0), 0.5), 8)

    @pytest.mark.parametrize("make, field", [
        (lambda: random_r(True), "r"), (lambda: random_r("1"), "r"),
        (lambda: random_r(1.0), "r"), (lambda: dithering(s=False), "s"),
        (lambda: dithering(q=None), "q"), (lambda: bernoulli(natural(), "0.5"), "p"),
        (lambda: CompressorSpec.from_dict({"kind": "bernoulli", "p": 0.5}), "kind"),
    ])
    def test_wrong_type_is_rejected_by_name(self, make, field):
        with pytest.raises(InputError, match=field):
            make()

    @pytest.mark.parametrize("q", [0.0, 0.5, -1.0, math.inf, math.nan,
                                   pytest.param(10**400, id="huge-int")])
    def test_dithering_q_must_be_finite_and_at_least_one(self, q):
        with pytest.raises(InputError, match="q >= 1"):
            dithering(s=3, q=q)

    @pytest.mark.parametrize("s", [0, -2, pytest.param(10**400, id="huge-int")])
    def test_dithering_s_must_be_finite_and_at_least_one(self, s):
        with pytest.raises(InputError, match="s >= 1"):
            dithering(s=s)

    @pytest.mark.parametrize("d, unread", [
        ({"kind": "natural", "r": -5, "q": math.nan}, "q, r"),
        ({"kind": "random_r", "r": 1, "q": 0, "s": 0}, "q, s"),
        ({"kind": "identity", "zzz": 1}, "zzz"),
        ({"kind": "dithering", "s": 3, "p": 0.5}, "p"),
        ({"kind": "bernoulli", "p": 0.5, "r": 1, "inner": {"kind": "natural"}}, "r"),
        ({"kind": "bernoulli", "p": 0.5, "inner": {"kind": "natural", "s": 2}}, "s"),
    ])
    def test_fields_the_kind_does_not_read_are_rejected(self, d, unread):
        with pytest.raises(InputError, match=f"does not read {unread}$"):
            CompressorSpec.from_dict(d)


class TestRandomR:
    def test_full_support_is_identity(self):
        x = gen().standard_normal(6)
        out = compress(random_r(6), x, gen(1))
        assert np.allclose(out, x, atol=1e-15)

    def test_random_one_two_outcomes(self):
        x = np.array([2.0, 0.0])
        hits = 0
        draws = 4000
        g = gen(2)
        for _ in range(draws):
            out = compress(random_r(1), x, g)
            assert np.array_equal(out, [4.0, 0.0]) or np.array_equal(out, [0.0, 0.0])
            hits += out[0] == 4.0
        se = math.sqrt(0.25 / draws)
        assert abs(hits / draws - 0.5) <= 4 * se

    def test_support_bound(self):
        g = gen(3)
        x = g.standard_normal(20)
        for _ in range(50):
            out = compress(random_r(3), x, g)
            assert np.count_nonzero(out) <= 3

    def test_exact_second_moment_by_enumeration(self):
        # brute-force oracle over all r-subsets
        for m, r in [(4, 1), (5, 2), (6, 3)]:
            x = gen(m).standard_normal(m)
            total = 0.0
            subsets = list(itertools.combinations(range(m), r))
            for sub in subsets:
                v = np.zeros(m)
                v[list(sub)] = (m / r) * x[list(sub)]
                total += float(v @ v)
            lhs = total / len(subsets)
            assert lhs == pytest.approx((m / r) * float(x @ x), rel=1e-12)


class TestNatural:
    def test_power_of_two_is_deterministic(self):
        for _ in range(20):
            out = compress(natural(), np.array([1.0]), gen(4))
            assert out[0] == 1.0

    def test_five_rounds_to_four_or_eight(self):
        g = gen(5)
        draws = 8000
        lows = 0
        for _ in range(draws):
            out = compress(natural(), np.array([5.0]), g)
            assert out[0] in (4.0, 8.0)
            lows += out[0] == 4.0
        se = math.sqrt(0.75 * 0.25 / draws)
        assert abs(lows / draws - 0.75) <= 4 * se

    def test_outputs_are_powers_of_two_and_sign_preserved(self):
        g = gen(6)
        x = g.standard_normal(200) * np.logspace(-6, 6, 200)
        out = compress(natural(), x, g)
        nz = out != 0
        mant, _ = np.frexp(np.abs(out[nz]))
        assert np.all(mant == 0.5)
        assert np.all(np.sign(out[nz]) == np.sign(x[nz]))

    def test_zero_maps_to_zero(self):
        out = compress(natural(), np.array([0.0, 2.0]), gen(7))
        assert out[0] == 0.0


class TestDithering:
    def test_two_level_example(self):
        # ratio 3/5 with one level: coordinate is 5 w.p. 0.6, else 0
        g = gen(8)
        draws = 8000
        first = []
        for _ in range(draws):
            out = compress(dithering(s=1), np.array([3.0, 4.0]), g)
            assert out[0] in (0.0, 5.0) and out[1] in (0.0, 5.0)
            first.append(out[0])
        mean = float(np.mean(first))
        se = 5.0 * math.sqrt(0.6 * 0.4 / draws)
        assert abs(mean - 3.0) <= 4 * se

    def test_boundary_ratio_one_deterministic(self):
        # single nonzero coordinate has ratio exactly 1 -> level s always
        g = gen(9)
        for _ in range(20):
            out = compress(dithering(s=3), np.array([0.0, -2.5]), g)
            assert out[1] == -2.5 and out[0] == 0.0

    def test_zero_vector(self):
        out = compress(dithering(s=2), np.zeros(4), gen(10))
        assert np.array_equal(out, np.zeros(4))

    def test_default_levels_round_sqrt(self):
        spec = dithering()
        assert omega(spec, 16) == pytest.approx(min(16 / 16, 4 / 4))


class TestBernoulli:
    def test_non_fire_sends_zero(self):
        spec = bernoulli(identity(), 1e-9)
        info = compress_with_info(spec, np.array([1.0, 2.0]), gen(11))
        assert not info.fired
        assert np.array_equal(info.values, np.zeros(2))

    def test_always_fire_scales_by_inverse_p(self):
        spec = bernoulli(identity(), 1.0)
        x = np.array([1.0, -2.0])
        info = compress_with_info(spec, x, gen(12))
        assert info.fired and np.array_equal(info.values, x)

    def test_fire_rate(self):
        spec = bernoulli(identity(), 0.05)
        g = gen(13)
        draws = 20000
        fired = sum(compress_with_info(spec, np.ones(2), g).fired
                    for _ in range(draws))
        se = math.sqrt(0.05 * 0.95 / draws)
        assert abs(fired / draws - 0.05) <= 4 * se


class TestUnbiasedness:
    @pytest.mark.parametrize("spec", [
        random_r(2), dithering(s=2), natural(),
        bernoulli(random_r(1), 0.25),
    ], ids=["random_r", "dithering", "natural", "bernoulli"])
    def test_mean_and_variance(self, spec):
        m = 5
        x = gen(20).standard_normal(m) * 3
        g = gen(21)
        draws = 20000
        acc = np.zeros(m)
        sq = 0.0
        for _ in range(draws):
            out = compress(spec, x, g)
            acc += out
            sq += float(out @ out)
        mean = acc / draws
        w = omega(spec, m)
        # per-coordinate 4-standard-error band around x
        var_bound = (w + 1) * float(x @ x)
        se = math.sqrt(var_bound / draws)
        assert np.all(np.abs(mean - x) <= 4 * se + 1e-12)
        assert sq / draws <= var_bound * (1 + 4 / math.sqrt(draws)) + 1e-12


class TestDeterminism:
    def test_same_stream_same_output(self):
        x = gen(30).standard_normal(8)
        for spec in [random_r(3), dithering(s=2), natural(),
                     bernoulli(random_r(1), 0.3)]:
            a = compress(spec, x, RngStream(7, 11))
            b = compress(spec, x, RngStream(7, 11))
            assert np.array_equal(a, b)

    def test_different_stream_differs(self):
        x = gen(31).standard_normal(64)
        a = compress(random_r(1), x, RngStream(7, 11))
        b = compress(random_r(1), x, RngStream(7, 12))
        assert not np.array_equal(a, b)


class TestBitCost:
    def test_random_r_full(self):
        assert bit_cost(random_r(4), 4) == 128

    def test_random_one_of_123(self):
        assert bit_cost(random_r(1), 123) == 32 + 7

    def test_random_r_exact_power_of_two_binomial(self):
        # C(4,2)=6 -> ceil(log2 6)=3; C(2,1)=2 -> exactly 1 bit
        assert bit_cost(random_r(2), 4) == 64 + 3
        assert bit_cost(random_r(1), 2) == 32 + 1

    def test_natural_scales_with_length(self):
        assert bit_cost(natural(), 300) == 2700

    def test_dithering(self):
        assert bit_cost(dithering(), 123) == math.ceil(2.8 * 123 + 32)
        assert bit_cost(dithering(), 5) == 14 + 32  # exact, no float fuzz

    def test_identity(self):
        assert bit_cost(identity(), 10) == 320

    def test_bernoulli_fired_and_not(self):
        spec = bernoulli(random_r(1), 0.05)
        assert bit_cost(spec, 151, fired=True) == 32 + 8
        assert bit_cost(spec, 151, fired=False) == 1

    def test_r_exceeding_length(self):
        with pytest.raises(InputError):
            bit_cost(random_r(9), 4)


@pytest.mark.parametrize("spec", [identity(), random_r(1), dithering(), natural(),
                                  bernoulli(random_r(1), 0.5)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(spec, bad):
    with pytest.raises(InputError):
        compress(spec, np.array([1.0, bad, 2.0]), gen(0))


def test_natural_zero_and_subnormal_entries_round_silently():
    x = np.array([0.0, -0.0, 5e-324, -3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = compress(natural(), x, gen(0))
    assert np.array_equal(out, [0.0, 0.0, 5e-324, out[3]])
    assert out[3] in (-2.0, -4.0)


def test_spec_serialization_roundtrip():
    for spec in [identity(), random_r(3), dithering(s=4, q=2.0), natural(),
                 bernoulli(random_r(1), 0.05), dithering(),
                 bernoulli(dithering(q=1.5), 0.5)]:
        assert CompressorSpec.from_dict(spec.to_dict()) == spec
    # each kind writes the fields it reads, an unset s as None
    assert dithering().to_dict() == {"kind": "dithering", "s": None, "q": 2.0}
