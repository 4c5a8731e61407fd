import gzip

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnewton.data import (Dataset, dumps_libsvm, load_dataset, parse_libsvm,
                             partition, save_dataset, synth_artificial)
from distnewton.errors import InputError, ParseError


class TestParse:
    def test_basic_record(self):
        ds = parse_libsvm("+1 1:0.5 3:2\n")
        assert ds.d == 3
        assert np.array_equal(ds.features, [[0.5, 0.0, 2.0]])
        assert ds.labels[0] == 1.0

    def test_zero_label_maps_to_minus_one(self):
        ds = parse_libsvm("0 2:1\n")
        assert np.array_equal(ds.features, [[0.0, 1.0]])
        assert ds.labels[0] == -1.0

    def test_two_records(self):
        ds = parse_libsvm("1 1:1\n-1 2:1\n")
        assert len(ds) == 2 and ds.d == 2

    def test_d_hint_extends_dimension(self):
        ds = parse_libsvm("+1 1:1\n", d_hint=5)
        assert ds.d == 5

    def test_d_hint_smaller_than_seen_is_ignored(self):
        ds = parse_libsvm("+1 4:1\n", d_hint=2)
        assert ds.d == 4

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("+1 1:1\n+1 2:oops\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, value):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(f"+1 1:1\n-1 1:2 2:{value}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_dataset_rejects_non_finite_features(self, value):
        with pytest.raises(InputError):
            Dataset(features=np.array([[1.0, value]]), labels=np.array([1.0]))

    def test_non_increasing_index(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 3:1 2:1\n")

    def test_label_outside_range(self):
        with pytest.raises(ParseError):
            parse_libsvm("3 1:1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_libsvm("\n\n")

    def test_bytes_input(self):
        ds = parse_libsvm(b"+1 1:1\n")
        assert ds.labels[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([-1.0, 1.0]),
        st.lists(st.floats(min_value=-1e12, max_value=1e12,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=6),
    ),
    min_size=1, max_size=8,
))
def test_roundtrip_preserves_values(points):
    width = max(len(vals) for _, vals in points)
    feats = np.zeros((len(points), width))
    labels = np.empty(len(points))
    for k, (lab, vals) in enumerate(points):
        feats[k, :len(vals)] = vals
        labels[k] = lab
    ds = Dataset(features=feats, labels=labels)
    again = parse_libsvm(dumps_libsvm(ds), d_hint=width)
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)


class TestPartition:
    def make(self, count):
        g = np.random.default_rng(0)
        return Dataset(features=g.standard_normal((count, 3)),
                       labels=np.where(g.random(count) < 0.5, -1.0, 1.0))

    def test_even_split(self):
        part = partition(self.make(10), n=2, shuffle_seed=1)
        assert part.m == 5 and all(len(s) == 5 for s in part.shards)

    def test_remainder_dropped(self):
        part = partition(self.make(11), n=2, shuffle_seed=1)
        assert part.m == 5
        assigned = np.concatenate(part.shards)
        assert len(assigned) == 10 and len(np.unique(assigned)) == 10

    def test_paper_scale_shape(self):
        part = partition(self.make(2265), n=15, shuffle_seed=1)
        assert part.m == 151

    def test_deterministic(self):
        ds = self.make(23)
        a = partition(ds, 4, shuffle_seed=9)
        b = partition(ds, 4, shuffle_seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.shards, b.shards))

    def test_different_seed_differs(self):
        ds = self.make(40)
        a = partition(ds, 4, shuffle_seed=1)
        b = partition(ds, 4, shuffle_seed=2)
        assert any(not np.array_equal(x, y) for x, y in zip(a.shards, b.shards))

    def test_too_many_workers(self):
        with pytest.raises(InputError):
            partition(self.make(3), n=4, shuffle_seed=0)

    def test_full_coverage_when_n_divides(self):
        part = partition(self.make(12), n=3, shuffle_seed=5)
        assert sorted(np.concatenate(part.shards)) == list(range(12))


class TestSynthetic:
    def test_paper_scale_shape(self):
        ds = synth_artificial(100, 10, 200, seed=4)
        assert len(ds) == 1000 and ds.d == 200

    def test_single_point(self):
        ds = synth_artificial(1, 1, 1, seed=4)
        assert ds.features.shape == (1, 1)

    def test_mean_within_clt_band(self):
        n, m, d = 100, 10, 200
        ds = synth_artificial(n, m, d, seed=7)
        band = 3.0 * np.sqrt(10.0 / (n * m * d))
        assert abs(ds.features.mean() - 10.0) <= band

    def test_variance_knob(self):
        ds = synth_artificial(50, 10, 50, seed=7, variance=10.0)
        assert abs(ds.features.std() - np.sqrt(10.0)) < 0.1

    def test_labels_are_signs(self):
        ds = synth_artificial(10, 10, 3, seed=1)
        assert set(np.unique(ds.labels)) == {-1.0, 1.0}

    def test_deterministic_per_seed(self):
        a = synth_artificial(5, 5, 4, seed=42)
        b = synth_artificial(5, 5, 4, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestFiles:
    def test_plain_and_gzip_loaders(self, tmp_path):
        ds = synth_artificial(3, 4, 5, seed=0)
        plain = tmp_path / "d.libsvm"
        packed = tmp_path / "d.libsvm.gz"
        save_dataset(ds, plain)
        save_dataset(ds, packed)
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        for path in (plain, packed):
            again = load_dataset(path, d_hint=ds.d)
            assert np.array_equal(again.features, ds.features)
            assert np.array_equal(again.labels, ds.labels)
