import gzip
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnewton import data
from distnewton.data import (Dataset, dumps_libsvm, load_dataset, parse_libsvm,
                             partition, save_dataset, synth_artificial)
from distnewton.errors import InputError, ParseError
from stand_ins import sparse_binary_dataset


def reference_parse_libsvm(text: str, d_hint: int | None = None) -> Dataset:
    """The token-by-token parser that ``parse_libsvm`` batches; every outcome,
    a Dataset or a ParseError with its message, must match it."""
    rows: list[tuple[list[int], list[float]]] = []
    labels: list[float] = []
    max_index = d_hint or 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label token {tokens[0]!r}", lineno) from None
        if label not in (-1.0, 0.0, 1.0):
            raise ParseError(f"label {tokens[0]!r} outside {{-1, 0, +1}}", lineno)
        labels.append(-1.0 if label <= 0.0 else 1.0)

        idxs: list[int] = []
        vals: list[float] = []
        prev = 0
        for tok in tokens[1:]:
            try:
                idx_text, val_text = tok.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", lineno) from None
            if not math.isfinite(val):
                raise ParseError(f"non-finite feature value {tok!r}", lineno)
            if idx > data.MAX_FEATURES:
                raise ParseError(f"feature index {idx} exceeds the maximum width "
                                 f"{data.MAX_FEATURES}", lineno)
            if idx <= prev:
                raise ParseError(f"index {idx} not strictly increasing", lineno)
            prev = idx
            idxs.append(idx)
            vals.append(val)
        max_index = max(max_index, prev)
        rows.append((idxs, vals))

    if not rows:
        raise ParseError("no data points in input")

    features = np.zeros((len(rows), max_index), dtype=np.float64)
    for k, (idxs, vals) in enumerate(rows):
        features[k, np.asarray(idxs, dtype=np.int64) - 1] = vals
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.float64))


def parse_outcome(parse, text: str, d_hint: int | None = None):
    """What a parser makes of the text: the dataset's bytes, or the error."""
    try:
        ds = parse(text, d_hint=d_hint)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line
    return ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


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

    def test_d_hint_past_the_maximum_width_is_rejected(self, monkeypatch):
        monkeypatch.setattr(data, "MAX_FEATURES", 4)
        assert parse_libsvm("+1 1:1\n", d_hint=4).d == 4
        with pytest.raises(InputError, match="d_hint 5 exceeds the maximum width 4"):
            parse_libsvm("+1 1:1\n", d_hint=5)

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

    def test_index_past_int64_reports_line(self):
        with pytest.raises(ParseError, match="exceeds the maximum width") as exc:
            parse_libsvm("+1 1:1\n-1 100000000000000000000:1\n")
        assert exc.value.line == 2

    def test_index_past_the_maximum_width_reports_line(self, monkeypatch):
        monkeypatch.setattr(data, "MAX_FEATURES", 4)
        assert parse_libsvm("+1 4:1\n").d == 4
        with pytest.raises(ParseError, match="feature index 5 exceeds the maximum width 4") \
                as exc:
            parse_libsvm("+1 4:1\n-1 1:1 5:1\n")
        assert exc.value.line == 2

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

    def test_bytes_that_are_not_utf8_report_line(self):
        with pytest.raises(ParseError, match="line 2: byte 0xff is not UTF-8") as exc:
            parse_libsvm(b"+1 1:1\n-1 1:\xff\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("text", [
        "+1 1:2:3\n", "+1 1:2:3 4\n", "+1 4\n", "+1 1:\n", "+1 :5\n",
        "+1 1:nan\n", "+1 3:1 2:1\n", "+1 1_0:1\n", "2 1:1\n",
        "+1 1:1\n-1 2:1\n+1 1:x\n\n5 1:1\n",     # bad feature before a bad label
        "+1 1:1\n-1 2:1 2:nan\n", "+1 2:1 1:nan\n", "-1\n+1 1:1 :\n",
        "+1 1:1\n-1 100000000000000000000:1\n", "+1 100000000000000000000:x\n",
        "+1 100000000000000000000:nan\n", "+1 3:1 70000:1\n", "+1 70000:1 2:1\n",
    ])
    def test_outcome_matches_the_reference(self, text):
        outcome = parse_outcome(parse_libsvm, text)
        assert outcome == parse_outcome(reference_parse_libsvm, text)


def test_valid_text_never_enters_the_line_scan(monkeypatch):
    def scan(text):
        raise AssertionError("line scan entered")

    monkeypatch.setattr(data, "_raise_first_fault", scan)
    ds = sparse_binary_dataset(count=2265, d=123, nnz=14, seed=20240601)
    again = parse_libsvm(dumps_libsvm(ds).replace("\n-1 ", "\n0 ").encode(), d_hint=123)
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)
    with pytest.raises(AssertionError, match="line scan entered"):
        parse_libsvm("+1 2:1 1:1\n")


# one_of picks a branch uniformly, so repeated branches make well-formed
# tokens common and errors also turn up late in a file
LABEL_TEXTS = st.one_of(*[st.sampled_from(["+1", "-1", "0", "1", "1.0"]) for _ in range(9)],
                        st.sampled_from(["2", "x", "-1:1"]))
FEATURE_TEXTS = st.one_of(
    *[st.builds("{}:{}".format, st.sampled_from(["1", "2", "3", "7", "1_0", "+4",
                                                     "70000", "100000000000000000000"]),
                st.sampled_from(["1", "0.5", "-0.0", "1e-3", "1_5"])) for _ in range(20)],
    st.builds("{}:{}".format, st.sampled_from(["0", "-1", "", "a"]), st.just("1")),
    st.builds("{}:{}".format, st.just("1"),
              st.sampled_from(["nan", "-inf", "1e400", "", "x", "2:3"])),
    st.sampled_from(["4", ":", "::"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(LABEL_TEXTS, st.lists(FEATURE_TEXTS, max_size=5)), max_size=6),
       st.sampled_from([None, 2, 20]))
def test_outcome_matches_the_reference_on_any_tokens(records, d_hint):
    text = "\n".join(" ".join([label, *feats]) for label, feats in records)
    outcome = parse_outcome(parse_libsvm, text, d_hint)
    assert outcome == parse_outcome(reference_parse_libsvm, text, d_hint)


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

    @pytest.mark.parametrize("name, value", [
        ("variance", -1.0), ("variance", math.inf), ("variance", math.nan),
        ("mean", math.nan), ("mean", -math.inf)])
    def test_out_of_range_moments_rejected(self, name, value):
        with pytest.raises(InputError, match=f"^{name} must"):
            synth_artificial(2, 2, 2, seed=0, **{name: value})

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
