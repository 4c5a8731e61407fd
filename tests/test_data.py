import gzip
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnewton import data
from distnewton.data import (Dataset, Partition, dumps_libsvm, load_dataset,
                             parse_libsvm, partition, save_dataset, synth_artificial)
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
        "+1 1:\ud800\n", "+1 1:1\x00\n", "\x7f\n", "-1\r\n+1 2:3\x1c\x1d0 1:1\x1f3:4\n",
        "+1 0000000000000001:5 000000000000002:-000000000000007\n",
        # past 15 digits float() reads the run: digit arithmetic in float64
        # rounds some 17-digit runs twice, to another number
        "+1 1:87915795054720153 2:-12345678901234567890 3:9999999999999999\n",
        "\u0663 1:1\n", "-1 1:1\u00a02:\u0663\u20283:x\n",
    ] + [f"-1{brk}+1 1:1{brk}0 2:3{brk}"   # each line break, after a label alone
         for brk in ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                     "\u2029"]]
      + [f"{sep}-1{sep}1:1{sep}2:3{sep}\n+1{sep}3:1\n"   # each token separator
         for sep in ["\t", "\x1f", "\u00a0", "\u3000", " \t\x1f "]])
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
# tokens common and errors also turn up late in a file. Besides ASCII, the
# texts hold digits int() and float() read (U+0661, U+0663), control bytes
# no token may hold, and digit runs of 15, 16 and 20 digits: the parser
# converts up to 15 by arithmetic and longer ones by int() or float().
LABEL_TEXTS = st.one_of(*[st.sampled_from(["+1", "-1", "0", "1", "1.0"]) for _ in range(9)],
                        st.sampled_from(["2", "x", "-1:1", "-0", "+\u0661", "1\x00",
                                         "000000000000001", "0000000000000001"]))
FEATURE_TEXTS = st.one_of(
    *[st.builds("{}:{}".format, st.sampled_from(["1", "2", "3", "7", "1_0", "+4",
                                                     "70000", "100000000000000000000"]),
                st.sampled_from(["1", "0.5", "-0.0", "1e-3", "1_5"])) for _ in range(20)],
    st.builds("{}:{}".format, st.sampled_from(["0", "-1", "", "a", "\u0663", "3\x7f",
                                               "000000000000002", "0000000000000002"]),
              st.just("1")),
    st.builds("{}:{}".format, st.just("1"),
              st.sampled_from(["nan", "-inf", "1e400", "", "x", "2:3", "-0", "\u0663",
                               "1\x0e", "\x081", "999999999999999", "-999999999999999",
                               "9999999999999999", "12345678901234567890"])),
    st.sampled_from(["4", ":", "::"]))
# every ASCII separator str.split() knows, and non-ASCII ones: U+00A0 splits
# tokens, U+0085 and U+2028 also end lines
SEPARATORS = st.sampled_from([" "] * 8 + ["  ", "\t", "\x1f", "\u00a0"])
LINE_BREAKS = st.sampled_from(["\n"] * 8 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d",
                                            "\x1e", "\x85", "\u2028", "\n\n", "\n \t\n"])
EDGES = st.sampled_from([""] * 4 + [" ", "\t", "\n", "\r\n", "\n \n", "\u00a0"])


@st.composite
def libsvm_texts(draw):
    """LIBSVM-like text: records of the tokens above, with leading, trailing
    and blank lines, any separator between tokens and any line break."""
    text = draw(EDGES)
    records = st.tuples(LABEL_TEXTS, st.lists(FEATURE_TEXTS, max_size=5))
    for k, (label, feats) in enumerate(draw(st.lists(records, max_size=6))):
        text += (draw(LINE_BREAKS) if k else "") + draw(EDGES) + label
        text += "".join(draw(SEPARATORS) + f for f in feats) + draw(EDGES)
    return text + draw(EDGES)


@settings(max_examples=300, deadline=None)
@given(libsvm_texts(), st.sampled_from([None, 2, 20]))
def test_outcome_matches_the_reference_on_any_tokens(text, d_hint):
    expected = parse_outcome(reference_parse_libsvm, text, d_hint)
    assert parse_outcome(parse_libsvm, text, d_hint) == expected
    # as bytes, ASCII text is read without decoding and other text decoded first
    assert parse_outcome(lambda t, d_hint: parse_libsvm(t.encode(), d_hint=d_hint),
                         text, d_hint) == expected


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

    # -1 is a third distinct value, yet it names row 2 again; float indices
    # would end in an IndexError when the rows are gathered
    @pytest.mark.parametrize("shards", [
        (np.array([0]), np.array([2]), np.array([-1])),
        (np.array([0.0]), np.array([2.0]), np.array([1.0]))], ids=["negative", "float"])
    def test_bad_shard_indices_rejected(self, shards):
        with pytest.raises(InputError, match="shard indices"):
            Partition(n=3, m=1, shards=shards)

    @pytest.mark.parametrize("n, m, shards", [(0, 0, ()), (1, 0, (np.zeros(0, int),))])
    def test_empty_partition_rejected(self, n, m, shards):
        with pytest.raises(InputError, match="n, m >= 1"):
            Partition(n=n, m=m, shards=shards)

    def test_overlapping_shards_rejected(self):
        with pytest.raises(InputError, match="disjoint"):
            Partition(n=2, m=2, shards=(np.array([0, 3]), np.array([1, 3])))


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
        ("mean", math.nan), ("mean", -math.inf),
        pytest.param("mean", 10**400, id="mean-huge-int"),
        pytest.param("variance", 10**400, id="variance-huge-int")])
    def test_out_of_range_moments_rejected(self, name, value):
        with pytest.raises(InputError, match=f"^{name} must"):
            synth_artificial(2, 3, 4, 0, **{name: value})

    def test_count_past_the_bound_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew normals")
        monkeypatch.setattr(data, "standard_normals", no_draw)
        for n, m, d in ((10**9, 10**9, 3), (1024, 1024, 65)):   # 65 * 2**20 > 2**26
            with pytest.raises(InputError, match=r"^n\*m\*d = "):
                synth_artificial(n, m, d, seed=1)

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
