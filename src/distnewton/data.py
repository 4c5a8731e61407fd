"""Dataset loading, synthesis, and worker partitioning.

Features are parsed from the de-facto LIBSVM sparse text format but stored
dense: every problem this simulator targets has at most a few hundred
features, and the curvature math downstream is dense anyway. Labels are
normalized to {-1, +1} (inputs using 0/1 are mapped to -1/+1).
"""

from __future__ import annotations

import gzip
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import InputError, ParseError, _finite_real
from .rngs import seeded_generator, standard_normals


@dataclass(frozen=True)
class Dataset:
    """Dense labeled points: features[k] is a row vector, labels[k] in {-1,+1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise InputError("dataset needs at least one point")
        if self.labels.shape != (self.features.shape[0],):
            raise InputError("labels must align with feature rows")
        if not np.all(np.isfinite(self.features)):
            raise InputError("features must be finite")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise InputError("labels must be -1 or +1")

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class Partition:
    """Assignment of dataset rows to n workers with m rows each.

    Points beyond the first n*m of the shuffled order are dropped so every
    worker holds exactly the same number of samples.
    """

    n: int
    m: int
    shards: tuple

    def __post_init__(self):
        if not (self.n >= 1 and self.m >= 1):
            raise InputError(f"a partition needs n, m >= 1, not n={self.n}, m={self.m}")
        if len(self.shards) != self.n:
            raise InputError("shard count must equal worker count")
        if any(np.shape(s) != (self.m,) for s in self.shards):
            raise InputError("every shard must hold exactly m indices")
        seen = np.concatenate(self.shards)
        if not np.issubdtype(seen.dtype, np.integer) or np.any(seen < 0):
            raise InputError("shard indices must be nonnegative integers")
        # a repeat sits next to itself once sorted; a bincount would allocate
        # as many counters as the largest index, which only Problem bounds
        ordered = np.sort(seen)
        if np.any(ordered[1:] == ordered[:-1]):
            raise InputError("shards must be disjoint")


# The widest dataset the parser accepts. Features are stored dense and every
# curvature matrix is d x d, so a wider index is a malformed file, not data
# this simulator can run; rejecting it keeps the parser from allocating a
# rows x index matrix.
MAX_FEATURES = 1 << 16
# The most feature values synth_artificial draws: n*m*d float64 values take
# 8 bytes each, so 2**26 of them hold 512 MiB before any copy is made.
MAX_SYNTH_VALUES = 1 << 26

_NOT_COLON_OR_SPACE = bytes(c for c in range(256) if c not in b": ")


def parse_libsvm(source, d_hint: int | None = None) -> Dataset:
    """Parse LIBSVM text: one "<label> <idx>:<val> ..." record per line.

    Labels are -1, 0 or +1 (0 reads as -1). Indices are 1-based integers,
    strictly increasing within a line and at most ``MAX_FEATURES``; values
    are finite floats. The feature dimension is the largest index seen, or
    ``d_hint`` if that is larger; absent features are zero.

    Valid text is read in one batched pass: the lines are split into
    tokens, and the labels, indices and values are each converted by
    ``float`` or ``int`` in one call and checked with numpy. Only text that
    this pass rejects is scanned line by line, to raise the ParseError of
    the first bad line in file order.
    """
    # checked first: the feature matrix is allocated rows x d_hint wide
    if d_hint is not None and d_hint > MAX_FEATURES:
        raise InputError(f"d_hint {d_hint} exceeds the maximum width {MAX_FEATURES}")
    raw = source if isinstance(source, (bytes, str)) else source.read()
    try:
        text = raw if isinstance(raw, str) else raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {raw[exc.start]:#04x} is not UTF-8 text",
                         raw.count(b"\n", 0, exc.start) + 1) from None

    label_texts: list[str] = []
    counts: list[int] = []          # feature tokens per record
    toks: list[str] = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens:
            label_texts.append(tokens[0])
            counts.append(len(tokens) - 1)
            toks += tokens[1:]
    n_tok = len(toks)
    spaced = " ".join(toks)
    del toks            # keeps the tokens and the texts split from them from coexisting
    # one colon per token holds for all tokens exactly when colons and
    # spaces alternate in the space-joined tokens
    if spaced.encode().translate(None, _NOT_COLON_OR_SPACE) != (b": " * n_tok)[:-1]:
        _raise_first_fault(text)
    texts = spaced.replace(" ", ":").split(":") if n_tok else []
    del spaced
    try:
        labels = np.fromiter(map(float, label_texts), np.float64, len(label_texts))
        idx = np.fromiter(map(int, texts[0::2]), np.int64, n_tok)
        val = np.fromiter(map(float, texts[1::2]), np.float64, n_tok)
    except (ValueError, OverflowError):     # OverflowError: an index past int64
        _raise_first_fault(text)
    del texts
    per_record = np.asarray(counts, dtype=np.int64)
    record = np.repeat(np.arange(len(counts)), per_record)
    starts = np.cumsum(per_record) - per_record
    prev = np.zeros(n_tok, dtype=np.int64)      # the index before, 0 at a line's start
    prev[1:] = idx[:-1]
    prev[starts[starts < n_tok]] = 0
    if not (np.isin(labels, (-1.0, 0.0, 1.0)).all() and np.isfinite(val).all()
            and (idx > prev).all() and (idx <= MAX_FEATURES).all()):
        _raise_first_fault(text)
    if not label_texts:
        raise ParseError("no data points in input")

    max_index = max(d_hint or 0, int(idx.max()) if n_tok else 0)
    features = np.zeros((len(label_texts), max_index), dtype=np.float64)
    features[record, idx - 1] = val
    return Dataset(features=features, labels=np.where(labels <= 0.0, -1.0, 1.0))


def _raise_first_fault(text: str) -> NoReturn:
    """Raise the ParseError of the first bad line, checking token by token
    what ``parse_libsvm`` checks in bulk."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"bad label token {tokens[0]!r}", lineno) from None
        if label not in (-1.0, 0.0, 1.0):
            raise ParseError(f"label {tokens[0]!r} outside {{-1, 0, +1}}", lineno)
        prev = 0
        for tok in tokens[1:]:
            index_text, _, value_text = tok.partition(":")
            try:
                index, value = int(index_text), float(value_text)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite feature value {tok!r}", lineno)
            if index > MAX_FEATURES:
                raise ParseError(f"feature index {index} exceeds the maximum width "
                                 f"{MAX_FEATURES}", lineno)
            if index <= prev:
                raise ParseError(f"index {index} not strictly increasing", lineno)
            prev = index
    raise AssertionError("the batched checks rejected text that every line passes")


def dumps_libsvm(ds: Dataset) -> str:
    """Serialize back to LIBSVM text; floats use shortest round-trip repr."""
    lines = []
    for a, b in zip(ds.features, ds.labels):
        nz = np.nonzero(a)[0]
        parts = ["+1" if b > 0 else "-1"]
        parts.extend(f"{j + 1}:{float(a[j])!r}" for j in nz)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_dataset(path: str | Path, d_hint: int | None = None) -> Dataset:
    """Load a LIBSVM file, transparently handling gzip compression."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return parse_libsvm(io.BytesIO(raw), d_hint=d_hint)


def save_dataset(ds: Dataset, path: str | Path) -> None:
    path = Path(path)
    text = dumps_libsvm(ds).encode("utf-8")
    if path.suffix == ".gz":
        # mtime pinned so identical datasets produce identical bytes
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as fh:
            fh.write(text)
        path.write_bytes(buf.getvalue())
    else:
        path.write_bytes(text)


def partition(ds: Dataset, n: int, shuffle_seed: int) -> Partition:
    """Split the dataset across n workers, m = floor(count / n) rows each.

    Rows are shuffled deterministically by the seed, the first n*m are
    assigned round-robin, and any remainder is dropped.
    """
    count = len(ds)
    if n < 1 or n > count:
        raise InputError(f"worker count {n} must be in [1, {count}]")
    m = count // n
    gen = seeded_generator(shuffle_seed)
    order = gen.permutation(count)[: n * m]
    shards = tuple(order[i::n] for i in range(n))
    return Partition(n=n, m=m, shards=shards)


def synth_artificial(n: int, m: int, d: int, seed: int,
                     mean: float = 10.0, variance: float = 10.0) -> Dataset:
    """Gaussian synthetic dataset: n*m points, entries ~ Normal(mean, variance).

    Labels are uniform on {-1, +1}. The spread parameter is interpreted as a
    variance (std dev sqrt(variance)); pass ``variance=100.0`` to reinterpret
    a "spread 10" as a standard deviation instead.
    """
    if n < 1 or m < 1 or d < 1:
        raise InputError("n, m, d must all be positive")
    if d > MAX_FEATURES:        # parse_libsvm could not read the file back
        raise InputError(f"d {d} exceeds the maximum width {MAX_FEATURES}")
    if n * m * d > MAX_SYNTH_VALUES:
        raise InputError(f"n*m*d = {n * m * d} exceeds {MAX_SYNTH_VALUES} values")
    if not _finite_real(mean):
        raise InputError(f"mean must be finite, not {mean!r}")
    if not (_finite_real(variance) and variance >= 0):
        raise InputError(f"variance must be finite and nonnegative, not {variance!r}")
    mean, variance = float(mean), float(variance)   # numpy takes no int past int64
    count = n * m
    feats = standard_normals(seeded_generator(seed, 0), count * d)
    feats = mean + np.sqrt(variance) * feats
    labels = np.where(seeded_generator(seed, 1).random(count) < 0.5, -1.0, 1.0)
    return Dataset(features=feats.reshape(count, d), labels=labels)
