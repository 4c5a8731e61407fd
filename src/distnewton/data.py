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

import numpy as np

from .errors import InputError, ParseError
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
        if len(self.shards) != self.n:
            raise InputError("shard count must equal worker count")
        seen = np.concatenate([np.asarray(s) for s in self.shards]) if self.n else np.array([])
        if any(len(s) != self.m for s in self.shards):
            raise InputError("every shard must hold exactly m indices")
        if len(np.unique(seen)) != self.n * self.m:
            raise InputError("shards must be disjoint")


# The widest dataset the parser accepts. Features are stored dense and every
# curvature matrix is d x d, so a wider index is a malformed file, not data
# this simulator can run; rejecting it keeps the parser from allocating a
# rows x index matrix.
MAX_FEATURES = 1 << 16

_NOT_COLON_OR_SPACE = bytes(c for c in range(256) if c not in b": ")


def parse_libsvm(source, d_hint: int | None = None) -> Dataset:
    """Parse LIBSVM text: one "<label> <idx>:<val> ..." record per line.

    Indices are 1-based, must be strictly increasing within a line and
    must not exceed ``MAX_FEATURES``.
    The feature dimension is the largest index seen, or ``d_hint`` if that
    is larger; absent features are zero. Labels are read line by line; the
    feature tokens of all lines are then converted in one pass each by
    ``int`` and ``float`` and checked with numpy. Any error names the first
    offending line in file order.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw

    labels: list[float] = []
    linenos: list[int] = []
    counts: list[int] = []          # feature tokens per record
    toks: list[str] = []
    label_error = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            label_error = ParseError(f"bad label token {tokens[0]!r}", lineno)
            break
        if label not in (-1.0, 0.0, 1.0):
            label_error = ParseError(f"label {tokens[0]!r} outside {{-1, 0, +1}}", lineno)
            break
        labels.append(-1.0 if label <= 0.0 else 1.0)
        linenos.append(lineno)
        counts.append(len(tokens) - 1)
        toks += tokens[1:]

    # Every check below cuts ``ok`` to the first token it rejects, so tokens
    # [0, ok) pass all of them. One colon per token holds for all tokens
    # exactly when colons and spaces alternate in the space-joined tokens.
    n_tok = len(toks)
    spaced = " ".join(toks)
    if spaced.encode().translate(None, _NOT_COLON_OR_SPACE) == (b": " * n_tok)[:-1]:
        ok = n_tok
    else:
        ok = next(k for k, tok in enumerate(toks) if tok.count(":") != 1)
        spaced = " ".join(toks[:ok])
    del toks            # keeps the tokens and the texts split from them from coexisting
    texts = spaced.replace(" ", ":").split(":") if ok else []
    idx = _convert(int, texts[0::2], np.int64)
    val = _convert(float, texts[1::2], np.float64)
    del texts
    ok = min(len(idx), len(val))
    idx, val = idx[:ok], val[:ok]
    per_record = np.asarray(counts, dtype=np.int64)
    record = np.repeat(np.arange(len(counts)), per_record)
    starts = np.cumsum(per_record) - per_record
    prev = np.zeros(ok, dtype=np.int64)
    prev[1:] = idx[:-1]
    prev[starts[starts < ok]] = 0
    finite = np.isfinite(val)
    flagged = np.flatnonzero(~finite | (idx <= prev) | (idx > MAX_FEATURES))
    k = int(flagged[0]) if flagged.size else ok
    if k < n_tok:
        lineno = linenos[record[k]]
        tok = text.splitlines()[lineno - 1].split()[1 + k - starts[record[k]]]
        raise ParseError(_token_error(tok), lineno)
    if label_error is not None:
        raise label_error
    if not labels:
        raise ParseError("no data points in input")

    max_index = max(d_hint or 0, int(idx.max()) if ok else 0)
    features = np.zeros((len(labels), max_index), dtype=np.float64)
    features[record, idx - 1] = val
    return Dataset(features=features, labels=np.asarray(labels, dtype=np.float64))


def _token_error(tok: str) -> str:
    """Why a rejected feature token fails, checked in the order of the
    token-by-token parse.

    It also names an index that ``int`` reads but int64 cannot hold, which
    the batched conversion cuts as it cuts a malformed token.
    """
    index_text, _, value_text = tok.partition(":")
    try:
        index, value = int(index_text), float(value_text)
    except ValueError:
        return f"bad feature token {tok!r}"
    if not math.isfinite(value):
        return f"non-finite feature value {tok!r}"
    if index > MAX_FEATURES:
        return f"feature index {index} exceeds the maximum width {MAX_FEATURES}"
    return f"index {index} not strictly increasing"


def _convert(fn, texts: list[str], dtype) -> np.ndarray:
    """``fn`` of each text, cut before the first text that ``fn`` rejects or
    whose value ``dtype`` cannot hold."""
    try:
        return np.fromiter(map(fn, texts), dtype, len(texts))
    except (ValueError, OverflowError):
        for k, t in enumerate(texts):
            try:
                dtype(fn(t))
            except (ValueError, OverflowError):
                return np.fromiter(map(fn, texts[:k]), dtype, k)
        raise


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
    count = n * m
    feats = standard_normals(seeded_generator(seed, 0), count * d)
    feats = mean + np.sqrt(variance) * feats
    labels = np.where(seeded_generator(seed, 1).random(count) < 0.5, -1.0, 1.0)
    return Dataset(features=feats.reshape(count, d), labels=labels)
