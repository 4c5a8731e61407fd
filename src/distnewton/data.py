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

# The most digits a field converted by arithmetic may have: its value is
# below 2**53, so each step of the conversion is exact in float64 and the
# result is the number int() or float() reads from the same bytes.
_MAX_DIGITS = 15


def parse_libsvm(source, d_hint: int | None = None) -> Dataset:
    """Parse LIBSVM text: one "<label> <idx>:<val> ..." record per line.

    Labels are -1, 0 or +1 (0 reads as -1). Indices are 1-based integers,
    strictly increasing within a line and at most ``MAX_FEATURES``; values
    are finite floats. The feature dimension is the largest index seen, or
    ``d_hint`` if that is larger; absent features are zero.

    Valid text is read in one numpy pass over its bytes (``_byte_pass``).
    Text with a non-ASCII character is first split by ``str.splitlines``
    and ``str.split`` and joined again with ASCII separators. Only text
    that the pass rejects is scanned line by line, to raise the ParseError
    of the first bad line in file order.
    """
    # checked first: the feature matrix is allocated rows x d_hint wide
    if d_hint is not None and d_hint > MAX_FEATURES:
        raise InputError(f"d_hint {d_hint} exceeds the maximum width {MAX_FEATURES}")
    raw = source if isinstance(source, (bytes, str)) else source.read()
    text = raw if isinstance(raw, str) else None    # decoded only when needed
    if text is None and not raw.isascii():
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte {raw[exc.start]:#04x} is not UTF-8 text",
                             raw.count(b"\n", 0, exc.start) + 1) from None
    if text is not None:    # surrogatepass: a lone surrogate fails float(), not encode()
        raw = text.encode() if text.isascii() else "\n".join(
            " ".join(line.split()) for line in text.splitlines()).encode(
                "utf-8", "surrogatepass")

    parsed = _byte_pass(raw)
    if parsed is None:
        _raise_first_fault(raw.decode() if text is None else text)
    labels, record, idx, val = parsed
    if not len(labels):
        raise ParseError("no data points in input")

    max_index = max(d_hint or 0, int(idx.max()) if len(idx) else 0)
    features = np.zeros((len(labels), max_index), dtype=np.float64)
    features[record, idx - 1] = val
    return Dataset(features=features, labels=np.where(labels <= 0.0, -1.0, 1.0))


def _byte_pass(raw: bytes):
    """The labels, each feature's record, indices and values of text whose
    separators are ASCII, or None if the text breaks a rule that
    ``_raise_first_fault`` checks.

    ASCII whitespace is bytes 9-13 and 28-32; of those, 10-13 and 28-30 end
    a line (``str.split`` and ``str.splitlines``). Every other byte is token
    text: a control byte there fails int() and float() like any bad token."""
    buf = np.frombuffer(raw, dtype=np.uint8)
    space = np.ones(len(buf) + 2, dtype=bool)
    np.logical_or(buf - 9 < 5, buf - 28 < 5, out=space[1:-1])
    bounds = np.flatnonzero(space[1:] != space[:-1])    # token starts and ends, alternating
    starts, ends = bounds[0::2], bounds[1::2]
    # the first token after a line break, and the first of all, opens a record
    opens = np.zeros(len(starts) + 1, dtype=bool)
    opens[np.searchsorted(starts, np.flatnonzero((buf - 10 < 4) | (buf - 28 < 3)))] = True
    opens = opens[:-1]
    opens[:1] = True
    feat = np.flatnonzero(~opens)
    colons = np.flatnonzero(buf == ord(":"))
    # the k-th colon lies inside the k-th feature token with text on both
    # sides: then every feature token holds exactly one colon and no label any
    lo, hi = starts[feat], ends[feat]
    if not (len(colons) == len(feat) and (lo < colons).all() and (colons < hi - 1).all()):
        return None

    labels = _field_numbers(buf, starts[opens], ends[opens], float)
    idx = _field_numbers(buf, lo, colons, int)
    val = _field_numbers(buf, colons + 1, hi, float)
    if labels is None or idx is None or val is None:
        return None
    prev = np.zeros_like(idx)       # the index before, 0 at a record's first feature
    prev[1:] = idx[:-1]
    prev[opens[feat - 1]] = 0
    if not (np.isin(labels, (-1.0, 0.0, 1.0)).all() and np.isfinite(val).all()
            and (idx > prev).all() and (idx <= MAX_FEATURES).all()):
        return None
    per_record = np.diff(np.append(np.flatnonzero(opens), len(opens))) - 1
    return labels, np.repeat(np.arange(len(labels)), per_record), idx, val


def _field_numbers(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, kind):
    """The numbers ``kind`` (int or float) reads from the fields
    ``buf[lo:hi]``, or None if one is not such a number.

    A field of at most ``_MAX_DIGITS`` ASCII digits after an optional sign
    is converted by digit arithmetic, one digit column at a time; any other
    goes through ``kind``."""
    sign = buf[lo]
    first = lo + ((sign == ord("+")) | (sign == ord("-")))
    digits = hi - first
    plain = (digits >= 1) & (digits <= _MAX_DIGITS)
    number = np.zeros(len(lo))
    for k in range(_MAX_DIGITS):
        live = plain & (digits > k)
        if not live.any():
            break
        digit = buf.take(first + k, mode="clip") - 48     # clipped bytes are not live
        plain &= ~live | (digit < 10)
        number = np.where(live, number * 10 + digit, number)
    np.negative(number, out=number, where=sign == ord("-"))
    out = number.astype(np.int64) if kind is int else number

    q = np.flatnonzero(~plain)
    if len(q):
        # the other fields alone, every byte around them made a space: the
        # fields are disjoint and none is empty, so each bound toggles once
        bounds = np.zeros(len(buf) + 1, dtype=bool)
        bounds[lo[q]] = bounds[hi[q]] = True
        kept = (buf - 32) * np.logical_xor.accumulate(bounds)[:-1] + 32
        try:
            texts = kept.tobytes().decode("utf-8", "surrogatepass").split()
            out[q] = np.fromiter(map(kind, texts), out.dtype, len(q))
        except (ValueError, OverflowError):     # OverflowError: an index past int64
            return None
    return out


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
