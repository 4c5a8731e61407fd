"""Print old -> new for every SHA-256 pin (``GOLDEN_*``) of test_worker_pass.py.

Run from the repository root after a change that moves trace bytes:

    PYTHONPATH=src python tests/golden_diff.py

Each pin prints on one line, ``same`` or ``<old> -> <new>``, and the last
line counts the moved pins. The exit status is 1 when any pin moved and 0
when none did. Paste the new digests of the moved pins into
test_worker_pass.py and name every moved key in the change log.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_worker_pass as pins  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests():
    """(table, key, digest the code gives now) for every pin."""
    traces = {key: pins.golden_trace(key) for key in pins.GOLDEN_TRACE_SHA256}
    for key, trace in traces.items():
        yield "GOLDEN_TRACE_SHA256", key, sha256(trace.csv_text())
    for key, trace in traces.items():
        yield "GOLDEN_JSON_SHA256", key, sha256(trace.json_text())
    for key in pins.GOLDEN_LEDGER_SHA256:
        yield ("GOLDEN_LEDGER_SHA256", key,
               sha256(pins.ledger_columns(traces[key].csv_text())))
    for key in pins.GOLDEN_ITERATES_SHA256:
        yield "GOLDEN_ITERATES_SHA256", key, pins.compressed_iterates_digest(key)


def main() -> int:
    moved = 0
    for table, key, new in current_digests():
        old = getattr(pins, table)[key]
        moved += old != new
        print(f"{table}[{key!r}]: " + ("same" if old == new else f"{old} -> {new}"))
    print(f"{moved} moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
