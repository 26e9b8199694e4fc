#!/usr/bin/env python3
"""Validates binary flight-recorder traces emitted by figure sweeps.

Usage: validate_trace.py <dir-or-file>...

Accepts directories (validates every trace_*.bin) or individual files.
An independent stdlib-only reimplementation of the `DMNOFLT1` format
documented in crates/telemetry/src/trace.rs, so format drift between
the Rust writer and this checker fails CI. Checks per file:

  * magic, version, and UTF-8 run labels;
  * the record array is exactly as long as the header says, with no
    trailing bytes, and every record has a known event kind and cause;
  * conservation: the six loss buckets sum to the demand-miss count;
  * when the ring did not wrap, replaying the stored miss-classifying
    events reproduces the header attribution exactly.
"""

import sys
from pathlib import Path

from dmno import Cursor, fail

MAGIC = b"DMNOFLT1"
VERSION = 1
RECORD_BYTES = 32

# EventKind repr(u8) values (trace.rs).
KINDS = set(range(1, 11))
DEMAND_HIT, LATE_ARRIVAL, DEMAND_MISS = 5, 6, 10
# LossCause repr(u8) values.
CAUSES = set(range(0, 7))
CAUSE_EVICTED, CAUSE_DROPPED, CAUSE_MISPREDICTED = 3, 4, 5

BUCKETS = ("covered", "late", "evicted_unused", "dropped", "mispredicted", "no_metadata")


def check_trace(path):
    c = Cursor(path, path.read_bytes())
    if c.take(8) != MAGIC:
        fail(path, "bad magic: not a domino flight-recorder trace")
    version = c.u32()
    if version != VERSION:
        fail(path, f"unsupported trace version {version}")
    c.u32()  # reserved
    labels = {k: c.string() for k in ("workload", "component", "kind")}
    for k, v in labels.items():
        if not v:
            fail(path, f"empty {k} label")
    c.u64(), c.u64(), c.u64()  # events, seed, warmup
    capacity = c.u64()
    recorded = c.u64()
    demand_misses = c.u64()
    header = {name: c.u64() for name in BUCKETS}
    count = c.u64()
    if c.remaining() != count * RECORD_BYTES:
        fail(
            path,
            f"header says {count} records but {c.remaining()} payload "
            f"bytes remain ({count * RECORD_BYTES} expected)",
        )
    replay = dict.fromkeys(BUCKETS, 0)
    replay_misses = 0
    for i in range(count):
        kind, cause, _pad, _stream, _time, _line, _aux = c.unpack("BBHIQQQ")
        if kind not in KINDS:
            fail(path, f"record {i}: unknown event kind {kind}")
        if cause not in CAUSES:
            fail(path, f"record {i}: unknown loss cause {cause}")
        if kind == DEMAND_HIT:
            replay_misses += 1
            replay["covered"] += 1
        elif kind == LATE_ARRIVAL:
            replay_misses += 1
            replay["late"] += 1
        elif kind == DEMAND_MISS:
            replay_misses += 1
            if cause == CAUSE_EVICTED:
                replay["evicted_unused"] += 1
            elif cause == CAUSE_DROPPED:
                replay["dropped"] += 1
            elif cause == CAUSE_MISPREDICTED:
                replay["mispredicted"] += 1
            else:
                replay["no_metadata"] += 1
    if sum(header.values()) != demand_misses:
        fail(
            path,
            f"attribution not conserved: buckets sum to {sum(header.values())} "
            f"but demand_misses = {demand_misses}",
        )
    if recorded <= capacity:
        if count != recorded:
            fail(path, f"unwrapped ring stores {count} events but recorded {recorded}")
        if replay != header or replay_misses != demand_misses:
            fail(path, f"replayed attribution {replay} disagrees with header {header}")
    return demand_misses


def check_dir(d):
    files = sorted(d.glob("trace_*.bin"))
    if not files:
        fail(d, "no trace_*.bin found")
    for p in files:
        check_trace(p)
    print(f"validate_trace: {d}: {len(files)} trace(s) OK")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__.strip())
    for arg in argv[1:]:
        path = Path(arg)
        if path.is_dir():
            check_dir(path)
        else:
            check_trace(path)
            print(f"validate_trace: {path}: OK")


if __name__ == "__main__":
    main(sys.argv)
