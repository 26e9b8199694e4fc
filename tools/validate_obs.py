#!/usr/bin/env python3
"""Validates the observability-plane artifacts of an armed domino-serve run.

Usage: validate_obs.py <dir>

The directory is what `domino-serve --obs DIR` leaves behind:
OBS_report.json plus the per-shard binary rings (metrics_shard*.bin,
spans_shard*.bin). Everything is re-parsed from scratch here — an
independent stdlib-only implementation of both binary formats
(DMNOMTR1, DMNOSPN1) and of the deterministic span sampler — so a bug
in the Rust serializers cannot hide behind its own reader. Checks:

- OBS_report.json: domino-obs/1 schema, field presence and types,
  per-shard consistency (spans_stored <= spans_recorded), SLO block
  shape (objective breach flags consistent with the overall verdict).
- metrics rings: header sanity, row count == min(sampled, capacity),
  nondecreasing stamps, and counter conservation (sum of stored deltas
  == final totals) whenever the ring has not wrapped.
- span rings: record chronology (submit <= enqueue <= dequeue <= step
  <= reply) and sampler membership — every stored span must be one the
  pure (seed, tenant, seq) hash would have selected.
- cross-checks: binary totals must equal the numbers OBS_report.json
  claims for the same shard.

Exits non-zero with a message on the first problem, so tools/check.sh
can gate on it.
"""

import json
import sys
from pathlib import Path

from dmno import U64_MAX, Cursor, fail, is_u64

SCHEMA = "domino-obs/1"
RING_MAGIC = b"DMNOMTR1"
SPAN_MAGIC = b"DMNOSPN1"


def sampled(rate, seed, tenant, seq):
    """The SpanSampler hash, bit-for-bit: SplitMix64 finalizer over the
    mixed (seed, tenant, seq) key, modulo the 1-in-N rate."""
    if rate == 0:
        return False
    if rate == 1:
        return True
    x = (seed + tenant * 0x9E3779B97F4A7C15 + seq * 0xBF58476D1CE4E5B9) & U64_MAX
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & U64_MAX
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & U64_MAX
    x ^= x >> 31
    return x % rate == 0


def parse_ring(path):
    c = Cursor(path, path.read_bytes())
    if c.take(8) != RING_MAGIC:
        fail(path, "bad magic: not a domino metrics ring")
    if c.u32() != 1:
        fail(path, "unsupported ring version")
    if c.u32() != 0:
        fail(path, "nonzero reserved field")
    source = c.string()
    interval = c.u64()
    capacity = c.u64()
    width = c.u64()
    sampled_rows = c.u64()
    if capacity == 0 or width == 0:
        fail(path, "zero capacity or width")
    specs = [(c.string(), c.u8()) for _ in range(width)]
    for name, kind in specs:
        if not name or kind not in (0, 1):
            fail(path, f"bad metric spec {name!r} kind {kind}")
    if len({name for name, _ in specs}) != width:
        fail(path, "duplicate metric names")
    totals = [c.u64() for _ in range(width)]
    count = c.u64()
    if count != min(sampled_rows, capacity):
        fail(path, f"stored {count} rows, want min(sampled={sampled_rows}, cap={capacity})")
    rows = []
    for _ in range(count):
        stamp = c.u64()
        rows.append((stamp, [c.u64() for _ in range(width)]))
    c.done()
    for prev, cur in zip(rows, rows[1:]):
        if cur[0] < prev[0]:
            fail(path, f"stamps regress: {prev[0]} then {cur[0]}")
    if sampled_rows <= capacity:  # unwrapped: deltas must conserve
        for col, (name, kind) in enumerate(specs):
            if kind != 0:
                continue
            delta_sum = sum(v[col] for _, v in rows)
            if delta_sum != totals[col]:
                fail(path, f"counter {name!r}: stored deltas sum to {delta_sum}, total {totals[col]}")
    return {
        "source": source,
        "interval": interval,
        "sampled": sampled_rows,
        "wrapped": sampled_rows > capacity,
        "totals": dict(zip((n for n, _ in specs), totals)),
    }


def parse_spans(path):
    c = Cursor(path, path.read_bytes())
    if c.take(8) != SPAN_MAGIC:
        fail(path, "bad magic: not a domino span file")
    if c.u32() != 1:
        fail(path, "unsupported span version")
    if c.u32() != 0:
        fail(path, "nonzero reserved field")
    source = c.string()
    rate = c.u32()
    seed = c.u64()
    capacity = c.u64()
    recorded = c.u64()
    count = c.u64()
    if count != min(recorded, capacity):
        fail(path, f"stored {count} spans, want min(recorded={recorded}, cap={capacity})")
    for i in range(count):
        tenant, seq, _shard, events = c.unpack("QQII")
        stamps = c.unpack("5Q")
        if events == 0:
            fail(path, f"span {i}: empty batch")
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            fail(path, f"span {i} (tenant {tenant}, seq {seq}): stamps out of order {stamps}")
        if not sampled(rate, seed, tenant, seq):
            fail(path, f"span {i} (tenant {tenant}, seq {seq}): sampler would not select it")
    c.done()
    return {"source": source, "rate": rate, "seed": seed, "recorded": recorded, "stored": count}


SHARD_U64_FIELDS = (
    "intervals",
    "events",
    "batches",
    "shed",
    "blocked",
    "evictions",
    "resets",
    "spans_recorded",
    "spans_stored",
)
OBJECTIVE_FIELDS = ("threshold", "value", "fast_burn", "slow_burn")


def check_slo(path, slo):
    if not isinstance(slo, dict):
        fail(path, "slo is not an object")
    if not isinstance(slo.get("spec"), str):
        fail(path, "slo: missing string field 'spec'")
    for key in ("fast_window", "slow_window"):
        if not is_u64(slo.get(key)):
            fail(path, f"slo: missing or non-u64 field {key!r}")
    if not isinstance(slo.get("breached"), bool):
        fail(path, "slo: missing bool field 'breached'")
    objectives = slo.get("objectives")
    if not isinstance(objectives, list):
        fail(path, "slo: objectives must be a list")
    any_breach = False
    for i, o in enumerate(objectives):
        where = f"slo.objectives[{i}]"
        if not isinstance(o, dict) or not isinstance(o.get("name"), str):
            fail(path, f"{where}: not an object with a name")
        for key in OBJECTIVE_FIELDS:
            v = o.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                fail(path, f"{where}: bad field {key!r}: {v!r}")
        if not isinstance(o.get("breached"), bool):
            fail(path, f"{where}: missing bool field 'breached'")
        any_breach = any_breach or o["breached"]
    if slo["spec"] and any_breach != slo["breached"]:
        fail(path, f"slo: objective breaches say {any_breach}, overall verdict says {slo['breached']}")


def check_report(path, r, rings, spans):
    if not isinstance(r, dict):
        fail(path, "report is not an object")
    if r.get("schema") != SCHEMA:
        fail(path, f"schema is {r.get('schema')!r}, want {SCHEMA!r}")
    for key in ("interval_events", "ring_rows", "span_rate", "span_seed"):
        if not is_u64(r.get(key)):
            fail(path, f"missing or non-u64 field {key!r}")
    shards = r.get("per_shard")
    if not isinstance(shards, list) or not shards:
        fail(path, "per_shard must be a non-empty list")
    for i, s in enumerate(shards):
        where = f"per_shard[{i}]"
        if not isinstance(s, dict):
            fail(path, f"{where}: not an object")
        if not isinstance(s.get("source"), str) or not s["source"]:
            fail(path, f"{where}: missing source label")
        for key in SHARD_U64_FIELDS:
            if not is_u64(s.get(key)):
                fail(path, f"{where}: missing or non-u64 field {key!r}")
        for key in ("wrapped", "spans_chronological"):
            if not isinstance(s.get(key), bool):
                fail(path, f"{where}: missing bool field {key!r}")
        if s["spans_stored"] > s["spans_recorded"]:
            fail(path, f"{where}: more spans stored than ever recorded")
        if not s["spans_chronological"]:
            fail(path, f"{where}: spans out of chronological order")
        # Cross-check the binary artifacts for the same shard.
        ring = rings.get(s["source"])
        if ring is None:
            fail(path, f"{where}: no metrics_*.bin for source {s['source']!r}")
        if ring["sampled"] != s["intervals"] or ring["wrapped"] != s["wrapped"]:
            fail(path, f"{where}: ring header disagrees with report")
        for key in ("events", "batches", "shed", "blocked", "evictions", "resets"):
            if ring["totals"].get(key) != s[key]:
                fail(path, f"{where}: ring total {key}={ring['totals'].get(key)}, report says {s[key]}")
        span = spans.get(s["source"])
        if span is None:
            fail(path, f"{where}: no spans_*.bin for source {s['source']!r}")
        if span["rate"] != r["span_rate"] or span["seed"] != r["span_seed"]:
            fail(path, f"{where}: span sampler header disagrees with report")
        if (span["recorded"], span["stored"]) != (s["spans_recorded"], s["spans_stored"]):
            fail(path, f"{where}: span counts disagree with report")
    check_slo(path, r.get("slo"))


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip())
    root = Path(argv[1])
    report_path = root / "OBS_report.json"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(report_path, str(e))
    rings = {}
    spans = {}
    for path in sorted(root.glob("metrics_shard*.bin")):
        ring = parse_ring(path)
        rings[ring["source"]] = ring
    for path in sorted(root.glob("spans_shard*.bin")):
        span = parse_spans(path)
        spans[span["source"]] = span
    if not rings:
        fail(root, "no metrics_shard*.bin files")
    check_report(report_path, report, rings, spans)
    shard_n = len(report["per_shard"])
    print(f"validate_obs: {root}: OK ({shard_n} shards, {len(spans)} span files)")


if __name__ == "__main__":
    main(sys.argv)
