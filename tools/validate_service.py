#!/usr/bin/env python3
"""Validates SERVICE_report.json emitted by domino-serve.

Usage: validate_service.py <file>...

Checks the domino-service/1 schema structurally: field presence and
types, histogram shape (counts == bounds + 1, bounds strictly
increasing), percentile ordering (p50 <= p95 <= p99), and totals
consistency (per-shard batches/events/shed/gaps sum to the run totals,
per_shard length matches shard_count). Exits non-zero with a per-file
message on the first problem, so tools/check.sh can gate on it. Uses
only the stdlib.
"""

import json
import sys
from pathlib import Path

from dmno import fail, is_u64

SCHEMA = "domino-service/1"

RUN_U64_FIELDS = (
    "tenants",
    "events_per_tenant",
    "request_batch",
    "clients",
    "seed",
    "shard_count",
    "events_offered",
    "total_events",
    "total_batches",
    "total_shed",
    "total_gap_events",
    "total_evictions",
    "total_resets",
    "wall_ns",
)
SHARD_U64_FIELDS = (
    "shard",
    "tenants",
    "batches",
    "events",
    "shed",
    "evictions",
    "resets",
    "gap_events",
    "peak_tenants",
    "peak_footprint_bytes",
    "busy_ns",
    "wall_ns",
)


def check_latency(path, obj, where):
    bounds = obj.get("latency_bounds_ns")
    counts = obj.get("latency_counts")
    if not isinstance(bounds, list) or not all(is_u64(b) for b in bounds):
        fail(path, f"{where}: bad latency_bounds_ns")
    if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
        fail(path, f"{where}: latency bounds not strictly increasing")
    if not isinstance(counts, list) or len(counts) != len(bounds) + 1:
        got = len(counts) if isinstance(counts, list) else counts
        fail(path, f"{where}: want {len(bounds) + 1} latency buckets, got {got!r}")
    if not all(is_u64(c) for c in counts) or not is_u64(obj.get("latency_sum_ns")):
        fail(path, f"{where}: bad latency counts or sum")
    pcts = [obj.get(k) for k in ("p50_ns", "p95_ns", "p99_ns")]
    if not all(is_u64(p) for p in pcts):
        fail(path, f"{where}: missing or non-u64 percentile field")
    if not pcts[0] <= pcts[1] <= pcts[2]:
        fail(path, f"{where}: percentiles out of order: {pcts}")
    total = sum(counts)
    if total > 0 and pcts[0] == 0:
        fail(path, f"{where}: populated histogram reports p50 == 0")
    return total


def check_throughput(path, obj, where):
    v = obj.get("throughput_eps")
    if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
        fail(path, f"{where}: bad throughput_eps {v!r}")


def check_report(path, r):
    if not isinstance(r, dict):
        fail(path, "report is not an object")
    if r.get("schema") != SCHEMA:
        fail(path, f"schema is {r.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(r.get("system"), str) or not r["system"]:
        fail(path, "missing or empty string field 'system'")
    for key in RUN_U64_FIELDS:
        if not is_u64(r.get(key)):
            fail(path, f"missing or non-u64 field {key!r}")
    check_throughput(path, r, "run")
    run_latency_n = check_latency(path, r, "run")
    shards = r.get("per_shard")
    if not isinstance(shards, list) or not shards:
        fail(path, "per_shard must be a non-empty list")
    if len(shards) != r["shard_count"]:
        fail(path, f"shard_count={r['shard_count']} but {len(shards)} per_shard entries")
    sums = {k: 0 for k in ("batches", "events", "shed", "gap_events", "evictions", "resets")}
    shard_latency_n = 0
    for i, s in enumerate(shards):
        where = f"per_shard[{i}]"
        if not isinstance(s, dict):
            fail(path, f"{where}: not an object")
        for key in SHARD_U64_FIELDS:
            if not is_u64(s.get(key)):
                fail(path, f"{where}: missing or non-u64 field {key!r}")
        if s["shard"] != i:
            fail(path, f"{where}: shard index {s['shard']} out of order")
        check_throughput(path, s, where)
        shard_latency_n += check_latency(path, s, where)
        for k in sums:
            sums[k] += s[k]
    for k, total_key in (
        ("batches", "total_batches"),
        ("events", "total_events"),
        ("shed", "total_shed"),
        ("gap_events", "total_gap_events"),
        ("evictions", "total_evictions"),
        ("resets", "total_resets"),
    ):
        if sums[k] != r[total_key]:
            fail(path, f"per-shard {k} sum to {sums[k]}, but {total_key}={r[total_key]}")
    if run_latency_n != shard_latency_n:
        fail(path, f"aggregate latency holds {run_latency_n} samples, shards hold {shard_latency_n}")
    if run_latency_n != r["total_batches"]:
        fail(path, f"latency holds {run_latency_n} samples for {r['total_batches']} batches")
    if r["total_events"] + r["total_gap_events"] > r["events_offered"]:
        fail(path, "served + gap events exceed the offered stream length")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__.strip())
    for arg in argv[1:]:
        path = Path(arg)
        try:
            r = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            fail(path, str(e))
        check_report(path, r)
        print(f"validate_service: {path}: OK")


if __name__ == "__main__":
    main(sys.argv)
