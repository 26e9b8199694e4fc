#!/usr/bin/env python3
"""Validates telemetry JSON emitted by the figure sweeps.

Usage: validate_telemetry.py <dir-or-file>...

Accepts directories (validates every telemetry_*.json plus the
TELEMETRY_sweep.json aggregate and cross-checks them) or individual
files. Exits non-zero with a per-file message on the first structural
problem, so tools/check.sh can gate on it. Uses only the stdlib.
"""

import json
import sys
from pathlib import Path

from dmno import fail, is_u64

REPORT_SCHEMA = "domino-telemetry/1"
SWEEP_SCHEMA = "domino-telemetry-sweep/1"


def check_report(path, r):
    if not isinstance(r, dict):
        fail(path, "report is not an object")
    if r.get("schema") != REPORT_SCHEMA:
        fail(path, f"schema is {r.get('schema')!r}, want {REPORT_SCHEMA!r}")
    for key in ("workload", "component", "kind"):
        if not isinstance(r.get(key), str) or not r[key]:
            fail(path, f"missing or empty string field {key!r}")
    for key in ("events", "seed", "warmup", "epoch_accesses"):
        if not is_u64(r.get(key)):
            fail(path, f"missing or non-u64 field {key!r}")
    if r["epoch_accesses"] == 0:
        fail(path, "epoch_accesses is zero in an emitted report")
    fields = r.get("fields")
    if not isinstance(fields, list) or not all(isinstance(f, str) for f in fields):
        fail(path, "fields must be a list of strings")
    epochs = r.get("epochs")
    if not isinstance(epochs, list) or not epochs:
        fail(path, "epochs must be a non-empty list")
    prev = [0] * len(fields)
    for i, row in enumerate(epochs):
        if not isinstance(row, list) or len(row) != len(fields):
            fail(path, f"epoch row {i} is ragged ({len(row)} values, {len(fields)} fields)")
        if not all(is_u64(v) for v in row):
            fail(path, f"epoch row {i} has a non-u64 value")
        acc = fields.index("accesses") if "accesses" in fields else None
        if acc is not None and row[acc] < prev[acc]:
            fail(path, f"epoch row {i}: cumulative accesses decreased")
        prev = row
    hists = r.get("histograms")
    if not isinstance(hists, list):
        fail(path, "histograms must be a list")
    for h in hists:
        name = h.get("name") if isinstance(h, dict) else None
        if not isinstance(name, str):
            fail(path, "histogram without a name")
        bounds, counts = h.get("bounds"), h.get("counts")
        if not isinstance(bounds, list) or not all(is_u64(b) for b in bounds):
            fail(path, f"histogram {name!r}: bad bounds")
        if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            fail(path, f"histogram {name!r}: bounds not strictly increasing")
        if not isinstance(counts, list) or len(counts) != len(bounds) + 1:
            fail(path, f"histogram {name!r}: want {len(bounds) + 1} buckets, got {len(counts) if isinstance(counts, list) else counts!r}")
        if not all(is_u64(c) for c in counts) or not is_u64(h.get("sum")):
            fail(path, f"histogram {name!r}: bad counts or sum")
    counters = r.get("counters")
    if not isinstance(counters, list):
        fail(path, "counters must be a list")
    names = []
    for c in counters:
        if not isinstance(c, dict) or not isinstance(c.get("name"), str) or not is_u64(c.get("value")):
            fail(path, "malformed counter entry")
        names.append(c["name"])
    if names != sorted(names):
        fail(path, "counters are not sorted by name")


def cell_key(r):
    return (r["workload"], r["component"], r["kind"])


def load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(path, str(e))


def check_dir(d):
    cells = sorted(d.glob("telemetry_*.json"))
    agg_path = d / "TELEMETRY_sweep.json"
    if not cells and not agg_path.is_file():
        fail(d, "no telemetry_*.json or TELEMETRY_sweep.json found")
    cell_reports = {}
    for p in cells:
        r = load(p)
        check_report(p, r)
        cell_reports[cell_key(r)] = r
    n = len(cells)
    if agg_path.is_file():
        agg = load(agg_path)
        if agg.get("schema") != SWEEP_SCHEMA:
            fail(agg_path, f"schema is {agg.get('schema')!r}, want {SWEEP_SCHEMA!r}")
        reports = agg.get("reports")
        if not isinstance(reports, list):
            fail(agg_path, "reports must be a list")
        if agg.get("runs") != len(reports):
            fail(agg_path, f"runs={agg.get('runs')} but {len(reports)} reports embedded")
        for r in reports:
            check_report(agg_path, r)
        if cells:
            agg_keys = sorted(cell_key(r) for r in reports)
            if agg_keys != sorted(cell_reports):
                fail(agg_path, "aggregate cells do not match telemetry_*.json files")
            for r in reports:
                if r != cell_reports[cell_key(r)]:
                    fail(agg_path, f"aggregate copy of {cell_key(r)} differs from its cell file")
        n = max(n, len(reports))
    print(f"validate_telemetry: {d}: {n} report(s) OK")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__.strip())
    for arg in argv[1:]:
        path = Path(arg)
        if path.is_dir():
            check_dir(path)
        else:
            r = load(path)
            if isinstance(r, dict) and r.get("schema") == SWEEP_SCHEMA:
                for rep in r.get("reports", []):
                    check_report(path, rep)
            else:
                check_report(path, r)
            print(f"validate_telemetry: {path}: OK")


if __name__ == "__main__":
    main(sys.argv)
