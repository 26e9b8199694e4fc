#!/usr/bin/env python3
"""Bench regression guard: compare a fresh figure-sweep benchmark against
the committed baseline.

Usage: bench_guard.py BASELINE_JSON FRESH_JSON

Both files must be `domino-bench-sweep/4` documents (written by
`cargo run --release --example figures`). The guard refuses to compare
runs from different configurations (events per workload mismatch) — a
cross-config ratio is meaningless, not merely noisy. It
fails (exit 1) if any figure's replay throughput (`events_per_sec`) in
the fresh run drops more than the threshold below the committed
baseline, and applies the same rule to each point of the jobs-scaling
curve that the fresh host can actually drive (fresh `host_cores` >=
the point's job count; oversubscribed points are reported but skipped),
to each streaming-throughput source, and to each system of the
modern-rivals roster section (per-system replay throughput of STMS,
Digram, Domino, Pangloss, Triangel on one OLTP timing cell). The streaming section is also
held to two absolute invariants measured on the fresh run itself: the
raw file-backed stream must reach at least STREAM_RATIO of the
cached-slice throughput (the out-of-core acceptance bound — skipped on
single-core hosts, where the read-ahead thread cannot overlap the
simulation and the ratio would measure the scheduler), and every
source's peak resident trace bytes must stay within its declared
budget. Failure messages carry both throughput numbers so a regression
is diagnosable from the log alone. Skip the guard entirely with
DOMINO_SKIP_BENCH_GUARD=1 in `tools/check.sh` (e.g. on loaded CI
machines or foreign hardware where the committed numbers do not apply).
"""

import json
import sys

# Allowed slowdown before the guard trips. Generous enough for host noise,
# tight enough to catch a real regression in the event loop.
THRESHOLD = 0.25

# Minimum file-streamed/cached throughput ratio on the fresh run: the
# double-buffered read-ahead must keep out-of-core replay within 10% of
# the in-memory slice.
STREAM_RATIO = 0.90

SCHEMA = "domino-bench-sweep/4"


def load(path):
    with open(path) as f:
        data = json.load(f)
    schema = data.get("schema")
    if schema != SCHEMA:
        sys.exit(f"{path}: unexpected schema {schema!r} (want {SCHEMA!r})")
    return data


def figure_map(data):
    return {f["name"]: float(f["events_per_sec"]) for f in data["figures"]}


def scaling_map(data):
    return {
        (p["figure"], int(p["jobs"])): float(p["events_per_sec"])
        for p in data.get("scaling", [])
    }


def streaming_map(data):
    return {s["source"]: s for s in data.get("streaming", [])}


def rivals_map(data):
    return {
        r["system"]: float(r["events_per_sec"]) for r in data.get("rivals", [])
    }


def check_streaming_invariants(fresh):
    """Absolute bounds on the fresh run's streaming section, independent
    of the committed baseline: streamed/cached ratio and memory budget."""
    streaming = streaming_map(fresh)
    failed = []
    for source, s in sorted(streaming.items()):
        peak, budget = int(s["peak_resident_bytes"]), int(s["budget_bytes"])
        if peak > budget:
            failed.append(
                f"streaming {source}: peak resident {peak} bytes exceeds the "
                f"declared budget {budget}"
            )
    ratio = fresh.get("stream_file_vs_cached_ratio")
    if ratio is not None:
        # Measured by the sweep itself from temporally adjacent passes,
        # so host frequency drift between runs cancels out. The floor
        # presumes the read-ahead thread can actually run beside the
        # consumer; on a single-core host decode time-slices with the
        # simulation and the ratio measures the scheduler (same policy
        # as oversubscribed scaling points).
        ratio = float(ratio)
        if int(fresh.get("host_cores", 1)) < 2:
            print(
                f"    streamed/cached ratio {ratio:.2f}x  "
                f"skipped (single-core host cannot overlap decode)"
            )
        else:
            verdict = "ok" if ratio >= STREAM_RATIO else "REGRESSED"
            print(
                f"    streamed/cached ratio {ratio:.2f}x "
                f"(floor {STREAM_RATIO:.2f}x)  {verdict}"
            )
            if ratio < STREAM_RATIO:
                failed.append(
                    f"streaming file: out-of-core replay reached only "
                    f"{ratio:.2f}x of the cached-slice throughput "
                    f"(floor {STREAM_RATIO:.2f}x)"
                )
    return failed


def check_same_config(baseline, fresh):
    """Refuse to compare runs whose throughput numbers are incommensurable."""
    for knob in ("events_per_workload",):
        b, f = baseline.get(knob), fresh.get(knob)
        if b != f:
            sys.exit(
                f"bench guard: configuration mismatch on {knob!r}: baseline ran "
                f"with {b}, fresh with {f} — throughput ratios across different "
                f"configurations are meaningless; regenerate the baseline or "
                f"rerun the sweep at the committed settings"
            )


def compare(label, pairs):
    """pairs: [(name, base_eps, fresh_eps_or_None, skip_reason_or_None)].

    Prints a table; returns failure strings naming both numbers."""
    failed = []
    print(
        f"    {label:<16} {'baseline ev/s':>14} {'fresh ev/s':>14} "
        f"{'ratio':>7}  verdict"
    )
    for name, base_eps, fresh_eps, skip in pairs:
        if skip is not None:
            print(f"    {name:<16} {base_eps:>14.0f} {'-':>14} {'-':>7}  {skip}")
            continue
        if fresh_eps is None:
            print(f"    {name:<16} {base_eps:>14.0f} {'-':>14} {'-':>7}  MISSING")
            failed.append(
                f"{name}: present in baseline ({base_eps:.0f} ev/s) but missing "
                f"from the fresh run"
            )
            continue
        ratio = fresh_eps / base_eps if base_eps > 0 else float("inf")
        ok = ratio >= 1.0 - THRESHOLD
        verdict = "ok" if ok else "REGRESSED"
        print(
            f"    {name:<16} {base_eps:>14.0f} {fresh_eps:>14.0f} "
            f"{ratio:>6.2f}x  {verdict}"
        )
        if not ok:
            failed.append(
                f"{name}: fresh {fresh_eps:.0f} ev/s is {ratio:.2f}x of "
                f"baseline {base_eps:.0f} ev/s"
            )
    return failed


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BASELINE_JSON FRESH_JSON")
    baseline = load(sys.argv[1])
    fresh = load(sys.argv[2])
    check_same_config(baseline, fresh)

    base_figs = figure_map(baseline)
    fresh_figs = figure_map(fresh)
    pairs = [
        (name, eps, fresh_figs.get(name), None)
        for name, eps in sorted(base_figs.items())
    ]
    failed = compare("figure", pairs)

    base_scaling = scaling_map(baseline)
    if base_scaling:
        fresh_scaling = scaling_map(fresh)
        host_cores = int(fresh.get("host_cores", 1))
        pairs = []
        for (figure, jobs), eps in sorted(base_scaling.items()):
            name = f"{figure}@jobs{jobs}"
            if jobs > host_cores:
                # An oversubscribed point measures the scheduler, not the
                # event loop; the committed number came from a host that
                # could drive it.
                pairs.append(
                    (name, eps, None, f"skipped ({host_cores}-core host)")
                )
            else:
                pairs.append((name, eps, fresh_scaling.get((figure, jobs)), None))
        print()
        failed += compare("scaling point", pairs)

    base_streaming = streaming_map(baseline)
    if base_streaming:
        fresh_streaming = streaming_map(fresh)
        pairs = [
            (
                f"stream:{source}",
                float(s["events_per_sec"]),
                (
                    float(fresh_streaming[source]["events_per_sec"])
                    if source in fresh_streaming
                    else None
                ),
                None,
            )
            for source, s in sorted(base_streaming.items())
        ]
        print()
        failed += compare("streaming", pairs)
    failed += check_streaming_invariants(fresh)

    base_rivals = rivals_map(baseline)
    if base_rivals:
        fresh_rivals = rivals_map(fresh)
        pairs = [
            (f"rival:{system}", eps, fresh_rivals.get(system), None)
            for system, eps in sorted(base_rivals.items())
        ]
        print()
        failed += compare("rival system", pairs)

    if failed:
        print()
        for f in failed:
            print(f"    FAIL {f}")
        sys.exit(
            f"bench guard: {len(failed)} measurement(s) more than "
            f"{THRESHOLD:.0%} below the committed BENCH_sweep.json"
        )
    print(f"    all measurements within {THRESHOLD:.0%} of the committed baseline")


if __name__ == "__main__":
    main()
