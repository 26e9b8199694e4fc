#!/usr/bin/env sh
# Offline lint gate: formatting + clippy with warnings denied + a
# release build with warnings denied + tests + a telemetry schema smoke
# run + the differential checker. Everything here runs without network
# access (the workspace has no external dependencies), so it is usable
# as a pre-push hook or CI step in air-gapped environments.
#
#   tools/check.sh          # everything
#   tools/check.sh --fast   # fmt + clippy only
#
# A per-stage timing summary is printed at the end.

set -eu

cd "$(dirname "$0")/.."

# --- per-stage timing -------------------------------------------------
# mark <name> closes the previous stage and opens <name>; POSIX sh, so
# timings accumulate in a string rather than an array (1 s resolution).
stage_times=""
stage_name=""
stage_start=0
mark() {
    now=$(date +%s)
    if [ -n "$stage_name" ]; then
        stage_times="${stage_times}${stage_name}:$((now - stage_start))\n"
    fi
    stage_name="${1:-}"
    stage_start=$now
}
summary() {
    mark ""
    printf '\nper-stage timing:\n'
    # shellcheck disable=SC2059 # stage_times embeds its own \n markers
    printf "$stage_times" | while IFS=: read -r name secs; do
        if [ -n "$name" ]; then
            printf '  %-28s %4ss\n' "$name" "$secs"
        fi
    done
}

mark fmt
echo "==> cargo fmt --check"
cargo fmt --check

mark clippy
echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "${1:-}" != "--fast" ]; then
    mark build-release
    echo "==> cargo build --release (deny warnings)"
    RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace

    mark test
    echo "==> cargo test"
    cargo test --workspace -q

    mark test-threads
    echo "==> cargo test with 4 test threads (surfaces races on 1-core hosts)"
    RUST_TEST_THREADS=4 cargo test --workspace -q

    mark telemetry-smoke
    echo "==> telemetry schema smoke run"
    smoke_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir"' EXIT
    cargo run --release -q -p domino-sim --bin report -- --smoke "$smoke_dir"
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/validate_telemetry.py "$smoke_dir"
    else
        echo "    (python3 not found; skipping JSON schema validation)"
    fi

    mark bench-guard
    echo "==> bench regression guard (DOMINO_SKIP_BENCH_GUARD=1 to skip)"
    if [ "${DOMINO_SKIP_BENCH_GUARD:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_BENCH_GUARD=1)"
    elif ! command -v python3 >/dev/null 2>&1; then
        echo "    (python3 not found; skipping bench comparison)"
    else
        bench_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}"' EXIT
        # Same scale and job count as the committed BENCH_sweep.json so
        # the per-figure events_per_sec columns are comparable.
        cargo run --release -q --example figures -- 20000 --jobs 1 "$bench_dir" \
            >/dev/null
        python3 tools/bench_guard.py BENCH_sweep.json "$bench_dir/BENCH_sweep.json"
    fi

    mark rivals-smoke
    echo "==> modern-rivals figure smoke"
    # The rivals head-to-head (STMS/Digram/Domino/Pangloss/Triangel) at a
    # reduced event count: the stage fails if any rival's cell panics,
    # and both post-Domino systems must appear in the rendered tables.
    rivals_out=$(mktemp)
    trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}"' EXIT
    cargo run --release -q --example rivals -- 6000 --jobs 2 >"$rivals_out"
    grep -q "Pangloss" "$rivals_out"
    grep -q "Triangel" "$rivals_out"

    mark trace-smoke
    echo "==> flight-recorder trace smoke run"
    trace_dir=$(mktemp -d)
    trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "$trace_dir"' EXIT
    cargo run --release -q -p domino-sim --bin explain -- --smoke "$trace_dir"
    cargo run --release -q -p domino-sim --bin explain -- "$trace_dir" --csv >/dev/null
    if command -v python3 >/dev/null 2>&1; then
        python3 tools/validate_trace.py "$trace_dir"
    else
        echo "    (python3 not found; skipping binary trace validation)"
    fi

    mark differential-check
    echo "==> differential checker smoke (DOMINO_SKIP_CHECK=1 to skip)"
    if [ "${DOMINO_SKIP_CHECK:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_CHECK=1)"
    else
        check_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "$check_dir"' EXIT
        # Any oracle violation exits nonzero and fails the gate (set -e).
        # Reproducers go to the gitignored check-failures/ so a failing
        # run leaves its shrunk trace behind for replay.
        cargo run --release -q -p domino-check -- --smoke --out check-failures
        # Prove the shrink + reproducer machinery end to end (its
        # forced reproducer is disposable, so it goes to the tmp dir).
        cargo run --release -q -p domino-check -- --force-fail --out "$check_dir" \
            >/dev/null
    fi

    mark session-partition
    echo "==> session partition (DOMINO_SKIP_CHECK=1 to skip)"
    if [ "${DOMINO_SKIP_CHECK:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_CHECK=1)"
    else
        # Every roster system, every generator family: feeding the
        # engines in 1-, 7-, 64-event or whole-trace increments, cached
        # or streamed, must be byte-identical to one whole-trace feed.
        cargo run --release -q -p domino-check -- --session-partition \
            --events 1200 --out check-failures
    fi

    mark stream-parity
    echo "==> streamed-vs-cached parity (DOMINO_SKIP_CHECK=1 to skip)"
    if [ "${DOMINO_SKIP_CHECK:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_CHECK=1)"
    else
        # Every roster system, both engines, raw and Sequitur-compressed
        # DMNOTRC1 files: replay through the double-buffered file source
        # must be byte-identical to the cached-slice runs.
        cargo run --release -q -p domino-check -- --stream-parity \
            --events 800 --out check-failures
    fi

    mark service-smoke
    echo "==> metadata service smoke (DOMINO_SKIP_SERVICE=1 to skip)"
    if [ "${DOMINO_SKIP_SERVICE:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_SERVICE=1)"
    else
        # 1,000 concurrent Domino tenant streams through the sharded
        # service; the schema-versioned SLO report must validate.
        service_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "${check_dir:-}" "$service_dir"' EXIT
        cargo run --release -q -p domino-service --bin domino-serve -- \
            --smoke "$service_dir"
        if command -v python3 >/dev/null 2>&1; then
            python3 tools/validate_service.py "$service_dir/SERVICE_report.json"
        else
            echo "    (python3 not found; skipping service report validation)"
        fi
    fi

    mark obs-smoke
    echo "==> observability plane smoke (DOMINO_SKIP_OBS=1 to skip)"
    if [ "${DOMINO_SKIP_OBS:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_OBS=1)"
    else
        # An armed run: metrics rings + spans flushed to obs_dir, SLO
        # evaluated (shed_ratio only — the blocking policy never sheds,
        # so this passes on arbitrarily slow hosts where wall-clock p99
        # would not be stable), dashboard rendered once, artifacts
        # re-parsed by the independent Python implementation.
        obs_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "${check_dir:-}" "${service_dir:-}" "$obs_dir"' EXIT
        cargo run --release -q -p domino-service --bin domino-serve -- \
            --tenants 64 --events 120 --batch 32 --shards 2 --clients 2 \
            --obs "$obs_dir" --obs-interval 256 --span-rate 4 \
            --slo "shed_ratio<=0.5" --fail-on-shed \
            --out "$obs_dir/SERVICE_report.json"
        cargo run --release -q -p domino-service --bin domino-top -- \
            "$obs_dir" --once
        cargo run --release -q -p domino-service --bin domino-top -- \
            "$obs_dir" --once --csv >/dev/null
        if command -v python3 >/dev/null 2>&1; then
            python3 tools/validate_obs.py "$obs_dir"
        else
            echo "    (python3 not found; skipping obs artifact validation)"
        fi
        # The breach path: an unmeetable SLO must flip the exit status.
        if cargo run --release -q -p domino-service --bin domino-serve -- \
            --tenants 8 --events 64 --batch 32 --shards 2 \
            --obs "$obs_dir/breach" --slo "p99_ns<=1" \
            --out "$obs_dir/breach/SERVICE_report.json" >/dev/null 2>&1; then
            echo "    ERROR: --slo 'p99_ns<=1' did not exit nonzero"
            exit 1
        fi
        echo "    breach exit verified (--slo 'p99_ns<=1' failed as required)"
    fi

    mark ingest-smoke
    echo "==> trace ingestion smoke (DOMINO_SKIP_INGEST=1 to skip)"
    if [ "${DOMINO_SKIP_INGEST:-0}" = "1" ]; then
        echo "    skipped (DOMINO_SKIP_INGEST=1)"
    else
        # Synthesize a DMNOTRC1 trace, re-encode it under the Sequitur
        # codec, digest-verify both files decode identically, round-trip
        # through the ChampSim adapter, replay the file through the
        # service load generator, and cross-check the format with the
        # independent stdlib-Python reimplementation.
        ingest_dir=$(mktemp -d)
        trap 'rm -rf "$smoke_dir" "${bench_dir:-}" "${rivals_out:-}" "${trace_dir:-}" "${check_dir:-}" "${service_dir:-}" "${obs_dir:-}" "$ingest_dir"' EXIT
        ingest() { cargo run --release -q -p domino-trace --bin domino-ingest -- "$@"; }
        ingest synth oltp --events 30000 --chunk-events 1000 \
            --out "$ingest_dir/oltp.dmno"
        ingest compress "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.seq.dmno"
        ingest verify "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.seq.dmno"
        ingest export-champsim "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.champsim"
        ingest champsim "$ingest_dir/oltp.champsim" "$ingest_dir/oltp2.dmno"
        ingest export-champsim "$ingest_dir/oltp2.dmno" "$ingest_dir/oltp2.champsim"
        cmp "$ingest_dir/oltp.champsim" "$ingest_dir/oltp2.champsim"
        cargo run --release -q -p domino-service --bin domino-serve -- \
            --tenants 64 --events 120 --batch 32 --shards 2 --clients 2 \
            --trace-file "$ingest_dir/oltp.seq.dmno" --base-events 30000 \
            --out "$ingest_dir/SERVICE_report.json"
        if command -v python3 >/dev/null 2>&1; then
            python3 tools/validate_ingest.py \
                "$ingest_dir/oltp.dmno" "$ingest_dir/oltp.seq.dmno"
            python3 tools/validate_service.py "$ingest_dir/SERVICE_report.json"
        else
            echo "    (python3 not found; skipping ingest format validation)"
        fi
    fi
fi

echo "check.sh: all clean"
summary
