//! Integration tests for the parallel sweep executor (`sim::exec`).
//!
//! The executor promises byte-identical figure output at any job count;
//! the determinism test here is the regression gate for that promise.
//! The smoke test pushes the full figure roster through the executor at
//! a reduced scale, which catches `Send`-bound regressions in any
//! prefetcher (every figure cell moves a built prefetcher to a worker
//! thread) as well as panics in individual runners.

use std::sync::Mutex;

use domino_repro::sim::figures::{
    self, bandwidth_utilization, fig01, fig02, fig03, fig04, fig05, fig06, fig09, fig10, fig11,
    fig12, fig13, fig14, fig15, fig16, Scale,
};
use domino_repro::sim::{exec, observe, CoverageSession, System, SystemConfig};
use domino_repro::telemetry::{Telemetry, TraceMeta};
use domino_repro::trace::workload::catalog;

/// The jobs override is process-global; tests that set it must not
/// interleave.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn fig01_is_byte_identical_at_any_job_count() {
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    exec::set_jobs_override(Some(1));
    let serial = fig01(&scale);
    exec::set_jobs_override(Some(8));
    let parallel = fig01(&scale);
    exec::set_jobs_override(None);
    // Bitwise-equal values (no tolerance: determinism means identity)...
    for (a, b) in serial.values.iter().zip(&parallel.values) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "value drifted between job counts");
        }
    }
    // ...and byte-identical rendered tables.
    assert_eq!(format!("{serial}"), format!("{parallel}"));
}

#[test]
fn telemetry_json_is_byte_identical_at_any_job_count() {
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    let sweep = |jobs| {
        exec::set_jobs_override(Some(jobs));
        observe::set_epoch_override(Some(5_000));
        observe::drain(); // discard anything a previous test left behind
        let tables = fig13(&scale);
        let reports = observe::drain();
        exec::set_jobs_override(None);
        observe::set_epoch_override(None);
        assert!(!reports.is_empty(), "observed fig13 produced no telemetry");
        (tables, observe::aggregate_json(&reports))
    };
    let (serial_tables, serial_json) = sweep(1);
    let (parallel_tables, parallel_json) = sweep(8);
    assert_eq!(
        serial_json, parallel_json,
        "telemetry drifted between job counts"
    );
    for (a, b) in serial_tables.iter().zip(&parallel_tables) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "figure drifted with telemetry on"
        );
    }
}

#[test]
fn trace_files_are_byte_identical_at_any_job_count() {
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    let sweep = |jobs| {
        exec::set_jobs_override(Some(jobs));
        observe::set_trace_override(Some(4096));
        let _ = observe::drain_traces(); // discard leftovers
        let tables = fig13(&scale);
        let traces = observe::drain_traces();
        exec::set_jobs_override(None);
        observe::set_trace_override(None);
        assert!(!traces.is_empty(), "traced fig13 produced no traces");
        let bytes: Vec<(String, Vec<u8>)> = traces
            .iter()
            .map(|t| {
                (
                    observe::trace_filename(&t.meta),
                    t.recorder.to_bytes(&t.meta),
                )
            })
            .collect();
        (tables, bytes)
    };
    let (serial_tables, serial_bytes) = sweep(1);
    let (parallel_tables, parallel_bytes) = sweep(8);
    assert_eq!(serial_bytes.len(), parallel_bytes.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in serial_bytes.iter().zip(&parallel_bytes) {
        assert_eq!(name_a, name_b, "trace set drifted between job counts");
        assert!(
            bytes_a == bytes_b,
            "{name_a}: trace bytes drifted between job counts"
        );
    }
    for (a, b) in serial_tables.iter().zip(&parallel_tables) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "figure drifted with tracing on"
        );
    }
}

#[test]
fn figures_are_byte_identical_observed_or_not() {
    // Observation shares process-global state with the jobs override
    // tests, so it serializes on the same lock.
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    let scale = Scale {
        events: 20_000,
        seed: 11,
    };
    exec::set_jobs_override(Some(2));
    let run = || {
        let mut tables = fig13(&scale);
        tables.push(fig14(&scale));
        tables.iter().map(|t| format!("{t}")).collect::<Vec<_>>()
    };
    let plain = run();
    observe::set_epoch_override(Some(5_000));
    observe::set_trace_override(Some(4096));
    let observed = run();
    observe::set_epoch_override(None);
    observe::set_trace_override(None);
    exec::set_jobs_override(None);
    let reports = observe::drain();
    let traces = observe::drain_traces();
    assert!(
        !reports.is_empty() && !traces.is_empty(),
        "nothing observed"
    );
    assert_eq!(plain, observed, "observing a run changed its figures");
}

#[test]
fn telemetry_json_is_byte_identical_at_any_step_size() {
    // A coverage session armed with epoch telemetry and the flight
    // recorder, fed the same trace whole or in increments, must export
    // the same telemetry and trace bytes.
    let trace: Vec<_> = catalog::oltp().generator(11).take(20_000).collect();
    let cfg = SystemConfig::paper();
    let run = |step: usize| {
        let mut tel = Telemetry::with_epoch(997);
        tel.enable_trace(512);
        let mut p = System::Domino.build(4);
        let mut session = CoverageSession::observed(&cfg, p.name(), 5_000, tel);
        for chunk in trace.chunks(step) {
            session.feed(p.as_mut(), chunk);
        }
        let (report, mut tel) = session.finish_observed(p.as_ref());
        let recorder = tel.take_tracer().expect("tracer armed");
        let meta = TraceMeta {
            workload: "OLTP".into(),
            component: "Domino".into(),
            kind: "coverage".into(),
            events: trace.len() as u64,
            seed: 11,
            warmup: 5_000,
        };
        (
            format!("{report:?}"),
            tel.finish(|_| {}).to_json(),
            recorder.to_bytes(&meta),
        )
    };
    let whole = run(trace.len());
    for step in [1usize, 7, 64] {
        let stepped = run(step);
        assert_eq!(whole.0, stepped.0, "report drifted at step {step}");
        assert_eq!(whole.1, stepped.1, "telemetry drifted at step {step}");
        assert!(whole.2 == stepped.2, "trace bytes drifted at step {step}");
    }
}

#[test]
fn full_roster_runs_through_the_executor() {
    let _guard = JOBS_LOCK.lock().expect("unpoisoned");
    exec::set_jobs_override(Some(4));
    let scale = Scale::small();
    let mut tables = vec![
        fig01(&scale),
        fig02(&scale),
        fig03(&scale),
        fig04(&scale),
        fig06(&scale),
        fig09(&scale),
        fig10(&scale),
        fig12(&scale),
        fig14(&scale),
        fig15(&scale),
        fig16(&scale),
        bandwidth_utilization(&scale),
        figures::opportunity_methods(&scale),
        figures::mlp_sensitivity(&scale),
    ];
    tables.extend(fig05(&scale));
    tables.extend(fig11(&scale));
    tables.extend(fig13(&scale));
    tables.extend(figures::extended_roster(&scale));
    exec::set_jobs_override(None);
    for t in &tables {
        assert!(!t.rows.is_empty(), "{}: no rows", t.title);
        assert!(!t.columns.is_empty(), "{}: no columns", t.title);
        for row in &t.values {
            assert_eq!(row.len(), t.columns.len(), "{}: ragged row", t.title);
        }
    }
}
