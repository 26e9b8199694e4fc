//! Telemetry collection for figure sweeps.
//!
//! Figure runners execute their cells on the parallel executor in
//! [`crate::exec`]; a cell that runs with telemetry enabled labels its
//! [`RunReport`] and deposits it here. After the sweep, the harness
//! [`drain`]s the reports — sorted by (workload, component, kind), so the
//! output is byte-identical at any job count — and [`write_reports`]
//! exports one JSON file per cell plus an aggregate `TELEMETRY_sweep.json`.
//!
//! Telemetry is opt-in twice over: a run collects nothing unless an epoch
//! length is set ([`set_epoch_override`] from `--epoch`, or the
//! `DOMINO_EPOCH` environment variable), and only the runners that opt
//! into collection (Figure 13's coverage roster, Figure 14's timing
//! roster) deposit reports. Everything else pays one dead branch per
//! access.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use domino_telemetry::trace::TraceMeta;
use domino_telemetry::{FlightRecorder, RunReport, Telemetry};

/// Schema tag of the aggregate sweep file.
pub const SWEEP_SCHEMA: &str = "domino-telemetry-sweep/1";

/// `--epoch` override; 0 = no override (fall back to the environment),
/// `u64::MAX` = explicitly off.
static EPOCH_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// `--trace` override; same encoding as `EPOCH_OVERRIDE` (0 = fall back
/// to `DOMINO_TRACE`, `u64::MAX` = explicitly off, else ring capacity).
static TRACE_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// Reports deposited by sweep cells, in completion order.
static COLLECTED: Mutex<Vec<RunReport>> = Mutex::new(Vec::new());

/// Flight-recorder traces deposited by sweep cells, in completion order.
static TRACES: Mutex<Vec<TraceCell>> = Mutex::new(Vec::new());

/// One cell's recorded trace: the recorder plus its run labels.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// Run identity (workload / component / kind / scale).
    pub meta: TraceMeta,
    /// The finished recorder.
    pub recorder: FlightRecorder,
}

/// Sets (or clears) the epoch-length override. `Some(0)` is normalised
/// to "explicitly off". Takes precedence over `DOMINO_EPOCH`.
pub fn set_epoch_override(epoch: Option<u64>) {
    let coded = match epoch {
        None => 0,
        Some(0) => u64::MAX,
        Some(n) => n,
    };
    EPOCH_OVERRIDE.store(coded, Ordering::SeqCst);
}

/// The effective epoch length: the override if set, else `DOMINO_EPOCH`,
/// else `None` (telemetry off).
pub fn epoch() -> Option<u64> {
    match EPOCH_OVERRIDE.load(Ordering::SeqCst) {
        0 => std::env::var("DOMINO_EPOCH")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0),
        u64::MAX => None,
        n => Some(n),
    }
}

/// Sets (or clears) the flight-recorder capacity override. `Some(0)` is
/// normalised to "explicitly off". Takes precedence over `DOMINO_TRACE`.
pub fn set_trace_override(capacity: Option<u64>) {
    let coded = match capacity {
        None => 0,
        Some(0) => u64::MAX,
        Some(n) => n,
    };
    TRACE_OVERRIDE.store(coded, Ordering::SeqCst);
}

/// The effective flight-recorder ring capacity: the override if set,
/// else `DOMINO_TRACE`, else `None` (tracing off).
pub fn trace_capacity() -> Option<u64> {
    match TRACE_OVERRIDE.load(Ordering::SeqCst) {
        0 => std::env::var("DOMINO_TRACE")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0),
        u64::MAX => None,
        n => Some(n),
    }
}

/// Events the engines step at a time: always 1, since each engine has
/// one per-event loop. Kept only because the benchmark harness still
/// calls it; it goes with the next change to the benchmark.
pub const fn batch_size() -> u32 {
    1
}

/// Whether any observation (epoch telemetry or tracing) is enabled —
/// the gate figure runners use to decide whether to collect reports.
pub fn observing() -> bool {
    epoch().is_some() || trace_capacity().is_some()
}

/// A telemetry handle honouring the effective epoch length and trace
/// capacity.
pub fn telemetry() -> Telemetry {
    let mut tel = match epoch() {
        Some(n) => Telemetry::with_epoch(n),
        None => Telemetry::off(),
    };
    if let Some(cap) = trace_capacity() {
        tel.enable_trace(cap as usize);
    }
    tel
}

/// Deposits one labelled run report (called from sweep worker threads).
pub fn record(report: RunReport) {
    COLLECTED.lock().expect("collector poisoned").push(report);
}

/// Deposits one cell's finished flight recorder.
pub fn record_trace(meta: TraceMeta, recorder: FlightRecorder) {
    TRACES
        .lock()
        .expect("trace collector poisoned")
        .push(TraceCell { meta, recorder });
}

/// Takes all deposited reports, sorted by (workload, component, kind) —
/// a deterministic order independent of sweep scheduling.
pub fn drain() -> Vec<RunReport> {
    let mut out = std::mem::take(&mut *COLLECTED.lock().expect("collector poisoned"));
    out.sort_by(|a, b| {
        (&a.workload, &a.component, &a.kind).cmp(&(&b.workload, &b.component, &b.kind))
    });
    out
}

/// Takes all deposited traces, sorted like [`drain`] — the per-cell
/// recorders are deterministic, so trace bytes are identical at any job
/// count.
pub fn drain_traces() -> Vec<TraceCell> {
    let mut out = std::mem::take(&mut *TRACES.lock().expect("trace collector poisoned"));
    out.sort_by(|a, b| {
        (&a.meta.workload, &a.meta.component, &a.meta.kind).cmp(&(
            &b.meta.workload,
            &b.meta.component,
            &b.meta.kind,
        ))
    });
    out
}

/// File-system-safe slug of a label (`Web Search` → `web_search`).
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The per-cell file name for a report.
pub fn cell_filename(report: &RunReport) -> String {
    format!(
        "telemetry_{}_{}_{}.json",
        slug(&report.workload),
        slug(&report.component),
        slug(&report.kind)
    )
}

/// Renders the aggregate sweep document embedding every report.
pub fn aggregate_json(reports: &[RunReport]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": \"{SWEEP_SCHEMA}\",\n"));
    out.push_str(&format!("  \"runs\": {},\n", reports.len()));
    out.push_str("  \"reports\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let body = r.to_json();
        out.push_str(body.trim_end());
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes one JSON file per report plus the aggregate
/// `TELEMETRY_sweep.json` into `dir`; returns the written paths
/// (aggregate last).
pub fn write_reports(dir: &Path, reports: &[RunReport]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(reports.len() + 1);
    for r in reports {
        let path = dir.join(cell_filename(r));
        std::fs::write(&path, r.to_json())?;
        paths.push(path);
    }
    let agg = dir.join("TELEMETRY_sweep.json");
    std::fs::write(&agg, aggregate_json(reports))?;
    paths.push(agg);
    Ok(paths)
}

/// The per-cell file name for a recorded trace. The kind suffix keeps
/// the coverage (fig13) and timing (fig14) cells of the same
/// workload × prefetcher pair from colliding.
pub fn trace_filename(meta: &TraceMeta) -> String {
    format!(
        "trace_{}_{}_{}.bin",
        slug(&meta.workload),
        slug(&meta.component),
        slug(&meta.kind)
    )
}

/// Writes one binary trace file per cell into `dir`; returns the
/// written paths.
pub fn write_traces(dir: &Path, traces: &[TraceCell]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(traces.len());
    for t in traces {
        let path = dir.join(trace_filename(&t.meta));
        std::fs::write(&path, t.recorder.to_bytes(&t.meta))?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_telemetry::SCHEMA;

    fn labelled(workload: &str, component: &str) -> RunReport {
        RunReport {
            schema: SCHEMA.to_string(),
            workload: workload.into(),
            component: component.into(),
            kind: "coverage".into(),
            events: 10,
            seed: 1,
            warmup: 2,
            epoch_accesses: 5,
            fields: vec!["accesses".into()],
            epochs: vec![vec![5], vec![10]],
            histograms: Vec::new(),
            counters: Vec::new(),
        }
    }

    #[test]
    fn override_beats_environment_and_clears() {
        set_epoch_override(Some(123));
        assert_eq!(epoch(), Some(123));
        assert_eq!(telemetry().epoch_len(), 123);
        set_epoch_override(Some(0));
        assert_eq!(epoch(), None, "Some(0) means explicitly off");
        set_epoch_override(None);
    }

    #[test]
    fn drain_sorts_reports() {
        // Drain any leftovers from other tests first (the collector is
        // process-global).
        let _ = drain();
        record(labelled("zeta", "STMS"));
        record(labelled("alpha", "Domino"));
        record(labelled("alpha", "Baseline"));
        let got = drain();
        let keys: Vec<_> = got
            .iter()
            .map(|r| (r.workload.as_str(), r.component.as_str()))
            .collect();
        assert_eq!(
            keys,
            vec![("alpha", "Baseline"), ("alpha", "Domino"), ("zeta", "STMS")]
        );
        assert!(drain().is_empty(), "drain empties the collector");
    }

    #[test]
    fn filenames_are_slugged() {
        let r = labelled("Web Search", "Domino+NL");
        assert_eq!(
            cell_filename(&r),
            "telemetry_web_search_domino_nl_coverage.json"
        );
    }

    #[test]
    fn trace_override_and_collection_roundtrip() {
        set_trace_override(Some(64));
        assert_eq!(trace_capacity(), Some(64));
        assert!(observing());
        let mut tel = telemetry();
        assert!(tel.has_tracer());
        tel.tracer().expect("tracer on").demand_miss(0, 1, false);
        let meta = |w: &str, c: &str| TraceMeta {
            workload: w.into(),
            component: c.into(),
            kind: "coverage".into(),
            events: 10,
            seed: 1,
            warmup: 0,
        };
        let _ = drain_traces();
        record_trace(meta("zeta", "STMS"), FlightRecorder::new(4));
        record_trace(meta("alpha", "Domino"), tel.take_tracer().expect("tracer"));
        let got = drain_traces();
        let keys: Vec<_> = got
            .iter()
            .map(|t| (t.meta.workload.as_str(), t.meta.component.as_str()))
            .collect();
        assert_eq!(keys, vec![("alpha", "Domino"), ("zeta", "STMS")]);
        assert_eq!(got[0].recorder.attribution().demand_misses, 1);
        assert_eq!(trace_filename(&got[1].meta), "trace_zeta_stms_coverage.bin");
        assert!(drain_traces().is_empty());
        set_trace_override(Some(0));
        assert_eq!(trace_capacity(), None, "Some(0) means explicitly off");
        assert!(!telemetry().has_tracer());
        set_trace_override(None);
    }

    #[test]
    fn aggregate_embeds_parseable_reports() {
        let reports = vec![labelled("a", "X"), labelled("b", "Y")];
        let agg = aggregate_json(&reports);
        let v = domino_telemetry::json::parse(&agg).unwrap();
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SWEEP_SCHEMA));
        assert_eq!(v.get("runs").and_then(|n| n.as_u64()), Some(2));
        assert_eq!(
            v.get("reports").and_then(|r| r.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }
}
