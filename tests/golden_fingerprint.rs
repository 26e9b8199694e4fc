//! The golden behavioural fingerprint: FNV-1a digests of everything the
//! simulator prints or writes, checked against `tests/golden/fingerprint.txt`.
//!
//! Three surfaces are fingerprinted at a small fixed scale:
//!
//! - every table of the figure sweep (figures 1–16, the bandwidth and
//!   rivals figures, Tables I and II), as CSV;
//! - the observed path: figure 13 (coverage) and figure 14 (timing) run
//!   with epoch telemetry and the flight recorder armed — every
//!   `telemetry_*.json`, the `TELEMETRY_sweep.json` aggregate and every
//!   `trace_*.bin`, plus the observed tables themselves;
//! - the metadata service: per roster system, the single-tenant session
//!   report and decision digest, and the per-tenant finals of a sharded
//!   multi-tenant run (one unconstrained, one under a shard budget that
//!   forces evictions).
//!
//! A refactor that claims to be behaviour-preserving must leave every
//! digest unchanged. When a change is *meant* to alter behaviour,
//! regenerate the file and commit it with the change that explains why:
//!
//! ```sh
//! cargo test --test golden_fingerprint -- --ignored record_golden_fingerprint
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use domino_repro::sim::figures::{
    bandwidth_utilization, fig01, fig02, fig03, fig04, fig05, fig06, fig09, fig10, fig11, fig12,
    fig13, fig14, fig15, fig16, rivals, table1, table2, Scale,
};
use domino_repro::sim::{exec, observe, run_coverage_session, FigureTable, System, SystemConfig};
use domino_repro::trace::event::AccessEvent;
use domino_repro::trace::workload::catalog;
use domino_service::{BatchRequest, MetadataService, OverloadPolicy, ServiceConfig};

/// The committed digests, one `<key> <fnv1a-64 hex>` per line.
const GOLDEN: &str = include_str!("golden/fingerprint.txt");

/// The sweep scale: small enough for tier-1, large enough that every
/// figure has non-trivial values.
const SCALE: Scale = Scale {
    events: 20_000,
    seed: 11,
};

/// Epoch length and flight-recorder ring capacity of the observed pass.
const EPOCH: u64 = 5_000;
const RING: u64 = 4_096;

/// Events per tenant stream in the service section.
const SERVICE_EVENTS: usize = 3_000;
/// Request-batch length of the service section (divides nothing).
const REQUEST: usize = 17;
/// Tenants per service run.
const TENANTS: usize = 4;

/// The jobs/epoch/trace overrides are process-global.
static LOCK: Mutex<()> = Mutex::new(());

type Runner = fn(&Scale) -> Vec<FigureTable>;

/// Every figure of the sweep, in the figures example's order.
const FIGURES: [(&str, Runner); 16] = [
    ("fig01", |s| vec![fig01(s)]),
    ("fig02", |s| vec![fig02(s)]),
    ("fig03", |s| vec![fig03(s)]),
    ("fig04", |s| vec![fig04(s)]),
    ("fig05", fig05),
    ("fig06", |s| vec![fig06(s)]),
    ("fig09", |s| vec![fig09(s)]),
    ("fig10", |s| vec![fig10(s)]),
    ("fig11", fig11),
    ("fig12", |s| vec![fig12(s)]),
    ("fig13", fig13),
    ("fig14", |s| vec![fig14(s)]),
    ("fig15", |s| vec![fig15(s)]),
    ("fig16", |s| vec![fig16(s)]),
    ("bandwidth", |s| vec![bandwidth_utilization(s)]),
    ("rivals", rivals),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digests keyed by surface-qualified name.
type Digests = BTreeMap<String, u64>;

fn sweep_digests(out: &mut Digests) {
    exec::set_jobs_override(Some(2));
    for (name, run) in FIGURES {
        for (i, table) in run(&SCALE).iter().enumerate() {
            out.insert(
                format!("sweep/{name}#{i}"),
                fnv1a(table.to_csv().as_bytes()),
            );
        }
    }
    out.insert("sweep/table1".into(), fnv1a(table1().as_bytes()));
    out.insert("sweep/table2".into(), fnv1a(table2().as_bytes()));
    exec::set_jobs_override(None);
}

fn observed_digests(out: &mut Digests) {
    exec::set_jobs_override(Some(2));
    observe::set_epoch_override(Some(EPOCH));
    observe::set_trace_override(Some(RING));
    // Discard anything an earlier run in this process left behind.
    let _ = observe::drain();
    let _ = observe::drain_traces();
    let mut tables = fig13(&SCALE);
    tables.push(fig14(&SCALE));
    let reports = observe::drain();
    let traces = observe::drain_traces();
    observe::set_epoch_override(None);
    observe::set_trace_override(None);
    exec::set_jobs_override(None);
    assert!(
        !reports.is_empty(),
        "observed figures produced no telemetry"
    );
    assert!(!traces.is_empty(), "observed figures produced no traces");
    for (i, table) in tables.iter().enumerate() {
        out.insert(
            format!("observed/table#{i}"),
            fnv1a(table.to_csv().as_bytes()),
        );
    }
    for r in &reports {
        out.insert(
            format!("observed/{}", observe::cell_filename(r)),
            fnv1a(r.to_json().as_bytes()),
        );
    }
    out.insert(
        "observed/TELEMETRY_sweep.json".into(),
        fnv1a(observe::aggregate_json(&reports).as_bytes()),
    );
    for t in &traces {
        out.insert(
            format!("observed/{}", observe::trace_filename(&t.meta)),
            fnv1a(&t.recorder.to_bytes(&t.meta)),
        );
    }
}

/// Tenant `t`'s stream: the OLTP trace rotated by `t` quarters, so all
/// tenants touch the same lines in different orders.
fn tenant_streams(trace: &[AccessEvent]) -> Vec<Arc<[AccessEvent]>> {
    let len = trace.len();
    (0..TENANTS)
        .map(|t| {
            let cut = t * len / TENANTS;
            let mut v = Vec::with_capacity(len);
            v.extend_from_slice(&trace[cut..]);
            v.extend_from_slice(&trace[..cut]);
            v.into()
        })
        .collect()
}

/// Runs every tenant stream through a service with `cfg`, round-robin
/// in `REQUEST`-event batches, and digests every closed session (in
/// close order) into one entry.
fn service_run(
    out: &mut Digests,
    key: &str,
    sys: System,
    cfg: ServiceConfig,
    streams: &[Arc<[AccessEvent]>],
) {
    let service = MetadataService::start(cfg);
    {
        let client = service.client();
        let len = SERVICE_EVENTS;
        let mut start = 0usize;
        while start < len {
            let end = (start + REQUEST).min(len);
            for (t, stream) in streams.iter().enumerate() {
                client.submit(BatchRequest {
                    tenant: t as u64,
                    system: sys,
                    trace: Arc::clone(stream),
                    base: 0,
                    len: len as u32,
                    start: start as u32,
                    end: end as u32,
                    enqueued: Instant::now(),
                    span: None,
                });
            }
            start = end;
        }
    }
    let result = service.shutdown();
    let mut text = String::new();
    for fin in result.finals() {
        writeln!(
            text,
            "{} {} {} {} {} {} {} {:?}",
            fin.tenant,
            fin.evicted,
            fin.processed,
            fin.batches,
            fin.gap_events,
            fin.resets,
            fin.digest,
            fin.report
        )
        .expect("write to string");
    }
    out.insert(key.to_string(), fnv1a(text.as_bytes()));
}

fn service_digests(out: &mut Digests) {
    let trace: Vec<AccessEvent> = catalog::oltp()
        .generator(SCALE.seed)
        .take(SERVICE_EVENTS)
        .collect();
    let streams = tenant_streams(&trace);
    for sys in System::all() {
        let label = sys.label().replace([' ', '/', '+'], "_");
        for (t, stream) in streams.iter().enumerate() {
            let mut p = sys.build(4);
            let (report, digest) =
                run_coverage_session(&SystemConfig::paper(), stream, p.as_mut(), 64);
            out.insert(format!("service/{label}/session#{t}"), digest);
            out.insert(
                format!("service/{label}/session_report#{t}"),
                fnv1a(format!("{report:?}").as_bytes()),
            );
        }
        let base = ServiceConfig {
            shards: 2,
            queue_depth: 4,
            policy: OverloadPolicy::Block,
            ..ServiceConfig::default()
        };
        service_run(
            out,
            &format!("service/{label}/sharded"),
            sys,
            base.clone(),
            &streams,
        );
        // One shard whose budget holds about one tenant: sessions are
        // evicted and restarted cold mid-stream, deterministically.
        let tight = ServiceConfig {
            shards: 1,
            shard_budget_bytes: 64 * 1024,
            ..base
        };
        service_run(
            out,
            &format!("service/{label}/budget"),
            sys,
            tight,
            &streams,
        );
    }
}

fn render(digests: &Digests) -> String {
    let mut text = String::new();
    for (key, d) in digests {
        writeln!(text, "{key} {d:016x}").expect("write to string");
    }
    text
}

fn recorded() -> Digests {
    GOLDEN
        .lines()
        .filter_map(|l| {
            let (key, hex) = l.split_once(' ')?;
            Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Compares one surface's digests (keys under `prefix`) to the file.
fn check_surface(prefix: &str, got: &Digests) {
    let want: Digests = recorded()
        .into_iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .collect();
    assert!(!want.is_empty(), "no recorded digests under {prefix}");
    let mut diffs = Vec::new();
    for (key, w) in &want {
        match got.get(key) {
            Some(g) if g == w => {}
            Some(g) => diffs.push(format!("  {key}: recorded {w:016x}, got {g:016x}")),
            None => diffs.push(format!("  {key}: recorded, not produced")),
        }
    }
    for key in got.keys().filter(|k| !want.contains_key(*k)) {
        diffs.push(format!("  {key}: produced, not recorded"));
    }
    assert!(
        diffs.is_empty(),
        "{} fingerprint drifted in {} of {} entries:\n{}",
        prefix,
        diffs.len(),
        want.len(),
        diffs.join("\n")
    );
}

#[test]
fn figure_sweep_matches_the_golden_fingerprint() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut got = Digests::new();
    sweep_digests(&mut got);
    check_surface("sweep/", &got);
}

#[test]
fn observed_figures_match_the_golden_fingerprint() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut got = Digests::new();
    observed_digests(&mut got);
    check_surface("observed/", &got);
}

#[test]
fn service_matches_the_golden_fingerprint() {
    let mut got = Digests::new();
    service_digests(&mut got);
    check_surface("service/", &got);
}

/// Rewrites `tests/golden/fingerprint.txt` from the current tree.
#[test]
#[ignore = "regenerates the committed fingerprint; run only on purpose"]
fn record_golden_fingerprint() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut all = Digests::new();
    sweep_digests(&mut all);
    observed_digests(&mut all);
    service_digests(&mut all);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fingerprint.txt");
    std::fs::write(path, render(&all)).expect("write fingerprint");
}
