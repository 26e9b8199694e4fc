//! `serve-tenants`: 64 Domino tenants through a one-shard
//! `MetadataService` (Block policy, no budgets), fed round-robin in
//! 32-event batches from one submitter thread.

use std::sync::Arc;
use std::time::Instant;

use domino_service::{BatchRequest, MetadataService, OverloadPolicy, ServiceConfig};
use domino_sim::{run_coverage_session, System};
use domino_trace::event::AccessEvent;
use domino_trace::workload::catalog;
use domino_trace::SimRng;

use crate::layers::Spans;
use crate::stats::Metric;
use crate::{Checked, Workload};

const TENANTS: u64 = 64;
/// Events in each tenant's stream.
pub const WINDOW: usize = 10_000;
/// Events per request batch.
pub const BATCH: usize = 32;
/// Length of the seeded catalog traces the tenant windows are cut from.
const BASE_EVENTS: usize = 60_000;

struct Tenant {
    id: u64,
    trace: Arc<[AccessEvent]>,
    base: u32,
    /// The lone-session reference: decision digest and report.
    digest: u64,
    report: String,
}

pub struct ServeTenants {
    cfg: ServiceConfig,
    tenants: Vec<Tenant>,
    coverage_pct: f64,
}

impl ServeTenants {
    /// Generates the catalog traces, cuts a seeded window per tenant,
    /// and runs each window through a lone `CoverageSession` for the
    /// reference digest and report.
    pub fn setup(seed: u64) -> ServeTenants {
        let cfg = ServiceConfig {
            shards: 1,
            policy: OverloadPolicy::Block,
            degree: 4,
            digest: true,
            ..ServiceConfig::default()
        };
        let specs = catalog::all();
        let mut traces: Vec<Option<Arc<[AccessEvent]>>> = vec![None; specs.len()];
        let mut rng = SimRng::seed(seed);
        let mut tenants = Vec::new();
        let mut coverage = 0.0;
        for id in 0..TENANTS {
            // Tenants cycle through the catalog so every workload is
            // equally represented at any seed; windows start at seeded
            // offsets.
            let w = id as usize % specs.len();
            let base = rng.index(BASE_EVENTS - WINDOW + 1);
            let trace = traces[w]
                .get_or_insert_with(|| specs[w].generator(seed).take(BASE_EVENTS).collect())
                .clone();
            let mut pf = System::Domino.build(cfg.degree);
            let window = &trace[base..base + WINDOW];
            let (report, digest) = run_coverage_session(&cfg.system, window, pf.as_mut(), BATCH);
            coverage += 100.0 * report.coverage() / TENANTS as f64;
            tenants.push(Tenant {
                id,
                trace,
                base: base as u32,
                digest,
                report: format!("{report:?}"),
            });
        }
        ServeTenants {
            cfg,
            tenants,
            coverage_pct: coverage,
        }
    }
}

impl Workload for ServeTenants {
    fn events_per_pass(&self) -> u64 {
        TENANTS * WINDOW as u64
    }

    /// Starts a fresh service (tenants must start cold), submits every
    /// batch round-robin across tenants, shuts down, and checks each
    /// tenant's digest and report. Traced, the submitter thread's time is
    /// split into request building, time blocked in `submit`, and the
    /// drain at shutdown.
    fn pass(&mut self, spans: &mut Spans) -> Checked {
        let start = Instant::now();
        let service = spans.time("service.start", || MetadataService::start(self.cfg.clone()));
        let client = service.client();
        let mut checked = Checked::default();
        let mut last = spans.is_on().then(Instant::now);
        for from in (0..WINDOW).step_by(BATCH) {
            for t in &self.tenants {
                let req = BatchRequest {
                    tenant: t.id,
                    system: System::Domino,
                    trace: Arc::clone(&t.trace),
                    base: t.base,
                    len: WINDOW as u32,
                    start: from as u32,
                    end: (from + BATCH).min(WINDOW) as u32,
                    enqueued: Instant::now(),
                    span: None,
                };
                let Some(before) = last else {
                    checked.failed += u64::from(!client.submit(req));
                    continue;
                };
                let submit = Instant::now();
                checked.failed += u64::from(!client.submit(req));
                let after = Instant::now();
                spans.add("bench.requests", (submit - before).as_nanos() as u64);
                spans.add("service.submit_wait", (after - submit).as_nanos() as u64);
                last = Some(after);
            }
        }
        checked.attempted += TENANTS * WINDOW.div_ceil(BATCH) as u64;
        drop(client);
        let result = spans.time("service.drain", || service.shutdown());
        let shard = &result.shards[0].stats;
        spans.count("service.wall_ns", start.elapsed().as_nanos() as u64);
        spans.count("service.busy_ns", shard.busy_ns);
        spans.count("service.latency_sum_ns", shard.latency.sum());
        spans.count("service.latency_count", shard.latency.total());
        spans.count("service.peak_footprint", shard.peak_footprint as u64);
        spans.time("bench.check", || {
            for t in &self.tenants {
                let ok = result
                    .tenant(t.id)
                    .is_some_and(|f| f.digest == t.digest && format!("{:?}", f.report) == t.report);
                if !ok {
                    eprintln!("perfbench: tenant {} diverged from its lone session", t.id);
                }
                checked.attempted += 1;
                checked.failed += u64::from(!ok);
            }
        });
        // Freeing 64 resident prefetchers is part of the pass.
        spans.time("service.teardown", || drop(result));
        checked
    }

    fn sim_coverage_pct(&self) -> f64 {
        self.coverage_pct
    }

    fn layer_metrics(&self, spans: &Spans, _wall_ns: u64) -> Vec<Metric> {
        let wall = spans.counted("service.wall_ns") as f64;
        let latency_ns = spans.counted("service.latency_sum_ns") as f64
            / spans.counted("service.latency_count").max(1) as f64;
        vec![
            Metric::new(
                "service.submit_wait_frac",
                spans.ns("service.submit_wait") as f64 / wall,
                "fraction",
            ),
            Metric::new(
                "service.busy_frac",
                spans.counted("service.busy_ns") as f64 / wall,
                "fraction",
            ),
            Metric::new("service.latency_mean_us", latency_ns / 1e3, "us"),
            Metric::new(
                "service.peak_footprint_mb",
                spans.counted("service.peak_footprint") as f64 / (1 << 20) as f64,
                "MiB",
            ),
        ]
    }
}
