//! `figures`: the full paper sweep (every figure of the figures example
//! plus Tables I and II) at a fixed scale with one sweep job, checked
//! table by table against the CSV digests in `digests/figures.txt`.

use std::collections::HashMap;
use std::fmt::Write as _;

use domino_sim::figures::{
    bandwidth_utilization, fig01, fig02, fig03, fig04, fig05, fig06, fig09, fig10, fig11, fig12,
    fig13, fig14, fig15, fig16, rivals, table1, table2, Scale,
};
use domino_sim::{baseline_miss_sequence, exec, FigureTable, SystemConfig};
use domino_trace::event::AccessEvent;
use domino_trace::stream::format::digest_events;
use domino_trace::workload::catalog;

use crate::layers::Spans;
use crate::stats::Metric;
use crate::{Checked, Workload};

/// Accesses per workload trace.
const EVENTS: usize = 20_000;
/// Scale seeds with recorded digests; `--seed n` runs scale seed
/// `n % DIGEST_SEEDS`.
const DIGEST_SEEDS: u64 = 8;
/// The recorded digests: `<scale seed> <key> <fnv1a-64 hex>` per line,
/// keyed `<figure>#<table>`, `table1`, `table2`, and `trace#<catalog
/// index>` for the generated traces. Regenerate with `--record-digests`.
const RECORDED: &str = include_str!("../digests/figures.txt");

type Runner = fn(&Scale) -> Vec<FigureTable>;

/// Every figure of the paper sweep, in the figures example's order.
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

fn scale_of(seed: u64) -> Scale {
    Scale {
        events: EVENTS,
        seed: seed % DIGEST_SEEDS,
    }
}

/// Generates every catalog trace of the sweep and its L1 miss stream
/// (the work the sweep's trace cache does on first use), returning the
/// trace digests.
fn generate_traces(scale: &Scale) -> Vec<u64> {
    let cfg = SystemConfig::paper();
    catalog::all()
        .iter()
        .map(|spec| {
            let events: Vec<AccessEvent> = spec.generator(scale.seed).take(scale.events).collect();
            std::hint::black_box(baseline_miss_sequence(&cfg, &events));
            digest_events(&events)
        })
        .collect()
}

/// Runs the sweep at `scale`, calling `check` with each table's key and
/// CSV digest. Traced, each figure is one span.
fn sweep(scale: &Scale, spans: &mut Spans, mut check: impl FnMut(String, u64, &[FigureTable])) {
    for (name, run) in FIGURES {
        let tables = spans.time(&format!("sim.fig.{name}"), || run(scale));
        for (i, table) in tables.iter().enumerate() {
            let digest = spans.time("bench.check", || fnv1a(table.to_csv().as_bytes()));
            check(format!("{name}#{i}"), digest, &tables);
        }
    }
    let (t1, t2) = spans.time("sim.tables", || (table1(), table2()));
    for (key, text) in [("table1", t1), ("table2", t2)] {
        let digest = spans.time("bench.check", || fnv1a(text.as_bytes()));
        check(key.to_string(), digest, &[]);
    }
}

/// Runs the sweep at every recorded scale seed and renders the digest
/// file.
pub fn record_digests() -> String {
    exec::set_jobs_override(Some(1));
    let mut out = String::new();
    for seed in 0..DIGEST_SEEDS {
        let scale = scale_of(seed);
        for (i, d) in generate_traces(&scale).iter().enumerate() {
            writeln!(out, "{seed} trace#{i} {d:016x}").expect("write to string");
        }
        sweep(&scale, &mut Spans::off(), |key, d, _| {
            writeln!(out, "{seed} {key} {d:016x}").expect("write to string");
        });
    }
    out
}

pub struct Figures {
    scale: Scale,
    recorded: HashMap<String, u64>,
    coverage_pct: f64,
    /// Trace-digest checks from set-up, reported by the first pass.
    setup_checked: Checked,
}

impl Figures {
    /// Pins the sweep to one job, generates the traces (checking their
    /// digests) and loads the recorded table digests for the scale seed.
    pub fn setup(seed: u64) -> Figures {
        exec::set_jobs_override(Some(1));
        let scale = scale_of(seed);
        let prefix = format!("{} ", scale.seed);
        let recorded: HashMap<String, u64> = RECORDED
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .filter_map(|l| {
                let (key, hex) = l.split_once(' ')?;
                Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
            })
            .collect();
        let mut setup_checked = Checked::default();
        for (i, d) in generate_traces(&scale).into_iter().enumerate() {
            let ok = recorded.get(&format!("trace#{i}")) == Some(&d);
            if !ok {
                eprintln!(
                    "perfbench: catalog trace {i} at seed {} changed",
                    scale.seed
                );
            }
            setup_checked.attempted += 1;
            setup_checked.failed += u64::from(!ok);
        }
        Figures {
            scale,
            recorded,
            coverage_pct: 0.0,
            setup_checked,
        }
    }
}

impl Workload for Figures {
    /// Nominal accesses of one sweep: every figure replays each of the
    /// nine catalog workloads once (the figures example's throughput
    /// convention).
    fn events_per_pass(&self) -> u64 {
        (FIGURES.len() * catalog::all().len() * EVENTS) as u64
    }

    fn pass(&mut self, spans: &mut Spans) -> Checked {
        let mut checked = std::mem::take(&mut self.setup_checked);
        let recorded = &self.recorded;
        let mut coverage = None;
        sweep(&self.scale, spans, |key, digest, tables| {
            let ok = recorded.get(&key) == Some(&digest);
            if !ok {
                eprintln!("perfbench: table {key} differs from its recorded digest");
            }
            if key == "fig13#0" {
                coverage = tables[0].value("Average", "Domino");
            }
            checked.attempted += 1;
            checked.failed += u64::from(!ok);
        });
        self.coverage_pct = 100.0 * coverage.expect("fig13 has Domino's average coverage");
        checked
    }

    fn sim_coverage_pct(&self) -> f64 {
        self.coverage_pct
    }

    fn layer_metrics(&self, spans: &Spans, _wall_ns: u64) -> Vec<Metric> {
        FIGURES
            .iter()
            .map(|(name, _)| {
                let s = spans.ns(&format!("sim.fig.{name}")) as f64 / 1e9;
                Metric::new(format!("sim.fig.{name}_s"), s, "s")
            })
            .collect()
    }
}
