//! `stream-roster`: the coverage engine replays eight roster systems
//! over three catalog traces, every cell reading its trace from a
//! `DMNOTRC1` file through `FileSource`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use domino_sim::engine::run_coverage_warmed;
use domino_sim::{observe, run_coverage_streamed, CoverageReport, System, SystemConfig};
use domino_trace::event::AccessEvent;
use domino_trace::stream::{write_trace_file, Codec, FileSource, TraceFileError};
use domino_trace::workload::catalog;

use crate::layers::{Spans, TimedPrefetcher, TimedSource};
use crate::stats::Metric;
use crate::{Checked, Workload};

/// The roster: the paper's baseline and rivals plus the modern rivals.
const SYSTEMS: [System; 8] = [
    System::Baseline,
    System::Vldp,
    System::Isb,
    System::Stms,
    System::Digram,
    System::Domino,
    System::Pangloss,
    System::Triangel,
];
/// Accesses per trace.
const EVENTS: usize = 120_000;
/// Prefetch degree of every cell.
const DEGREE: usize = 4;
/// Events per `DMNOTRC1` chunk.
pub const CHUNK_EVENTS: u32 = 4096;

struct Cell {
    system: System,
    path: PathBuf,
    /// The cached-slice report of the same cell, `Debug`-formatted.
    reference: String,
}

pub struct StreamRoster {
    cfg: SystemConfig,
    warmup: usize,
    cells: Vec<Cell>,
    coverage_pct: f64,
}

impl StreamRoster {
    /// Generates the three traces, writes each as a raw and a Sequitur
    /// file, and computes every cell's cached-slice reference report.
    /// Cells alternate codecs, so each system reads both across traces.
    pub fn setup(seed: u64, work: &Path) -> StreamRoster {
        let cfg = SystemConfig::paper();
        let warmup = EVENTS / 4;
        let specs = [
            catalog::oltp(),
            catalog::web_search(),
            catalog::mapreduce_w(),
        ];
        let mut cells = Vec::new();
        let mut coverage = 0.0;
        for (t, spec) in specs.iter().enumerate() {
            let events: Vec<AccessEvent> = spec.generator(seed).take(EVENTS).collect();
            let files = [Codec::Raw, Codec::Sequitur].map(|codec| {
                let path = work.join(format!("roster-{t}-{}.dmno", codec.label()));
                write_trace_file(&path, &events, CHUNK_EVENTS, codec).expect("write roster trace");
                path
            });
            for (s, &system) in SYSTEMS.iter().enumerate() {
                let mut pf = system.build(DEGREE);
                let report = run_coverage_warmed(&cfg, &events, pf.as_mut(), warmup);
                if system == System::Domino {
                    coverage += 100.0 * report.coverage() / specs.len() as f64;
                }
                cells.push(Cell {
                    system,
                    path: files[(t + s) % 2].clone(),
                    reference: format!("{report:?}"),
                });
            }
        }
        StreamRoster {
            cfg,
            warmup,
            cells,
            coverage_pct: coverage,
        }
    }

    /// Streams one cell. Traced, the source and the prefetcher run
    /// wrapped, and the cell's time is split into source wait, each
    /// system's train/predict step, and the engine's remainder.
    fn run_cell(&self, cell: &Cell, spans: &mut Spans) -> Result<CoverageReport, TraceFileError> {
        let batch = observe::batch_size() as usize;
        let source = spans.time("trace.open", || FileSource::open(&cell.path))?;
        let pf = spans.time("prefetchers.build", || cell.system.build(DEGREE));
        if !spans.is_on() {
            let (mut source, mut pf) = (source, pf);
            return run_coverage_streamed(&self.cfg, &mut source, pf.as_mut(), self.warmup, batch);
        }
        let mut source = TimedSource::new(source);
        let mut pf = TimedPrefetcher::new(pf);
        let t = Instant::now();
        let report = run_coverage_streamed(&self.cfg, &mut source, &mut pf, self.warmup, batch);
        let cell_ns = t.elapsed().as_nanos() as u64;
        let label = cell.system.label();
        spans.add("trace.source_wait", source.wait_ns);
        spans.add(&format!("prefetchers.{label}"), pf.trigger_ns);
        spans.add("prefetchers.reserve", pf.reserve_ns);
        spans.add(
            "sim.coverage_engine",
            cell_ns - source.wait_ns - pf.trigger_ns - pf.reserve_ns,
        );
        spans.count(&format!("triggers.{label}"), pf.triggers);
        spans.time("trace.close", || drop(source));
        spans.time("prefetchers.drop", || drop(pf));
        report
    }
}

impl Workload for StreamRoster {
    fn events_per_pass(&self) -> u64 {
        (self.cells.len() * EVENTS) as u64
    }

    fn pass(&mut self, spans: &mut Spans) -> Checked {
        let mut failed = 0;
        for cell in &self.cells {
            let ok = match self.run_cell(cell, spans) {
                Ok(report) => {
                    let same =
                        spans.time("bench.check", || format!("{report:?}") == cell.reference);
                    if !same {
                        eprintln!(
                            "perfbench: {} on {} diverged from its cached-slice report",
                            cell.system.label(),
                            cell.path.display()
                        );
                    }
                    same
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", cell.path.display());
                    false
                }
            };
            failed += u64::from(!ok);
        }
        Checked {
            attempted: self.cells.len() as u64,
            failed,
        }
    }

    fn sim_coverage_pct(&self) -> f64 {
        self.coverage_pct
    }

    fn layer_metrics(&self, spans: &Spans, wall_ns: u64) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut triggers = 0;
        for system in SYSTEMS {
            let label = system.label();
            let n = spans.counted(&format!("triggers.{label}"));
            let per = spans.ns(&format!("prefetchers.{label}")) as f64 / n.max(1) as f64;
            triggers += n;
            out.push(Metric::new(
                format!("prefetchers.{label}.ns_per_trigger"),
                per,
                "ns/trigger",
            ));
            if system == System::Baseline {
                // No prefetcher state: the span is the buffer drain alone.
                out.push(Metric::new("mem.buffer_ns_per_trigger", per, "ns/trigger"));
            }
        }
        out.push(Metric::new(
            "prefetchers.triggers",
            triggers as f64,
            "count",
        ));
        let engine = spans.ns("sim.coverage_engine") as f64 / self.events_per_pass() as f64;
        out.push(Metric::new(
            "sim.coverage_engine_ns_per_event",
            engine,
            "ns/event",
        ));
        let wait = spans.ns("trace.source_wait") as f64 / wall_ns as f64;
        out.push(Metric::new("trace.source_wait_frac", wait, "fraction"));
        out
    }
}
