//! Evaluation engine and figure harness for the Domino reproduction.
//!
//! This crate ties the substrates together the way the paper's
//! methodology (§IV) does:
//!
//! * [`config`] — the Table I system parameters;
//! * [`engine`] — the trace-based evaluation (L1 filter → prefetch buffer
//!   → triggering events), producing coverage / overprediction /
//!   stream-length reports;
//! * [`timing`] — the interval timing model substituting for the paper's
//!   Flexus cycle-accurate simulations (speedups, bandwidth);
//! * [`multicore`] — the quad-core version: four cores sharing the LLC
//!   and memory channel (§V-D bandwidth analysis);
//! * [`roster`] — the evaluated systems of §IV-D as a buildable enum;
//! * [`figures`] — one runner per paper table/figure, returning printable
//!   [`report::FigureTable`]s;
//! * [`observe`] — per-epoch telemetry collection and JSON export for
//!   figure sweeps (see the `report` binary for rendering);
//! * [`report`] — plain-text table rendering (and CSV export);
//! * [`svg`] — dependency-free bar-chart rendering of any figure table.
//!
//! ```no_run
//! use domino_sim::figures::{fig11, Scale};
//!
//! for table in fig11(&Scale::default()) {
//!     println!("{table}");
//! }
//! ```

/// Whether the named injected bug is active. Only compiled under
/// `--cfg domino_mutate` (the `domino-check --self-test` build); the
/// selected mutation comes from the `DOMINO_MUTATE` environment
/// variable, so one mutant binary can replay every known bug.
#[cfg(domino_mutate)]
pub(crate) fn mutate_active(name: &str) -> bool {
    std::env::var("DOMINO_MUTATE")
        .map(|v| v == name)
        .unwrap_or(false)
}

pub mod config;
pub mod engine;
pub mod exec;
pub mod figures;
pub mod multicore;
pub mod observe;
pub mod report;
pub mod roster;
pub(crate) mod scratch;
pub mod stats;
pub mod svg;
pub mod timing;
pub mod trace_cache;

pub use config::SystemConfig;
pub use engine::{
    baseline_miss_sequence, run_coverage, run_coverage_observed, run_coverage_session,
    run_coverage_streamed, run_coverage_streamed_session, CoverageReport, CoverageSession,
};
pub use figures::Scale;
pub use multicore::{run_homogeneous, run_multicore, MulticoreReport};
pub use report::FigureTable;
pub use roster::System;
pub use stats::Sample;
pub use timing::{run_timing, run_timing_observed, run_timing_streamed, TimingReport};
pub use trace_cache::{shared_file_trace, shared_miss_sequence, shared_trace};
