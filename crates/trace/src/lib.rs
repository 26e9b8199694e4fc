//! Synthetic server-workload memory traces for temporal-prefetcher studies.
//!
//! This crate is the data substrate of the Domino (HPCA 2018) reproduction.
//! The paper evaluates prefetchers on L1-D miss sequences collected with the
//! Flexus full-system simulator from nine commercial server workloads
//! (Table II of the paper). Those stacks (Cassandra, Hadoop, Oracle, Apache,
//! ...) cannot be re-run here, so this crate provides *parametric workload
//! models* that reproduce the statistics the paper's mechanisms key on:
//!
//! * **temporal repetition** — sequences of misses that recur (documents
//!   replayed in segments whose length distribution matches the paper's
//!   Figure 12 histogram),
//! * **prefix ambiguity** — shared "junction" addresses followed by different
//!   successors in different streams, the phenomenon that defeats
//!   single-address history lookup and motivates Domino's two-address lookup,
//! * **spatial delta patterns** — page-local strided scans that VLDP captures
//!   and temporal prefetchers do not,
//! * **cold/unpredictable misses** — on-the-fly datasets (SAT Solver),
//! * **large instruction working sets** — loop PCs shared across data
//!   structures, which break PC-localized (ISB-style) correlation.
//!
//! # Quickstart
//!
//! ```
//! use domino_trace::workload::catalog;
//!
//! let spec = catalog::oltp();
//! let trace: Vec<_> = spec.generator(42).take(10_000).collect();
//! assert_eq!(trace.len(), 10_000);
//! ```
//!
//! The full roster of paper workloads lives in [`workload::catalog`].

pub mod addr;
pub mod event;
pub mod frame;
pub mod hash;
pub mod io;
pub mod reuse;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod workload;

pub use addr::{Addr, LineAddr, Pc, LINE_BYTES};
pub use event::{AccessEvent, AccessKind};
pub use frame::FrameError;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use reuse::ReuseProfile;
pub use rng::SimRng;
pub use stats::TraceStats;
pub use stream::{Codec, EventSource, FileSource, SliceSource, TraceFileError};
pub use workload::{WorkloadGenerator, WorkloadSpec};
