//! Per-tenant service state: an owned prefetcher driven through an
//! incremental [`CoverageSession`].
//!
//! The session is the unit of both correctness and memory accounting.
//! Correctness: the coverage session's partition-invariance (any
//! chunking of a stream replays bit-identically to a whole-trace run)
//! means a tenant served in request-batch increments ends with exactly
//! the report, decision digest, and metadata state of a single-tenant
//! `sim` run over the same stream. Memory: the prefetcher reports its
//! metadata allocation ([`Prefetcher::footprint_bytes`]), and the shard
//! charges a fixed overhead for the engine models on top.

use domino_mem::interface::Prefetcher;
use domino_sim::{CoverageReport, CoverageSession, System};
use domino_trace::addr::{LineAddr, LINE_BYTES};
use domino_trace::event::AccessEvent;

use crate::service::ServiceConfig;

/// Estimated engine-model bytes per L1 line (tag + LRU + map slot).
const L1_LINE_OVERHEAD: usize = 24;
/// Estimated engine-model bytes per prefetch-buffer block.
const BUFFER_BLOCK_OVERHEAD: usize = 48;

/// One tenant's live state inside a shard worker.
pub struct TenantSession {
    tenant: u64,
    system: System,
    engine: CoverageSession,
    prefetcher: Box<dyn Prefetcher>,
    /// Engine-model overhead charged on top of prefetcher metadata.
    base_bytes: usize,
    /// Cached total footprint, refreshed after every batch.
    footprint: usize,
    /// Shard-local LRU stamp (bumped on every batch served).
    pub(crate) touch: u64,
    batches: u64,
    /// Events skipped because an earlier batch was shed.
    gap_events: u64,
    /// Per-tenant budget trips that reset the metadata in place.
    resets: u64,
}

/// A finished tenant run: everything the oracle and the report need
/// after the session leaves its shard (end-of-run drain or LRU
/// eviction).
pub struct TenantFinal {
    /// Tenant id.
    pub tenant: u64,
    /// System the tenant ran.
    pub system: System,
    /// The closed coverage report (identical to a single-tenant run's
    /// when no batch was shed, no budget tripped, and no eviction hit).
    pub report: CoverageReport,
    /// Decision digest (0 when digests were disabled).
    pub digest: u64,
    /// Stream index the session had consumed when it closed.
    pub processed: usize,
    /// Request batches served.
    pub batches: u64,
    /// Events lost to shed gaps.
    pub gap_events: u64,
    /// Per-tenant metadata resets.
    pub resets: u64,
    /// Whether the shard evicted this session under memory pressure
    /// (false for the orderly end-of-run drain).
    pub evicted: bool,
    /// The tenant's prefetcher, kept so callers can probe its metadata
    /// ([`Prefetcher::knows_line`]) — the isolation tests and the
    /// equivalence oracle compare membership against references.
    /// `None` for an evicted session: eviction exists to free the
    /// shard's memory, so its metadata is dropped with it.
    pub prefetcher: Option<Box<dyn Prefetcher>>,
}

impl TenantSession {
    /// Creates a tenant session. `start_at` is the stream index the
    /// session resumes from — nonzero only when a predecessor session
    /// was evicted (the skipped prefix is never replayed; the restart is
    /// cold, exactly "metadata reach was lost").
    pub fn new(tenant: u64, system: System, cfg: &ServiceConfig, start_at: usize) -> Self {
        let prefetcher = system.build(cfg.degree);
        let mut engine = CoverageSession::new(&cfg.system, prefetcher.name(), 0);
        if cfg.digest {
            engine.enable_digest();
        }
        if start_at > 0 {
            engine.skip_to(start_at);
        }
        let base_bytes = (cfg.system.l1d.size_bytes / LINE_BYTES) as usize * L1_LINE_OVERHEAD
            + cfg.system.prefetch_buffer_blocks * BUFFER_BLOCK_OVERHEAD;
        let footprint = base_bytes + prefetcher.footprint_bytes();
        TenantSession {
            tenant,
            system,
            engine,
            prefetcher,
            base_bytes,
            footprint,
            touch: 0,
            batches: 0,
            gap_events: 0,
            resets: 0,
        }
    }

    /// Tenant id.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Stream index the next batch must start at (or after, if batches
    /// were shed).
    pub fn processed(&self) -> usize {
        self.engine.processed()
    }

    /// Cached footprint: engine-model overhead plus prefetcher metadata.
    pub fn footprint(&self) -> usize {
        self.footprint
    }

    /// Running engine counters `(covered, prefetches_issued,
    /// metadata_blocks)` — the per-engine-step metrics the observability
    /// plane diffs around each batch. Reads the live report; cheap.
    pub fn engine_counters(&self) -> (u64, u64, u64) {
        let r = self.engine.report();
        (
            r.covered,
            r.prefetches_issued,
            r.meta_read_blocks + r.meta_write_blocks,
        )
    }

    /// Serves one request batch: `stream[start..end]` of this tenant's
    /// miss stream. A `start` past the session's cursor is a shed gap —
    /// the missing events are skipped (counted), never replayed.
    /// Refreshes the cached footprint afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the batch rewinds into already-served events (the
    /// per-tenant FIFO makes that a caller bug, not an overload state).
    pub fn serve(&mut self, stream: &[AccessEvent], start: usize, end: usize) {
        let at = self.engine.processed();
        assert!(
            start >= at,
            "tenant {} batch rewinds: session at {at}, batch starts {start}",
            self.tenant
        );
        if start > at {
            self.gap_events += (start - at) as u64;
            self.engine.skip_to(start);
        }
        self.engine.step(&mut *self.prefetcher, stream, end);
        self.batches += 1;
        self.footprint = self.base_bytes + self.prefetcher.footprint_bytes();
    }

    /// Drops the tenant's learned metadata in place (fresh prefetcher,
    /// same engine state) — the per-tenant budget response. The L1 and
    /// prefetch-buffer models keep their state; only prediction
    /// metadata is lost, so memory is bounded while the stream position
    /// stays intact.
    pub fn reset_metadata(&mut self, cfg: &ServiceConfig) {
        self.prefetcher = self.system.build(cfg.degree);
        self.resets += 1;
        self.footprint = self.base_bytes + self.prefetcher.footprint_bytes();
    }

    /// Per-tenant metadata resets so far.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Whether the tenant's metadata currently knows `line` (probe, no
    /// state change).
    pub fn knows_line(&self, line: LineAddr) -> bool {
        self.prefetcher.knows_line(line)
    }

    /// Closes the session into a [`TenantFinal`]; an `evicted` session
    /// drops its prefetcher here.
    pub fn finalize(self, evicted: bool) -> TenantFinal {
        let digest = self.engine.digest();
        let processed = self.engine.processed();
        TenantFinal {
            tenant: self.tenant,
            system: self.system,
            report: self.engine.finish(),
            digest,
            processed,
            batches: self.batches,
            gap_events: self.gap_events,
            resets: self.resets,
            evicted,
            prefetcher: (!evicted).then_some(self.prefetcher),
        }
    }
}
