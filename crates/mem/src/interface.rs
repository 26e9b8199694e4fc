//! The prefetcher interface shared by all prefetchers in the reproduction.
//!
//! The evaluation engine drives prefetchers with **triggering events** —
//! the paper's term (§III): L1-D demand misses and prefetch-buffer hits.
//! In response, a prefetcher issues [`PrefetchRequest`]s and reports its
//! off-chip metadata accesses through the [`PrefetchSink`].
//!
//! Requests carry `delay_trips`: how many *serial* off-chip metadata round
//! trips stand between the triggering event and the prefetch being issued.
//! This is the paper's timeliness argument in one number — STMS needs two
//! trips (Index Table, then History Table) before the first prefetch of a
//! stream, Domino needs one (its Enhanced Index Table already contains the
//! next miss), and stream continuations that replay from an on-chip buffer
//! need zero.

use domino_telemetry::CounterSink;
use domino_trace::addr::{LineAddr, Pc};

/// Why the prefetcher was invoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerKind {
    /// Demand access missed the L1-D and the prefetch buffer.
    Miss,
    /// Demand access hit in the prefetch buffer.
    PrefetchHit,
}

/// A triggering event (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerEvent {
    /// PC of the demand access.
    pub pc: Pc,
    /// Missed / hit cache line.
    pub line: LineAddr,
    /// Miss or prefetch hit.
    pub kind: TriggerKind,
}

impl TriggerEvent {
    /// Creates a miss trigger.
    pub fn miss(pc: Pc, line: LineAddr) -> Self {
        TriggerEvent {
            pc,
            line,
            kind: TriggerKind::Miss,
        }
    }

    /// Creates a prefetch-hit trigger.
    pub fn prefetch_hit(pc: Pc, line: LineAddr) -> Self {
        TriggerEvent {
            pc,
            line,
            kind: TriggerKind::PrefetchHit,
        }
    }
}

/// A prefetch issued by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Line to fetch into the prefetch buffer.
    pub line: LineAddr,
    /// Serial off-chip metadata round trips before this request can issue.
    pub delay_trips: u8,
    /// Issuing stream (used for stream-replacement discards), if the
    /// prefetcher tracks streams.
    pub stream: Option<u32>,
}

impl PrefetchRequest {
    /// A request with no metadata delay and no stream tag.
    pub fn immediate(line: LineAddr) -> Self {
        PrefetchRequest {
            line,
            delay_trips: 0,
            stream: None,
        }
    }
}

/// Receiver for a prefetcher's outputs during one triggering event.
pub trait PrefetchSink {
    /// Issue a prefetch request.
    fn prefetch(&mut self, request: PrefetchRequest);
    /// Account `blocks` cache-block reads from off-chip metadata tables.
    fn metadata_read(&mut self, blocks: u32);
    /// Account `blocks` cache-block writes to off-chip metadata tables.
    fn metadata_write(&mut self, blocks: u32);
    /// Ask the engine to drop buffered prefetches of a replaced stream.
    fn discard_stream(&mut self, stream: u32);
    /// Report that the metadata entry indexed by `line` was replaced
    /// (EIT/index capacity eviction — metadata reach was lost). Default:
    /// ignored, so sinks that don't trace need no code.
    fn metadata_replace(&mut self, _line: LineAddr) {}
}

/// A batch of pending triggering events, resolved one at a time by the
/// engine that owns it.
///
/// No engine drives prefetchers through batches any more: every engine
/// calls [`Prefetcher::on_trigger`] once per triggering event. The trait
/// and the defaulted [`Prefetcher::train_predict_batch`] are kept only
/// because the benchmark harness's timing wrapper still implements them;
/// both go with the next change to the benchmark.
///
/// Protocol: each `next` call applies the previous trigger's sink
/// outputs, clears `sink`, and resolves the next triggering event; when
/// the batch is exhausted it applies the final trigger's outputs and
/// returns `None`.
pub trait TriggerBatch {
    /// Demand lines of the not-yet-resolved triggers, in replay order.
    fn pending_lines(&self) -> &[LineAddr];
    /// PCs of the not-yet-resolved triggers, in replay order.
    fn pending_pcs(&self) -> &[Pc];
    /// Applies the previous trigger's outputs, clears `sink`, and
    /// resolves the next triggering event (`None` when exhausted).
    fn next(&mut self, sink: &mut CollectSink) -> Option<TriggerEvent>;
}

/// A data prefetcher driven by triggering events.
///
/// Implementations include the baselines in `domino-prefetchers`
/// (next-line, stride, STMS, Digram, ISB, VLDP) and the Domino prefetcher
/// in the `domino` crate.
///
/// `Send` is a supertrait so built prefetchers can be handed to the
/// parallel sweep executor's worker threads; prefetcher state is plain
/// owned data, so this costs implementations nothing.
pub trait Prefetcher: Send {
    /// Display name used in reports (matches the paper's figure labels).
    fn name(&self) -> &str;

    /// Reacts to one triggering event.
    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink);

    /// Drains a [`TriggerBatch`], responding to each trigger through
    /// [`Prefetcher::on_trigger`]. No engine calls this; see
    /// [`TriggerBatch`] for why it is still here.
    fn train_predict_batch(&mut self, batch: &mut dyn TriggerBatch, sink: &mut CollectSink) {
        while let Some(event) = batch.next(sink) {
            self.on_trigger(&event, sink);
        }
    }

    /// Hint that up to `expected_events` trace events are about to be
    /// replayed, letting prefetchers with append-only metadata (e.g. the
    /// idealized ISB sequences) pre-size their storage so the event loop
    /// stays allocation-free. Capacity-only: implementations must not
    /// change observable behaviour. Default: ignored.
    fn reserve(&mut self, _expected_events: usize) {}

    /// Reports implementation-specific counters into a telemetry
    /// snapshot (EIT lookups, index hit rates, …). Counter names are
    /// dot-namespaced and must be emitted in a stable order; the default
    /// reports nothing, so plain prefetchers need no telemetry code.
    fn emit_counters(&self, _sink: &mut dyn CounterSink) {}

    /// Approximate bytes of metadata storage this prefetcher currently
    /// holds (index tables, history rings, stream buffers). The
    /// metadata service uses this to enforce per-tenant memory budgets
    /// and shard-wide LRU pressure, so it should track the *allocated*
    /// backing stores, not the modelled hardware budget. Must not mutate
    /// observable state or counters. Default: 0, i.e. the prefetcher is
    /// treated as metadata-free and never trips a budget.
    fn footprint_bytes(&self) -> usize {
        0
    }

    /// Whether this prefetcher's *metadata* currently records `line` as a
    /// reachable prediction target. The flight recorder uses this to
    /// split uncovered misses into **mispredicted** (metadata knew the
    /// line, the prefetcher chose differently) and **no-metadata** (the
    /// line was never learned). Must not mutate observable state or
    /// counters. Default: `false`, i.e. every unexplained miss is
    /// attributed to missing metadata.
    fn knows_line(&self, _line: LineAddr) -> bool {
        false
    }
}

/// Simple sink that records everything (tests, analyses, adapters).
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// Issued requests in order.
    pub requests: Vec<PrefetchRequest>,
    /// Metadata blocks read.
    pub meta_read_blocks: u64,
    /// Metadata blocks written.
    pub meta_write_blocks: u64,
    /// Streams discarded.
    pub discarded_streams: Vec<u32>,
    /// Metadata entries replaced (lines whose learned successor was
    /// evicted from a finite index/EIT this event).
    pub replaced: Vec<LineAddr>,
}

impl CollectSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Clears all recorded outputs (reuse between events).
    pub fn clear(&mut self) {
        self.requests.clear();
        self.discarded_streams.clear();
        self.replaced.clear();
        self.meta_read_blocks = 0;
        self.meta_write_blocks = 0;
    }
}

impl PrefetchSink for CollectSink {
    fn prefetch(&mut self, request: PrefetchRequest) {
        self.requests.push(request);
    }

    fn metadata_read(&mut self, blocks: u32) {
        self.meta_read_blocks += u64::from(blocks);
    }

    fn metadata_write(&mut self, blocks: u32) {
        self.meta_write_blocks += u64::from(blocks);
    }

    fn discard_stream(&mut self, stream: u32) {
        self.discarded_streams.push(stream);
    }

    fn metadata_replace(&mut self, line: LineAddr) {
        self.replaced.push(line);
    }
}

/// A prefetcher that never prefetches — the paper's baseline system.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefetcher;

impl Prefetcher for NoPrefetcher {
    fn name(&self) -> &str {
        "Baseline"
    }

    fn on_trigger(&mut self, _event: &TriggerEvent, _sink: &mut dyn PrefetchSink) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sink_records_everything() {
        let mut sink = CollectSink::new();
        sink.prefetch(PrefetchRequest::immediate(LineAddr::new(3)));
        sink.metadata_read(2);
        sink.metadata_write(1);
        sink.discard_stream(7);
        sink.metadata_replace(LineAddr::new(9));
        assert_eq!(sink.requests.len(), 1);
        assert_eq!(sink.meta_read_blocks, 2);
        assert_eq!(sink.meta_write_blocks, 1);
        assert_eq!(sink.discarded_streams, vec![7]);
        assert_eq!(sink.replaced, vec![LineAddr::new(9)]);
        sink.clear();
        assert!(sink.requests.is_empty());
        assert!(sink.replaced.is_empty());
        assert_eq!(sink.meta_read_blocks, 0);
    }

    #[test]
    fn no_prefetcher_is_silent() {
        let mut p = NoPrefetcher;
        let mut sink = CollectSink::new();
        p.on_trigger(&TriggerEvent::miss(Pc::new(1), LineAddr::new(2)), &mut sink);
        assert!(sink.requests.is_empty());
        assert_eq!(p.name(), "Baseline");
    }

    #[test]
    fn default_batch_drain_visits_every_trigger() {
        /// Minimal batch: serves triggers from a list, counts how many
        /// times outputs were applied.
        struct ListBatch {
            lines: Vec<LineAddr>,
            pcs: Vec<Pc>,
            cursor: usize,
            applied: usize,
        }
        impl TriggerBatch for ListBatch {
            fn pending_lines(&self) -> &[LineAddr] {
                &self.lines[self.cursor..]
            }
            fn pending_pcs(&self) -> &[Pc] {
                &self.pcs[self.cursor..]
            }
            fn next(&mut self, sink: &mut CollectSink) -> Option<TriggerEvent> {
                if self.cursor > 0 {
                    self.applied += 1;
                }
                sink.clear();
                if self.cursor == self.lines.len() {
                    return None;
                }
                let ev = TriggerEvent::miss(self.pcs[self.cursor], self.lines[self.cursor]);
                self.cursor += 1;
                Some(ev)
            }
        }

        /// Echoes every trigger line back as an immediate prefetch.
        struct Echo;
        impl Prefetcher for Echo {
            fn name(&self) -> &str {
                "Echo"
            }
            fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
                sink.prefetch(PrefetchRequest::immediate(event.line));
            }
        }

        let mut batch = ListBatch {
            lines: (0..5).map(LineAddr::new).collect(),
            pcs: (0..5).map(Pc::new).collect(),
            cursor: 0,
            applied: 0,
        };
        let mut sink = CollectSink::new();
        Echo.train_predict_batch(&mut batch, &mut sink);
        assert_eq!(batch.cursor, 5, "default impl drained the batch");
        assert_eq!(batch.applied, 5, "every trigger's outputs were applied");
        assert!(batch.pending_lines().is_empty());
    }

    #[test]
    fn trigger_constructors() {
        let m = TriggerEvent::miss(Pc::new(1), LineAddr::new(2));
        assert_eq!(m.kind, TriggerKind::Miss);
        let h = TriggerEvent::prefetch_hit(Pc::new(1), LineAddr::new(2));
        assert_eq!(h.kind, TriggerKind::PrefetchHit);
    }
}
