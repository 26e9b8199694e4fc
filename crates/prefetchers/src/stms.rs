//! Sampled Temporal Memory Streaming (Wenisch et al., HPCA 2009) — the
//! state-of-the-art temporal prefetcher the paper compares against and
//! builds Domino upon.
//!
//! STMS keeps two off-chip tables (paper §III-A):
//!
//! * a per-core **History Table** (HT): circular log of triggering events;
//! * an **Index Table** (IT): for every miss address, a pointer to its
//!   last occurrence in the HT.
//!
//! Upon a miss, STMS reads the IT entry (one off-chip round trip), follows
//! the pointer into the HT (a second round trip), and replays the
//! addresses that followed the previous occurrence — so the first prefetch
//! of every stream costs **two** serial memory accesses, the timeliness
//! deficiency Domino's EIT removes (paper Figure 6).
//!
//! Index updates are *statistical*: only a sampled fraction (12.5 %) is
//! written back, which the original work showed performs like
//! always-update at far less bandwidth.

use domino_trace::FxHashMap;

use domino_mem::history::{HistoryTable, ROW_ENTRIES};
use domino_mem::interface::{PrefetchSink, Prefetcher, TriggerEvent, TriggerKind};
use domino_mem::metadata::UpdateSampler;
use domino_trace::addr::LineAddr;

use crate::config::TemporalConfig;
use domino_mem::streams::{top_up, StreamTable};

/// The STMS prefetcher.
///
/// ```
/// use domino_mem::{CollectSink, Prefetcher, TriggerEvent};
/// use domino_prefetchers::{Stms, TemporalConfig};
/// use domino_trace::addr::{LineAddr, Pc};
///
/// let mut stms = Stms::new(TemporalConfig::default());
/// let mut sink = CollectSink::new();
/// // First-ever miss: nothing to replay yet.
/// stms.on_trigger(&TriggerEvent::miss(Pc::new(1), LineAddr::new(10)), &mut sink);
/// assert!(sink.requests.is_empty());
/// ```
#[derive(Debug)]
pub struct Stms {
    cfg: TemporalConfig,
    ht: HistoryTable,
    /// Index Table: miss address → last sampled HT position.
    index: FxHashMap<LineAddr, u64>,
    streams: StreamTable<LineAddr>,
    sampler: UpdateSampler,
    lookups: u64,
    lookup_matches: u64,
}

impl Stms {
    /// Creates an STMS instance.
    pub fn new(cfg: TemporalConfig) -> Self {
        cfg.validate();
        Stms {
            ht: HistoryTable::new(cfg.ht_entries),
            index: FxHashMap::default(),
            streams: StreamTable::new(cfg.max_streams),
            sampler: UpdateSampler::new(cfg.sampling_probability, cfg.seed),
            cfg,
            lookups: 0,
            lookup_matches: 0,
        }
    }

    /// Appends a triggering event to the history, charging a block write
    /// when a full row (LogMiss buffer) spills to memory.
    fn log(&mut self, line: LineAddr, stream_head: bool, sink: &mut dyn PrefetchSink) -> u64 {
        let pos = self.ht.append(line, stream_head);
        if (pos + 1).is_multiple_of(ROW_ENTRIES as u64) {
            sink.metadata_write(1);
        }
        pos
    }

    /// Statistical index update (every logged event is a candidate).
    fn update_index(&mut self, line: LineAddr, pos: u64, sink: &mut dyn PrefetchSink) {
        if self.sampler.sample() {
            self.index.insert(line, pos);
            sink.metadata_write(1);
        }
    }

    /// Fraction of index lookups that found a live pointer (diagnostics).
    pub fn lookup_match_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.lookup_matches as f64 / self.lookups as f64
        }
    }
}

impl Prefetcher for Stms {
    fn name(&self) -> &str {
        "STMS"
    }

    fn reserve(&mut self, expected_events: usize) {
        self.ht.reserve(expected_events);
    }

    fn emit_counters(&self, sink: &mut dyn domino_telemetry::CounterSink) {
        sink.counter("index.lookups", self.lookups);
        sink.counter("index.matches", self.lookup_matches);
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        self.index.contains_key(&line)
    }

    fn footprint_bytes(&self) -> usize {
        self.ht.footprint_bytes()
            + self.index.len() * (std::mem::size_of::<LineAddr>() + std::mem::size_of::<u64>())
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        let line = event.line;
        let mut trips = 0u8;
        match event.kind {
            TriggerKind::PrefetchHit => {
                let pos = self.log(line, false, sink);
                if self.streams.consume(line).is_some() {
                    let s = self.streams.mru_mut().expect("consume promoted it");
                    top_up(
                        s,
                        &self.ht,
                        self.cfg.degree,
                        line,
                        self.cfg.stream_end_detection,
                        &mut trips,
                        sink,
                    );
                }
                self.update_index(line, pos, sink);
            }
            TriggerKind::Miss => {
                // Late continuation: the miss matches a live stream's
                // prediction — keep following it instead of a new lookup.
                if self.streams.consume(line).is_some() {
                    let pos = self.log(line, false, sink);
                    let s = self.streams.mru_mut().expect("consume promoted it");
                    top_up(
                        s,
                        &self.ht,
                        self.cfg.degree,
                        line,
                        self.cfg.stream_end_detection,
                        &mut trips,
                        sink,
                    );
                    self.update_index(line, pos, sink);
                } else {
                    let pos = self.log(line, true, sink);
                    // Index lookup: one off-chip block read, always.
                    sink.metadata_read(1);
                    trips += 1;
                    self.lookups += 1;
                    let found = self
                        .index
                        .get(&line)
                        .copied()
                        .filter(|&p| p < pos && self.ht.is_live(p + 1));
                    if let Some(prev) = found {
                        self.lookup_matches += 1;
                        let (evicted, _id) = self.streams.allocate(prev + 1, None, line);
                        if let Some(dead) = evicted {
                            sink.discard_stream(dead.id);
                        }
                        let s = self.streams.mru_mut().expect("just allocated");
                        top_up(
                            s,
                            &self.ht,
                            self.cfg.degree,
                            line,
                            self.cfg.stream_end_detection,
                            &mut trips,
                            sink,
                        );
                    }
                    // Statistical index update.
                    self.update_index(line, pos, sink);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;
    use domino_trace::addr::Pc;

    fn cfg() -> TemporalConfig {
        TemporalConfig {
            sampling_probability: 1.0, // deterministic updates for unit tests
            // Replay-length tests drive cold history where every entry is
            // a stream head; disable the heuristic except where tested.
            stream_end_detection: false,
            ..TemporalConfig::default()
        }
    }

    fn miss(line: u64) -> TriggerEvent {
        TriggerEvent::miss(Pc::new(0), LineAddr::new(line))
    }

    fn hit(line: u64) -> TriggerEvent {
        TriggerEvent::prefetch_hit(Pc::new(0), LineAddr::new(line))
    }

    /// Drives a miss sequence, returning all issued prefetch lines.
    fn run(stms: &mut Stms, lines: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &l in lines {
            let mut sink = CollectSink::new();
            stms.on_trigger(&miss(l), &mut sink);
            out.extend(sink.requests.iter().map(|r| r.line.raw()));
        }
        out
    }

    #[test]
    fn replays_previous_occurrence() {
        let mut stms = Stms::new(cfg().with_degree(2));
        // First pass establishes history and index.
        run(&mut stms, &[1, 2, 3, 4, 5]);
        // Second pass: miss on 1 must prefetch 2 and 3.
        let mut sink = CollectSink::new();
        stms.on_trigger(&miss(1), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![2, 3]);
        // First prefetch of a stream needs two serial trips (IT + HT).
        assert!(sink.requests.iter().all(|r| r.delay_trips == 2));
    }

    #[test]
    fn prefetch_hit_continues_stream() {
        let mut stms = Stms::new(cfg().with_degree(2));
        run(&mut stms, &[1, 2, 3, 4, 5, 6]);
        let mut sink = CollectSink::new();
        stms.on_trigger(&miss(1), &mut sink); // prefetches 2,3
        sink.clear();
        stms.on_trigger(&hit(2), &mut sink); // consume 2, top up with 4
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![4]);
        // Continuation from the already-fetched row: no extra trips.
        assert_eq!(sink.requests[0].delay_trips, 0);
    }

    #[test]
    fn no_prefetch_without_history_match() {
        let mut stms = Stms::new(cfg());
        let issued = run(&mut stms, &[10, 20, 30]);
        assert!(issued.is_empty());
    }

    #[test]
    fn single_address_lookup_follows_most_recent_occurrence() {
        // The junction pathology that motivates Domino: address 7 starts
        // one stream continuing 101,102 and another continuing 201,202.
        // STMS's single-address lookup always replays the *most recent*
        // occurrence — wrong whenever the program is in the other stream.
        let mut stms = Stms::new(cfg().with_degree(2));
        run(&mut stms, &[7, 101, 102, 900, 901, 7, 201, 202, 910, 911]);
        let mut sink = CollectSink::new();
        stms.on_trigger(&miss(7), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(
            lines,
            vec![201, 202],
            "STMS must follow the last occurrence regardless of context"
        );
    }

    #[test]
    fn late_continuation_keeps_stream_alive() {
        let mut stms = Stms::new(cfg().with_degree(1));
        run(&mut stms, &[1, 2, 3, 4, 5, 6]);
        let mut sink = CollectSink::new();
        stms.on_trigger(&miss(1), &mut sink); // prefetch 2 (degree 1)
        sink.clear();
        // Demand-miss on 2 (prefetch was late): stream must continue to 3,
        // without a new index lookup.
        stms.on_trigger(&miss(2), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![3]);
        assert_eq!(sink.meta_read_blocks, 0, "no IT read on continuation");
    }

    #[test]
    fn stream_end_detection_stops_at_recorded_head_runs() {
        let mut c = cfg().with_degree(4);
        c.stream_end_detection = true;
        let mut stms = Stms::new(c);
        // Cold first pass: every entry is a demand miss (stream head).
        run(&mut stms, &[1, 2, 3, 4, 5, 6, 7, 8]);
        // Second pass: replay stops at the first run of two consecutive
        // recorded heads — entries 2 and 3 — despite degree 4.
        let mut sink = CollectSink::new();
        stms.on_trigger(&miss(1), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        assert_eq!(lines, vec![2, 3], "stop at the first head run");
        // Hits are logged as non-heads; replay from this pass's log can
        // run further — the heuristic bootstraps as coverage grows.
        stms.on_trigger(&hit(2), &mut CollectSink::new());
        stms.on_trigger(&hit(3), &mut CollectSink::new());
        stms.on_trigger(&miss(4), &mut CollectSink::new());
        stms.on_trigger(&miss(100), &mut CollectSink::new());
        let mut sink = CollectSink::new();
        stms.on_trigger(&miss(1), &mut sink);
        let lines: Vec<u64> = sink.requests.iter().map(|r| r.line.raw()).collect();
        // Replays the fresh log: 2 (hit), 3 (hit), 4 (head), 100 (head,
        // second of the run) — four prefetches, one past the old limit.
        assert!(
            lines.len() >= 3,
            "replay must extend past covered entries: {lines:?}"
        );
        assert_eq!(&lines[..2], &[2, 3]);
    }

    #[test]
    fn metadata_traffic_is_accounted() {
        let mut stms = Stms::new(cfg());
        let mut reads = 0;
        let mut writes = 0;
        for l in [1u64, 2, 3, 1, 2, 3, 1, 2, 3] {
            let mut sink = CollectSink::new();
            stms.on_trigger(&miss(l), &mut sink);
            reads += sink.meta_read_blocks;
            writes += sink.meta_write_blocks;
        }
        assert!(reads > 0, "index lookups must be charged");
        assert!(writes > 0, "sampled updates must be charged");
    }
}
