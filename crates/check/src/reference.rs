//! Obviously-correct reference models for the optimized structures.
//!
//! Each model keeps the *semantics* of a production component in the
//! most transparent representation available — nested `Vec`s in
//! replacement order, linear scans, no slabs, no heaps, no packed
//! prefixes — so the differential oracles can drive both through the
//! same op stream and compare step-for-step. Where the production code
//! had a pre-optimization layout (the per-set-`Vec` cache, the
//! nested-`Vec` EIT rows) the model *is* that layout, resurrected.
//!
//! The models are deliberately slow (linear everything); they exist to
//! be read and believed, not to be fast.

use std::collections::BTreeMap;

use domino::eit::EitEntry;
use domino_mem::cache::{CacheConfig, Replacement};
use domino_mem::interface::{TriggerEvent, TriggerKind};
use domino_mem::prefetch_buffer::{BufferedPrefetch, InsertOutcome, PrefetchBufferStats};
use domino_trace::addr::{LineAddr, Pc};

/// One reference super-entry: a tag plus its continuations, oldest
/// first — exactly the nested-`Vec` picture of paper Figure 7.
#[derive(Debug, Clone)]
struct RefSuper {
    tag: LineAddr,
    /// LRU list, front = oldest, back = most recent.
    entries: Vec<EitEntry>,
}

/// Nested-`Vec` Enhanced Index Table with two-level LRU: rows hold
/// super-entries oldest-first, super-entries hold continuations
/// oldest-first, and both levels promote with `remove` + `push`.
///
/// Mirrors `domino::eit::Eit` with a finite row count; the row hash is
/// the same multiplicative hash, so a given tag lands in the same row
/// in both implementations. Rows live in an ordered map and appear on
/// first write, so a 2 M-row model costs nothing up front.
#[derive(Debug, Clone)]
pub struct ReferenceEit {
    rows: usize,
    table: BTreeMap<usize, Vec<RefSuper>>,
    super_cap: usize,
    entry_cap: usize,
}

impl ReferenceEit {
    /// Creates an empty table with `rows` rows, `super_cap` super-entries
    /// per row, and `entry_cap` entries per super-entry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(rows: usize, super_cap: usize, entry_cap: usize) -> Self {
        assert!(rows > 0 && super_cap > 0 && entry_cap > 0, "degenerate EIT");
        ReferenceEit {
            rows,
            table: BTreeMap::new(),
            super_cap,
            entry_cap,
        }
    }

    /// The production row hash (multiplicative), verbatim.
    fn row_index(&self, tag: LineAddr) -> usize {
        let h = tag.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h % self.rows as u64) as usize
    }

    /// Looks up `tag`, promoting its super-entry to MRU. Returns the
    /// entries oldest-first (a clone; the model is not hot-path code).
    pub fn lookup(&mut self, tag: LineAddr) -> Option<Vec<EitEntry>> {
        let r = self.row_index(tag);
        let row = self.table.get_mut(&r)?;
        let pos = row.iter().position(|se| se.tag == tag)?;
        let se = row.remove(pos);
        row.push(se);
        Some(row.last().expect("just pushed").entries.clone())
    }

    /// Side-effect-free membership probe.
    pub fn probe(&self, tag: LineAddr) -> bool {
        let r = self.row_index(tag);
        self.table
            .get(&r)
            .is_some_and(|row| row.iter().any(|se| se.tag == tag))
    }

    /// Records `tag → (next, pointer)` with LRU at both levels; returns
    /// the tag of a super-entry evicted by capacity pressure, if any.
    pub fn update(&mut self, tag: LineAddr, next: LineAddr, pointer: u64) -> Option<LineAddr> {
        let r = self.row_index(tag);
        let super_cap = self.super_cap;
        let entry_cap = self.entry_cap;
        let row = self.table.entry(r).or_default();
        let mut evicted = None;
        match row.iter().position(|se| se.tag == tag) {
            Some(pos) => {
                let se = row.remove(pos);
                row.push(se);
            }
            None => {
                if row.len() == super_cap {
                    evicted = Some(row.remove(0).tag);
                }
                row.push(RefSuper {
                    tag,
                    entries: Vec::new(),
                });
            }
        }
        let entries = &mut row.last_mut().expect("just placed").entries;
        if let Some(p) = entries.iter().position(|e| e.addr == next) {
            let mut e = entries.remove(p);
            e.pointer = pointer;
            entries.push(e);
        } else {
            if entries.len() == entry_cap {
                entries.remove(0);
            }
            entries.push(EitEntry {
                addr: next,
                pointer,
            });
        }
        evicted
    }
}

/// Linear-scan MSHR file: one `Vec` of live `(line, done_at)` pairs.
/// Mirrors `domino_mem::mshr::MshrFile` (slab + free list + min-heap)
/// semantically: merge on duplicate lines, stall when full, retire at
/// an *inclusive* time boundary.
#[derive(Debug, Clone)]
pub struct ReferenceMshr {
    capacity: usize,
    live: Vec<(LineAddr, f64)>,
    allocations: u64,
    merges: u64,
    stalls: u64,
}

impl ReferenceMshr {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs capacity");
        ReferenceMshr {
            capacity,
            live: Vec::new(),
            allocations: 0,
            merges: 0,
            stalls: 0,
        }
    }

    /// Tracks a miss on `line` completing at `done_at`; merges secondary
    /// misses, returns `None` (and counts a stall) when full.
    pub fn allocate(&mut self, line: LineAddr, done_at: f64) -> Option<f64> {
        if let Some(&(_, t)) = self.live.iter().find(|(l, _)| *l == line) {
            self.merges += 1;
            return Some(t);
        }
        if self.live.len() == self.capacity {
            self.stalls += 1;
            return None;
        }
        self.live.push((line, done_at));
        self.allocations += 1;
        Some(done_at)
    }

    /// Merges with an in-flight miss on `line`, if any.
    pub fn completion_of(&mut self, line: LineAddr) -> Option<f64> {
        if let Some(&(_, t)) = self.live.iter().find(|(l, _)| *l == line) {
            self.merges += 1;
            return Some(t);
        }
        None
    }

    /// Releases every register whose miss completed at or before `now`.
    pub fn retire_until(&mut self, now: f64) {
        self.live.retain(|&(_, t)| t > now);
    }

    /// Earliest completion among outstanding misses.
    pub fn earliest_completion(&self) -> Option<f64> {
        self.live
            .iter()
            .map(|&(_, t)| t)
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.min(t)))
            })
    }

    /// Outstanding miss count.
    pub fn in_flight(&self) -> usize {
        self.live.len()
    }

    /// `(allocations, merges, structural_stalls)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.allocations, self.merges, self.stalls)
    }
}

/// `Vec`-based prefetch buffer, index 0 = LRU victim end. Mirrors
/// `domino_mem::prefetch_buffer::PrefetchBuffer` including its lifetime
/// statistics, so buffer-conservation claims can be cross-checked
/// against a model whose accounting is visibly correct.
#[derive(Debug, Clone)]
pub struct ReferenceBuffer {
    capacity: usize,
    entries: Vec<BufferedPrefetch>,
    stats: PrefetchBufferStats,
}

impl ReferenceBuffer {
    /// Creates a buffer of `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer needs capacity");
        ReferenceBuffer {
            capacity,
            entries: Vec::new(),
            stats: PrefetchBufferStats::default(),
        }
    }

    /// Inserts a prefetched line; duplicates drop, full buffers evict
    /// the LRU entry (counted unused).
    pub fn insert(&mut self, line: LineAddr, ready_at: f64, stream: Option<u32>) -> InsertOutcome {
        self.stats.inserted += 1;
        if self.entries.iter().any(|e| e.line == line) {
            self.stats.duplicate_inserts += 1;
            return InsertOutcome::Duplicate;
        }
        let victim = if self.entries.len() == self.capacity {
            self.stats.evicted_unused += 1;
            Some(self.entries.remove(0))
        } else {
            None
        };
        self.entries.push(BufferedPrefetch {
            line,
            ready_at,
            stream,
        });
        match victim {
            Some(v) => InsertOutcome::Evicted(v),
            None => InsertOutcome::Inserted,
        }
    }

    /// Demand lookup: removes and returns the entry on a hit.
    pub fn take(&mut self, line: LineAddr) -> Option<BufferedPrefetch> {
        let pos = self.entries.iter().position(|e| e.line == line)?;
        self.stats.hits += 1;
        Some(self.entries.remove(pos))
    }

    /// Membership peek.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Discards all entries of `stream`; returns how many.
    pub fn discard_stream(&mut self, stream: u32) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.stream != Some(stream));
        let discarded = before - self.entries.len();
        self.stats.discarded_unused += discarded as u64;
        discarded
    }

    /// Buffered block count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> PrefetchBufferStats {
        self.stats
    }
}

/// The pre-flat set-associative cache: per-set `Vec`s in replacement
/// order (index 0 the victim end), exactly as the original
/// implementation kept them. Mirrors `domino_mem::cache::SetAssocCache`
/// including the Random-policy RNG advancing on every insert *before*
/// the presence check.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    config: CacheConfig,
    set_mask: u64,
    sets: Vec<Vec<LineAddr>>,
    rand_state: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceCache {
    /// Creates an empty cache of the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        ReferenceCache {
            config,
            set_mask: sets as u64 - 1,
            sets: vec![Vec::with_capacity(config.ways); sets],
            rand_state: 0x9e37_79b9_7f4a_7c15,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    /// Demand access: hit/miss plus LRU promotion.
    pub fn access(&mut self, line: LineAddr) -> bool {
        let promote = self.config.replacement == Replacement::Lru;
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            if promote {
                let l = set.remove(pos);
                set.push(l);
            }
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Membership peek (no counters, no promotion).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.sets[self.set_index(line)].contains(&line)
    }

    /// Fills `line`, returning an evicted victim if the set was full.
    pub fn insert(&mut self, line: LineAddr) -> Option<LineAddr> {
        let replacement = self.config.replacement;
        let ways = self.config.ways;
        let idx = self.set_index(line);
        // The RNG advances on every insert under Random — before the
        // presence check — matching the production cache exactly.
        if replacement == Replacement::Random {
            self.rand_state ^= self.rand_state << 13;
            self.rand_state ^= self.rand_state >> 7;
            self.rand_state ^= self.rand_state << 17;
        }
        let victim_pos = (self.rand_state % ways as u64) as usize;
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            if replacement == Replacement::Lru {
                let l = set.remove(pos);
                set.push(l);
            }
            return None;
        }
        if set.len() == ways {
            let evict_pos = match replacement {
                Replacement::Lru | Replacement::Fifo => 0,
                Replacement::Random => victim_pos,
            };
            let evicted = set.remove(evict_pos);
            set.push(line);
            Some(evicted)
        } else {
            set.push(line);
            None
        }
    }

    /// Drops `line` if present; reports whether it was.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            true
        } else {
            false
        }
    }

    /// `(hits, misses)` counters.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total resident lines across sets.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether no line is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything one trigger produced, in issue order — the reference side
/// of the rival-prefetcher differentials.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefTriggerOutput {
    /// Lines prefetched (all on-chip rivals issue with zero delay trips).
    pub predicted: Vec<LineAddr>,
    /// Tags whose metadata entry was evicted this trigger.
    pub replaced: Vec<LineAddr>,
}

/// One reference Pangloss entry at a fixed way position: a source tag
/// and its weighted successor edges in slot order.
#[derive(Debug, Clone)]
struct RefPanglossEntry {
    tag: LineAddr,
    /// `(successor, frequency)` in slot order; replacements happen in
    /// place, exactly like the production slab's fixed-width edge array.
    edges: Vec<(LineAddr, u8)>,
}

/// Positional-`Vec` Pangloss: the set-associative transition table as
/// `sets × ways` explicit `Option` slots, linear scans everywhere, and
/// `knows_line` answered by walking every edge in the table rather than
/// by the production's refcount index.
///
/// Mirrors `domino_prefetchers::Pangloss`: same modulo set hash, same
/// minimum-frequency edge victim (ties to the lowest slot), same
/// minimum-total-frequency entry victim (ties to the lowest way), same
/// strongest-edge chain walk.
#[derive(Debug, Clone)]
pub struct ReferencePangloss {
    sets: Vec<Vec<Option<RefPanglossEntry>>>,
    fanout: usize,
    degree: usize,
    prev: Option<LineAddr>,
    trains: u64,
    predictions: u64,
    edge_evictions: u64,
    entry_evictions: u64,
}

impl ReferencePangloss {
    /// Creates an empty table with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(sets: usize, ways: usize, fanout: usize, degree: usize) -> Self {
        assert!(
            sets > 0 && ways > 0 && fanout > 0 && degree > 0,
            "degenerate table"
        );
        ReferencePangloss {
            sets: vec![vec![None; ways]; sets],
            fanout,
            degree,
            prev: None,
            trains: 0,
            predictions: 0,
            edge_evictions: 0,
            entry_evictions: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() % self.sets.len() as u64) as usize
    }

    fn train(&mut self, from: LineAddr, to: LineAddr, replaced: &mut Vec<LineAddr>) {
        self.trains += 1;
        let fanout = self.fanout;
        let set = self.set_of(from);
        let ways = &mut self.sets[set];
        if let Some(entry) = ways.iter_mut().flatten().find(|e| e.tag == from) {
            if let Some(edge) = entry.edges.iter_mut().find(|(line, _)| *line == to) {
                edge.1 = edge.1.saturating_add(1); // saturate, never wrap
            } else if entry.edges.len() < fanout {
                entry.edges.push((to, 1));
            } else {
                // Minimum-frequency victim, ties to the lowest slot.
                let mut victim = 0;
                for i in 1..entry.edges.len() {
                    if entry.edges[i].1 < entry.edges[victim].1 {
                        victim = i;
                    }
                }
                entry.edges[victim] = (to, 1);
                self.edge_evictions += 1;
            }
            return;
        }
        // Allocate: first empty way, else the minimum-total-frequency
        // way (ties to the lowest index).
        let way = match ways.iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let weight = |e: &RefPanglossEntry| -> u32 {
                    e.edges.iter().map(|&(_, c)| u32::from(c)).sum()
                };
                let mut victim = 0;
                for i in 1..ways.len() {
                    let (a, b) = (ways[i].as_ref(), ways[victim].as_ref());
                    if weight(a.expect("full set")) < weight(b.expect("full set")) {
                        victim = i;
                    }
                }
                replaced.push(ways[victim].as_ref().expect("full set").tag);
                self.entry_evictions += 1;
                victim
            }
        };
        ways[way] = Some(RefPanglossEntry {
            tag: from,
            edges: vec![(to, 1)],
        });
    }

    fn strongest(&self, line: LineAddr) -> Option<LineAddr> {
        let entry = self.sets[self.set_of(line)]
            .iter()
            .flatten()
            .find(|e| e.tag == line)?;
        let mut best = 0;
        for i in 1..entry.edges.len() {
            if entry.edges[i].1 > entry.edges[best].1 {
                best = i;
            }
        }
        Some(entry.edges[best].0)
    }

    /// Applies one triggering event (miss or prefetch hit), returning
    /// everything it produced.
    pub fn step(&mut self, event: &TriggerEvent) -> RefTriggerOutput {
        let mut out = RefTriggerOutput::default();
        let line = event.line;
        if let Some(prev) = self.prev.replace(line) {
            if prev != line {
                self.train(prev, line, &mut out.replaced);
            }
        }
        let mut cur = line;
        for _ in 0..self.degree {
            let Some(next) = self.strongest(cur) else {
                break;
            };
            if next == line || out.predicted.contains(&next) {
                break;
            }
            out.predicted.push(next);
            self.predictions += 1;
            cur = next;
        }
        out
    }

    /// Whether `line` is recorded as any edge's target (full table scan).
    pub fn knows_line(&self, line: LineAddr) -> bool {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .any(|e| e.edges.iter().any(|&(target, _)| target == line))
    }

    /// Counter values in the production `emit_counters` order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pangloss.trains", self.trains),
            ("pangloss.predictions", self.predictions),
            ("pangloss.edge_evictions", self.edge_evictions),
            ("pangloss.entry_evictions", self.entry_evictions),
        ]
    }
}

/// One reference Triangel history slot: `tag → next` with confidence.
#[derive(Debug, Clone, Copy)]
struct RefHistEntry {
    tag: LineAddr,
    next: LineAddr,
    conf: u8,
}

/// One reference sampler slot.
#[derive(Debug, Clone, Copy)]
struct RefSampleEntry {
    line: LineAddr,
    pc: Pc,
    stamp: u64,
}

/// Positional-`Vec` Triangel: history and sampler as explicit `Option`
/// slot grids, per-PC stats as a linear association list, `knows_line`
/// by scanning every history entry.
///
/// Mirrors `domino_prefetchers::Triangel`: same modulo set hashes, same
/// sampling hash, same usefulness (`reused >= train_threshold`) and
/// timeliness (`timely >= deep_threshold`) gates, same oldest-stamp
/// sampler victim and minimum-confidence history victim (ties to the
/// lowest way).
#[derive(Debug, Clone)]
pub struct ReferenceTriangel {
    history: Vec<Vec<Option<RefHistEntry>>>,
    sampler: Vec<Vec<Option<RefSampleEntry>>>,
    /// `(pc, sampled, reused, timely)` in first-seen order.
    pc_stats: Vec<(Pc, u8, u8, u8)>,
    max_pcs: usize,
    train_threshold: u8,
    deep_threshold: u8,
    timely_distance: u64,
    degree: usize,
    sample_shift: u32,
    prev: Option<(LineAddr, Pc)>,
    now: u64,
    samples: u64,
    reuses: u64,
    trains: u64,
    predictions: u64,
    entry_evictions: u64,
}

/// Geometry and thresholds for [`ReferenceTriangel::new`] (mirrors the
/// production `TriangelConfig` field for field).
#[derive(Debug, Clone, Copy)]
pub struct RefTriangelParams {
    /// History sets × ways.
    pub hist_sets: usize,
    /// History entries per set.
    pub hist_ways: usize,
    /// Sampler sets.
    pub sampler_sets: usize,
    /// Sampler entries per set.
    pub sampler_ways: usize,
    /// Maximum tracked PCs.
    pub max_pcs: usize,
    /// Usefulness threshold on the reuse counter.
    pub train_threshold: u8,
    /// Timeliness threshold on the timely counter.
    pub deep_threshold: u8,
    /// Minimum stamp gap for a timely reuse.
    pub timely_distance: u64,
    /// Deep chain-walk depth.
    pub degree: usize,
    /// 1-in-2^shift sampling (0 samples everything).
    pub sample_shift: u32,
}

impl ReferenceTriangel {
    /// Creates an empty model.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(p: RefTriangelParams) -> Self {
        assert!(
            p.hist_sets > 0 && p.hist_ways > 0 && p.sampler_sets > 0 && p.sampler_ways > 0,
            "degenerate tables"
        );
        assert!(p.max_pcs > 0 && p.degree > 0, "degenerate bounds");
        ReferenceTriangel {
            history: vec![vec![None; p.hist_ways]; p.hist_sets],
            sampler: vec![vec![None; p.sampler_ways]; p.sampler_sets],
            pc_stats: Vec::new(),
            max_pcs: p.max_pcs,
            train_threshold: p.train_threshold,
            deep_threshold: p.deep_threshold,
            timely_distance: p.timely_distance,
            degree: p.degree,
            sample_shift: p.sample_shift,
            prev: None,
            now: 0,
            samples: 0,
            reuses: 0,
            trains: 0,
            predictions: 0,
            entry_evictions: 0,
        }
    }

    fn sampled(&self, line: LineAddr) -> bool {
        self.sample_shift == 0
            || line.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.sample_shift) == 0
    }

    fn stats_index(&mut self, pc: Pc) -> Option<usize> {
        if let Some(i) = self.pc_stats.iter().position(|&(p, ..)| p == pc) {
            return Some(i);
        }
        if self.pc_stats.len() >= self.max_pcs {
            return None;
        }
        self.pc_stats.push((pc, 0, 0, 0));
        Some(self.pc_stats.len() - 1)
    }

    fn sample(&mut self, line: LineAddr, pc: Pc) {
        let set = (line.raw() % self.sampler.len() as u64) as usize;
        let now = self.now;
        let timely_distance = self.timely_distance;
        if let Some(entry) = self.sampler[set]
            .iter_mut()
            .flatten()
            .find(|e| e.line == line)
        {
            let (same_pc, timely) = (entry.pc == pc, now - entry.stamp >= timely_distance);
            entry.pc = pc;
            entry.stamp = now;
            if same_pc {
                if let Some(i) = self.stats_index(pc) {
                    self.pc_stats[i].2 = self.pc_stats[i].2.saturating_add(1);
                    if timely {
                        self.pc_stats[i].3 = self.pc_stats[i].3.saturating_add(1);
                    }
                }
                self.reuses += 1;
            } else if let Some(i) = self.stats_index(pc) {
                self.pc_stats[i].1 = self.pc_stats[i].1.saturating_add(1);
            }
            return;
        }
        // Insert: first empty way, else the oldest stamp (lowest way on
        // ties).
        let ways = &self.sampler[set];
        let way = match ways.iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let mut victim = 0;
                for i in 1..ways.len() {
                    let (a, b) = (ways[i].expect("full set"), ways[victim].expect("full set"));
                    if a.stamp < b.stamp {
                        victim = i;
                    }
                }
                victim
            }
        };
        self.sampler[set][way] = Some(RefSampleEntry {
            line,
            pc,
            stamp: now,
        });
        if let Some(i) = self.stats_index(pc) {
            self.pc_stats[i].1 = self.pc_stats[i].1.saturating_add(1);
        }
        self.samples += 1;
    }

    fn is_useful(&self, pc: Pc) -> bool {
        self.pc_stats
            .iter()
            .find(|&&(p, ..)| p == pc)
            .is_some_and(|&(_, _, reused, _)| reused >= self.train_threshold)
    }

    fn depth_for(&self, pc: Pc) -> usize {
        let deep = self
            .pc_stats
            .iter()
            .find(|&&(p, ..)| p == pc)
            .is_some_and(|&(_, _, _, timely)| timely >= self.deep_threshold);
        if deep {
            self.degree
        } else {
            1
        }
    }

    fn train(&mut self, from: LineAddr, to: LineAddr, replaced: &mut Vec<LineAddr>) {
        self.trains += 1;
        let set = (from.raw() % self.history.len() as u64) as usize;
        let ways = &mut self.history[set];
        if let Some(entry) = ways.iter_mut().flatten().find(|e| e.tag == from) {
            if entry.next == to {
                entry.conf = entry.conf.saturating_add(1);
            } else if entry.conf > 1 {
                entry.conf -= 1;
            } else {
                entry.next = to;
                entry.conf = 1;
            }
            return;
        }
        let way = match ways.iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let mut victim = 0;
                for i in 1..ways.len() {
                    let (a, b) = (ways[i].expect("full set"), ways[victim].expect("full set"));
                    if a.conf < b.conf {
                        victim = i;
                    }
                }
                replaced.push(ways[victim].expect("full set").tag);
                self.entry_evictions += 1;
                victim
            }
        };
        ways[way] = Some(RefHistEntry {
            tag: from,
            next: to,
            conf: 1,
        });
    }

    fn lookup(&self, line: LineAddr) -> Option<LineAddr> {
        let set = (line.raw() % self.history.len() as u64) as usize;
        self.history[set]
            .iter()
            .flatten()
            .find(|e| e.tag == line)
            .map(|e| e.next)
    }

    /// Applies one triggering event, returning everything it produced.
    pub fn step(&mut self, event: &TriggerEvent) -> RefTriggerOutput {
        let mut out = RefTriggerOutput::default();
        let (line, pc) = (event.line, event.pc);
        self.now += 1;
        if event.kind == TriggerKind::Miss && self.sampled(line) {
            self.sample(line, pc);
        }
        if let Some((prev_line, prev_pc)) = self.prev.replace((line, pc)) {
            if prev_line != line && self.is_useful(prev_pc) {
                self.train(prev_line, line, &mut out.replaced);
            }
        }
        if self.is_useful(pc) {
            let depth = self.depth_for(pc).min(self.degree);
            let mut cur = line;
            for _ in 0..depth {
                let Some(next) = self.lookup(cur) else {
                    break;
                };
                if next == line || out.predicted.contains(&next) {
                    break;
                }
                out.predicted.push(next);
                self.predictions += 1;
                cur = next;
            }
        }
        out
    }

    /// Whether `line` is any history entry's `next` (full table scan).
    pub fn knows_line(&self, line: LineAddr) -> bool {
        self.history
            .iter()
            .flatten()
            .flatten()
            .any(|e| e.next == line)
    }

    /// Counter values in the production `emit_counters` order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("triangel.samples", self.samples),
            ("triangel.reuses", self.reuses),
            ("triangel.trains", self.trains),
            ("triangel.predictions", self.predictions),
            ("triangel.entry_evictions", self.entry_evictions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn reference_eit_two_level_lru() {
        let mut eit = ReferenceEit::new(1, 2, 2);
        assert_eq!(eit.update(line(1), line(10), 0), None);
        assert_eq!(eit.update(line(2), line(20), 1), None);
        // Promote tag 1; the next capacity eviction takes tag 2.
        assert!(eit.lookup(line(1)).is_some());
        assert_eq!(eit.update(line(3), line(30), 2), Some(line(2)));
        assert!(!eit.probe(line(2)));
        // Entry LRU: refresh promotes, capacity drops the oldest.
        eit.update(line(1), line(11), 3);
        eit.update(line(1), line(10), 4); // refresh 10 → MRU
        eit.update(line(1), line(12), 5); // evicts 11
        let entries = eit.lookup(line(1)).unwrap();
        let addrs: Vec<u64> = entries.iter().map(|e| e.addr.raw()).collect();
        assert_eq!(addrs, vec![10, 12]);
    }

    #[test]
    fn reference_mshr_merges_stalls_retires() {
        let mut m = ReferenceMshr::new(2);
        assert_eq!(m.allocate(line(1), 50.0), Some(50.0));
        assert_eq!(m.allocate(line(1), 99.0), Some(50.0), "merged");
        assert_eq!(m.allocate(line(2), 60.0), Some(60.0));
        assert_eq!(m.allocate(line(3), 70.0), None, "full");
        assert_eq!(m.counters(), (2, 1, 1));
        assert_eq!(m.earliest_completion(), Some(50.0));
        m.retire_until(50.0); // inclusive boundary
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn reference_buffer_counts_lifetimes() {
        let mut b = ReferenceBuffer::new(2);
        b.insert(line(1), 0.0, Some(0));
        b.insert(line(1), 1.0, None);
        b.insert(line(2), 0.0, Some(1));
        b.insert(line(3), 0.0, Some(0)); // evicts line 1
        assert!(b.take(line(2)).is_some());
        assert_eq!(b.discard_stream(0), 1);
        let s = b.stats();
        assert_eq!(
            (
                s.inserted,
                s.duplicate_inserts,
                s.hits,
                s.evicted_unused,
                s.discarded_unused
            ),
            (4, 1, 1, 1, 1)
        );
        assert!(b.is_empty());
    }

    #[test]
    fn reference_pangloss_learns_and_evicts_min_frequency() {
        // 8 sets keep the tags (2, 4, 6, 8) conflict-free so the test
        // exercises edge eviction, not entry eviction.
        let mut p = ReferencePangloss::new(8, 2, 2, 2);
        let mut drive = |l: u64| p.step(&TriggerEvent::miss(Pc::new(0), line(l)));
        // 2 → 4 twice (strong), 2 → 6 once (weak), then a third successor.
        for l in [2u64, 4, 2, 4, 2, 6, 2, 8] {
            drive(l);
        }
        assert!(p.knows_line(line(4)), "strong edge survives");
        assert!(!p.knows_line(line(6)), "minimum-frequency edge evicted");
        assert!(p.knows_line(line(8)));
        // Chain walk issues the strongest successor.
        p.prev = None;
        let out = p.step(&TriggerEvent::miss(Pc::new(0), line(2)));
        assert_eq!(out.predicted, vec![line(4)]);
        assert!(p
            .counters()
            .iter()
            .any(|&(n, v)| n == "pangloss.edge_evictions" && v == 1));
    }

    #[test]
    fn reference_triangel_gates_training_on_reuse() {
        let p = RefTriangelParams {
            hist_sets: 4,
            hist_ways: 2,
            sampler_sets: 2,
            sampler_ways: 2,
            max_pcs: 4,
            train_threshold: 1,
            deep_threshold: 8,
            timely_distance: 1000,
            degree: 2,
            sample_shift: 0,
        };
        fn drive(t: &mut ReferenceTriangel, pc: u64, l: u64) -> RefTriggerOutput {
            t.step(&TriggerEvent::miss(Pc::new(pc), LineAddr::new(l)))
        }
        let mut t = ReferenceTriangel::new(p);
        // No reuse yet: nothing trains.
        drive(&mut t, 1, 10);
        drive(&mut t, 1, 11);
        assert_eq!(t.counters()[2], ("triangel.trains", 0));
        // Reuse on 10 makes PC 1 useful; the next transitions train.
        drive(&mut t, 1, 10);
        drive(&mut t, 1, 12);
        assert!(t.knows_line(line(12)));
        t.prev = None;
        let out = t.step(&TriggerEvent::miss(Pc::new(1), line(10)));
        assert_eq!(out.predicted, vec![line(12)], "untimely PC walks one step");
    }
}
