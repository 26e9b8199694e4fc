//! Prefetch flight recorder: a zero-alloc, ring-buffered event log with
//! causal coverage-loss attribution.
//!
//! The epoch counters in this crate say *how much* coverage a prefetcher
//! achieved; the flight recorder says *why the rest was lost*. Engines
//! emit fixed-size binary [`TraceEvent`] records — prefetch issue,
//! metadata-lookup start/end, buffer fill, demand hit, late arrival,
//! unused eviction, dropped insert, EIT replacement — into a
//! preallocated ring that keeps the most recent `capacity` events. In
//! parallel, a bounded [correlation table](CorrelationTable) remembers
//! the disposition of recently prefetched lines, so that when a demand
//! miss arrives *uncovered* the recorder can attribute it to the
//! prefetch that should have covered it:
//!
//! * **covered** — the miss hit the prefetch buffer (timely);
//! * **late** — it hit a block still in flight (timing engine only);
//! * **evicted-unused** — the block was prefetched but evicted or
//!   discarded from the buffer before use;
//! * **dropped** — the prefetch was issued but never buffered (duplicate
//!   insert or the line was already cached);
//! * **mispredicted** — no prefetch targeted the line although the
//!   prefetcher's metadata had recorded it (a wrong prediction was made
//!   instead);
//! * **no-metadata** — the prefetcher's metadata never recorded the line
//!   (cold miss or lost metadata).
//!
//! The six buckets are maintained **online** as exact counters
//! ([`Attribution`]): every demand miss increments `demand_misses` and
//! exactly one bucket, so `covered + late + evicted_unused + dropped +
//! mispredicted + no_metadata == demand_misses` holds by construction —
//! independently of ring wraparound. When the ring did *not* wrap, a
//! replay of the stored events reproduces the same buckets
//! ([`TraceFile::verify`] cross-checks both).
//!
//! The hot path allocates nothing: the ring and the correlation table
//! are preallocated at construction, a record is a bounds-checked index
//! write, and a disabled recorder costs the caller one `Option` branch
//! (see `Telemetry::tracer`).
//!
//! # Binary file format (`trace_*.bin`, version 1, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "DMNOFLT1"
//! 8       4     version (u32, = 1)
//! 12      4     reserved (u32, = 0)
//! 16      ...   workload  (u32 length + UTF-8 bytes)
//! ...     ...   component (u32 length + UTF-8 bytes)
//! ...     ...   kind      (u32 length + UTF-8 bytes)
//! ...     8×3   events, seed, warmup (u64 each)
//! ...     8×2   ring capacity, total events recorded (u64 each)
//! ...     8×7   attribution: demand_misses, covered, late,
//!               evicted_unused, dropped, mispredicted, no_metadata
//! ...     8     stored record count N (u64)
//! ...     32×N  records, oldest first
//! ```
//!
//! Each 32-byte record is `kind: u8, cause: u8, pad: u16 (= 0),
//! stream: u32 (u32::MAX = none), time: u64, line: u64, aux: u64`.
//! `time` is the demand-access index in the coverage engine and
//! simulated nanoseconds in the timing engine; `aux` carries a
//! kind-specific payload (delay trips on issue, arrival time on fill,
//! prefetch-to-use distance on hit, residual wait on late arrival, a
//! drop reason on dropped inserts).

use domino_trace::frame::{FrameError, Reader, Writer};

/// File magic of a recorded trace.
pub const TRACE_MAGIC: &[u8; 8] = b"DMNOFLT1";

/// Binary format version written by [`FlightRecorder::to_bytes`].
pub const TRACE_VERSION: u32 = 1;

/// Size of one encoded [`TraceEvent`].
pub const RECORD_BYTES: usize = 32;

/// Default ring capacity (events) when a knob enables tracing without a
/// size (`--trace` with no value, `DOMINO_TRACE=1`... any positive value
/// is used verbatim; callers pass this for "just turn it on").
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// `stream` field value meaning "no stream tag".
pub const NO_STREAM: u32 = u32::MAX;

/// Slots in the bounded in-flight correlation table (power of two).
const CORRELATION_SLOTS: usize = 4096;

/// Fibonacci multiplier for the correlation-table hash.
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A prefetch request was issued; `aux` = serial metadata trips.
    Issue = 1,
    /// An off-chip metadata lookup started; `aux` = blocks read.
    MetaStart = 2,
    /// The metadata lookup completed; `aux` = round-trip time.
    MetaEnd = 3,
    /// A prefetched block filled the buffer; `aux` = arrival time.
    Fill = 4,
    /// A demand miss hit the buffer (covered); `aux` = use distance.
    DemandHit = 5,
    /// A demand miss hit a block still in flight; `aux` = residual wait.
    LateArrival = 6,
    /// A buffered block was evicted or discarded before any use.
    EvictUnused = 7,
    /// A prefetch was issued but never buffered; `aux` = drop reason
    /// (1 = duplicate insert, 2 = line already cached).
    DropBufferFull = 8,
    /// An index/EIT entry was replaced (metadata loss); `line` = the
    /// evicted tag.
    EitReplace = 9,
    /// An uncovered demand miss; `cause` carries its [`LossCause`].
    DemandMiss = 10,
}

impl EventKind {
    /// Decodes a stored kind byte.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Issue,
            2 => EventKind::MetaStart,
            3 => EventKind::MetaEnd,
            4 => EventKind::Fill,
            5 => EventKind::DemandHit,
            6 => EventKind::LateArrival,
            7 => EventKind::EvictUnused,
            8 => EventKind::DropBufferFull,
            9 => EventKind::EitReplace,
            10 => EventKind::DemandMiss,
            _ => return None,
        })
    }

    /// Stable lowercase name (CSV / rendering).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Issue => "issue",
            EventKind::MetaStart => "meta_start",
            EventKind::MetaEnd => "meta_end",
            EventKind::Fill => "fill",
            EventKind::DemandHit => "demand_hit",
            EventKind::LateArrival => "late_arrival",
            EventKind::EvictUnused => "evict_unused",
            EventKind::DropBufferFull => "drop",
            EventKind::EitReplace => "eit_replace",
            EventKind::DemandMiss => "demand_miss",
        }
    }
}

/// Why a demand miss was (or was not) covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LossCause {
    /// Not a miss-classifying event.
    None = 0,
    /// Covered: buffer hit with the data ready.
    Covered = 1,
    /// Covered but the block was still in flight.
    Late = 2,
    /// The covering prefetch was evicted/discarded unused.
    EvictedUnused = 3,
    /// The covering prefetch was issued but never buffered.
    Dropped = 4,
    /// Metadata knew the line but the prefetcher predicted elsewhere.
    Mispredicted = 5,
    /// Metadata never recorded the line.
    NoMetadata = 6,
}

impl LossCause {
    /// Decodes a stored cause byte.
    pub fn from_u8(v: u8) -> Option<LossCause> {
        Some(match v {
            0 => LossCause::None,
            1 => LossCause::Covered,
            2 => LossCause::Late,
            3 => LossCause::EvictedUnused,
            4 => LossCause::Dropped,
            5 => LossCause::Mispredicted,
            6 => LossCause::NoMetadata,
            _ => return None,
        })
    }

    /// Stable lowercase name (CSV / rendering).
    pub fn name(self) -> &'static str {
        match self {
            LossCause::None => "none",
            LossCause::Covered => "covered",
            LossCause::Late => "late",
            LossCause::EvictedUnused => "evicted_unused",
            LossCause::Dropped => "dropped",
            LossCause::Mispredicted => "mispredicted",
            LossCause::NoMetadata => "no_metadata",
        }
    }
}

/// One fixed-size flight-recorder record (32 bytes encoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// [`EventKind`] discriminant.
    pub kind: u8,
    /// [`LossCause`] discriminant (miss-classifying events only).
    pub cause: u8,
    /// Stream id, [`NO_STREAM`] when untagged.
    pub stream: u32,
    /// Cycle timestamp: access index (coverage) or sim-ns (timing).
    pub time: u64,
    /// Cache-line address (raw).
    pub line: u64,
    /// Kind-specific payload.
    pub aux: u64,
}

impl TraceEvent {
    /// Appends the 32-byte record.
    pub fn write(&self, w: &mut Writer) {
        w.u8(self.kind);
        w.u8(self.cause);
        w.u16(0);
        w.u32(self.stream);
        w.u64(self.time);
        w.u64(self.line);
        w.u64(self.aux);
    }

    /// Takes one 32-byte record.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when fewer than 32 bytes remain.
    pub fn read(r: &mut Reader<'_>) -> Result<TraceEvent, FrameError> {
        let (kind, cause, _pad) = (r.u8()?, r.u8()?, r.u16()?);
        Ok(TraceEvent {
            kind,
            cause,
            stream: r.u32()?,
            time: r.u64()?,
            line: r.u64()?,
            aux: r.u64()?,
        })
    }
}

/// Exact online loss-attribution counters: every demand miss increments
/// `demand_misses` and exactly one bucket, so the buckets sum to
/// `demand_misses` by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// All demand misses seen by the recorder (covered or not).
    pub demand_misses: u64,
    /// Buffer hits with the data ready.
    pub covered: u64,
    /// Buffer hits on blocks still in flight.
    pub late: u64,
    /// Misses whose covering prefetch was evicted/discarded unused.
    pub evicted_unused: u64,
    /// Misses whose covering prefetch was never buffered.
    pub dropped: u64,
    /// Misses the metadata knew but the prefetcher predicted elsewhere.
    pub mispredicted: u64,
    /// Misses the metadata never recorded.
    pub no_metadata: u64,
}

/// Bucket names, in the order of [`Attribution::buckets`].
pub const BUCKET_NAMES: [&str; 6] = [
    "covered",
    "late",
    "evicted_unused",
    "dropped",
    "mispredicted",
    "no_metadata",
];

impl Attribution {
    /// The six bucket values in [`BUCKET_NAMES`] order.
    pub fn buckets(&self) -> [u64; 6] {
        [
            self.covered,
            self.late,
            self.evicted_unused,
            self.dropped,
            self.mispredicted,
            self.no_metadata,
        ]
    }

    /// Sum of the six buckets.
    pub fn bucket_sum(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// The conservation invariant: buckets sum to total demand misses.
    pub fn is_conserved(&self) -> bool {
        self.bucket_sum() == self.demand_misses
    }

    /// Covered fraction (timely + late) of demand misses.
    pub fn coverage(&self) -> f64 {
        if self.demand_misses == 0 {
            0.0
        } else {
            (self.covered + self.late) as f64 / self.demand_misses as f64
        }
    }
}

/// Disposition states of a correlation-table slot.
const SLOT_EMPTY: u8 = 0;
const SLOT_BUFFERED: u8 = 1;
const SLOT_EVICTED: u8 = 2;
const SLOT_DROPPED: u8 = 3;

/// One direct-mapped slot: the line a prefetch targeted plus what became
/// of it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    state: u8,
}

/// Bounded, direct-mapped table matching demand misses back to the
/// prefetch that should have covered them. Collisions overwrite (the
/// table answers "what happened to the *most recent* prefetch of this
/// line", which is exactly the causal question); the memory bound and
/// the absence of allocation are what make it hot-path safe.
#[derive(Debug, Clone)]
pub struct CorrelationTable {
    slots: Vec<Slot>,
    shift: u32,
}

impl CorrelationTable {
    fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        CorrelationTable {
            slots: vec![
                Slot {
                    line: 0,
                    state: SLOT_EMPTY
                };
                slots
            ],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    #[inline]
    fn index(&self, line: u64) -> usize {
        (line.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    #[inline]
    fn mark(&mut self, line: u64, state: u8) {
        let i = self.index(line);
        self.slots[i] = Slot { line, state };
    }

    /// Removes and returns the disposition recorded for `line`
    /// ([`SLOT_EMPTY`] when unknown or displaced by a collision).
    #[inline]
    fn consume(&mut self, line: u64) -> u8 {
        let i = self.index(line);
        let slot = self.slots[i];
        if slot.state != SLOT_EMPTY && slot.line == line {
            self.slots[i].state = SLOT_EMPTY;
            slot.state
        } else {
            SLOT_EMPTY
        }
    }
}

/// Run identity stored in a trace file header (mirrors the labelling of
/// `RunReport`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload display name.
    pub workload: String,
    /// Prefetcher / system label.
    pub component: String,
    /// Run kind (`coverage`, `timing`).
    pub kind: String,
    /// Trace events generated per workload.
    pub events: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Warmup prefix in accesses.
    pub warmup: u64,
}

/// The flight recorder: ring of recent events + correlation table +
/// online attribution. Cloneable so `Telemetry` handles stay cloneable.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Vec<TraceEvent>,
    /// Total events ever recorded (the ring keeps the last `capacity`).
    recorded: u64,
    attribution: Attribution,
    table: CorrelationTable,
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity");
        FlightRecorder {
            capacity,
            ring: Vec::with_capacity(capacity),
            recorded: 0,
            attribution: Attribution::default(),
            table: CorrelationTable::new(CORRELATION_SLOTS),
        }
    }

    #[inline]
    fn push(
        &mut self,
        kind: EventKind,
        cause: LossCause,
        stream: u32,
        time: u64,
        line: u64,
        aux: u64,
    ) {
        let ev = TraceEvent {
            kind: kind as u8,
            cause: cause as u8,
            stream,
            time,
            line,
            aux,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            // Injected bug for the checker self-test: overwrite one slot
            // past the true wrap position, scrambling the ring's
            // oldest-first order once it wraps.
            #[cfg(domino_mutate)]
            let wrap_skew = u64::from(crate::mutate_active("ring_wrap_off_by_one"));
            #[cfg(not(domino_mutate))]
            let wrap_skew = 0u64;
            let idx = ((self.recorded + wrap_skew) % self.capacity as u64) as usize;
            self.ring[idx] = ev;
        }
        self.recorded += 1;
    }

    #[inline]
    fn tag(stream: Option<u32>) -> u32 {
        stream.unwrap_or(NO_STREAM)
    }

    /// A prefetch request was issued (`trips` serial metadata trips).
    #[inline]
    pub fn issue(&mut self, time: u64, line: u64, stream: Option<u32>, trips: u8) {
        self.push(
            EventKind::Issue,
            LossCause::None,
            Self::tag(stream),
            time,
            line,
            u64::from(trips),
        );
    }

    /// An off-chip metadata lookup of `blocks` blocks started.
    #[inline]
    pub fn meta_start(&mut self, time: u64, blocks: u64) {
        self.push(
            EventKind::MetaStart,
            LossCause::None,
            NO_STREAM,
            time,
            0,
            blocks,
        );
    }

    /// A metadata lookup completed after `round_trip` time units.
    #[inline]
    pub fn meta_end(&mut self, time: u64, round_trip: u64) {
        self.push(
            EventKind::MetaEnd,
            LossCause::None,
            NO_STREAM,
            time,
            0,
            round_trip,
        );
    }

    /// A prefetched block entered the buffer, arriving at `ready_at`.
    #[inline]
    pub fn fill(&mut self, time: u64, line: u64, stream: Option<u32>, ready_at: u64) {
        self.table.mark(line, SLOT_BUFFERED);
        self.push(
            EventKind::Fill,
            LossCause::None,
            Self::tag(stream),
            time,
            line,
            ready_at,
        );
    }

    /// A buffered block was evicted or discarded before any use.
    #[inline]
    pub fn evict_unused(&mut self, time: u64, line: u64, stream: Option<u32>) {
        self.table.mark(line, SLOT_EVICTED);
        self.push(
            EventKind::EvictUnused,
            LossCause::None,
            Self::tag(stream),
            time,
            line,
            0,
        );
    }

    /// A prefetch was issued but never buffered (`reason`: 1 = duplicate
    /// insert, 2 = line already cached).
    #[inline]
    pub fn drop_unbuffered(&mut self, time: u64, line: u64, stream: Option<u32>, reason: u64) {
        self.table.mark(line, SLOT_DROPPED);
        self.push(
            EventKind::DropBufferFull,
            LossCause::None,
            Self::tag(stream),
            time,
            line,
            reason,
        );
    }

    /// An index/EIT entry for `line` was replaced (metadata loss).
    #[inline]
    pub fn eit_replace(&mut self, time: u64, line: u64) {
        self.push(
            EventKind::EitReplace,
            LossCause::None,
            NO_STREAM,
            time,
            line,
            0,
        );
    }

    /// A demand miss hit the buffer with its data ready (covered);
    /// `distance` is the prefetch-to-use distance.
    #[inline]
    pub fn demand_hit(&mut self, time: u64, line: u64, stream: Option<u32>, distance: u64) {
        self.attribution.demand_misses += 1;
        self.attribution.covered += 1;
        self.table.consume(line);
        self.push(
            EventKind::DemandHit,
            LossCause::Covered,
            Self::tag(stream),
            time,
            line,
            distance,
        );
    }

    /// A demand miss hit a block still in flight; `residual` is the
    /// extra wait.
    #[inline]
    pub fn late_arrival(&mut self, time: u64, line: u64, stream: Option<u32>, residual: u64) {
        self.attribution.demand_misses += 1;
        self.attribution.late += 1;
        self.table.consume(line);
        self.push(
            EventKind::LateArrival,
            LossCause::Late,
            Self::tag(stream),
            time,
            line,
            residual,
        );
    }

    /// An uncovered demand miss. The correlation table decides between
    /// evicted-unused and dropped; otherwise `metadata_knows` (the
    /// prefetcher's own metadata probe) splits mispredicted from
    /// no-metadata.
    #[inline]
    pub fn demand_miss(&mut self, time: u64, line: u64, metadata_knows: bool) {
        self.attribution.demand_misses += 1;
        let cause = match self.table.consume(line) {
            SLOT_EVICTED => {
                self.attribution.evicted_unused += 1;
                LossCause::EvictedUnused
            }
            SLOT_DROPPED => {
                self.attribution.dropped += 1;
                LossCause::Dropped
            }
            _ if metadata_knows => {
                self.attribution.mispredicted += 1;
                LossCause::Mispredicted
            }
            _ => {
                self.attribution.no_metadata += 1;
                LossCause::NoMetadata
            }
        };
        self.push(EventKind::DemandMiss, cause, NO_STREAM, time, line, 0);
    }

    /// The online attribution counters.
    pub fn attribution(&self) -> Attribution {
        self.attribution
    }

    /// Total events ever recorded (≥ [`FlightRecorder::len`]).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events currently stored.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Whether the ring discarded old events.
    pub fn wrapped(&self) -> bool {
        self.recorded > self.capacity as u64
    }

    /// Stored events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let split = if self.wrapped() {
            (self.recorded % self.capacity as u64) as usize
        } else {
            0
        };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// Serializes the recorder (header + stored events) in the
    /// [module-level](self) binary format.
    pub fn to_bytes(&self, meta: &TraceMeta) -> Vec<u8> {
        let mut w = Writer::with_header(
            TRACE_MAGIC,
            TRACE_VERSION,
            128 + self.ring.len() * RECORD_BYTES,
        );
        w.u32(0);
        w.str(&meta.workload);
        w.str(&meta.component);
        w.str(&meta.kind);
        w.u64(meta.events);
        w.u64(meta.seed);
        w.u64(meta.warmup);
        w.u64(self.capacity as u64);
        w.u64(self.recorded);
        w.u64(self.attribution.demand_misses);
        for v in self.attribution.buckets() {
            w.u64(v);
        }
        w.u64(self.ring.len() as u64);
        for ev in self.events() {
            ev.write(&mut w);
        }
        w.into_bytes()
    }
}

/// A parsed trace file: header + events, ready for replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Run identity.
    pub meta: TraceMeta,
    /// Ring capacity of the producing recorder.
    pub capacity: u64,
    /// Total events the recorder ever saw.
    pub recorded: u64,
    /// Online attribution counters from the header.
    pub attribution: Attribution,
    /// Stored events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl TraceFile {
    /// Parses a serialized trace.
    ///
    /// # Errors
    ///
    /// The first malformation found, as a [`FrameError`].
    pub fn from_bytes(b: &[u8]) -> Result<TraceFile, FrameError> {
        let mut r = Reader::open(b, TRACE_MAGIC, TRACE_VERSION..=TRACE_VERSION)?;
        let _reserved = r.u32()?;
        let meta = TraceMeta {
            workload: r.string()?,
            component: r.string()?,
            kind: r.string()?,
            events: r.u64()?,
            seed: r.u64()?,
            warmup: r.u64()?,
        };
        let capacity = r.u64()?;
        let recorded = r.u64()?;
        let attribution = Attribution {
            demand_misses: r.u64()?,
            covered: r.u64()?,
            late: r.u64()?,
            evicted_unused: r.u64()?,
            dropped: r.u64()?,
            mispredicted: r.u64()?,
            no_metadata: r.u64()?,
        };
        let count = r.u64()?;
        let count = r.records(count, RECORD_BYTES)?;
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            events.push(TraceEvent::read(&mut r)?);
        }
        r.finish()?;
        Ok(TraceFile {
            meta,
            capacity,
            recorded,
            attribution,
            events,
        })
    }

    /// Whether the producing ring discarded old events.
    pub fn wrapped(&self) -> bool {
        self.recorded > self.capacity
    }

    /// Recomputes the attribution by replaying the stored
    /// miss-classifying events (exact only when the ring did not wrap).
    pub fn replayed_attribution(&self) -> Attribution {
        let mut a = Attribution::default();
        for ev in &self.events {
            match EventKind::from_u8(ev.kind) {
                Some(EventKind::DemandHit) => {
                    a.demand_misses += 1;
                    a.covered += 1;
                }
                Some(EventKind::LateArrival) => {
                    a.demand_misses += 1;
                    a.late += 1;
                }
                Some(EventKind::DemandMiss) => {
                    a.demand_misses += 1;
                    match LossCause::from_u8(ev.cause) {
                        Some(LossCause::EvictedUnused) => a.evicted_unused += 1,
                        Some(LossCause::Dropped) => a.dropped += 1,
                        Some(LossCause::Mispredicted) => a.mispredicted += 1,
                        _ => a.no_metadata += 1,
                    }
                }
                _ => {}
            }
        }
        a
    }

    /// Checks the file's invariants: every stored event decodes, the
    /// header buckets sum to the header miss count, and — when the ring
    /// did not wrap — replaying the events reproduces the header
    /// attribution exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            if EventKind::from_u8(ev.kind).is_none() {
                return Err(format!("record {i}: unknown event kind {}", ev.kind));
            }
            if LossCause::from_u8(ev.cause).is_none() {
                return Err(format!("record {i}: unknown loss cause {}", ev.cause));
            }
        }
        let a = self.attribution;
        if !a.is_conserved() {
            return Err(format!(
                "attribution not conserved: buckets sum to {} but demand_misses = {}",
                a.bucket_sum(),
                a.demand_misses
            ));
        }
        if !self.wrapped() {
            if self.events.len() as u64 != self.recorded {
                return Err(format!(
                    "unwrapped ring stores {} events but recorded {}",
                    self.events.len(),
                    self.recorded
                ));
            }
            let replayed = self.replayed_attribution();
            if replayed != a {
                return Err(format!(
                    "replayed attribution {replayed:?} disagrees with header {a:?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "OLTP".into(),
            component: "Domino".into(),
            kind: "coverage".into(),
            events: 1000,
            seed: 42,
            warmup: 250,
        }
    }

    #[test]
    fn ring_wraps_and_keeps_the_tail() {
        let mut r = FlightRecorder::new(4);
        for t in 0..10u64 {
            r.issue(t, 100 + t, None, 1);
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.len(), 4);
        assert!(r.wrapped());
        let times: Vec<u64> = r.events().map(|e| e.time).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "chronological tail");
    }

    #[test]
    fn unwrapped_ring_is_chronological_from_zero() {
        let mut r = FlightRecorder::new(8);
        for t in 0..5u64 {
            r.issue(t, t, Some(3), 0);
        }
        assert!(!r.wrapped());
        let times: Vec<u64> = r.events().map(|e| e.time).collect();
        assert_eq!(times, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn attribution_buckets_always_sum_to_misses() {
        let mut r = FlightRecorder::new(4); // tiny ring: wraps constantly
        for t in 0..100u64 {
            let line = t % 7;
            match t % 5 {
                0 => {
                    r.fill(t, line, None, t);
                    r.demand_hit(t, line, None, 1);
                }
                1 => r.late_arrival(t, line, None, 10),
                2 => {
                    r.fill(t, line, None, t);
                    r.evict_unused(t, line, None);
                    r.demand_miss(t, line, true);
                }
                3 => {
                    r.drop_unbuffered(t, line, None, 1);
                    r.demand_miss(t, line, true);
                }
                _ => r.demand_miss(t, line, false),
            }
        }
        let a = r.attribution();
        assert!(a.is_conserved(), "{a:?}");
        assert_eq!(a.demand_misses, 100);
        assert!(a.covered > 0 && a.late > 0 && a.evicted_unused > 0);
        assert!(a.dropped > 0 && a.no_metadata > 0);
    }

    #[test]
    fn correlation_table_classifies_causes() {
        let mut r = FlightRecorder::new(64);
        // Evicted before use → evicted_unused.
        r.fill(0, 10, Some(1), 0);
        r.evict_unused(1, 10, Some(1));
        r.demand_miss(2, 10, true);
        // Dropped insert → dropped.
        r.drop_unbuffered(3, 20, None, 2);
        r.demand_miss(4, 20, false);
        // Unknown line, metadata knows it → mispredicted.
        r.demand_miss(5, 30, true);
        // Unknown line, no metadata → no_metadata.
        r.demand_miss(6, 40, false);
        let a = r.attribution();
        assert_eq!(
            (a.evicted_unused, a.dropped, a.mispredicted, a.no_metadata),
            (1, 1, 1, 1)
        );
        // Each disposition is consumed: a second miss on 10 falls through
        // to the metadata probe.
        r.demand_miss(7, 10, false);
        assert_eq!(r.attribution().no_metadata, 2);
    }

    #[test]
    fn roundtrip_and_verify() {
        let mut r = FlightRecorder::new(128);
        r.meta_start(0, 1);
        r.meta_end(45, 45);
        r.issue(45, 7, Some(2), 1);
        r.fill(45, 7, Some(2), 90);
        r.demand_hit(100, 7, Some(2), 55);
        r.eit_replace(101, 99);
        r.demand_miss(102, 11, false);
        let bytes = r.to_bytes(&meta());
        let f = TraceFile::from_bytes(&bytes).expect("parse");
        assert_eq!(f.meta, meta());
        assert_eq!(f.recorded, 7);
        assert!(!f.wrapped());
        assert_eq!(f.events.len(), 7);
        assert_eq!(f.attribution, r.attribution());
        f.verify().expect("invariants hold");
        assert_eq!(f.replayed_attribution(), f.attribution);
    }

    #[test]
    fn wrapped_file_still_verifies_header_conservation() {
        let mut r = FlightRecorder::new(2);
        for t in 0..50u64 {
            r.demand_miss(t, t, false);
        }
        let bytes = r.to_bytes(&meta());
        let f = TraceFile::from_bytes(&bytes).expect("parse");
        assert!(f.wrapped());
        assert_eq!(f.events.len(), 2);
        assert_eq!(f.attribution.demand_misses, 50);
        f.verify().expect("header conservation is wrap-independent");
    }

    #[test]
    fn verify_rejects_broken_conservation() {
        let mut r = FlightRecorder::new(8);
        r.demand_hit(0, 1, None, 0);
        let bytes = r.to_bytes(&meta());
        let mut f = TraceFile::from_bytes(&bytes).expect("parse");
        f.attribution.covered = 5; // corrupt a bucket
        assert!(f.verify().is_err());
    }

    #[test]
    fn max_u64_payloads_roundtrip() {
        let mut r = FlightRecorder::new(4);
        r.push(
            EventKind::Issue,
            LossCause::None,
            u32::MAX - 1,
            u64::MAX,
            u64::MAX,
            u64::MAX,
        );
        let bytes = r.to_bytes(&meta());
        let f = TraceFile::from_bytes(&bytes).expect("parse");
        let ev = f.events[0];
        assert_eq!((ev.time, ev.line, ev.aux), (u64::MAX, u64::MAX, u64::MAX));
        assert_eq!(ev.stream, u32::MAX - 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceFile::from_bytes(b"not a trace").is_err());
        let mut bytes = FlightRecorder::new(2).to_bytes(&meta());
        bytes[8] = 9; // version
        assert!(TraceFile::from_bytes(&bytes).is_err());
        let mut truncated = FlightRecorder::new(2).to_bytes(&meta());
        truncated.truncate(truncated.len() - 1);
        // Truncation inside the header/labels is caught.
        assert!(TraceFile::from_bytes(&truncated[..20]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = FlightRecorder::new(2).to_bytes(&meta());
        bytes.push(0);
        assert!(TraceFile::from_bytes(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        FlightRecorder::new(0);
    }
}
