//! Fixed-capacity time-series metrics: a zero-alloc ring of per-interval
//! snapshots.
//!
//! The epoch machinery in this crate serves post-mortem analysis of one
//! simulated run; the metrics ring serves *live* observation of a running
//! service. A producer (one shard worker, one engine loop) registers a
//! fixed set of metrics once, then calls [`MetricsRing::sample`] on an
//! event-count cadence with the *current cumulative value* of every
//! metric. The ring stores one row per interval:
//!
//! * **counters** ([`MetricKind::Counter`]) are stored as the *delta*
//!   since the previous sample — a per-interval rate, readable directly
//!   off a row;
//! * **gauges** ([`MetricKind::Gauge`]) are stored as the sampled
//!   *level* (queue depth, footprint bytes, wall-clock offset).
//!
//! The ring keeps the most recent `capacity` rows and, independently of
//! wraparound, the final cumulative value of every metric
//! ([`MetricsRing::totals`]). That gives consumers two invariants:
//!
//! * **conservation** — while the ring has not wrapped, the per-counter
//!   sum of stored deltas equals its total (counters start at zero);
//! * **stamp chronology** — sample stamps are nondecreasing oldest
//!   first.
//!
//! Everything is preallocated at construction: a sample is a handful of
//! indexed slab writes, so an armed producer's hot path allocates
//! nothing (proven by `crates/telemetry/tests/ring_alloc.rs`).
//!
//! # Binary file format (`metrics_*.bin`, version 1, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "DMNOMTR1"
//! 8       4     version (u32, = 1)
//! 12      4     reserved (u32, = 0)
//! 16      ...   source (u32 length + UTF-8 bytes, e.g. "shard-0")
//! ...     8     interval stride in events (u64; 0 = caller-defined)
//! ...     8×3   ring capacity, width, rows ever sampled (u64 each)
//! ...     ...   width × metric spec: name (u32 length + UTF-8) + kind (u8)
//! ...     8×W   per-metric cumulative totals (counters) / last levels (gauges)
//! ...     8     stored row count N (u64)
//! ...     ...   N rows, oldest first: stamp (u64) + width × u64 values
//! ```

use domino_trace::frame::{FrameError, Reader, Writer};

/// File magic of a serialized metrics ring.
pub const RING_MAGIC: &[u8; 8] = b"DMNOMTR1";

/// Binary format version written by [`MetricsRing::to_bytes`].
pub const RING_VERSION: u32 = 1;

/// What a metric's per-interval row value means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MetricKind {
    /// Cumulative, monotone; rows store the delta since the last sample.
    Counter = 0,
    /// Instantaneous level; rows store the sampled value verbatim.
    Gauge = 1,
}

impl MetricKind {
    /// Decodes a stored kind byte.
    pub fn from_u8(v: u8) -> Option<MetricKind> {
        match v {
            0 => Some(MetricKind::Counter),
            1 => Some(MetricKind::Gauge),
            _ => None,
        }
    }
}

/// One registered metric: a stable name plus its [`MetricKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Dot/underscore-namespaced stable name (`events`, `queue_depth`,
    /// `lat_le_1000`).
    pub name: String,
    /// Row-value semantics.
    pub kind: MetricKind,
}

impl MetricSpec {
    /// A counter spec.
    pub fn counter(name: impl Into<String>) -> Self {
        MetricSpec {
            name: name.into(),
            kind: MetricKind::Counter,
        }
    }

    /// A gauge spec.
    pub fn gauge(name: impl Into<String>) -> Self {
        MetricSpec {
            name: name.into(),
            kind: MetricKind::Gauge,
        }
    }
}

/// The fixed-capacity per-interval snapshot ring. See the [module
/// docs](self) for semantics and the file format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsRing {
    specs: Vec<MetricSpec>,
    capacity: usize,
    /// `capacity` sample stamps, indexed `sampled % capacity`.
    stamps: Vec<u64>,
    /// `capacity × width` row slab, row-major.
    rows: Vec<u64>,
    /// Rows ever sampled (the ring keeps the last `capacity`).
    sampled: u64,
    /// Last cumulative value per metric (counter delta baseline).
    last: Vec<u64>,
    /// Cumulative totals (counters) / last levels (gauges).
    totals: Vec<u64>,
}

impl MetricsRing {
    /// Creates a ring of `capacity` rows over `specs`, preallocating
    /// every slab.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero, `specs` is empty, or two metrics
    /// share a name.
    pub fn new(capacity: usize, specs: Vec<MetricSpec>) -> Self {
        assert!(capacity > 0, "metrics ring needs capacity");
        assert!(!specs.is_empty(), "metrics ring needs at least one metric");
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate metric name {:?}", a.name);
            }
        }
        let width = specs.len();
        MetricsRing {
            specs,
            capacity,
            stamps: vec![0; capacity],
            rows: vec![0; capacity * width],
            sampled: 0,
            last: vec![0; width],
            totals: vec![0; width],
        }
    }

    /// Registered metrics, in row-column order.
    pub fn specs(&self) -> &[MetricSpec] {
        &self.specs
    }

    /// Columns per row.
    pub fn width(&self) -> usize {
        self.specs.len()
    }

    /// Ring capacity in rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows ever sampled (≥ [`MetricsRing::len`]).
    pub fn sampled(&self) -> u64 {
        self.sampled
    }

    /// Rows currently stored.
    pub fn len(&self) -> usize {
        self.sampled.min(self.capacity as u64) as usize
    }

    /// Whether no row was ever sampled.
    pub fn is_empty(&self) -> bool {
        self.sampled == 0
    }

    /// Whether old rows have been discarded.
    pub fn wrapped(&self) -> bool {
        self.sampled > self.capacity as u64
    }

    /// Final cumulative value per counter / last sampled level per
    /// gauge, in spec order. Wrap-independent.
    pub fn totals(&self) -> &[u64] {
        &self.totals
    }

    /// Column index of the metric named `name`.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.specs.iter().position(|s| s.name == name)
    }

    /// Records one interval row. `values` holds the *current cumulative*
    /// value of every metric in spec order; counters must not move
    /// backwards (a regression is clamped to a zero delta in release
    /// builds and panics in debug builds). Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics when `values.len()` differs from the registered width.
    pub fn sample(&mut self, stamp: u64, values: &[u64]) {
        let width = self.specs.len();
        assert_eq!(values.len(), width, "sample width mismatch");
        let row = (self.sampled % self.capacity as u64) as usize;
        self.stamps[row] = stamp;
        let slab = &mut self.rows[row * width..(row + 1) * width];
        for (i, (&v, spec)) in values.iter().zip(&self.specs).enumerate() {
            slab[i] = match spec.kind {
                MetricKind::Counter => {
                    debug_assert!(
                        v >= self.last[i],
                        "counter {:?} moved backwards: {} -> {v}",
                        spec.name,
                        self.last[i]
                    );
                    v.saturating_sub(self.last[i])
                }
                MetricKind::Gauge => v,
            };
            self.last[i] = v;
            self.totals[i] = v;
        }
        self.sampled += 1;
    }

    /// Stored rows oldest first, as `(stamp, values)` where counter
    /// columns hold per-interval deltas and gauge columns hold levels.
    pub fn iter_rows(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        let width = self.specs.len();
        let len = self.len();
        let split = if self.wrapped() {
            (self.sampled % self.capacity as u64) as usize
        } else {
            0
        };
        (0..len).map(move |i| {
            let row = (split + i) % self.capacity;
            (self.stamps[row], &self.rows[row * width..(row + 1) * width])
        })
    }

    /// Sums the last `window` stored rows of column `col` (counter
    /// columns: events in that span; gauge columns: a sum, rarely
    /// useful). Fewer rows than `window` sums everything stored.
    pub fn window_sum(&self, col: usize, window: usize) -> u64 {
        let len = self.len();
        let skip = len.saturating_sub(window);
        self.iter_rows().skip(skip).map(|(_, row)| row[col]).sum()
    }

    /// Serializes the ring in the [module-level](self) binary format.
    /// `source` labels the producer (e.g. `shard-0`); `interval` records
    /// the sampling stride in events (0 when caller-defined).
    pub fn to_bytes(&self, source: &str, interval: u64) -> Vec<u8> {
        let width = self.specs.len();
        let mut w = Writer::with_header(
            RING_MAGIC,
            RING_VERSION,
            128 + width * 24 + self.len() * (width + 1) * 8,
        );
        w.u32(0);
        w.str(source);
        w.u64(interval);
        w.u64(self.capacity as u64);
        w.u64(width as u64);
        w.u64(self.sampled);
        for spec in &self.specs {
            w.str(&spec.name);
            w.u8(spec.kind as u8);
        }
        for &t in &self.totals {
            w.u64(t);
        }
        w.u64(self.len() as u64);
        for (stamp, row) in self.iter_rows() {
            w.u64(stamp);
            for &v in row {
                w.u64(v);
            }
        }
        w.into_bytes()
    }
}

/// A parsed metrics-ring file, ready for rendering (`domino-top`) or
/// auditing (`domino-check`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingFile {
    /// Producer label from the header.
    pub source: String,
    /// Sampling stride in events (0 = caller-defined).
    pub interval: u64,
    /// Ring capacity of the producer.
    pub capacity: u64,
    /// Registered metrics, in column order.
    pub specs: Vec<MetricSpec>,
    /// Rows the producer ever sampled.
    pub sampled: u64,
    /// Final cumulative totals / last levels per metric.
    pub totals: Vec<u64>,
    /// Stored rows oldest first: `(stamp, values)`.
    pub rows: Vec<(u64, Vec<u64>)>,
}

impl RingFile {
    /// Parses a serialized metrics ring.
    ///
    /// # Errors
    ///
    /// The first malformation found, as a [`FrameError`].
    pub fn from_bytes(b: &[u8]) -> Result<RingFile, FrameError> {
        let mut r = Reader::open(b, RING_MAGIC, RING_VERSION..=RING_VERSION)?;
        let _reserved = r.u32()?;
        let source = r.string()?;
        let interval = r.u64()?;
        let capacity = r.u64()?;
        let width = r.u64()?;
        let sampled = r.u64()?;
        // A spec is at least a length word and a kind byte.
        let width = r.records(width, 5)?;
        let mut specs = Vec::with_capacity(width);
        for _ in 0..width {
            let name = r.string()?;
            let kind = MetricKind::from_u8(r.u8()?)
                .ok_or_else(|| r.bad_field(format!("metric {name:?}: unknown kind byte")))?;
            specs.push(MetricSpec { name, kind });
        }
        let mut totals = Vec::with_capacity(r.records(width as u64, 8)?);
        for _ in 0..width {
            totals.push(r.u64()?);
        }
        let count = r.u64()?;
        let count = r.records(count, (width + 1) * 8)?;
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let stamp = r.u64()?;
            let mut vals = Vec::with_capacity(width);
            for _ in 0..width {
                vals.push(r.u64()?);
            }
            rows.push((stamp, vals));
        }
        r.finish()?;
        Ok(RingFile {
            source,
            interval,
            capacity,
            specs,
            sampled,
            totals,
            rows,
        })
    }

    /// Whether the producing ring discarded old rows.
    pub fn wrapped(&self) -> bool {
        self.sampled > self.capacity
    }

    /// Column index of the metric named `name`.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.specs.iter().position(|s| s.name == name)
    }

    /// The final cumulative total of the metric named `name`.
    pub fn total(&self, name: &str) -> Option<u64> {
        self.column(name).map(|i| self.totals[i])
    }

    /// Checks the file's invariants: stored row count matches the
    /// header, stamps are nondecreasing oldest first, and — while the
    /// ring has not wrapped — every counter's stored deltas sum to its
    /// total (interval-counter conservation).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        let expect = self.sampled.min(self.capacity) as usize;
        if self.rows.len() != expect {
            return Err(format!(
                "header promises {expect} stored rows, found {}",
                self.rows.len()
            ));
        }
        let mut last_stamp = 0u64;
        for (i, (stamp, vals)) in self.rows.iter().enumerate() {
            if vals.len() != self.specs.len() {
                return Err(format!(
                    "row {i}: width {} != {}",
                    vals.len(),
                    self.specs.len()
                ));
            }
            if *stamp < last_stamp {
                return Err(format!(
                    "row {i}: stamp {stamp} before predecessor {last_stamp}"
                ));
            }
            last_stamp = *stamp;
        }
        if !self.wrapped() {
            for (col, spec) in self.specs.iter().enumerate() {
                if spec.kind != MetricKind::Counter {
                    continue;
                }
                let sum: u64 = self.rows.iter().map(|(_, v)| v[col]).sum();
                if sum != self.totals[col] {
                    return Err(format!(
                        "counter {:?}: stored deltas sum to {sum} but total is {}",
                        spec.name, self.totals[col]
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<MetricSpec> {
        vec![
            MetricSpec::counter("events"),
            MetricSpec::counter("batches"),
            MetricSpec::gauge("queue_depth"),
        ]
    }

    #[test]
    fn counters_store_deltas_and_gauges_levels() {
        let mut ring = MetricsRing::new(8, specs());
        ring.sample(10, &[100, 3, 5]);
        ring.sample(20, &[250, 7, 2]);
        let rows: Vec<_> = ring.iter_rows().map(|(s, v)| (s, v.to_vec())).collect();
        assert_eq!(rows, vec![(10, vec![100, 3, 5]), (20, vec![150, 4, 2])]);
        assert_eq!(ring.totals(), &[250, 7, 2]);
    }

    #[test]
    fn ring_wraps_and_keeps_the_tail_with_totals_intact() {
        let mut ring = MetricsRing::new(3, specs());
        for i in 1..=10u64 {
            ring.sample(i, &[i * 10, i, i % 4]);
        }
        assert!(ring.wrapped());
        assert_eq!(ring.len(), 3);
        let stamps: Vec<u64> = ring.iter_rows().map(|(s, _)| s).collect();
        assert_eq!(stamps, vec![8, 9, 10], "chronological tail");
        // Deltas in the tail are 10 events each; totals survive the wrap.
        for (_, row) in ring.iter_rows() {
            assert_eq!(row[0], 10);
            assert_eq!(row[1], 1);
        }
        assert_eq!(ring.totals(), &[100, 10, 2]);
    }

    #[test]
    fn window_sum_spans_recent_rows() {
        let mut ring = MetricsRing::new(8, specs());
        for i in 1..=5u64 {
            ring.sample(i, &[i * 100, i, 0]);
        }
        let col = ring.column("events").unwrap();
        assert_eq!(ring.window_sum(col, 2), 200, "last two 100-deltas");
        assert_eq!(ring.window_sum(col, 100), 500, "clamped to stored rows");
    }

    #[test]
    fn roundtrip_and_verify() {
        let mut ring = MetricsRing::new(4, specs());
        ring.sample(5, &[50, 2, 1]);
        ring.sample(9, &[90, 4, 0]);
        let bytes = ring.to_bytes("shard-0", 256);
        let f = RingFile::from_bytes(&bytes).expect("parse");
        assert_eq!(f.source, "shard-0");
        assert_eq!(f.interval, 256);
        assert_eq!(f.capacity, 4);
        assert_eq!(f.sampled, 2);
        assert_eq!(f.specs, specs());
        assert_eq!(f.totals, vec![90, 4, 0]);
        assert_eq!(f.rows.len(), 2);
        assert_eq!(f.total("events"), Some(90));
        f.verify().expect("invariants hold");
    }

    #[test]
    fn wrapped_file_skips_conservation_but_checks_chronology() {
        let mut ring = MetricsRing::new(2, specs());
        for i in 1..=6u64 {
            ring.sample(i, &[i, i, 0]);
        }
        let f = RingFile::from_bytes(&ring.to_bytes("s", 0)).expect("parse");
        assert!(f.wrapped());
        f.verify().expect("wrap exempts conservation");
    }

    #[test]
    fn verify_rejects_broken_conservation() {
        let mut ring = MetricsRing::new(4, specs());
        ring.sample(1, &[10, 1, 0]);
        let mut f = RingFile::from_bytes(&ring.to_bytes("s", 0)).expect("parse");
        f.totals[0] = 99;
        let err = f.verify().expect_err("corrupt total must fail");
        assert!(err.contains("events"), "{err}");
    }

    #[test]
    fn verify_rejects_unsorted_stamps() {
        let mut ring = MetricsRing::new(4, specs());
        ring.sample(9, &[1, 1, 0]);
        ring.sample(9, &[2, 2, 0]); // equal stamps are fine...
        let mut f = RingFile::from_bytes(&ring.to_bytes("s", 0)).expect("parse");
        f.verify().expect("equal stamps pass");
        f.rows[1].0 = 3; // ...rewinds are not
        assert!(f.verify().is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RingFile::from_bytes(b"nope").is_err());
        let ring = MetricsRing::new(2, specs());
        let mut bytes = ring.to_bytes("s", 0);
        bytes[8] = 7; // version
        assert!(RingFile::from_bytes(&bytes).is_err());
        let mut trailing = ring.to_bytes("s", 0);
        trailing.push(0);
        assert!(RingFile::from_bytes(&trailing).is_err());
    }

    #[test]
    fn counter_regression_clamps_in_release() {
        let mut ring = MetricsRing::new(4, vec![MetricSpec::counter("c")]);
        ring.sample(1, &[10]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ring.sample(2, &[5]);
        }));
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "debug builds panic on regressions");
        } else {
            result.expect("release builds clamp");
        }
    }

    #[test]
    fn max_u64_values_roundtrip() {
        let mut ring = MetricsRing::new(2, vec![MetricSpec::gauge("g")]);
        ring.sample(u64::MAX, &[u64::MAX]);
        let f = RingFile::from_bytes(&ring.to_bytes("s", u64::MAX)).expect("parse");
        assert_eq!(f.rows[0], (u64::MAX, vec![u64::MAX]));
        f.verify().expect("gauges skip conservation");
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        MetricsRing::new(0, specs());
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        MetricsRing::new(2, vec![MetricSpec::counter("x"), MetricSpec::gauge("x")]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_sample_panics() {
        let mut ring = MetricsRing::new(2, specs());
        ring.sample(0, &[1, 2]);
    }
}
