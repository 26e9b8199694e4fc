//! Request span tracing: fixed-size binary records decomposing one
//! batch's life into queue wait vs. compute, in the `DMNOFLT1` style of
//! [`crate::trace`].
//!
//! A span follows one sampled [`BatchRequest`]-shaped unit of work
//! through the service: **submit** (client stamps the request) →
//! **enqueue** (request handed to the shard queue) → **dequeue** (shard
//! worker picks it up) → **step** (engine finished replaying the batch)
//! → **reply** (bookkeeping done, latency recorded). All five stamps
//! are nanosecond offsets from one run-wide origin instant, so
//! `dequeue - enqueue` is queue wait and `step - dequeue` is engine
//! compute without any cross-thread clock mixing.
//!
//! Spans are sampled 1-in-N by [`SpanSampler`], a pure hash of
//! `(seed, tenant, seq)` — no RNG state, no atomics — so *which*
//! requests carry spans is byte-identical across runs of the same plan.
//! The timestamps inside a span are wall-clock and vary run to run;
//! determinism here means deterministic *selection*, which is what
//! makes sampled output diffable and the overhead reproducible.
//!
//! # Binary file format (`spans_*.bin`, version 1, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "DMNOSPN1"
//! 8       4     version (u32, = 1)
//! 12      4     reserved (u32, = 0)
//! 16      ...   source (u32 length + UTF-8 bytes, e.g. "shard-0")
//! ...     4     sample rate N (u32; 0 = disabled, 1 = every request)
//! ...     8     sampler seed (u64)
//! ...     8×2   ring capacity, spans ever recorded (u64 each)
//! ...     8     stored span count M (u64)
//! ...     64×M  spans, oldest first: tenant, seq (u64 each), shard,
//!               events (u32 each), then the submit, enqueue, dequeue,
//!               step and reply stamps (u64 each)
//! ```

use domino_trace::frame::{FrameError, Reader, Writer};

/// File magic of a serialized span ring.
pub const SPAN_MAGIC: &[u8; 8] = b"DMNOSPN1";

/// Binary format version written by [`SpanRing::to_bytes`].
pub const SPAN_VERSION: u32 = 1;

/// Serialized size of one span record.
pub const SPAN_RECORD_BYTES: usize = 64;

/// One request's five-stage timeline. All `*_ns` fields are offsets
/// from the run origin; the service guarantees
/// `submit ≤ enqueue ≤ dequeue ≤ step ≤ reply` (audited by
/// `domino-check`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// Tenant the batch belongs to.
    pub tenant: u64,
    /// Per-tenant sequence key (the batch's stream start offset).
    pub seq: u64,
    /// Shard that served the batch.
    pub shard: u32,
    /// Events in the batch.
    pub events: u32,
    /// Client stamped the request.
    pub submit_ns: u64,
    /// Request handed to the shard queue.
    pub enqueue_ns: u64,
    /// Shard worker received the request.
    pub dequeue_ns: u64,
    /// Engine finished replaying the batch.
    pub step_ns: u64,
    /// Shard bookkeeping done, latency recorded.
    pub reply_ns: u64,
}

impl SpanRecord {
    /// Queue wait: dequeue − enqueue (includes client blocking under
    /// the `Block` policy).
    pub fn queue_ns(&self) -> u64 {
        self.dequeue_ns.saturating_sub(self.enqueue_ns)
    }

    /// Engine compute: step − dequeue.
    pub fn compute_ns(&self) -> u64 {
        self.step_ns.saturating_sub(self.dequeue_ns)
    }

    /// Post-step bookkeeping (budget checks, eviction): reply − step.
    pub fn overhead_ns(&self) -> u64 {
        self.reply_ns.saturating_sub(self.step_ns)
    }

    /// Whether the five stamps are nondecreasing in pipeline order.
    pub fn chronological(&self) -> bool {
        self.submit_ns <= self.enqueue_ns
            && self.enqueue_ns <= self.dequeue_ns
            && self.dequeue_ns <= self.step_ns
            && self.step_ns <= self.reply_ns
    }

    fn write(&self, w: &mut Writer) {
        w.u64(self.tenant);
        w.u64(self.seq);
        w.u32(self.shard);
        w.u32(self.events);
        w.u64(self.submit_ns);
        w.u64(self.enqueue_ns);
        w.u64(self.dequeue_ns);
        w.u64(self.step_ns);
        w.u64(self.reply_ns);
    }

    fn read(r: &mut Reader<'_>) -> Result<SpanRecord, FrameError> {
        Ok(SpanRecord {
            tenant: r.u64()?,
            seq: r.u64()?,
            shard: r.u32()?,
            events: r.u32()?,
            submit_ns: r.u64()?,
            enqueue_ns: r.u64()?,
            dequeue_ns: r.u64()?,
            step_ns: r.u64()?,
            reply_ns: r.u64()?,
        })
    }
}

/// Deterministic 1-in-N request sampler: a pure function of
/// `(seed, tenant, seq)`, so the sampled set is identical across runs
/// and across threads with zero shared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSampler {
    /// 1-in-N rate; 0 disables sampling, 1 samples everything.
    pub rate: u32,
    /// Hash seed, so distinct runs can sample distinct sets on purpose.
    pub seed: u64,
}

impl SpanSampler {
    /// A sampler at `rate` with `seed`.
    pub fn new(rate: u32, seed: u64) -> Self {
        SpanSampler { rate, seed }
    }

    /// Whether the request keyed `(tenant, seq)` carries a span.
    pub fn sampled(&self, tenant: u64, seq: u64) -> bool {
        match self.rate {
            0 => false,
            1 => true,
            rate => {
                // SplitMix64-style finalizer over the mixed key: cheap,
                // stateless, and well-distributed over low bits.
                let mut x = self
                    .seed
                    .wrapping_add(tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                x.is_multiple_of(u64::from(rate))
            }
        }
    }
}

/// Fixed-capacity ring of [`SpanRecord`]s, keeping the most recent
/// `capacity` spans. Preallocated; recording is allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRing {
    slots: Vec<SpanRecord>,
    capacity: usize,
    recorded: u64,
}

impl SpanRing {
    /// A ring holding the last `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs capacity");
        SpanRing {
            slots: vec![SpanRecord::default(); capacity],
            capacity,
            recorded: 0,
        }
    }

    /// Records one span, overwriting the oldest slot when full.
    pub fn record(&mut self, span: SpanRecord) {
        let slot = (self.recorded % self.capacity as u64) as usize;
        self.slots[slot] = span;
        self.recorded += 1;
    }

    /// Spans ever recorded (≥ [`SpanRing::len`]).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Spans currently stored.
    pub fn len(&self) -> usize {
        self.recorded.min(self.capacity as u64) as usize
    }

    /// Whether no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Whether old spans have been discarded.
    pub fn wrapped(&self) -> bool {
        self.recorded > self.capacity as u64
    }

    /// Stored spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> + '_ {
        let len = self.len();
        let split = if self.wrapped() {
            (self.recorded % self.capacity as u64) as usize
        } else {
            0
        };
        (0..len).map(move |i| &self.slots[(split + i) % self.capacity])
    }

    /// Serializes the ring in the [module-level](self) binary format.
    pub fn to_bytes(&self, source: &str, sampler: SpanSampler) -> Vec<u8> {
        let mut w = Writer::with_header(
            SPAN_MAGIC,
            SPAN_VERSION,
            64 + source.len() + self.len() * SPAN_RECORD_BYTES,
        );
        w.u32(0);
        w.str(source);
        w.u32(sampler.rate);
        w.u64(sampler.seed);
        w.u64(self.capacity as u64);
        w.u64(self.recorded);
        w.u64(self.len() as u64);
        for span in self.spans() {
            span.write(&mut w);
        }
        w.into_bytes()
    }
}

/// A parsed span file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanFile {
    /// Producer label from the header.
    pub source: String,
    /// The producer's sampler (rate + seed).
    pub sampler: SpanSampler,
    /// Ring capacity of the producer.
    pub capacity: u64,
    /// Spans the producer ever recorded.
    pub recorded: u64,
    /// Stored spans, oldest first.
    pub spans: Vec<SpanRecord>,
}

impl SpanFile {
    /// Parses a serialized span ring.
    ///
    /// # Errors
    ///
    /// The first malformation found, as a [`FrameError`].
    pub fn from_bytes(b: &[u8]) -> Result<SpanFile, FrameError> {
        let mut r = Reader::open(b, SPAN_MAGIC, SPAN_VERSION..=SPAN_VERSION)?;
        let _reserved = r.u32()?;
        let source = r.string()?;
        let rate = r.u32()?;
        let seed = r.u64()?;
        let capacity = r.u64()?;
        let recorded = r.u64()?;
        let count = r.u64()?;
        let count = r.records(count, SPAN_RECORD_BYTES)?;
        let mut spans = Vec::with_capacity(count);
        for _ in 0..count {
            spans.push(SpanRecord::read(&mut r)?);
        }
        r.finish()?;
        Ok(SpanFile {
            source,
            sampler: SpanSampler::new(rate, seed),
            capacity,
            recorded,
            spans,
        })
    }

    /// Checks the file's invariants: stored count matches the header,
    /// every span is chronological, and every stored span's key is one
    /// the declared sampler selects.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        let expect = self.recorded.min(self.capacity) as usize;
        if self.spans.len() != expect {
            return Err(format!(
                "header promises {expect} stored spans, found {}",
                self.spans.len()
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if !s.chronological() {
                return Err(format!(
                    "span {i} (tenant {}, seq {}): stamps out of order \
                     (submit {} enqueue {} dequeue {} step {} reply {})",
                    s.tenant, s.seq, s.submit_ns, s.enqueue_ns, s.dequeue_ns, s.step_ns, s.reply_ns
                ));
            }
            if self.sampler.rate > 0 && !self.sampler.sampled(s.tenant, s.seq) {
                return Err(format!(
                    "span {i} (tenant {}, seq {}): not selected by the declared sampler",
                    s.tenant, s.seq
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tenant: u64, seq: u64, base: u64) -> SpanRecord {
        SpanRecord {
            tenant,
            seq,
            shard: 1,
            events: 17,
            submit_ns: base,
            enqueue_ns: base + 10,
            dequeue_ns: base + 50,
            step_ns: base + 900,
            reply_ns: base + 950,
        }
    }

    #[test]
    fn decomposition_sums_to_the_timeline() {
        let s = span(3, 0, 1000);
        assert_eq!(s.queue_ns(), 40);
        assert_eq!(s.compute_ns(), 850);
        assert_eq!(s.overhead_ns(), 50);
        assert!(s.chronological());
        assert_eq!(
            s.queue_ns() + s.compute_ns() + s.overhead_ns(),
            s.reply_ns - s.enqueue_ns
        );
    }

    #[test]
    fn sampler_is_deterministic_and_rate_shaped() {
        let a = SpanSampler::new(8, 0xD0);
        let b = SpanSampler::new(8, 0xD0);
        let hits: Vec<bool> = (0..4096u64)
            .map(|seq| a.sampled(seq / 64, seq % 64))
            .collect();
        let again: Vec<bool> = (0..4096u64)
            .map(|seq| b.sampled(seq / 64, seq % 64))
            .collect();
        assert_eq!(hits, again, "pure function of (seed, tenant, seq)");
        let count = hits.iter().filter(|&&h| h).count();
        // 1-in-8 over 4096 keys: expect ~512; allow a wide band.
        assert!((256..=768).contains(&count), "rate off: {count}/4096");
    }

    #[test]
    fn sampler_edge_rates() {
        let off = SpanSampler::new(0, 1);
        let all = SpanSampler::new(1, 1);
        for k in 0..64u64 {
            assert!(!off.sampled(k, k));
            assert!(all.sampled(k, k));
        }
    }

    #[test]
    fn distinct_seeds_sample_distinct_sets() {
        let a = SpanSampler::new(4, 1);
        let b = SpanSampler::new(4, 2);
        let sa: Vec<bool> = (0..1024u64).map(|k| a.sampled(k, 0)).collect();
        let sb: Vec<bool> = (0..1024u64).map(|k| b.sampled(k, 0)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let mut ring = SpanRing::new(3);
        for i in 0..5u64 {
            ring.record(span(i, i, i * 1000));
        }
        assert!(ring.wrapped());
        assert_eq!(ring.recorded(), 5);
        let tenants: Vec<u64> = ring.spans().map(|s| s.tenant).collect();
        assert_eq!(tenants, vec![2, 3, 4]);
    }

    #[test]
    fn roundtrip_and_verify() {
        let sampler = SpanSampler::new(1, 7);
        let mut ring = SpanRing::new(8);
        ring.record(span(1, 0, 100));
        ring.record(span(2, 17, 300));
        let bytes = ring.to_bytes("shard-2", sampler);
        let f = SpanFile::from_bytes(&bytes).expect("parse");
        assert_eq!(f.source, "shard-2");
        assert_eq!(f.sampler, sampler);
        assert_eq!(f.capacity, 8);
        assert_eq!(f.recorded, 2);
        assert_eq!(f.spans, vec![span(1, 0, 100), span(2, 17, 300)]);
        f.verify().expect("invariants hold");
    }

    #[test]
    fn verify_rejects_achronological_span() {
        let mut ring = SpanRing::new(4);
        let mut s = span(1, 0, 100);
        s.dequeue_ns = s.enqueue_ns - 1;
        ring.record(s);
        let f = SpanFile::from_bytes(&ring.to_bytes("s", SpanSampler::new(1, 0))).expect("parse");
        let err = f.verify().expect_err("out-of-order stamps must fail");
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn verify_rejects_unsampled_key() {
        let sampler = SpanSampler::new(1_000_000, 0);
        // Find a key the sampler rejects, store it anyway.
        let key = (0..u64::MAX).find(|&k| !sampler.sampled(k, 0)).unwrap();
        let mut ring = SpanRing::new(4);
        ring.record(span(key, 0, 10));
        let f = SpanFile::from_bytes(&ring.to_bytes("s", sampler)).expect("parse");
        let err = f.verify().expect_err("unsampled key must fail");
        assert!(err.contains("not selected"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SpanFile::from_bytes(b"short").is_err());
        let ring = SpanRing::new(2);
        let mut bytes = ring.to_bytes("s", SpanSampler::new(0, 0));
        bytes[8] = 9; // version
        assert!(SpanFile::from_bytes(&bytes).is_err());
        let mut trailing = ring.to_bytes("s", SpanSampler::new(0, 0));
        trailing.push(0);
        assert!(SpanFile::from_bytes(&trailing).is_err());
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_panics() {
        SpanRing::new(0);
    }
}
