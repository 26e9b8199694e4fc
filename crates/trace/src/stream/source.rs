//! Streaming event sources: the abstraction the engines consume.
//!
//! An [`EventSource`] hands out the trace as consecutive chunks of
//! [`AccessEvent`]s. The engines (`run_coverage_streamed`,
//! `run_timing_streamed` in `domino-sim`) are chunk-agnostic — their
//! per-event loops are byte-identical under any partition of the trace —
//! so the source only controls *where the bytes live*:
//!
//! * [`SliceSource`] — an in-memory slice (the cached path, for parity
//!   checks and as the adapter from `Arc<[AccessEvent]>`);
//! * [`FileSource`] — a `DMNOTRC1` file (raw or Sequitur-compressed)
//!   decoded chunk-by-chunk on a **background read-ahead thread** with
//!   three recycled buffers, so decode and file I/O overlap simulation and
//!   peak resident trace memory stays bounded by a small multiple of the
//!   chunk size regardless of trace length.
//!
//! Every source reports `peak_resident_bytes()` from its own allocation
//! accounting and `budget_bytes()` as the documented bound, which is what
//! the out-of-core acceptance test asserts.

use std::io::{Read, Seek};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::event::AccessEvent;
use crate::stream::format::{TraceFileError, TraceReader, RECORD_BYTES};

/// A stream of trace events delivered in chunks.
///
/// `next_chunk` fills `out` with the next chunk (clearing it first) and
/// returns the number of events delivered; `0` means end of trace. Chunk
/// sizes are a property of the source; consumers must not assume any
/// particular granularity — the engines re-split at batch boundaries.
pub trait EventSource: Send {
    /// Total events the source will deliver.
    fn total_events(&self) -> u64;

    /// The source's chunk granularity in events (the last chunk may be
    /// short).
    fn chunk_events(&self) -> u32;

    /// Delivers the next chunk into `out`, returning its length (0 = EOF).
    ///
    /// # Errors
    ///
    /// Decode or I/O failure in the underlying trace.
    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError>;

    /// Peak trace-resident bytes this source has used so far, from its own
    /// allocation accounting.
    fn peak_resident_bytes(&self) -> u64;

    /// Documented upper bound on [`EventSource::peak_resident_bytes`] for
    /// this source. For file-backed sources this is a small multiple of
    /// the chunk size, independent of trace length; for in-memory slices
    /// it is the whole slice.
    fn budget_bytes(&self) -> u64;
}

/// An in-memory trace served in fixed-size chunks.
#[derive(Debug, Clone)]
pub struct SliceSource {
    trace: Arc<[AccessEvent]>,
    chunk_events: u32,
    pos: usize,
}

impl SliceSource {
    /// Wraps a shared slice.
    pub fn new(trace: Arc<[AccessEvent]>, chunk_events: u32) -> Self {
        SliceSource {
            trace,
            chunk_events: chunk_events.max(1),
            pos: 0,
        }
    }

    /// Wraps an owned vector.
    pub fn from_vec(trace: Vec<AccessEvent>, chunk_events: u32) -> Self {
        SliceSource::new(trace.into(), chunk_events)
    }
}

impl EventSource for SliceSource {
    fn total_events(&self) -> u64 {
        self.trace.len() as u64
    }

    fn chunk_events(&self) -> u32 {
        self.chunk_events
    }

    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError> {
        out.clear();
        let end = (self.pos + self.chunk_events as usize).min(self.trace.len());
        out.extend_from_slice(&self.trace[self.pos..end]);
        let n = end - self.pos;
        self.pos = end;
        Ok(n)
    }

    fn peak_resident_bytes(&self) -> u64 {
        // The whole slice is resident for the source's lifetime; honest
        // accounting is what makes the cached-vs-streamed comparison mean
        // something.
        (self.trace.len() * RECORD_BYTES) as u64 + (self.chunk_events as u64) * RECORD_BYTES as u64
    }

    fn budget_bytes(&self) -> u64 {
        self.peak_resident_bytes()
    }
}

/// How many chunk-sized buffer footprints [`FileSource`] is allowed: three
/// ring buffers (one draining, up to two decoded ahead), the
/// encoded-payload scratch, and codec dictionary/grammar temporaries, each
/// bounded by roughly one chunk of records (compressed payloads of
/// repetitive traces are smaller; pathological incompressible chunks still
/// fit the slack multiple).
pub const FILE_SOURCE_BUDGET_CHUNKS: u64 = 7;

/// Fixed allowance for channel plumbing and small codec overheads.
pub const FILE_SOURCE_BUDGET_SLACK: u64 = 4096;

enum Delivery {
    Chunk(Vec<AccessEvent>, u64),
    Failed(TraceFileError),
}

/// A `DMNOTRC1` file streamed with double-buffered read-ahead.
///
/// A background thread owns the [`TraceReader`] and decodes upcoming
/// chunks into recycled buffers while the consumer drains the current
/// one, so file I/O and (for compressed traces) grammar expansion overlap
/// simulation. Exactly three event buffers circulate; peak resident memory
/// is `budget_bytes()` — a multiple of the chunk size, never of the trace.
#[derive(Debug)]
pub struct FileSource {
    total: u64,
    chunk_events: u32,
    full_rx: Option<Receiver<Delivery>>,
    recycle_tx: Option<Sender<Vec<AccessEvent>>>,
    handle: Option<JoinHandle<()>>,
    peak: Arc<AtomicU64>,
    done: bool,
}

impl std::fmt::Debug for Delivery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Delivery::Chunk(events, peak) => {
                write!(f, "Chunk({} events, peak {peak})", events.len())
            }
            Delivery::Failed(e) => write!(f, "Failed({e})"),
        }
    }
}

impl FileSource {
    /// Opens a trace file and starts the read-ahead thread.
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`] from opening/validating the file.
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        let reader = TraceReader::open(path)?;
        Ok(FileSource::from_reader(reader))
    }

    /// Starts a read-ahead stream over an already-validated reader.
    pub fn from_reader<R>(mut reader: TraceReader<R>) -> Self
    where
        R: Read + Seek + Send + 'static,
    {
        let total = reader.events();
        let chunk_events = reader.chunk_events();
        let chunks = reader.chunk_count();
        let peak = Arc::new(AtomicU64::new(0));
        // Capacity-2 data channel + three circulating buffers = the
        // decoder runs up to two chunks ahead of the consumer, so a
        // scheduling hiccup on either side does not stall the other.
        let (full_tx, full_rx): (SyncSender<Delivery>, _) = sync_channel(2);
        let (recycle_tx, recycle_rx) = channel::<Vec<AccessEvent>>();
        for _ in 0..3 {
            recycle_tx
                .send(Vec::with_capacity(chunk_events as usize))
                .expect("receiver alive");
        }
        let thread_peak = Arc::clone(&peak);
        let buffer_bytes = 3 * u64::from(chunk_events) * RECORD_BYTES as u64;
        let handle = std::thread::spawn(move || {
            for idx in 0..chunks {
                // A closed recycle channel means the consumer is gone.
                let Ok(mut buf) = recycle_rx.recv() else {
                    return;
                };
                match reader.read_chunk_into(idx, &mut buf) {
                    Ok(()) => {
                        let resident = buffer_bytes + reader.peak_scratch_bytes();
                        thread_peak.fetch_max(resident, Ordering::Relaxed);
                        if full_tx.send(Delivery::Chunk(buf, resident)).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        let _ = full_tx.send(Delivery::Failed(e));
                        return;
                    }
                }
            }
        });
        FileSource {
            total,
            chunk_events,
            full_rx: Some(full_rx),
            recycle_tx: Some(recycle_tx),
            handle: Some(handle),
            peak,
            done: chunks == 0,
        }
    }
}

impl EventSource for FileSource {
    fn total_events(&self) -> u64 {
        self.total
    }

    fn chunk_events(&self) -> u32 {
        self.chunk_events
    }

    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError> {
        out.clear();
        if self.done {
            return Ok(0);
        }
        let rx = self.full_rx.as_ref().expect("receiver lives until drop");
        match rx.recv() {
            Ok(Delivery::Chunk(mut buf, _)) => {
                std::mem::swap(out, &mut buf);
                // Hand the drained buffer back for the chunk after next;
                // a finished thread just leaves it unconsumed.
                if let Some(tx) = &self.recycle_tx {
                    let _ = tx.send(buf);
                }
                Ok(out.len())
            }
            Ok(Delivery::Failed(e)) => {
                self.done = true;
                Err(e)
            }
            // Sender dropped: the thread delivered every chunk and exited.
            Err(_) => {
                self.done = true;
                Ok(0)
            }
        }
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn budget_bytes(&self) -> u64 {
        FILE_SOURCE_BUDGET_CHUNKS * u64::from(self.chunk_events) * RECORD_BYTES as u64
            + FILE_SOURCE_BUDGET_SLACK
    }
}

impl Drop for FileSource {
    fn drop(&mut self) {
        // Closing both channels unblocks the thread wherever it is
        // (recv on recycle or send on full), then join for a clean exit.
        self.full_rx.take();
        self.recycle_tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Drains a source to completion (tool/test convenience).
///
/// # Errors
///
/// Any decode error from the source.
pub fn collect_source(source: &mut dyn EventSource) -> Result<Vec<AccessEvent>, TraceFileError> {
    let mut all = Vec::new();
    let mut chunk = Vec::new();
    while source.next_chunk(&mut chunk)? > 0 {
        all.extend_from_slice(&chunk);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::format::{write_trace_file, Codec};
    use crate::workload::catalog;

    fn sample(n: usize) -> Vec<AccessEvent> {
        catalog::media_streaming().generator(9).take(n).collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("domino-source-{tag}-{}.dmno", std::process::id()))
    }

    #[test]
    fn slice_source_delivers_everything_in_order() {
        let events = sample(1000);
        for chunk in [1u32, 37, 1000, 5000] {
            let mut src = SliceSource::from_vec(events.clone(), chunk);
            assert_eq!(src.total_events(), 1000);
            assert_eq!(collect_source(&mut src).unwrap(), events);
        }
    }

    #[test]
    fn file_source_round_trips_raw_and_compressed() {
        let events = sample(3000);
        for (tag, codec) in [("raw", Codec::Raw), ("seq", Codec::Sequitur)] {
            let path = temp_path(tag);
            write_trace_file(&path, &events, 256, codec).unwrap();
            let mut src = FileSource::open(&path).unwrap();
            assert_eq!(src.total_events(), 3000);
            assert_eq!(src.chunk_events(), 256);
            assert_eq!(collect_source(&mut src).unwrap(), events);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn file_source_peak_memory_stays_within_budget_on_10x_trace() {
        // The out-of-core acceptance bound: a trace at least 10x the
        // source's memory budget must stream with peak resident trace
        // bytes inside the budget.
        let chunk_events = 256u32;
        for (tag, codec) in [("big-raw", Codec::Raw), ("big-seq", Codec::Sequitur)] {
            let path = temp_path(tag);
            let mut w =
                super::super::format::TraceWriter::create(&path, chunk_events, codec).unwrap();
            let budget = FILE_SOURCE_BUDGET_CHUNKS * u64::from(chunk_events) * RECORD_BYTES as u64
                + FILE_SOURCE_BUDGET_SLACK;
            let need_events = (budget * 10).div_ceil(RECORD_BYTES as u64) as usize;
            let mut gen = catalog::oltp().generator(5);
            let mut written = 0usize;
            while written < need_events {
                let ev = gen.next().expect("infinite generator");
                w.push(ev).unwrap();
                written += 1;
            }
            w.finish().unwrap();
            let mut src = FileSource::open(&path).unwrap();
            assert!(
                src.total_events() * RECORD_BYTES as u64 >= 10 * src.budget_bytes(),
                "trace must be >= 10x the budget"
            );
            let mut chunk = Vec::new();
            let mut seen = 0u64;
            while src.next_chunk(&mut chunk).unwrap() > 0 {
                seen += chunk.len() as u64;
            }
            assert_eq!(seen, src.total_events());
            let peak = src.peak_resident_bytes();
            assert!(peak > 0, "accounting must have run");
            assert!(
                peak <= src.budget_bytes(),
                "peak {peak} exceeds budget {} ({tag})",
                src.budget_bytes()
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn dropping_a_half_drained_source_joins_cleanly() {
        let events = sample(2000);
        let path = temp_path("drop");
        write_trace_file(&path, &events, 64, Codec::Raw).unwrap();
        let mut src = FileSource::open(&path).unwrap();
        let mut chunk = Vec::new();
        src.next_chunk(&mut chunk).unwrap();
        drop(src); // must not deadlock or panic
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn decode_errors_surface_through_the_source() {
        let events = sample(500);
        let path = temp_path("corrupt");
        write_trace_file(&path, &events, 128, Codec::Raw).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40 + 130 * RECORD_BYTES] ^= 1; // corrupt chunk 1's payload
        std::fs::write(&path, &bytes).unwrap();
        let mut src = FileSource::open(&path).unwrap();
        let mut chunk = Vec::new();
        assert_eq!(src.next_chunk(&mut chunk).unwrap(), 128);
        let err = loop {
            match src.next_chunk(&mut chunk) {
                Ok(0) => panic!("corruption must surface"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, TraceFileError::DigestMismatch { chunk: 1, .. }),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
