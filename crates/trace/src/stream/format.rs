//! The `DMNOTRC1` binary trace container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic            "DMNOTRC1"
//! 8       4     version          1
//! 12      4     record_bytes     24
//! 16      8     events           total event count
//! 24      4     chunk_events     events per chunk (last chunk may be short)
//! 28      4     codec            0 = raw records, 1 = sequitur grammar
//! 32      8     index_offset     byte offset of the chunk index
//! 40      ...   chunk payloads, back to back
//! index_offset  32 * chunk_count chunk index entries
//! ```
//!
//! Each index entry is 32 bytes: `offset: u64`, `byte_len: u64`,
//! `events: u32`, `reserved: u32`, `digest: u64`. The digest is FNV-1a over
//! the *decoded* 24-byte record images of the chunk, so raw and compressed
//! encodings of the same events carry the same digest and readers verify
//! payload integrity codec-independently.
//!
//! A record is 24 bytes: `pc: u64`, `addr: u64`, `gap_insts: u32`,
//! `kind: u8` (0 read, 1 write), `dependent: u8` (0/1), `pad: u16` (must be
//! zero). The encoding is injective over [`AccessEvent`], which is what
//! makes chunk digests and the streaming parity oracle byte-exact.
//!
//! The header and index go through [`crate::frame`], the codec shared by
//! every binary artifact; the per-record hot path ([`encode_record`],
//! [`decode_record`]) works on fixed 24-byte images directly.
//!
//! Every malformed input — wrong magic, truncated header, torn records,
//! misaligned index, digest mismatch — surfaces as a [`TraceFileError`];
//! readers never panic on hostile bytes, and every size derived from a
//! header or index field is computed with checked arithmetic.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::addr::{Addr, Pc};
use crate::event::{AccessEvent, AccessKind};
use crate::frame::{FrameError, Reader, Writer};
use crate::stream::compress;

/// File magic: `DMNOTRC1`.
pub const TRACE_MAGIC: [u8; 8] = *b"DMNOTRC1";

/// Current schema version.
pub const TRACE_VERSION: u32 = 1;

/// Size of one encoded event record.
pub const RECORD_BYTES: usize = 24;

/// Header size in bytes.
pub const HEADER_BYTES: u64 = 40;

/// Size of one chunk-index entry.
pub const INDEX_ENTRY_BYTES: u64 = 32;

/// Default chunk granularity: 64 Ki events = 1.5 MiB of raw records.
pub const DEFAULT_CHUNK_EVENTS: u32 = 1 << 16;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Payload encoding of the chunks in a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Chunks are consecutive 24-byte records.
    Raw,
    /// Chunks are a per-chunk event dictionary plus a serialized Sequitur
    /// grammar over dictionary ids (see [`crate::stream::compress`]).
    Sequitur,
}

impl Codec {
    fn from_raw(raw: u32) -> Option<Codec> {
        match raw {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Sequitur),
            _ => None,
        }
    }

    fn to_raw(self) -> u32 {
        match self {
            Codec::Raw => 0,
            Codec::Sequitur => 1,
        }
    }

    /// Human-readable codec name (`raw` / `sequitur`).
    pub fn label(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Sequitur => "sequitur",
        }
    }
}

/// Error reading or writing a `DMNOTRC1` file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// File too short to hold the fixed header.
    TruncatedHeader {
        /// Actual file length.
        len: u64,
    },
    /// Leading bytes are not [`TRACE_MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 8],
    },
    /// Schema version this reader does not understand.
    UnsupportedVersion {
        /// Version field from the header.
        version: u32,
    },
    /// Header field with an invalid value.
    BadHeader {
        /// What is wrong.
        detail: String,
    },
    /// Chunk index missing, misaligned, or internally inconsistent.
    BadIndex {
        /// What is wrong.
        detail: String,
    },
    /// Raw chunk whose byte length is not `events * 24` (a torn record).
    TornRecord {
        /// Chunk number.
        chunk: usize,
        /// Byte length claimed by the index.
        byte_len: u64,
    },
    /// Record with an invalid field encoding.
    BadRecord {
        /// Chunk number.
        chunk: usize,
        /// What is wrong.
        detail: String,
    },
    /// Chunk payload whose decoded digest does not match the index.
    DigestMismatch {
        /// Chunk number.
        chunk: usize,
        /// Digest recorded in the index.
        expected: u64,
        /// Digest of the decoded payload.
        actual: u64,
    },
    /// Compressed chunk whose grammar is malformed.
    BadGrammar {
        /// Chunk number.
        chunk: usize,
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceFileError::TruncatedHeader { len } => {
                write!(f, "truncated header: file is {len} bytes, need {HEADER_BYTES}")
            }
            TraceFileError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}, expected {TRACE_MAGIC:02x?} (\"DMNOTRC1\")")
            }
            TraceFileError::UnsupportedVersion { version } => {
                write!(f, "unsupported trace version {version} (this reader understands {TRACE_VERSION})")
            }
            TraceFileError::BadHeader { detail } => write!(f, "bad header: {detail}"),
            TraceFileError::BadIndex { detail } => write!(f, "bad chunk index: {detail}"),
            TraceFileError::TornRecord { chunk, byte_len } => write!(
                f,
                "torn record in chunk {chunk}: {byte_len} bytes is not a whole number of {RECORD_BYTES}-byte records for the indexed event count"
            ),
            TraceFileError::BadRecord { chunk, detail } => {
                write!(f, "bad record in chunk {chunk}: {detail}")
            }
            TraceFileError::DigestMismatch {
                chunk,
                expected,
                actual,
            } => write!(
                f,
                "digest mismatch in chunk {chunk}: index says {expected:#018x}, payload decodes to {actual:#018x}"
            ),
            TraceFileError::BadGrammar { chunk, detail } => {
                write!(f, "bad grammar in chunk {chunk}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// Encodes one event into its 24-byte record image.
pub fn encode_record(ev: &AccessEvent, out: &mut [u8; RECORD_BYTES]) {
    out[0..8].copy_from_slice(&ev.pc.raw().to_le_bytes());
    out[8..16].copy_from_slice(&ev.addr.raw().to_le_bytes());
    out[16..20].copy_from_slice(&ev.gap_insts.to_le_bytes());
    out[20] = match ev.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    };
    out[21] = u8::from(ev.dependent);
    out[22] = 0;
    out[23] = 0;
}

/// Decodes one 24-byte record image; strict about every spare bit so that
/// corruption cannot round-trip silently.
pub fn decode_record(b: &[u8; RECORD_BYTES]) -> Result<AccessEvent, String> {
    let pc = u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
    let addr = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
    let gap = u32::from_le_bytes(b[16..20].try_into().expect("4 bytes"));
    let kind = match b[20] {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        other => return Err(format!("invalid kind byte {other:#04x}")),
    };
    let dependent = match b[21] {
        0 => false,
        1 => true,
        other => return Err(format!("invalid dependent byte {other:#04x}")),
    };
    if b[22] != 0 || b[23] != 0 {
        return Err(format!("nonzero pad bytes {:#04x} {:#04x}", b[22], b[23]));
    }
    Ok(AccessEvent {
        pc: Pc::new(pc),
        addr: Addr::new(addr),
        kind,
        gap_insts: gap,
        dependent,
    })
}

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a digest over the record images of `events` — the chunk digest
/// stored in the index, identical for raw and compressed encodings.
pub fn digest_events(events: &[AccessEvent]) -> u64 {
    let mut h = FNV_BASIS;
    let mut rec = [0u8; RECORD_BYTES];
    for ev in events {
        encode_record(ev, &mut rec);
        h = fnv_bytes(h, &rec);
    }
    h
}

#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    offset: u64,
    byte_len: u64,
    events: u32,
    digest: u64,
}

/// Summary returned by [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events written.
    pub events: u64,
    /// Number of chunks.
    pub chunks: usize,
    /// Total file size in bytes (header + payload + index).
    pub file_bytes: u64,
    /// Payload bytes (sum of encoded chunk lengths).
    pub payload_bytes: u64,
}

/// Streaming `DMNOTRC1` writer.
///
/// Events are buffered per chunk and flushed as each chunk fills; nothing
/// beyond one chunk is held in memory. [`TraceWriter::finish`] must be
/// called to seal the file — it writes the chunk index and rewrites the
/// header (which is zero-stamped until then, so an unfinished file is
/// rejected by [`TraceReader`] rather than silently truncated).
#[derive(Debug)]
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    chunk_events: u32,
    codec: Codec,
    pending: Vec<AccessEvent>,
    index: Vec<ChunkMeta>,
    events: u64,
    cursor: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the placeholder header.
    ///
    /// # Errors
    ///
    /// I/O failures and a zero `chunk_events`.
    pub fn create(path: &Path, chunk_events: u32, codec: Codec) -> Result<Self, TraceFileError> {
        let file = File::create(path)?;
        TraceWriter::new(BufWriter::new(file), chunk_events, codec)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Wraps any seekable sink and writes the placeholder header.
    ///
    /// # Errors
    ///
    /// I/O failures and a zero `chunk_events`.
    pub fn new(mut sink: W, chunk_events: u32, codec: Codec) -> Result<Self, TraceFileError> {
        if chunk_events == 0 {
            return Err(TraceFileError::BadHeader {
                detail: "chunk_events must be nonzero".into(),
            });
        }
        // Placeholder header: correct magic/version but a zero index
        // offset, which TraceReader rejects — a crashed writer leaves an
        // unmistakably unfinished file.
        sink.write_all(&header_bytes(0, chunk_events, codec, 0))?;
        Ok(TraceWriter {
            sink,
            chunk_events,
            codec,
            pending: Vec::with_capacity(chunk_events as usize),
            index: Vec::new(),
            events: 0,
            cursor: HEADER_BYTES,
        })
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// I/O failures when a full chunk flushes.
    pub fn push(&mut self, ev: AccessEvent) -> Result<(), TraceFileError> {
        self.pending.push(ev);
        self.events += 1;
        if self.pending.len() == self.chunk_events as usize {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends a slice of events.
    ///
    /// # Errors
    ///
    /// I/O failures when full chunks flush.
    pub fn write_events(&mut self, events: &[AccessEvent]) -> Result<(), TraceFileError> {
        for ev in events {
            self.push(*ev)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceFileError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let digest = digest_events(&self.pending);
        let payload = match self.codec {
            Codec::Raw => {
                let mut bytes = Vec::with_capacity(self.pending.len() * RECORD_BYTES);
                let mut rec = [0u8; RECORD_BYTES];
                for ev in &self.pending {
                    encode_record(ev, &mut rec);
                    bytes.extend_from_slice(&rec);
                }
                bytes
            }
            Codec::Sequitur => compress::encode_chunk(&self.pending),
        };
        self.sink.write_all(&payload)?;
        self.index.push(ChunkMeta {
            offset: self.cursor,
            byte_len: payload.len() as u64,
            events: self.pending.len() as u32,
            digest,
        });
        self.cursor += payload.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the chunk index, seals the
    /// header, and returns a summary.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn finish(mut self) -> Result<TraceSummary, TraceFileError> {
        self.flush_chunk()?;
        let index_offset = self.cursor;
        let payload_bytes = index_offset - HEADER_BYTES;
        let mut index = Writer::default();
        for meta in &self.index {
            index.u64(meta.offset);
            index.u64(meta.byte_len);
            index.u32(meta.events);
            index.u32(0); // reserved
            index.u64(meta.digest);
        }
        self.sink.write_all(&index.into_bytes())?;
        self.sink.seek(SeekFrom::Start(0))?;
        self.sink.write_all(&header_bytes(
            self.events,
            self.chunk_events,
            self.codec,
            index_offset,
        ))?;
        self.sink.flush()?;
        Ok(TraceSummary {
            events: self.events,
            chunks: self.index.len(),
            file_bytes: index_offset + INDEX_ENTRY_BYTES * self.index.len() as u64,
            payload_bytes,
        })
    }
}

fn header_bytes(events: u64, chunk_events: u32, codec: Codec, index_offset: u64) -> Vec<u8> {
    let mut h = Writer::with_header(&TRACE_MAGIC, TRACE_VERSION, HEADER_BYTES as usize);
    h.u32(RECORD_BYTES as u32);
    h.u64(events);
    h.u32(chunk_events);
    h.u32(codec.to_raw());
    h.u64(index_offset);
    h.into_bytes()
}

/// Validating `DMNOTRC1` reader with per-chunk random access.
///
/// Construction parses and cross-checks the header and the whole chunk
/// index (alignment, contiguity, event totals, raw record sizing) before
/// any payload is touched; [`TraceReader::read_chunk_into`] then verifies
/// each chunk's digest as it decodes. Memory use is one chunk's payload
/// (`scratch`) plus the decoded events the caller asked for.
#[derive(Debug)]
pub struct TraceReader<R: Read + Seek> {
    src: R,
    events: u64,
    chunk_events: u32,
    codec: Codec,
    index: Vec<ChunkMeta>,
    scratch: Vec<u8>,
    peak_scratch: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens and validates a trace file.
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`]: I/O, malformed header, malformed index.
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        let file = File::open(path)?;
        TraceReader::new(BufReader::new(file))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Wraps any seekable source, validating header and chunk index.
    ///
    /// # Errors
    ///
    /// Any [`TraceFileError`]: I/O, malformed header, malformed index.
    pub fn new(mut src: R) -> Result<Self, TraceFileError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        src.seek(SeekFrom::Start(0))?;
        let mut buf = [0u8; HEADER_BYTES as usize];
        let head = &mut buf[..file_len.min(HEADER_BYTES) as usize];
        src.read_exact(head)?;
        let whole = head.len() as u64 == HEADER_BYTES;
        // A wrong magic wins over a short file; a short file wins over a
        // wrong version.
        let mut h = Reader::open(head, &TRACE_MAGIC, TRACE_VERSION..=TRACE_VERSION).map_err(
            |e| match e {
                FrameError::BadMagic { found } => TraceFileError::BadMagic { found },
                FrameError::UnsupportedVersion { version } if whole => {
                    TraceFileError::UnsupportedVersion { version }
                }
                _ => TraceFileError::TruncatedHeader { len: file_len },
            },
        )?;
        if !whole {
            return Err(TraceFileError::TruncatedHeader { len: file_len });
        }
        let bad_header = |e: FrameError| TraceFileError::BadHeader {
            detail: e.to_string(),
        };
        let record_bytes = h.u32().map_err(bad_header)?;
        if record_bytes as usize != RECORD_BYTES {
            return Err(TraceFileError::BadHeader {
                detail: format!("record_bytes is {record_bytes}, expected {RECORD_BYTES}"),
            });
        }
        let events = h.u64().map_err(bad_header)?;
        let chunk_events = h.u32().map_err(bad_header)?;
        if chunk_events == 0 {
            return Err(TraceFileError::BadHeader {
                detail: "chunk_events is zero".into(),
            });
        }
        let codec_raw = h.u32().map_err(bad_header)?;
        let codec = Codec::from_raw(codec_raw).ok_or(TraceFileError::BadHeader {
            detail: format!("unknown codec {codec_raw}"),
        })?;
        let index_offset = h.u64().map_err(bad_header)?;
        let chunks = events.div_ceil(u64::from(chunk_events));
        if index_offset < HEADER_BYTES || index_offset > file_len {
            return Err(TraceFileError::BadIndex {
                detail: format!(
                    "index offset {index_offset} outside file (len {file_len}); unfinished writer?"
                ),
            });
        }
        let index_bytes = file_len - index_offset;
        if chunks.checked_mul(INDEX_ENTRY_BYTES) != Some(index_bytes) {
            return Err(TraceFileError::BadIndex {
                detail: format!(
                    "misaligned index: {index_bytes} bytes after the index offset, but {chunks} chunks need {INDEX_ENTRY_BYTES} bytes each"
                ),
            });
        }
        src.seek(SeekFrom::Start(index_offset))?;
        let mut raw_index = vec![0u8; index_bytes as usize];
        src.read_exact(&mut raw_index)?;
        let bad_index = |e: FrameError| TraceFileError::BadIndex {
            detail: e.to_string(),
        };
        let mut entries = Reader::new(&raw_index);
        let chunks = entries
            .records(chunks, INDEX_ENTRY_BYTES as usize)
            .map_err(bad_index)?;
        let mut index = Vec::with_capacity(chunks);
        let mut expected_offset = HEADER_BYTES;
        let mut total_events = 0u64;
        for chunk in 0..chunks {
            let offset = entries.u64().map_err(bad_index)?;
            let byte_len = entries.u64().map_err(bad_index)?;
            let chunk_ev = entries.u32().map_err(bad_index)?;
            let _reserved = entries.u32().map_err(bad_index)?;
            let digest = entries.u64().map_err(bad_index)?;
            if offset != expected_offset {
                return Err(TraceFileError::BadIndex {
                    detail: format!(
                        "chunk {chunk} starts at {offset}, expected {expected_offset} (chunks must be contiguous)"
                    ),
                });
            }
            let Some(end) = offset.checked_add(byte_len).filter(|&e| e <= index_offset) else {
                return Err(TraceFileError::BadIndex {
                    detail: format!("chunk {chunk} payload overruns the index"),
                });
            };
            let is_last = chunk == chunks - 1;
            let expected_events = if is_last {
                events - u64::from(chunk_events) * (chunks as u64 - 1)
            } else {
                u64::from(chunk_events)
            };
            if u64::from(chunk_ev) != expected_events {
                return Err(TraceFileError::BadIndex {
                    detail: format!(
                        "chunk {chunk} claims {chunk_ev} events, expected {expected_events}"
                    ),
                });
            }
            if codec == Codec::Raw && byte_len != u64::from(chunk_ev) * RECORD_BYTES as u64 {
                return Err(TraceFileError::TornRecord { chunk, byte_len });
            }
            total_events += u64::from(chunk_ev);
            expected_offset = end;
            index.push(ChunkMeta {
                offset,
                byte_len,
                events: chunk_ev,
                digest,
            });
        }
        if expected_offset != index_offset {
            return Err(TraceFileError::BadIndex {
                detail: format!(
                    "payload ends at {expected_offset} but index starts at {index_offset}"
                ),
            });
        }
        debug_assert_eq!(total_events, events);
        Ok(TraceReader {
            src,
            events,
            chunk_events,
            codec,
            index,
            scratch: Vec::new(),
            peak_scratch: 0,
        })
    }

    /// Total events in the trace.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Chunk granularity the file was written with.
    pub fn chunk_events(&self) -> u32 {
        self.chunk_events
    }

    /// Payload codec.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Event count of chunk `idx`.
    pub fn chunk_len(&self, idx: usize) -> u32 {
        self.index[idx].events
    }

    /// Encoded byte length of chunk `idx`.
    pub fn chunk_bytes(&self, idx: usize) -> u64 {
        self.index[idx].byte_len
    }

    /// Total payload bytes (all encoded chunks).
    pub fn payload_bytes(&self) -> u64 {
        self.index.iter().map(|m| m.byte_len).sum()
    }

    /// Peak bytes of decode-side working memory used so far: the encoded
    /// payload scratch buffer plus the codec's dictionary/grammar
    /// temporaries. Feeds the [`crate::stream::EventSource`] resident-byte
    /// accounting.
    pub fn peak_scratch_bytes(&self) -> u64 {
        self.peak_scratch
    }

    /// Decodes chunk `idx` into `out` (cleared first), verifying its digest.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed records or grammars, digest mismatches.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= chunk_count()`.
    pub fn read_chunk_into(
        &mut self,
        idx: usize,
        out: &mut Vec<AccessEvent>,
    ) -> Result<(), TraceFileError> {
        let meta = self.index[idx];
        self.src.seek(SeekFrom::Start(meta.offset))?;
        self.scratch.clear();
        self.scratch.resize(meta.byte_len as usize, 0);
        self.src.read_exact(&mut self.scratch)?;
        out.clear();
        let mut aux_bytes = 0u64;
        let actual = match self.codec {
            Codec::Raw => {
                out.reserve(meta.events as usize);
                let mut h = FNV_BASIS;
                for (i, rec) in self.scratch.chunks_exact(RECORD_BYTES).enumerate() {
                    let rec: &[u8; RECORD_BYTES] = rec.try_into().expect("exact chunks");
                    match decode_record(rec) {
                        Ok(ev) => out.push(ev),
                        Err(detail) => {
                            return Err(TraceFileError::BadRecord {
                                chunk: idx,
                                detail: format!("record {i}: {detail}"),
                            })
                        }
                    }
                    h = fnv_bytes(h, rec);
                }
                h
            }
            Codec::Sequitur => {
                let (events, aux) = compress::decode_chunk(&self.scratch, meta.events, idx)?;
                aux_bytes = aux + (events.capacity() * RECORD_BYTES) as u64;
                let digest = digest_events(&events);
                out.extend_from_slice(&events);
                digest
            }
        };
        self.peak_scratch = self
            .peak_scratch
            .max(self.scratch.capacity() as u64 + aux_bytes);
        if actual != meta.digest {
            return Err(TraceFileError::DigestMismatch {
                chunk: idx,
                expected: meta.digest,
                actual,
            });
        }
        Ok(())
    }

    /// Decodes the whole trace (test/tool convenience — materializes
    /// everything, defeating the point of streaming).
    ///
    /// # Errors
    ///
    /// Any per-chunk decode error.
    pub fn read_all(&mut self) -> Result<Vec<AccessEvent>, TraceFileError> {
        let mut all = Vec::with_capacity(self.events as usize);
        let mut chunk = Vec::new();
        for idx in 0..self.chunk_count() {
            self.read_chunk_into(idx, &mut chunk)?;
            all.extend_from_slice(&chunk);
        }
        Ok(all)
    }
}

/// Writes `events` to `path` in one call (tool convenience).
///
/// # Errors
///
/// Any [`TraceFileError`] from the writer.
pub fn write_trace_file(
    path: &Path,
    events: &[AccessEvent],
    chunk_events: u32,
    codec: Codec,
) -> Result<TraceSummary, TraceFileError> {
    let mut w = TraceWriter::create(path, chunk_events, codec)?;
    w.write_events(events)?;
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::catalog;
    use std::io::Cursor;

    fn sample(n: usize) -> Vec<AccessEvent> {
        catalog::oltp().generator(11).take(n).collect()
    }

    fn write_to_vec(events: &[AccessEvent], chunk_events: u32, codec: Codec) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut buf, chunk_events, codec).unwrap();
        w.write_events(events).unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.events, events.len() as u64);
        buf.into_inner()
    }

    #[test]
    fn record_encoding_round_trips() {
        for ev in sample(300) {
            let mut rec = [0u8; RECORD_BYTES];
            encode_record(&ev, &mut rec);
            assert_eq!(decode_record(&rec).unwrap(), ev);
        }
    }

    #[test]
    fn raw_round_trip_including_non_divisor_chunks() {
        let events = sample(1000);
        for chunk_events in [1u32, 7, 256, 1000, 4096] {
            let bytes = write_to_vec(&events, chunk_events, Codec::Raw);
            let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
            assert_eq!(r.events(), 1000);
            assert_eq!(r.chunk_count(), 1000usize.div_ceil(chunk_events as usize));
            assert_eq!(r.read_all().unwrap(), events);
        }
    }

    #[test]
    fn sequitur_round_trip() {
        let events = sample(1000);
        for chunk_events in [37u32, 512, 2048] {
            let bytes = write_to_vec(&events, chunk_events, Codec::Sequitur);
            let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
            assert_eq!(r.codec(), Codec::Sequitur);
            assert_eq!(r.read_all().unwrap(), events);
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = write_to_vec(&[], 64, Codec::Raw);
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.events(), 0);
        assert_eq!(r.chunk_count(), 0);
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let events = sample(100);
        let mut buf = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut buf, 32, Codec::Raw).unwrap();
        w.write_events(&events).unwrap();
        drop(w); // no finish(): header still zero-stamped
        let err = TraceReader::new(Cursor::new(buf.into_inner())).unwrap_err();
        assert!(matches!(err, TraceFileError::BadIndex { .. }), "{err}");
    }

    #[test]
    fn flipped_payload_byte_fails_digest() {
        let events = sample(200);
        let mut bytes = write_to_vec(&events, 64, Codec::Raw);
        bytes[HEADER_BYTES as usize + 3] ^= 0x40; // inside chunk 0's pc field
        let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
        let err = r.read_all().unwrap_err();
        assert!(
            matches!(err, TraceFileError::DigestMismatch { chunk: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn digest_is_codec_independent() {
        let events = sample(500);
        let raw = write_to_vec(&events, 128, Codec::Raw);
        let seq = write_to_vec(&events, 128, Codec::Sequitur);
        let raw_r = TraceReader::new(Cursor::new(raw)).unwrap();
        let seq_r = TraceReader::new(Cursor::new(seq)).unwrap();
        for idx in 0..raw_r.chunk_count() {
            assert_eq!(raw_r.index[idx].digest, seq_r.index[idx].digest);
        }
    }
}
