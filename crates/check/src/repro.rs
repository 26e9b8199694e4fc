//! The `DMNOCHK1` reproducer file format.
//!
//! A sibling of the flight recorder's `DMNOFLT1` format, written and
//! read through the same codec ([`domino_trace::frame`]: magic, version,
//! reserved word, length-prefixed strings, little-endian fixed-width
//! records). A reproducer pins everything a failure needs to replay
//! exactly: the system label, the oracle that fired, the generator and
//! seed that produced the original trace, and the shrunk event list
//! itself. `domino-check --replay <file>` decodes
//! it and reruns the oracle.
//!
//! Layout:
//!
//! ```text
//! "DMNOCHK1"  magic, 8 bytes
//! u32         version (2; version-1 files still decode)
//! u32         reserved, written as 0 (version-2 writers stored the
//!             failing batch size of a since-deleted batched engine
//!             here; readers ignore it)
//! str         system label     (u32 length + UTF-8 bytes)
//! str         oracle name
//! str         generator name
//! u64         fuzzer seed
//! u64         event count
//! records     24 bytes each: pc u64, addr u64, gap u32,
//!             kind u8 (0 = read, 1 = write), dependent u8, pad u16
//! ```
//!
//! The records are `DMNOTRC1` record images, encoded and decoded by
//! [`domino_trace::stream::format::encode_record`] and
//! [`decode_record`], so their pad bytes must be zero.

use domino_trace::event::AccessEvent;
use domino_trace::frame::{FrameError, Reader, Writer};
use domino_trace::stream::format::{decode_record, encode_record, RECORD_BYTES};

/// File magic.
pub const MAGIC: &[u8; 8] = b"DMNOCHK1";
/// Current format version. Version 2 once stored a batch size in the
/// reserved header word; the word is now written as 0 and ignored on
/// read, so version-1 and version-2 files decode alike.
pub const VERSION: u32 = 2;

/// A decoded (or to-be-written) failure reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Roster label of the failing system ([`domino_sim::roster::System::label`]).
    pub system: String,
    /// Name of the oracle that fired.
    pub oracle: String,
    /// Name of the generator that produced the original trace.
    pub generator: String,
    /// Fuzzer seed of the failing case.
    pub seed: u64,
    /// The shrunk trace.
    pub events: Vec<AccessEvent>,
}

impl Reproducer {
    /// Serializes to the `DMNOCHK1` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, VERSION, 64 + self.events.len() * RECORD_BYTES);
        w.u32(0);
        w.str(&self.system);
        w.str(&self.oracle);
        w.str(&self.generator);
        w.u64(self.seed);
        w.u64(self.events.len() as u64);
        let mut rec = [0u8; RECORD_BYTES];
        for ev in &self.events {
            encode_record(ev, &mut rec);
            w.bytes(&rec);
        }
        w.into_bytes()
    }

    /// Decodes a `DMNOCHK1` file, validating magic, version, and
    /// record contents.
    ///
    /// # Errors
    ///
    /// The first malformation found, as a [`FrameError`].
    pub fn from_bytes(b: &[u8]) -> Result<Reproducer, FrameError> {
        let mut r = Reader::open(b, MAGIC, 1..=VERSION)?;
        // The reserved word: zero in version 1, possibly a batch size
        // in older version-2 files. Nothing replays by it.
        let _reserved = r.u32()?;
        let system = r.string()?;
        let oracle = r.string()?;
        let generator = r.string()?;
        let seed = r.u64()?;
        let count = r.u64()?;
        let count = r.records(count, RECORD_BYTES)?;
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let ev =
                decode_record(r.array()?).map_err(|e| r.bad_field(format!("record {i}: {e}")))?;
            events.push(ev);
        }
        r.finish()?;
        Ok(Reproducer {
            system,
            oracle,
            generator,
            seed,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_trace::addr::{Addr, Pc};
    use domino_trace::event::AccessKind;

    fn sample() -> Reproducer {
        Reproducer {
            system: "Domino".into(),
            oracle: "cross_engine".into(),
            generator: "pointer-chase".into(),
            seed: 0xD0C5,
            events: vec![
                AccessEvent {
                    pc: Pc::new(0x500_000),
                    addr: Addr::new(u64::MAX - 63),
                    kind: AccessKind::Read,
                    gap_insts: 7,
                    dependent: true,
                },
                AccessEvent {
                    pc: Pc::new(1),
                    addr: Addr::new(64),
                    kind: AccessKind::Write,
                    gap_insts: 0,
                    dependent: false,
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let r = sample();
        let decoded = Reproducer::from_bytes(&r.to_bytes()).expect("valid file");
        assert_eq!(decoded, r);
    }

    #[test]
    fn record_size_is_stable() {
        let r = sample();
        let empty = Reproducer {
            events: Vec::new(),
            ..r.clone()
        };
        assert_eq!(
            r.to_bytes().len() - empty.to_bytes().len(),
            2 * RECORD_BYTES
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample().to_bytes();
        b[0] = b'X';
        assert!(matches!(
            Reproducer::from_bytes(&b),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = sample().to_bytes();
        for version in [99, 0] {
            b[8] = version;
            assert_eq!(
                Reproducer::from_bytes(&b),
                Err(FrameError::UnsupportedVersion {
                    version: u32::from(version)
                })
            );
        }
    }

    #[test]
    fn version_1_and_batch_stamped_version_2_files_decode() {
        let r = sample();
        // A version-1 file differs only in its version word.
        let mut v1 = r.to_bytes();
        v1[8] = 1;
        assert_eq!(Reproducer::from_bytes(&v1).expect("v1 stays readable"), r);
        // A version-2 file that recorded a batch size decodes to the
        // same reproducer: the word is ignored.
        let mut v2 = r.to_bytes();
        v2[12..16].copy_from_slice(&64u32.to_le_bytes());
        assert_eq!(Reproducer::from_bytes(&v2).expect("v2 stays readable"), r);
    }

    #[test]
    fn truncation_rejected() {
        let b = sample().to_bytes();
        assert!(matches!(
            Reproducer::from_bytes(&b[..b.len() - 3]),
            Err(FrameError::TooManyRecords { count: 2, .. })
        ));
        assert!(matches!(
            Reproducer::from_bytes(&b[..20]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = sample().to_bytes();
        b.push(0);
        assert_eq!(
            Reproducer::from_bytes(&b),
            Err(FrameError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn bad_kind_rejected() {
        let r = Reproducer {
            events: vec![AccessEvent::read(Pc::new(1), Addr::new(0))],
            ..sample()
        };
        let mut b = r.to_bytes();
        let kind_off = b.len() - RECORD_BYTES + 20;
        b[kind_off] = 9;
        match Reproducer::from_bytes(&b) {
            Err(FrameError::BadField { detail, .. }) => {
                assert!(detail.contains("kind"), "{detail}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
