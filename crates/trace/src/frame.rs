//! The one little-endian codec behind every binary artifact: `DMNOTRC1`
//! traces, `DMNOFLT1` flight recorders, `DMNOMTR1` metrics rings,
//! `DMNOSPN1` span rings and `DMNOCHK1` reproducers. Each starts with an
//! 8-byte magic and a `u32` version, then fixed-width integers,
//! `u32`-length-prefixed UTF-8 strings and fixed-size records. Every
//! [`Reader`] take is bounds-checked, so malformed input is a
//! [`FrameError`], never a panic, and a record count read from a file
//! goes through [`Reader::records`] before anything is sized by it.

use std::ops::RangeInclusive;

/// A malformed artifact: where decoding stopped and why. Offsets are
/// byte positions in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The leading bytes are `found`, not the format's magic.
    BadMagic { found: [u8; 8] },
    /// A version this decoder does not understand.
    UnsupportedVersion { version: u32 },
    /// The input ends inside the `need`-byte field at `offset`.
    Truncated { offset: usize, need: usize },
    /// `count` records of `size` bytes at `offset` overflow or exceed the
    /// input.
    TooManyRecords {
        offset: usize,
        count: u64,
        size: usize,
    },
    /// The length-prefixed string whose bytes start at `offset` is not
    /// UTF-8.
    BadUtf8 { offset: usize },
    /// `count` bytes are left over after the last field.
    TrailingBytes { count: usize },
    /// The field ending at `offset` is outside its domain.
    BadField { offset: usize, detail: String },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic { found } => {
                write!(f, "bad magic {:?}", String::from_utf8_lossy(found))
            }
            Self::UnsupportedVersion { version } => {
                write!(f, "unsupported version {version}")
            }
            Self::Truncated { offset, need } => {
                write!(f, "truncated: need {need} bytes at offset {offset}")
            }
            Self::TooManyRecords {
                offset,
                count,
                size,
            } => write!(
                f,
                "{count} records of {size} bytes at offset {offset} exceed the input"
            ),
            Self::BadUtf8 { offset } => write!(f, "invalid UTF-8 string at offset {offset}"),
            Self::TrailingBytes { count } => write!(f, "{count} trailing bytes"),
            Self::BadField { offset, detail } => write!(f, "at offset {offset}: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// A writer that starts with `magic` and `version`, with room for
    /// `capacity` bytes in all.
    pub fn with_header(magic: &[u8; 8], version: u32, capacity: usize) -> Self {
        let mut w = Writer {
            out: Vec::with_capacity(capacity),
        };
        w.bytes(magic);
        w.u32(version);
        w
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Appends a `u32` byte length, then the UTF-8 bytes. Panics on a
    /// string of 4 GiB or more.
    pub fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string longer than u32::MAX bytes"));
        self.bytes(s.as_bytes());
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }
}

/// Takes little-endian fields off a byte slice. Every method fails with
/// [`FrameError::Truncated`] when the input ends inside the field.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `b`.
    pub fn new(b: &'a [u8]) -> Self {
        Reader { b, pos: 0 }
    }

    /// A reader past the magic and version of `b`. Fails with
    /// [`FrameError::BadMagic`], or [`FrameError::UnsupportedVersion`]
    /// outside `versions`.
    pub fn open(
        b: &'a [u8],
        magic: &[u8; 8],
        versions: RangeInclusive<u32>,
    ) -> Result<Self, FrameError> {
        let mut r = Reader::new(b);
        let found = *r.array::<8>()?;
        if &found != magic {
            return Err(FrameError::BadMagic { found });
        }
        let version = r.u32()?;
        if !versions.contains(&version) {
            return Err(FrameError::UnsupportedVersion { version });
        }
        Ok(r)
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if n > self.remaining() {
            return Err(FrameError::Truncated {
                offset: self.pos,
                need: n,
            });
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes the next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], FrameError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Takes a `u8`.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.array::<1>()?[0])
    }

    /// Takes a `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(*self.array()?))
    }

    /// Takes a `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(*self.array()?))
    }

    /// Takes a `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(*self.array()?))
    }

    /// Takes a `u32`-length-prefixed string ([`FrameError::BadUtf8`] when
    /// it is not UTF-8).
    pub fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let offset = self.pos;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| FrameError::BadUtf8 { offset })
    }

    /// Checks that `count` records of `size` bytes fit in the remaining
    /// input and returns the count, so callers may preallocate that many
    /// slots. Fails with [`FrameError::TooManyRecords`] when
    /// `count × size` overflows or exceeds the input.
    pub fn records(&self, count: u64, size: usize) -> Result<usize, FrameError> {
        usize::try_from(count)
            .ok()
            .filter(|&n| n.checked_mul(size).is_some_and(|b| b <= self.remaining()))
            .ok_or(FrameError::TooManyRecords {
                offset: self.pos,
                count,
                size,
            })
    }

    /// A [`FrameError::BadField`] for the field just read.
    pub fn bad_field(&self, detail: impl Into<String>) -> FrameError {
        FrameError::BadField {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    /// Ends decoding; fails with [`FrameError::TrailingBytes`] when input
    /// is left over.
    pub fn finish(self) -> Result<(), FrameError> {
        match self.remaining() {
            0 => Ok(()),
            count => Err(FrameError::TrailingBytes { count }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"DMNOTST1";

    fn sample() -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, 2, 64);
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(u32::MAX);
        w.u64(u64::MAX - 1);
        w.str("shard-0");
        w.into_bytes()
    }

    #[test]
    fn fields_round_trip() {
        let bytes = sample();
        let mut r = Reader::open(&bytes, MAGIC, 1..=2).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.string().unwrap(), "shard-0");
        r.finish().unwrap();
    }

    #[test]
    fn header_errors_are_typed() {
        let bytes = sample();
        assert!(matches!(
            Reader::open(&bytes[..5], MAGIC, 2..=2),
            Err(FrameError::Truncated { offset: 0, .. })
        ));
        assert!(matches!(
            Reader::open(&bytes, b"DMNOXXX1", 2..=2),
            Err(FrameError::BadMagic { found }) if &found == MAGIC
        ));
        assert!(matches!(
            Reader::open(&bytes, MAGIC, 3..=3),
            Err(FrameError::UnsupportedVersion { version: 2 })
        ));
    }

    #[test]
    fn every_truncation_is_an_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let read = |b: &[u8]| -> Result<(), FrameError> {
                let mut r = Reader::open(b, MAGIC, 2..=2)?;
                r.u8()?;
                r.u16()?;
                r.u32()?;
                r.u64()?;
                r.string()?;
                r.finish()
            };
            assert!(read(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn record_counts_are_checked_before_allocation() {
        let bytes = [0u8; 64];
        let r = Reader::new(&bytes);
        assert_eq!(r.records(8, 8).unwrap(), 8);
        assert_eq!(r.records(0, usize::MAX).unwrap(), 0);
        assert!(matches!(
            r.records(9, 8),
            Err(FrameError::TooManyRecords { count: 9, .. })
        ));
        // A count whose product wraps to a small size is still rejected.
        let wrapping = (1u64 << 63) | 2;
        assert!(r.records(wrapping, 32).is_err());
        assert!(r.records(u64::MAX, 64).is_err());
    }

    #[test]
    fn bad_strings_and_trailing_bytes_are_rejected() {
        let mut w = Writer::default();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.string(), Err(FrameError::BadUtf8 { offset: 4 }));
        let mut r = Reader::new(&bytes);
        r.take(6).unwrap();
        assert_eq!(r.finish(), Err(FrameError::TrailingBytes { count: 1 }));
        let mut huge = Writer::default();
        huge.u32(u32::MAX);
        let bytes = huge.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).string(),
            Err(FrameError::Truncated { .. })
        ));
    }
}
