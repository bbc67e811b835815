//! The byte codec of every streamed on-flash format.
//!
//! Under NoFTL the DBMS owns the flash address space, so everything
//! durable beyond page payloads is a format this workspace defines and
//! must read back after a power cut: the device image, the region
//! checkpoint blob and its chunk pages, KV run pages, WAL frames and
//! pages, and the catalog snapshot.  They all share these three parts:
//!
//! * `put_*` writers appending little-endian integers and length-prefixed
//!   byte strings to a `Vec<u8>`;
//! * [`Reader`], a borrowing cursor that checks every bound and answers
//!   `None` where the bytes run out, so a torn or truncated format decodes
//!   to "absent", never to a panic — and never allocates;
//! * [`seal`] / [`open`]: `magic | body | crc32`, the framing of the
//!   two self-validating blobs (image, checkpoint).
//!
//! Fixed-offset page views (the heap's slotted page, the B+-tree node)
//! and the 24-byte OOB record are read in place and do not use it.

use crate::crc::crc32;

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `bytes` behind a `u32` length ([`Reader::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append `bytes` behind a `u16` length ([`Reader::bytes16`]).
pub fn put_bytes16(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

/// Append a presence byte (1, or 0 for `None`), then `v` written by `put`
/// ([`Reader::opt`]).
pub fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        Some(v) => {
            out.push(1);
            put(out, v);
        }
        None => out.push(0),
    }
}

/// A sealed blob: `magic`, the body `write` appends, and a CRC-32 of both.
/// `capacity` presizes the buffer.
pub fn seal(magic: &[u8], capacity: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    seal_into(&mut out, magic, write);
    out
}

/// [`seal`] into `out`, which it clears first, so a buffer kept from blob
/// to blob allocates only to grow.
pub fn seal_into(out: &mut Vec<u8>, magic: &[u8], write: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(magic);
    write(out);
    let crc = crc32(out);
    put_u32(out, crc);
}

/// A reader over the body of a blob [`seal`]ed under `magic`; `None` for
/// a short buffer, another magic or a CRC mismatch.
pub fn open<'a>(buf: &'a [u8], magic: &[u8]) -> Option<Reader<'a>> {
    let (sealed, crc) = buf.split_at_checked(buf.len().checked_sub(4)?)?;
    let body = sealed.strip_prefix(magic)?;
    (crc32(sealed) == Reader::new(crc).u32()?).then(|| Reader::new(body))
}

/// A bounds-checked little-endian cursor over borrowed bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes, or `None` (consuming nothing) past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(out)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Bytes behind a `u32` length ([`put_bytes`]).
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()?;
        self.take(len as usize)
    }

    /// Bytes behind a `u16` length ([`put_bytes16`]).
    pub fn bytes16(&mut self) -> Option<&'a [u8]> {
        let len = self.u16()?;
        self.take(len as usize)
    }

    /// UTF-8 behind a `u32` length.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }

    /// UTF-8 behind a `u16` length.
    pub fn str16(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes16()?).ok()
    }

    /// A value behind a presence byte ([`put_opt`]; any non-zero byte
    /// means present): the outer `None` is a short buffer, the inner one
    /// an absent value.
    pub fn opt<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        match self.u8()? {
            0 => Some(None),
            _ => read(self).map(Some),
        }
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, 0xA5);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, b"payload");
        put_bytes16(&mut out, "näme".as_bytes());
        put_opt(&mut out, Some(7u32), put_u32);
        put_opt(&mut out, None::<u64>, put_u64);
        out
    }

    type Sample = (u8, u16, u32, u64, Vec<u8>, String, Option<u32>);

    fn read(r: &mut Reader<'_>) -> Option<Sample> {
        let fixed = (r.u8()?, r.u16()?, r.u32()?, r.u64()?);
        let payload = r.bytes()?.to_vec();
        let name = r.str16()?.to_owned();
        let seven = r.opt(Reader::u32)?;
        r.opt(Reader::u64)?.is_none().then_some(())?;
        Some((fixed.0, fixed.1, fixed.2, fixed.3, payload, name, seven))
    }

    #[test]
    fn writers_and_reader_agree_little_endian() {
        let bytes = sample();
        assert_eq!(&bytes[..3], &[0xA5, 0xEF, 0xBE]);
        let mut r = Reader::new(&bytes);
        let got = read(&mut r).unwrap();
        assert_eq!(
            got,
            (0xA5, 0xBEEF, 0xDEAD_BEEF, u64::MAX - 1, b"payload".to_vec(), "näme".into(), Some(7))
        );
        assert!(r.rest().is_empty());
    }

    #[test]
    fn every_strict_prefix_reads_none() {
        let bytes = sample();
        for n in 0..bytes.len() {
            assert_eq!(read(&mut Reader::new(&bytes[..n])), None, "prefix of {n} bytes");
        }
        let mut r = Reader::new(&bytes[..3]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u16(), Some(0xEFA5), "the failed read consumed nothing");
        assert_eq!(r.take(usize::MAX), None, "a length that overflows is out of bounds");
        assert_eq!(r.rest(), &[0xBE]);
    }

    #[test]
    fn invalid_utf8_is_none() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        assert_eq!(Reader::new(&out).str(), None);
    }

    #[test]
    fn sealed_blobs_reject_every_prefix_flip_and_foreign_magic() {
        let blob = seal(b"MAGIC", 0, |out| put_bytes(out, b"body"));
        let mut r = open(&blob, b"MAGIC").unwrap();
        assert_eq!(r.bytes(), Some(&b"body"[..]));
        assert!(r.rest().is_empty());
        for n in 0..blob.len() {
            assert!(open(&blob[..n], b"MAGIC").is_none(), "prefix of {n} bytes");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(open(&bad, b"MAGIC").is_none(), "flipped byte {i}");
        }
        assert!(open(&blob, b"OTHER").is_none());
    }
}
