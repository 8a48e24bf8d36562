//! The one checked little-endian byte codec: the writer and reader that
//! the spill segment codec ([`crate::SpillStore`]) and the service's
//! binary wire codec both build on.
//!
//! # Encoding rules
//!
//! * Scalars are fixed-width little-endian. An `f64` travels as its
//!   IEEE-754 bit pattern, so `-0.0`, subnormals and NaN payloads
//!   round-trip exactly, and a `usize` as a `u64`.
//! * A `bool` is one byte; the reader accepts only 0 and 1.
//! * An `Option` is a `bool` tag followed, when set, by the value.
//! * Strings and sequences carry a `u32` length prefix.
//!
//! # Hostile input
//!
//! Every read is checked against the bytes that remain, so truncated or
//! corrupt input yields a typed error, never a panic. A length prefix
//! goes through [`ByteReader::seq_len`], which refuses any length the
//! remaining bytes cannot hold before the caller allocates for it: a
//! decoder's allocations stay within its input length times the
//! element-size factor. [`ByteReader::finish`] rejects trailing bytes.

/// A growable little-endian byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[inline]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for `capacity` bytes.
    #[inline]
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(capacity) }
    }

    /// The bytes written so far.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, with no length prefix.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `usize` scalar, as a `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f64` by IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `bool` as byte 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A `u32` sequence-length prefix. A length beyond `u32::MAX`
    /// saturates; no frame or spill record can hold that many elements,
    /// so the reader refuses it instead of misreading it.
    #[inline]
    pub fn seq_len(&mut self, len: usize) {
        self.u32(u32::try_from(len).unwrap_or(u32::MAX));
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.seq_len(s.len());
        self.bytes(s.as_bytes());
    }

    /// An option: a `bool` tag, then the value through `put` when set.
    #[inline]
    pub fn option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut ByteWriter, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }
}

/// A checked cursor over little-endian bytes. Reads hand out scalars and
/// **borrowed** slices of the input; nothing is copied until the caller
/// asks for an owned value.
#[derive(Debug)]
pub struct ByteReader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    /// Length of the whole input, for error positions.
    len: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: buf, len: buf.len() }
    }

    /// Offset of the next byte to read.
    #[inline]
    fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The next `n` bytes, borrowed.
    ///
    /// # Errors
    ///
    /// Fewer than `n` bytes remain.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(self.truncated(n));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    // Error text is built out of line: every read inlines `bytes`, and
    // only a failing read needs the formatting code.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> String {
        format!("truncated: wanted {n} bytes at byte {} of {}", self.pos(), self.len)
    }

    #[cold]
    #[inline(never)]
    fn too_long(&self, len: usize, min_element_bytes: usize) -> String {
        format!(
            "length prefix claims {len} elements of at least {min_element_bytes} bytes, but \
             only {} bytes remain",
            self.rest.len()
        )
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// End of input.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    /// Little-endian `u16`.
    ///
    /// # Errors
    ///
    /// End of input.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    /// Little-endian `u32`.
    ///
    /// # Errors
    ///
    /// End of input.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    ///
    /// # Errors
    ///
    /// End of input.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `usize` scalar written as a `u64`.
    ///
    /// # Errors
    ///
    /// End of input, or a value this platform's `usize` cannot hold.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("count {v} does not fit in usize"))
    }

    /// An `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// End of input.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, String> {
        self.u64().map(f64::from_bits)
    }

    /// A strict `bool`: byte 0 or 1, nothing else.
    ///
    /// # Errors
    ///
    /// End of input, or any other byte value.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad bool byte {other} at byte {}", self.pos() - 1)),
        }
    }

    /// A `u32` sequence-length prefix whose elements each take at least
    /// `min_element_bytes` (clamped to 1). A length the remaining bytes
    /// cannot hold is refused before the caller allocates for it.
    ///
    /// # Errors
    ///
    /// End of input, or a length longer than the remaining bytes allow.
    #[inline]
    pub fn seq_len(&mut self, min_element_bytes: usize) -> Result<usize, String> {
        let len = self.u32()? as usize;
        let min_element_bytes = min_element_bytes.max(1);
        if len.saturating_mul(min_element_bytes) > self.rest.len() {
            return Err(self.too_long(len, min_element_bytes));
        }
        Ok(len)
    }

    /// A length-prefixed string, borrowed from the input and validated
    /// as UTF-8 in place.
    ///
    /// # Errors
    ///
    /// Truncation, or bytes that are not UTF-8.
    #[inline]
    pub fn str_ref(&mut self) -> Result<&'a str, String> {
        let len = self.seq_len(1)?;
        let raw = self.bytes(len)?;
        std::str::from_utf8(raw).map_err(|e| format!("string is not UTF-8: {e}"))
    }

    /// An option: a strict `bool` tag, then the value through `get` when
    /// set.
    ///
    /// # Errors
    ///
    /// A bad tag byte, or whatever `get` returns.
    #[inline]
    pub fn option<T>(
        &mut self,
        get: impl FnOnce(&mut ByteReader<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if self.bool()? {
            get(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Asserts the input was consumed exactly.
    ///
    /// # Errors
    ///
    /// Trailing bytes.
    pub fn finish(&self) -> Result<(), String> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_strings_and_options_round_trip_exactly() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(u32::MAX);
        w.u64(u64::MAX - 1);
        w.usize(12_345);
        for v in [-0.0, f64::NAN, f64::MIN_POSITIVE / 2.0, f64::from_bits(0x7ff8_0000_0000_0001)] {
            w.f64(v);
        }
        w.bool(true);
        w.bool(false);
        w.str("ünïcødé");
        w.option(Some(9u64), ByteWriter::u64);
        w.option(None::<u64>, ByteWriter::u64);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xbeef));
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.usize(), Ok(12_345));
        for bits in [(-0.0f64).to_bits(), f64::NAN.to_bits(), 1 << 51, 0x7ff8_0000_0000_0001] {
            assert_eq!(r.f64().map(f64::to_bits), Ok(bits));
        }
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.str_ref(), Ok("ünïcødé"));
        assert_eq!(r.option(ByteReader::u64), Ok(Some(9)));
        assert_eq!(r.option(ByteReader::u64), Ok(None));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn hostile_bytes_give_typed_errors() {
        // Truncation at every scalar width.
        assert!(ByteReader::new(&[1]).u16().is_err());
        assert!(ByteReader::new(&[1, 2, 3]).u32().is_err());
        assert!(ByteReader::new(&[0; 7]).f64().is_err());
        // A bool or option tag other than 0 and 1.
        assert!(ByteReader::new(&[2]).bool().unwrap_err().contains("bad bool byte 2"));
        assert!(ByteReader::new(&[255, 0]).option(ByteReader::u8).is_err());
        // A length prefix the remaining bytes cannot hold, before any
        // element is read.
        let mut w = ByteWriter::new();
        w.seq_len(1 << 30);
        w.u64(0);
        let bytes = w.into_bytes();
        let err = ByteReader::new(&bytes).seq_len(8).unwrap_err();
        assert!(err.contains("claims 1073741824 elements"), "{err}");
        assert!(ByteReader::new(&bytes).seq_len(0).is_err(), "a minimum of 0 counts as 1");
        // Exactly enough bytes is accepted.
        let mut w = ByteWriter::new();
        w.seq_len(1);
        w.u64(5);
        assert_eq!(ByteReader::new(&w.into_bytes()).seq_len(8), Ok(1));
        // Invalid UTF-8 and trailing bytes.
        assert!(ByteReader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str_ref().is_err());
        let mut r = ByteReader::new(&[0, 1]);
        assert_eq!(r.u8(), Ok(0));
        assert_eq!(r.finish(), Err("1 trailing bytes".to_string()));
    }
}
