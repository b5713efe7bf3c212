//! The canonical little-endian codec.
//!
//! Every multi-byte value is little-endian; `f64` travels as its
//! IEEE-754 bit pattern so encode/decode is exactly lossless (NaN
//! payloads included); strings and sequences carry a `u32` length
//! prefix. Equal state therefore always encodes to byte-identical
//! buffers — the property the checkpoint byte-identity tests rely on.

use crate::PersistError;

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (lossless).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte, `0` or `1`.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends `Some(v)`/`None` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a sequence length prefix (`u32`); follow with the items.
    pub fn put_seq_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }
}

/// Cursor-based decoder over an encoded buffer. Every read is
/// bounds-checked: running past the end (a torn field) is
/// [`PersistError::Torn`], never a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the buffer is fully consumed (trailing garbage is as
    /// suspicious as truncation).
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Torn)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Torn);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its raw bits.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than `0`/`1` is corruption.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Torn),
        }
    }

    /// Reads an optional `u64` written by [`ByteWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, PersistError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            _ => Err(PersistError::Torn),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PersistError::Torn)
    }

    /// Reads a sequence length prefix, bounds-checked against the bytes
    /// actually remaining (`min_item_bytes` per item) so a corrupted
    /// length cannot drive a huge allocation.
    pub fn get_seq_len(&mut self, min_item_bytes: usize) -> Result<usize, PersistError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(PersistError::Torn);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_opt_u64(Some(42));
        w.put_opt_u64(None);
        w.put_str("snapshot ✓");
        w.put_seq_len(5);
        for i in 0..5u8 {
            w.put_u8(i);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_opt_u64().unwrap(), Some(42));
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_str().unwrap(), "snapshot ✓");
        assert_eq!(r.get_seq_len(1).unwrap(), 5);
        for i in 0..5u8 {
            assert_eq!(r.get_u8().unwrap(), i);
        }
        r.finish().unwrap();
    }

    #[test]
    fn equal_state_encodes_identically() {
        let encode = || {
            let mut w = ByteWriter::new();
            w.put_u64(123);
            w.put_f64(0.1 + 0.2);
            w.put_str("abc");
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
    }

    #[test]
    fn truncated_reads_are_torn_not_panics() {
        let mut w = ByteWriter::new();
        w.put_u64(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.get_u64().unwrap_err(), PersistError::Torn);
        let mut r = ByteReader::new(&[1]);
        assert_eq!(r.get_opt_u64().unwrap_err(), PersistError::Torn);
        let mut r = ByteReader::new(&[3, 0, 0, 0, b'a']);
        assert_eq!(r.get_str().unwrap_err(), PersistError::Torn);
    }

    #[test]
    fn invalid_tags_are_torn() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.get_bool().unwrap_err(), PersistError::Torn);
        let mut r = ByteReader::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.get_opt_u64().unwrap_err(), PersistError::Torn);
    }

    #[test]
    fn huge_sequence_lengths_are_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_seq_len(8).unwrap_err(), PersistError::Torn);
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.finish().unwrap_err(), PersistError::Torn);
    }
}
