//! Primitive binary codec: little-endian fixed-width fields, u64 length
//! prefixes, `f64` as raw IEEE-754 bits (so round-trips are bit-exact).
//!
//! The [`Reader`] enforces the store's allocation-before-validation rule:
//! every declared length or element count is checked against the bytes
//! actually remaining *before* any buffer is sized from it, so a
//! corrupted length field yields a [`DecodeError`] instead of an
//! attempted multi-gigabyte allocation.

use crate::error::DecodeError;

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an option tag (0 = absent, 1 = present) followed by the
    /// value when present.
    pub fn put_opt<T>(&mut self, v: Option<&T>, mut put: impl FnMut(&mut Writer, &T)) {
        match v {
            None => self.put_u8(0),
            Some(t) => {
                self.put_u8(1);
                put(self, t);
            }
        }
    }

    /// Appends a length-prefixed sequence.
    pub fn put_seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
        self.put_u64(items.len() as u64);
        for item in items {
            put(self, item);
        }
    }
}

/// Validating payload cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::UnexpectedEof {
                wanted: n,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is an invalid tag.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            found => Err(DecodeError::InvalidTag {
                what: "bool",
                found,
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string. The declared length is
    /// bounded by the remaining payload before any bytes are copied.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        self.get_str_ref().map(str::to_string)
    }

    /// Reads a length-prefixed UTF-8 string in place, borrowing it from
    /// the payload.
    pub fn get_str_ref(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a length/count field and validates it against the remaining
    /// bytes: a count of elements each at least `min_elem_size` bytes
    /// wide cannot exceed `remaining / min_elem_size`. Returns the count
    /// as a `usize` only once it is proven small enough to allocate for.
    pub fn get_len(&mut self, min_elem_size: usize) -> Result<usize, DecodeError> {
        let declared = self.get_u64()?;
        let available = self.remaining();
        let cap = available / min_elem_size.max(1);
        if declared > cap as u64 {
            return Err(DecodeError::LengthOverflow {
                declared,
                available,
            });
        }
        Ok(declared as usize)
    }

    /// Reads an option tag and then the value when present.
    pub fn get_opt<T>(
        &mut self,
        get: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            found => Err(DecodeError::InvalidTag {
                what: "option",
                found,
            }),
        }
    }

    /// Reads a length-prefixed sequence of elements, each at least
    /// `min_elem_size` encoded bytes.
    pub fn get_seq<T>(
        &mut self,
        min_elem_size: usize,
        mut get: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.get_len(min_elem_size)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// Asserts the payload is fully consumed (no trailing garbage).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Invalid(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("köln");
        w.put_opt(Some(&3u8), |w, v| w.put_u8(*v));
        w.put_opt::<u8>(None, |w, v| w.put_u8(*v));
        w.put_seq(&[1u32, 2, 3], |w, v| w.put_u32(*v));
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "köln");
        assert_eq!(r.get_opt(Reader::get_u8).unwrap(), Some(3));
        assert_eq!(r.get_opt(Reader::get_u8).unwrap(), None);
        assert_eq!(r.get_seq(4, Reader::get_u32).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // a string length no payload could satisfy
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.get_str(),
            Err(DecodeError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_tags_are_typed() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.get_u32(),
            Err(DecodeError::UnexpectedEof {
                wanted: 4,
                available: 2
            })
        ));
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            r.get_bool(),
            Err(DecodeError::InvalidTag {
                what: "bool",
                found: 9
            })
        ));
        let mut r = Reader::new(&[0xff, 0xfe]);
        assert!(matches!(
            r.get_opt(Reader::get_u8),
            Err(DecodeError::InvalidTag { what: "option", .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(r.finish(), Err(DecodeError::Invalid(_))));
    }
}
