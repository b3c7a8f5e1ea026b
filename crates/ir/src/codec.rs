//! Length-prefixed binary codec for the heavy persistence sections.
//!
//! JSON is the right format for small, hand-inspectable sections (envelope
//! headers, daemon state), but re-parsing ~10⁵ floating-point literals on
//! every checkpoint load dominated restart time. This module defines a
//! deliberately boring wire format for the bulk payloads instead:
//!
//! * every integer is an unsigned LEB128 varint — seven bits a byte, low
//!   bits first, the high bit set on every byte but the last — so the
//!   small term gaps, call counts and lengths a signature is made of take
//!   a byte or two each ([`put_var`], [`Reader::get_var`]),
//! * every `f64` is its IEEE-754 bit pattern (`f64::to_bits`) little-endian,
//!   so values round-trip **bit-identically** (NaN payloads included),
//! * every variable-length field is prefixed with its element count,
//! * a document's `(term, count)` pairs are one layout, wherever they are
//!   stored: `dim`, `nnz`, each term as its gap from the previous one,
//!   then the counts ([`put_pairs`]),
//! * there is no padding and no alignment.
//!
//! This is the one layout [`Reader`] reads: format v9 saves and `FMWAL 5`
//! logs.
//!
//! Types opt in by implementing [`BinCodec`]. Decoders read through
//! [`Reader`], which bounds-checks every access and guards length prefixes
//! against the remaining input before allocating, so a corrupt or truncated
//! payload yields a [`CodecError`] rather than a panic or an OOM attempt.
//! Corruption *detection* is not this module's job — the envelope and WAL
//! layers checksum whole payloads with CRC32 before decoding starts — but
//! decoding must still be total on arbitrary bytes: a varint longer than
//! ten bytes, one past `u64` and an overlong (non-minimal) one are errors.

use std::fmt;

/// Decode-side failure: truncated input, an implausible length prefix, or
/// bytes that violate a type's structural invariants.
///
/// Encoding is infallible; only [`BinCodec::decode_bin`] produces these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    /// Build an error carrying a human-readable description of what the
    /// decoder expected and what it found.
    pub fn new(msg: impl Into<String>) -> Self {
        CodecError(msg.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A type with a binary wire encoding.
///
/// Implementations must guarantee `decode_bin(encode_bin(x)) == x` with
/// *bit-identical* floating-point fields, and `decode_bin` must validate the
/// same structural invariants the type's constructors enforce (sortedness,
/// index ranges, matching array lengths) so a decoded value is as trustworthy
/// as a constructed one.
pub trait BinCodec: Sized {
    /// Append this value's encoding to `out`.
    fn encode_bin(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader, advancing it past the consumed
    /// bytes. Callers that expect the value to fill the input should follow
    /// up with [`Reader::finish`].
    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Convenience: encode a value into a fresh buffer.
pub fn encode_to_vec<T: BinCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_bin(&mut out);
    out
}

/// Convenience: decode a value that must consume the entire input.
pub fn decode_from_slice<T: BinCodec>(bytes: &[u8]) -> Result<T, CodecError> {
    decode_all(Reader::new(bytes))
}

/// Decode a value that must consume everything `r` has left.
pub fn decode_all<T: BinCodec>(mut r: Reader<'_>) -> Result<T, CodecError> {
    let value = T::decode_bin(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append `v` as an unsigned LEB128 varint: one byte below 128, at most
/// ten.
pub fn put_var(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The bytes [`put_var`] spends on `v`.
pub fn var_len(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Append a `usize` as a varint.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_var(out, v as u64);
}

/// Append an `f64` as its little-endian IEEE-754 bit pattern.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a string as a varint byte count followed by its UTF-8 bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, v: &str) {
    put_usize(out, v.len());
    out.extend_from_slice(v.as_bytes());
}

/// Append an optional string as a presence byte, then the string if present.
pub fn put_opt_str(out: &mut Vec<u8>, v: Option<&str>) {
    match v {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            put_str(out, s);
        }
    }
}

/// Append a `u32` slice as a varint count followed by the varint elements.
pub(crate) fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_var(out, u64::from(v));
    }
}

/// Append an `f64` slice as a varint count followed by the bit patterns.
pub(crate) fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

/// `pairs` with each term replaced by its gap from the previous one (the
/// first from 0).
fn gaps(pairs: impl Iterator<Item = (u32, u64)>) -> impl Iterator<Item = (u64, u64)> {
    pairs.scan(0, |prev, (t, c)| {
        Some((u64::from(t - std::mem::replace(prev, t)), c))
    })
}

/// The number of `pairs` and the bytes [`put_pairs`] spends on their gaps
/// and counts (`dim` and `nnz` not included).
pub fn pairs_len(pairs: impl Iterator<Item = (u32, u64)>) -> (usize, usize) {
    gaps(pairs).fold((0, 0), |(nnz, len), (g, c)| {
        (nnz + 1, len + var_len(g) + var_len(c))
    })
}

/// Append the sparse-pairs layout of `nnz` strictly ascending
/// `(term, count)` pairs over `dim` terms: `dim`, `nnz`, each term as its
/// gap from the previous one (the first from 0), then the counts — every
/// one a varint. `pairs` is walked twice.
pub fn put_pairs<I: Iterator<Item = (u32, u64)>>(
    out: &mut Vec<u8>,
    dim: usize,
    nnz: usize,
    pairs: impl Fn() -> I,
) {
    put_usize(out, dim);
    put_usize(out, nnz);
    gaps(pairs()).for_each(|(g, _)| put_var(out, g));
    pairs().for_each(|(_, c)| put_var(out, c));
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over an encoded byte slice.
///
/// Every accessor either returns the decoded value and advances the cursor,
/// or returns a [`CodecError`] and leaves the reader unusable for that
/// decode attempt. Array reads check `count * elem_size` against the bytes
/// actually remaining before allocating, so a flipped length prefix cannot
/// request an absurd allocation.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `bytes` at the beginning.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Error unless the input was consumed exactly.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::new(format!(
                "{} trailing bytes after value",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::new(format!(
                "need {n} bytes but only {} remain",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read an unsigned LEB128 varint, refusing one longer than ten
    /// bytes, one past `u64` and an overlong one (a zero last byte after
    /// the first: the value had a shorter encoding).
    pub fn get_var(&mut self) -> Result<u64, CodecError> {
        if let Some(&byte) = self.bytes.get(self.pos).filter(|&&b| b < 0x80) {
            self.pos += 1;
            return Ok(u64::from(byte));
        }
        let (mut value, mut shift) = (0, 0);
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::new(if byte & 0x80 != 0 {
                    "varint longer than 10 bytes"
                } else {
                    "varint past u64"
                }));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(CodecError::new("overlong varint"));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Read a `u32`: a varint no larger than `u32::MAX`.
    pub(crate) fn get_u32(&mut self) -> Result<u32, CodecError> {
        let v = self.get_var()?;
        u32::try_from(v).map_err(|_| CodecError::new(format!("{v} exceeds u32")))
    }

    /// Read an `f64` from its little-endian bit pattern.
    pub(crate) fn get_f64(&mut self) -> Result<f64, CodecError> {
        let bits = self.take(8)?.try_into().expect("8-byte slice");
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Read a varint and narrow it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_var()?;
        usize::try_from(v).map_err(|_| CodecError::new(format!("length {v} exceeds usize")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub(crate) fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.array_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::new(format!("invalid UTF-8 in string: {e}")))
    }

    /// Read an optional string written by [`put_opt_str`].
    pub fn get_opt_str(&mut self) -> Result<Option<String>, CodecError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_str()?)),
            b => Err(CodecError::new(format!("invalid option byte {b:#04x}"))),
        }
    }

    /// Read an element count and verify `count * elem_size` fits in the
    /// remaining input before the caller allocates for it.
    pub fn array_len(&mut self, elem_size: usize) -> Result<usize, CodecError> {
        let count = self.get_usize()?;
        let needed = count
            .checked_mul(elem_size)
            .ok_or_else(|| CodecError::new(format!("array length {count} overflows")))?;
        if needed > self.remaining() {
            return Err(CodecError::new(format!(
                "array claims {needed} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Read `count` elements with `read` into whichever container the
    /// caller names (`Vec`, `Arc<[_]>`), allocated once at that length;
    /// on the first error it reads no further and returns that error.
    /// `count` must already be bounded by the input ([`array_len`]).
    ///
    /// [`array_len`]: Self::array_len
    pub(crate) fn get_exact<T: Default, C: FromIterator<T>>(
        &mut self,
        count: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<C, CodecError> {
        let mut fault = None;
        let items = (0..count)
            .map(|_| match fault {
                Some(_) => T::default(),
                None => read(self).unwrap_or_else(|e| {
                    fault = Some(e);
                    T::default()
                }),
            })
            .collect();
        fault.map_or(Ok(items), Err)
    }

    /// Read a length-prefixed `u32` array.
    pub(crate) fn get_u32s<C: FromIterator<u32>>(&mut self) -> Result<C, CodecError> {
        let count = self.array_len(1)?;
        self.get_exact(count, Reader::get_u32)
    }

    /// Read a length-prefixed `f64` array (bit patterns, so NaNs survive).
    pub(crate) fn get_f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let count = self.array_len(8)?;
        self.get_exact(count, Reader::get_f64)
    }

    /// Step over a length-prefixed array of `elem_size`-byte elements
    /// without decoding it.
    pub fn skip_array(&mut self, elem_size: usize) -> Result<(), CodecError> {
        let count = self.array_len(elem_size)?;
        self.take(count * elem_size).map(drop)
    }
}

/// How many `T`s to reserve up front for a declared `count`: an element
/// may be far larger in memory than its one-byte wire minimum, so never
/// more memory than the input still holds — the vector grows from there
/// as elements actually decode.
fn bounded_capacity<T>(count: usize, remaining: usize) -> usize {
    count.min(remaining / size_of::<T>().max(1))
}

impl<T: BinCodec> BinCodec for Vec<T> {
    fn encode_bin(&self, out: &mut Vec<u8>) {
        put_usize(out, self.len());
        for item in self {
            item.encode_bin(out);
        }
    }

    fn decode_bin(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Elements are variable-size, so the tightest universal guard is one
        // byte per element; it still rejects length prefixes beyond the input.
        let count = r.array_len(1)?;
        let mut out = Vec::with_capacity(bounded_capacity::<T>(count, r.remaining()));
        for _ in 0..count {
            out.push(T::decode_bin(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_var(&mut buf, 0xDEAD_BEEF);
        put_var(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        put_str(&mut buf, "héllo");
        put_opt_str(&mut buf, None);
        put_opt_str(&mut buf, Some("x"));

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_var().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_opt_str().unwrap(), None);
        assert_eq!(r.get_opt_str().unwrap().as_deref(), Some("x"));
        r.finish().unwrap();
    }

    #[test]
    fn arrays_round_trip() {
        let mut buf = Vec::new();
        put_u32s(&mut buf, &[1, 200, u32::MAX]);
        put_f64s(&mut buf, &[]);
        put_f64s(&mut buf, &[1.5, f64::INFINITY]);

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u32s::<Vec<u32>>().unwrap(), vec![1, 200, u32::MAX]);
        assert_eq!(r.get_f64s().unwrap(), Vec::<f64>::new());
        assert_eq!(r.get_f64s().unwrap(), vec![1.5, f64::INFINITY]);
        r.finish().unwrap();
    }

    #[test]
    fn varints_take_a_byte_per_seven_bits() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u32::MAX), 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            put_var(&mut buf, v);
            assert_eq!((buf.len(), var_len(v)), (len, len), "{v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.get_var().unwrap(), v);
            r.finish().unwrap();
        }
        // A `u32` past its range is an error, not a truncation.
        let mut buf = Vec::new();
        put_var(&mut buf, u64::from(u32::MAX) + 1);
        assert!(Reader::new(&buf).get_u32().is_err());
    }

    #[test]
    fn hostile_varints_are_errors() {
        let ten = |last: u8| [[0xFF; 9].as_slice(), &[last]].concat();
        assert_eq!(Reader::new(&ten(1)).get_var().unwrap(), u64::MAX);
        for (what, bytes) in [
            ("overlong", vec![0x80, 0x00]),
            ("overlong, longer", vec![0xFF, 0x80, 0x00]),
            ("11 bytes", [ten(0x80), vec![0x01]].concat()),
            ("a tenth byte above 1", ten(0x02)),
            ("a tenth byte of 0x7F", ten(0x7F)),
            ("truncated", vec![0x80]),
            ("empty", vec![]),
        ] {
            assert!(Reader::new(&bytes).get_var().is_err(), "{what}");
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut buf = Vec::new();
        put_var(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.get_var().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_var(&mut buf, u64::MAX); // claims ~1.8e19 elements
        let mut r = Reader::new(&buf);
        assert!(r.get_f64s().is_err());

        let mut buf = Vec::new();
        put_var(&mut buf, 1 << 40); // plausible usize, impossible for input
        let mut r = Reader::new(&buf);
        assert!(r.get_u32s::<Vec<u32>>().is_err());
    }

    #[test]
    fn attacker_sized_vec_prefix_errors_without_an_outsized_reservation() {
        // 96 bytes in memory, one byte on the wire at best: a count
        // prefix equal to the payload length passes the one-byte-per-
        // element guard, and must not turn into 96 bytes reserved per
        // input byte before the first element fails to decode.
        struct Fat {
            _pad: [u64; 12],
        }
        impl BinCodec for Fat {
            fn encode_bin(&self, _: &mut Vec<u8>) {}
            fn decode_bin(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                match r.get_u8()? {
                    1 => Ok(Fat { _pad: [0; 12] }),
                    b => Err(CodecError::new(format!("bad Fat byte {b}"))),
                }
            }
        }
        let n = 1usize << 16;
        let mut buf = Vec::new();
        put_usize(&mut buf, n);
        buf.resize(buf.len() + n, 0);
        assert!(decode_from_slice::<Vec<Fat>>(&buf).is_err());
        assert!(bounded_capacity::<Fat>(n, n) * size_of::<Fat>() <= n);
        // A payload that really holds `count` elements is still
        // reserved exactly.
        assert_eq!(bounded_capacity::<u64>(10, 80), 10);
    }

    // (The name predates the removal of the bool codec; it is kept
    // because the suite's floor list tracks tests by name.)
    #[test]
    fn invalid_bool_and_option_bytes_are_rejected() {
        let mut r = Reader::new(&[9]);
        assert!(r.get_opt_str().is_err());
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let buf = [0u8; 3];
        let mut r = Reader::new(&buf);
        r.get_u8().unwrap();
        assert!(r.finish().is_err());
        r.get_u8().unwrap();
        r.get_u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn vec_of_bincodec_round_trips() {
        #[derive(Debug, PartialEq)]
        struct P(u32, f64);
        impl BinCodec for P {
            fn encode_bin(&self, out: &mut Vec<u8>) {
                put_var(out, u64::from(self.0));
                put_f64(out, self.1);
            }
            fn decode_bin(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(P(r.get_u32()?, r.get_f64()?))
            }
        }
        let v = vec![P(1, 2.0), P(3, -4.5)];
        let bytes = encode_to_vec(&v);
        let back: Vec<P> = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, v);
    }
}
