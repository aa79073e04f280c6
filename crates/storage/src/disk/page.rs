//! Per-page lightweight compression.
//!
//! A page holds up to `page_rows` consecutive rows of one column. Integer
//! and dictionary-code pages use frame-of-reference coding (store the page
//! minimum, then per-row deltas in the narrowest of u8/u16/u32 that fits);
//! constant pages collapse to the single repeated value; float pages are
//! stored raw (IEEE bits, so roundtrips are bit-exact — NaN payloads and
//! `-0.0` included). Every encoding is self-describing via a one-byte tag;
//! the row count comes from the segment's page directory.

use crate::codec::Reader;
use crate::disk::DiskError;

/// Decoded page payload. Strings appear as per-segment dictionary codes;
/// the segment reader remaps them to catalog interner codes.
#[derive(Debug, Clone, PartialEq)]
pub enum PageData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Per-segment dense dictionary codes.
    Codes(Vec<u32>),
}

impl PageData {
    pub fn len(&self) -> usize {
        match self {
            PageData::Int(v) => v.len(),
            PageData::Float(v) => v.len(),
            PageData::Codes(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// Encoding tags. Shared across page kinds: the kind is fixed by the column
// dtype, the tag only selects the width.
const TAG_CONST: u8 = 0;
const TAG_FOR_U8: u8 = 1;
const TAG_FOR_U16: u8 = 2;
const TAG_FOR_U32: u8 = 3;
const TAG_RAW: u8 = 4;

fn corrupt(what: &str) -> DiskError {
    DiskError::Corrupt(format!("page payload: {what}"))
}

/// Encode one page into `out`. Returns the number of bytes appended.
pub fn encode_page(data: &PageData, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    match data {
        PageData::Int(v) => encode_int(v, out),
        PageData::Codes(v) => encode_codes(v, out),
        PageData::Float(v) => encode_float(v, out),
    }
    out.len() - start
}

pub(crate) fn encode_int(v: &[i64], out: &mut Vec<u8>) {
    let (min, max) = match v.iter().copied().fold(None, |acc, x| match acc {
        None => Some((x, x)),
        Some((lo, hi)) => Some((lo.min(x), hi.max(x))),
    }) {
        Some(b) => b,
        None => {
            out.push(TAG_RAW);
            return;
        }
    };
    if min == max {
        out.push(TAG_CONST);
        out.extend_from_slice(&min.to_le_bytes());
        return;
    }
    // Range in i128 so i64::MIN..=i64::MAX cannot overflow.
    let range = (max as i128 - min as i128) as u128;
    let delta = |x: i64| (x as i128 - min as i128) as u128;
    if range <= u8::MAX as u128 {
        out.push(TAG_FOR_U8);
        out.extend_from_slice(&min.to_le_bytes());
        out.extend(v.iter().map(|&x| delta(x) as u8));
    } else if range <= u16::MAX as u128 {
        out.push(TAG_FOR_U16);
        out.extend_from_slice(&min.to_le_bytes());
        for &x in v {
            out.extend_from_slice(&(delta(x) as u16).to_le_bytes());
        }
    } else if range <= u32::MAX as u128 {
        out.push(TAG_FOR_U32);
        out.extend_from_slice(&min.to_le_bytes());
        for &x in v {
            out.extend_from_slice(&(delta(x) as u32).to_le_bytes());
        }
    } else {
        out.push(TAG_RAW);
        for &x in v {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

pub(crate) fn encode_codes(v: &[u32], out: &mut Vec<u8>) {
    let (min, max) = match v.iter().copied().fold(None, |acc, x| match acc {
        None => Some((x, x)),
        Some((lo, hi)) => Some((lo.min(x), hi.max(x))),
    }) {
        Some(b) => b,
        None => {
            out.push(TAG_RAW);
            return;
        }
    };
    if min == max {
        out.push(TAG_CONST);
        out.extend_from_slice(&min.to_le_bytes());
        return;
    }
    let range = max - min;
    if range <= u8::MAX as u32 {
        out.push(TAG_FOR_U8);
        out.extend_from_slice(&min.to_le_bytes());
        out.extend(v.iter().map(|&x| (x - min) as u8));
    } else if range <= u16::MAX as u32 {
        out.push(TAG_FOR_U16);
        out.extend_from_slice(&min.to_le_bytes());
        for &x in v {
            out.extend_from_slice(&((x - min) as u16).to_le_bytes());
        }
    } else {
        out.push(TAG_RAW);
        for &x in v {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

pub(crate) fn encode_float(v: &[f64], out: &mut Vec<u8>) {
    // Constant detection compares bit patterns, not values, so a page of
    // identical NaNs (or of -0.0) still roundtrips bit-exactly.
    if let Some(&first) = v.first() {
        if v.iter().all(|x| x.to_bits() == first.to_bits()) {
            out.push(TAG_CONST);
            out.extend_from_slice(&first.to_le_bytes());
            return;
        }
    }
    out.push(TAG_RAW);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Decode an int page of `rows` rows onto the end of `out`.
pub fn decode_int(bytes: &[u8], rows: usize, out: &mut Vec<i64>) -> Result<(), DiskError> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        TAG_CONST => {
            let v = r.i64()?;
            out.resize(out.len() + rows, v);
        }
        TAG_FOR_U8 => {
            let base = r.i64()? as i128;
            out.extend(r.take(rows)?.iter().map(|&d| (base + d as i128) as i64));
        }
        TAG_FOR_U16 => {
            let base = r.i64()? as i128;
            out.extend(
                r.take(rows * 2)?
                    .chunks_exact(2)
                    .map(|c| (base + u16::from_le_bytes(c.try_into().unwrap()) as i128) as i64),
            );
        }
        TAG_FOR_U32 => {
            let base = r.i64()? as i128;
            out.extend(
                r.take(rows * 4)?
                    .chunks_exact(4)
                    .map(|c| (base + u32::from_le_bytes(c.try_into().unwrap()) as i128) as i64),
            );
        }
        TAG_RAW => out.extend(
            r.take(rows * 8)?
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap())),
        ),
        t => return Err(corrupt(&format!("unknown int tag {t}"))),
    }
    r.finish()?;
    Ok(())
}

/// Decode a dictionary-code page of `rows` rows onto the end of `out`.
pub fn decode_codes(bytes: &[u8], rows: usize, out: &mut Vec<u32>) -> Result<(), DiskError> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        TAG_CONST => {
            let v = r.u32()?;
            out.resize(out.len() + rows, v);
        }
        TAG_FOR_U8 => {
            let base = r.u32()?;
            out.extend(r.take(rows)?.iter().map(|&d| base + d as u32));
        }
        TAG_FOR_U16 => {
            let base = r.u32()?;
            out.extend(
                r.take(rows * 2)?
                    .chunks_exact(2)
                    .map(|c| base + u16::from_le_bytes(c.try_into().unwrap()) as u32),
            );
        }
        TAG_RAW => out.extend(
            r.take(rows * 4)?
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
        ),
        t => return Err(corrupt(&format!("unknown code tag {t}"))),
    }
    r.finish()?;
    Ok(())
}

/// Decode a float page of `rows` rows onto the end of `out`.
pub fn decode_float(bytes: &[u8], rows: usize, out: &mut Vec<f64>) -> Result<(), DiskError> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        TAG_CONST => {
            let v = r.f64()?;
            out.resize(out.len() + rows, v);
        }
        TAG_RAW => out.extend(
            r.take(rows * 8)?
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
        ),
        t => return Err(corrupt(&format!("unknown float tag {t}"))),
    }
    r.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page decoder: `decode_int`, `decode_float` or `decode_codes`.
    type Decode<T> = fn(&[u8], usize, &mut Vec<T>) -> Result<(), DiskError>;

    /// Decode one page into a new vector.
    fn decoded<T>(decode: Decode<T>, bytes: &[u8], rows: usize) -> Result<Vec<T>, DiskError> {
        let mut out = Vec::new();
        decode(bytes, rows, &mut out).map(|()| out)
    }

    fn roundtrip_int(v: Vec<i64>) {
        let mut buf = Vec::new();
        encode_page(&PageData::Int(v.clone()), &mut buf);
        assert_eq!(decoded(decode_int, &buf, v.len()).unwrap(), v);
    }

    #[test]
    fn int_roundtrips_across_widths() {
        roundtrip_int(vec![]);
        roundtrip_int(vec![7; 100]); // const
        roundtrip_int((0..200).collect()); // u8 deltas
        roundtrip_int((0..200).map(|i| i * 300).collect()); // u16
        roundtrip_int((0..200).map(|i| i * 1_000_000).collect()); // u32
        roundtrip_int(vec![i64::MIN, i64::MAX, 0, -1, 1]); // raw, extreme range
        roundtrip_int(vec![i64::MIN, i64::MIN + 255]); // u8 at the bottom edge
    }

    #[test]
    fn codes_roundtrip() {
        for v in [
            vec![],
            vec![3; 50],
            (0..100u32).collect(),
            vec![0, u32::MAX],
            (0..100u32).map(|i| i * 700).collect(),
        ] {
            let mut buf = Vec::new();
            encode_page(&PageData::Codes(v.clone()), &mut buf);
            assert_eq!(decoded(decode_codes, &buf, v.len()).unwrap(), v);
        }
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        let v = vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
        let mut buf = Vec::new();
        encode_page(&PageData::Float(v.clone()), &mut buf);
        let back = decoded(decode_float, &buf, v.len()).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&v));
        // Constant NaN page stays bit-exact through the const encoding.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut buf = Vec::new();
        encode_page(&PageData::Float(vec![nan; 8]), &mut buf);
        assert_eq!(buf[0], TAG_CONST);
        let back = decoded(decode_float, &buf, 8).unwrap();
        assert!(back.iter().all(|x| x.to_bits() == nan.to_bits()));
    }

    #[test]
    fn compression_actually_compresses() {
        let mut buf = Vec::new();
        encode_page(&PageData::Int((1000..2000).collect()), &mut buf);
        // 1000 rows of u16 deltas + tag + base ≪ 8000 raw bytes.
        assert!(buf.len() < 2100, "got {}", buf.len());
    }

    #[test]
    fn corrupt_payloads_are_errors_not_panics() {
        assert!(decoded(decode_int, &[], 4).is_err());
        assert!(decoded(decode_int, &[9], 4).is_err()); // unknown tag
        assert!(decoded(decode_int, &[TAG_RAW, 1, 2], 4).is_err()); // truncated
        let mut buf = Vec::new();
        encode_page(&PageData::Int(vec![1, 2, 3]), &mut buf);
        buf.push(0xFF); // trailing garbage
        assert!(decoded(decode_int, &buf, 3).is_err());
    }
}
