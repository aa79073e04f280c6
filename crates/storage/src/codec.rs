//! The one little-endian byte codec under every binary format (wire
//! frames, segment footers and pages, the sidecar envelope, the learned
//! priors). Two rules live here and nowhere else:
//!
//! * **a read never panics or over-allocates** — every read is
//!   bounds-checked with overflow-checked offsets, and a length prefix is
//!   compared with the caller's cap *before* anything is allocated for it;
//! * **the writer never emits what the reader refuses** — a length or count
//!   over its cap is a sticky oversize error that [`Writer::finish`]
//!   returns, never an `as`-truncated prefix that disagrees with the bytes
//!   behind it.
//!
//! Each format keeps its own error type through one `From<CodecError>`.

use std::fmt;

/// Why a read or write through the codec failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A read ran past the end of the input.
    Truncated,
    /// A length prefix read from the input exceeds the caller's cap.
    OverCap { len: usize, max: usize },
    /// String bytes are not UTF-8.
    NotUtf8,
    /// Bytes left over after a complete message.
    Trailing(usize),
    /// Write side: a length or count exceeds the cap its reader enforces.
    Oversize(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::OverCap { len, max } => write!(f, "length {len} exceeds cap {max}"),
            CodecError::NotUtf8 => write!(f, "string is not UTF-8"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
            CodecError::Oversize(msg) => write!(f, "{msg}"),
        }
    }
}

impl From<CodecError> for String {
    fn from(e: CodecError) -> String {
        e.to_string()
    }
}

/// Bounds-checked cursor over an untrusted byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
    /// Length of the whole input.
    len: usize,
}

/// Little-endian output buffer with checked lengths. The first length or
/// count over its cap sticks, and [`Writer::finish`] returns it in place
/// of the bytes.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    oversize: Option<String>,
}

/// `Reader::$t` and `Writer::$t` for each fixed-width primitive (`f64` as
/// its IEEE bit pattern, so NaN payloads survive).
macro_rules! fixed_width {
    ($($t:ident),*) => {
        impl Reader<'_> {$(
            #[inline]
            pub fn $t(&mut self) -> Result<$t, CodecError> {
                Ok($t::from_le_bytes(self.array()?))
            }
        )*}
        impl Writer {$(
            #[inline]
            pub fn $t(&mut self, x: $t) {
                self.buf.extend_from_slice(&x.to_le_bytes());
            }
        )*}
    };
}

fixed_width!(u8, u16, u32, u64, i64, f64);

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            rest: buf,
            len: buf.len(),
        }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.len - self.rest.len()
    }

    /// The next `n` bytes, or [`CodecError::Truncated`] (consuming nothing)
    /// if fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (s, rest) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(s)
    }

    /// The next `N` bytes as an array, with one bounds check.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (a, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.rest = rest;
        Ok(*a)
    }

    /// A `u32`-length-prefixed UTF-8 string of at most `max` bytes.
    #[inline]
    pub fn str(&mut self, max: usize) -> Result<String, CodecError> {
        self.str_ref(max).map(str::to_owned)
    }

    /// [`Reader::str`] borrowed from the input, for a caller that stores
    /// the text in a container of its own choosing.
    #[inline]
    pub fn str_ref(&mut self, max: usize) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        self.utf8(len, max)
    }

    /// A `u16`-length-prefixed UTF-8 string of at most `max` bytes.
    #[inline]
    pub fn str16(&mut self, max: usize) -> Result<String, CodecError> {
        let len = self.u16()? as usize;
        self.utf8(len, max).map(str::to_owned)
    }

    #[inline]
    fn utf8(&mut self, len: usize, max: usize) -> Result<&'a str, CodecError> {
        if len > max {
            return Err(CodecError::OverCap { len, max });
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::NotUtf8)
    }

    /// Everything not yet consumed.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// Succeeds only if every byte was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

impl Writer {
    /// A writer that appends to `buf`, after the bytes it already holds.
    /// [`Writer::into_parts`] hands the buffer back.
    #[inline]
    pub fn appending(buf: Vec<u8>) -> Writer {
        Writer {
            buf,
            oversize: None,
        }
    }

    /// Make room for `additional` more bytes at once.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Record oversize unless `n <= max`; returns whether `n` fits. For
    /// fields whose width the caller writes itself.
    #[inline]
    pub fn check(&mut self, n: usize, max: usize, what: &str) -> bool {
        if n > max {
            self.oversize
                .get_or_insert_with(|| format!("{what} of {n} exceeds cap {max}"));
        }
        n <= max
    }

    /// An element count of at most `max` (and `u32::MAX`), as `u32`. An
    /// over-cap count is written truncated, but `finish` then returns the
    /// error instead of the bytes.
    #[inline]
    pub fn count(&mut self, n: usize, max: usize, what: &str) {
        self.check(n, max.min(u32::MAX as usize), what);
        self.u32(n as u32);
    }

    /// A `u32`-length-prefixed string of at most `max` bytes.
    #[inline]
    pub fn str(&mut self, s: &str, max: usize) {
        if self.check(s.len(), max.min(u32::MAX as usize), "string length") {
            self.u32(s.len() as u32);
            self.bytes(s.as_bytes());
        }
    }

    /// A `u16`-length-prefixed string of at most `max` bytes.
    #[inline]
    pub fn str16(&mut self, s: &str, max: usize) {
        if self.check(s.len(), max.min(u16::MAX as usize), "string length") {
            self.u16(s.len() as u16);
            self.bytes(s.as_bytes());
        }
    }

    /// The bytes written, or the first oversize error.
    #[inline]
    pub fn finish(self) -> Result<Vec<u8>, CodecError> {
        match self.into_parts() {
            (buf, Ok(())) => Ok(buf),
            (_, Err(e)) => Err(e),
        }
    }

    /// The buffer, whether or not a length went over its cap, and the
    /// first oversize error: for a caller that must keep its buffer either
    /// way (it then drops the bytes this writer added).
    #[inline]
    pub fn into_parts(self) -> (Vec<u8>, Result<(), CodecError>) {
        let checked = match self.oversize {
            None => Ok(()),
            Some(msg) => Err(CodecError::Oversize(msg)),
        };
        (self.buf, checked)
    }
}
