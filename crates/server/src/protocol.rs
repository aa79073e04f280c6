//! The native wire protocol: length-prefixed frames over TCP.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload, whose first byte is the message tag. Integers
//! are little-endian; strings are a `u32` byte length plus UTF-8 bytes;
//! values are a one-byte type tag (1 = int, 2 = float, 3 = string)
//! followed by the scalar. The primitives read and write through
//! `skinner_storage::codec`; the value tagging lives here. Frames are
//! capped at [`MAX_FRAME`] bytes — a peer announcing a larger frame is a
//! protocol error, never an allocation (payloads are read incrementally in
//! bounded chunks, so a hostile length prefix cannot force a large
//! up-front allocation either).
//!
//! The protocol pipelines statements: a client may wrap requests in
//! [`Request::Tagged`] and keep several in flight on one connection; each
//! response frame comes back wrapped in [`Response::Tagged`] carrying the
//! request's tag. Frames of different tags may interleave, but the frames
//! of one tag keep their order (header → batches → done). The server
//! speaks exactly [`PROTOCOL_VERSION`] and refuses a `Hello` naming any
//! other version.
//!
//! See the crate-level docs for the full message flow; the short version:
//!
//! ```text
//! client                          server
//!   Hello{version}          →
//!                           ←      HelloOk{version, conn_id, cancel_key,
//!                                          max_inflight}
//!   Tagged{7, Query{sql}}   →      (or a plain, untagged Query{sql})
//!   Tagged{8, Query{sql}}   →      (second in-flight statement)
//!                           ←      Tagged{7, RowHeader{columns}}
//!                           ←      Tagged{8, RowHeader{columns}}   (interleaved)
//!                           ←      Tagged{7, RowBatch{rows}}   (0..n frames)
//!                           ←      Tagged{7, Done{summary}}    (or Error{code,msg})
//!                           ←      Tagged{8, Done{summary}}
//!   Cancel{conn_id, key}    →      (first frame of a *separate* connection)
//!                           ←      Ok
//! ```

use std::io::{BufReader, Read, Write};
use std::sync::Arc;

use skinnerdb::skinner_storage::codec::{CodecError, Reader, Writer};
use skinnerdb::Value;

/// The one protocol version spoken by this crate (tagged pipelining,
/// per-connection in-flight caps).
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on a single frame's payload (16 MiB). Row batches are sized
/// well under this by the server.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Cap on one string, and on one element count: nothing longer fits a
/// frame, since every element takes at least one byte.
const MAX_STR: usize = MAX_FRAME as usize;

/// Payloads are read (and grown) in chunks of at most this many bytes, so
/// a hostile length prefix never forces a MAX_FRAME-sized allocation
/// before any payload bytes arrive.
pub const READ_CHUNK: usize = 64 * 1024;

/// Rows per `RowBatch` frame the server emits.
pub const ROWS_PER_BATCH: usize = 256;

/// Encoded row bytes per `RowBatch` frame the server emits, so that wide
/// string values cannot push a frame past [`MAX_FRAME`]. A single row over
/// it still goes out, in a frame of its own.
pub const BATCH_BYTES: usize = MAX_FRAME as usize / 8;

/// Default cap on concurrently in-flight pipelined statements per
/// connection (the server advertises its actual cap in `HelloOk`).
pub const DEFAULT_MAX_INFLIGHT: u32 = 32;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Must be the first message on a connection (except [`Request::Cancel`]).
    Hello { version: u32 },
    /// Pipelining envelope: the inner request, stamped with a
    /// client-chosen tag echoed on every response frame it produces.
    /// Nesting (a Tagged inside a Tagged) is malformed.
    Tagged { tag: u32, req: Box<Request> },
    /// Run a SQL script; also carries `SET`/`SHOW` commands.
    Query { sql: String },
    /// Parse + bind a SELECT once; returns a statement id.
    Prepare { sql: String },
    /// Execute a previously prepared statement.
    Execute { id: u32 },
    /// Drop a prepared statement.
    Close { id: u32 },
    /// Set a session option without going through SQL text.
    Set { key: String, value: String },
    /// Out-of-band cancel: sent as the *only* message of a fresh
    /// connection, aborts the query running on connection `conn_id` if
    /// `key` matches the secret from that connection's handshake.
    Cancel { conn_id: u64, key: u64 },
    /// Ask the server to shut down gracefully (drain, join, exit).
    Shutdown,
    /// Fetch the span profile of a recently completed statement on this
    /// connection (EXPLAIN ANALYZE over the wire). `key` is the pipeline
    /// tag the statement ran under (as `u64`); `u64::MAX` means the most
    /// recently completed statement regardless of tag.
    Profile { key: u64 },
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    HelloOk {
        version: u32,
        conn_id: u64,
        cancel_key: u64,
        /// Pipelined statements the server allows in flight at once on
        /// this connection.
        max_inflight: u32,
    },
    /// Pipelining envelope mirroring [`Request::Tagged`].
    Tagged {
        tag: u32,
        resp: Box<Response>,
    },
    /// Generic acknowledgement (SET, Cancel, Shutdown).
    Ok,
    PrepareOk {
        id: u32,
        columns: Vec<String>,
    },
    RowHeader {
        columns: Vec<String>,
    },
    RowBatch {
        rows: Vec<Vec<Value>>,
    },
    /// Terminates a successful query; carries per-statement detail.
    Done {
        summary: QuerySummary,
    },
    /// A query answered in text mode (`SET output = text`): one rendered
    /// table instead of header/batches, still terminated by `Done`.
    Text {
        text: String,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
    /// Answer to [`Request::Profile`]: the statement's recorded span
    /// timeline (stage, start, duration, detail) plus totals.
    Profile(QueryProfile),
}

/// Wire-level error classes, so clients can react without string matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Parse/bind/option errors — the SQL itself is at fault.
    Sql = 1,
    /// Work limit or deadline exceeded.
    Timeout = 2,
    /// Cancelled via the out-of-band cancel message.
    Cancelled = 3,
    /// Load shed: admission queue full or admission wait timed out.
    Overloaded = 4,
    /// Malformed frame / message out of order.
    Protocol = 5,
    /// Server is shutting down.
    ShuttingDown = 6,
    /// Connection limit reached.
    TooManyConnections = 7,
    /// Unknown prepared-statement id.
    UnknownStatement = 8,
    /// A value or count in the result exceeds what one frame can carry.
    TooLarge = 9,
}

impl ErrorCode {
    fn from_u16(x: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        Some(match x {
            1 => Sql,
            2 => Timeout,
            3 => Cancelled,
            4 => Overloaded,
            5 => Protocol,
            6 => ShuttingDown,
            7 => TooManyConnections,
            8 => UnknownStatement,
            9 => TooLarge,
            _ => return None,
        })
    }
}

/// Per-query execution summary, with one entry per script statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySummary {
    pub work_units: u64,
    pub wall_micros: u64,
    pub statements: Vec<StatementSummary>,
}

/// One script statement's own numbers (the satellite fix in the library:
/// scripts report per-statement metrics, and the server forwards them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatementSummary {
    pub rows: u64,
    pub work_units: u64,
    pub wall_micros: u64,
    /// Learning-engine episodes (time slices) the statement ran.
    pub slices: u64,
    /// Join order the statement executed/converged to (table positions).
    pub order: Vec<u32>,
}

/// A completed statement's span timeline, as captured by the always-on
/// per-query trace and returned by [`Request::Profile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// Nanoseconds from the statement entering the server (dispatch) to
    /// its response frames being encoded.
    pub total_ns: u64,
    /// Spans the fixed-size trace ring overwrote (0 unless the episode
    /// loop switched join orders more times than the ring holds).
    pub dropped: u64,
    pub spans: Vec<ProfileSpan>,
}

/// One stage of a profiled statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Stage name: `admission_wait`, `parse_bind`, `preprocess`,
    /// `episodes`, `postprocess`, `encode_flush`.
    pub stage: String,
    /// Qualifier (the join order an episode run used); often empty.
    pub label: String,
    /// Nanoseconds from the trace epoch to the stage start.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
    /// Stage-defined detail (slices run, pages skipped, rows, ...).
    pub detail: u64,
}

impl QueryProfile {
    /// Total nanoseconds spent in `stage` across all its spans.
    pub fn stage_ns(&self, stage: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The distinct stage names present, in first-appearance order.
    pub fn stages(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.stage.as_str()) {
                out.push(&s.stage);
            }
        }
        out
    }
}

/// Errors arising while reading, decoding or encoding a frame.
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    /// Read side: a malformed payload, an unknown tag, or a peer
    /// announcing a frame over [`MAX_FRAME`].
    Malformed(String),
    /// Encode side: a length exceeds its `u32` bound, or a whole payload
    /// exceeds [`MAX_FRAME`] — the frame is refused before a silently
    /// truncated length corrupts the stream.
    Oversize(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Oversize(m) => write!(f, "unencodable frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Oversize(msg) => WireError::Oversize(msg),
            e => WireError::Malformed(e.to_string()),
        }
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

// ---- values -------------------------------------------------------------

/// A number's type tag and its 8 bytes, as one write.
#[inline]
fn tagged_number(tag: u8, x: [u8; 8]) -> [u8; 9] {
    let mut b = [tag; 9];
    b[1..].copy_from_slice(&x);
    b
}

#[inline]
fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Int(i) => w.bytes(&tagged_number(1, i.to_le_bytes())),
        Value::Float(x) => w.bytes(&tagged_number(2, x.to_le_bytes())),
        Value::Str(s) => {
            w.u8(3);
            w.str(s, MAX_STR);
        }
    }
}

/// Bytes `row` takes in a `RowBatch` payload: its value count, then per
/// value a tag and an 8-byte number or a length-prefixed string.
#[inline]
fn row_wire_len(row: &[Value]) -> usize {
    4 + row
        .iter()
        .map(|v| match v {
            Value::Str(s) => 5 + s.len(),
            _ => 9,
        })
        .sum::<usize>()
}

/// A `RowBatch` payload's body: the row count, then each row.
fn put_rows(w: &mut Writer, rows: &[Vec<Value>]) {
    w.count(rows.len(), MAX_STR, "row");
    for row in rows {
        w.count(row.len(), MAX_STR, "value");
        for v in row {
            put_value(w, v);
        }
    }
}

fn get_value(r: &mut Reader) -> Result<Value, WireError> {
    match r.u8()? {
        1 => Ok(Value::Int(r.i64()?)),
        2 => Ok(Value::Float(r.f64()?)),
        3 => Ok(Value::Str(Arc::from(r.str_ref(MAX_STR)?))),
        t => Err(malformed(format!("unknown value tag {t}"))),
    }
}

/// A `RowBatch` payload's body, each value pushed straight into its row.
fn get_rows(r: &mut Reader) -> Result<Vec<Vec<Value>>, WireError> {
    let n = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(ROWS_PER_BATCH * 4));
    for _ in 0..n {
        let w = r.u32()? as usize;
        let mut row = Vec::with_capacity(w.min(4096));
        for _ in 0..w {
            // A number is its tag and 8 bytes: take all 9 with one bounds
            // check, on a copy of the cursor kept only for a number's tag.
            let mut ahead = r.clone();
            match ahead.array::<9>() {
                Ok([1, x @ ..]) => {
                    *r = ahead;
                    row.push(Value::Int(i64::from_le_bytes(x)));
                }
                Ok([2, x @ ..]) => {
                    *r = ahead;
                    row.push(Value::Float(f64::from_le_bytes(x)));
                }
                _ => row.push(get_value(r)?),
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

fn put_columns(w: &mut Writer, columns: &[String]) {
    w.count(columns.len(), MAX_STR, "column");
    for c in columns {
        w.str(c, MAX_STR);
    }
}

fn get_columns(r: &mut Reader) -> Result<Vec<String>, WireError> {
    Ok((0..r.u32()?)
        .map(|_| r.str(MAX_STR))
        .collect::<Result<_, _>>()?)
}

// ---- framing ------------------------------------------------------------

/// Append one frame to `out` in place: a length prefix, then the
/// `Tagged` envelope's header when `tag` is set, then the payload `body`
/// writes, after which the prefix is patched. The frame cap is enforced
/// on the write side too (not just on read): an oversized frame fails
/// loudly here, before half a frame desyncs the peer. On error `out` is
/// left as it was.
fn frame_into(
    out: &mut Vec<u8>,
    tag: Option<u32>,
    body: impl FnOnce(&mut Writer) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let start = out.len();
    let mut w = Writer::appending(std::mem::take(out));
    w.u32(0);
    if let Some(tag) = tag {
        w.u8(0x90);
        w.u32(tag);
    }
    let written = body(&mut w);
    let (buf, checked) = w.into_parts();
    *out = buf;
    let framed = written
        .and(checked.map_err(WireError::from))
        .and_then(|()| length_prefix(out.len() - start - 4));
    match framed {
        Ok(prefix) => {
            out[start..start + 4].copy_from_slice(&prefix);
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// The length prefix of a `len`-byte payload, refused past [`MAX_FRAME`].
fn length_prefix(len: usize) -> Result<[u8; 4], WireError> {
    if len > MAX_FRAME as usize {
        return Err(WireError::Oversize(format!(
            "{len}-byte frame exceeds MAX_FRAME ({MAX_FRAME})"
        )));
    }
    Ok((len as u32).to_le_bytes())
}

fn write_frame(
    w: &mut impl Write,
    body: impl FnOnce(&mut Writer) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mut frame = Vec::new();
    frame_into(&mut frame, None, body)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload into `buf`, reusing its memory. The buffer
/// grows at most READ_CHUNK ahead of the bytes actually received: the
/// length prefix is attacker-controlled, and a swarm of connections
/// announcing MAX_FRAME with no payload must not pin MAX_FRAME-sized
/// allocations each.
fn read_frame<'b>(r: &mut impl Read, buf: &'b mut Vec<u8>) -> Result<&'b [u8], WireError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(malformed(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let len = len as usize;
    let mut filled = 0;
    while filled < len {
        let end = len.min(filled + READ_CHUNK);
        if buf.len() < end {
            buf.resize(end, 0);
        }
        r.read_exact(&mut buf[filled..end])?;
        filled = end;
    }
    Ok(&buf[..len])
}

/// Blocking reader of whole response frames, the client's side of a
/// connection. The stream is read through a buffer, so a frame costs no
/// more than one `read` call per buffer's worth of bytes, and every frame's
/// payload lands in the same reused buffer (which grows only as
/// [`READ_CHUNK`]-bounded reads deliver bytes).
pub struct FrameReader<R> {
    stream: BufReader<R>,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    pub fn new(stream: R) -> FrameReader<R> {
        FrameReader {
            stream: BufReader::with_capacity(READ_CHUNK, stream),
            payload: Vec::new(),
        }
    }

    /// Read and decode the next response frame.
    pub fn read_response(&mut self) -> Result<Response, WireError> {
        Response::decode(read_frame(&mut self.stream, &mut self.payload)?)
    }
}

/// Append `rows` to `out` as `RowBatch` frames, each wrapped in a
/// `Tagged` envelope when `tag` is set, encoded straight from the slice.
/// A frame holds at most [`ROWS_PER_BATCH`] rows and [`BATCH_BYTES`]
/// encoded row bytes (a lone row over the byte bound goes alone). The
/// bytes equal encoding each batch as a [`Response::RowBatch`] with
/// [`Response::encode_framed`]. On error the frames before the failing
/// one stay in `out`.
pub fn encode_row_batches(
    out: &mut Vec<u8>,
    tag: Option<u32>,
    rows: &[Vec<Value>],
) -> Result<(), WireError> {
    // Every batch is sized first, so that `out` grows once.
    let mut batches = Vec::new();
    let (mut lo, mut bytes) = (0, 0);
    for (i, row) in rows.iter().enumerate() {
        let row = row_wire_len(row);
        if i > lo && (i - lo >= ROWS_PER_BATCH || bytes + row > BATCH_BYTES) {
            batches.push((lo..i, bytes));
            (lo, bytes) = (i, 0);
        }
        bytes += row;
    }
    if lo < rows.len() {
        batches.push((lo..rows.len(), bytes));
    }
    // Per frame: length prefix, envelope header, message tag, row count.
    out.reserve(batches.iter().map(|(_, bytes)| 4 + 5 + 1 + 4 + bytes).sum());
    for (batch, _) in batches {
        frame_into(out, tag, |w| {
            w.u8(0x85);
            put_rows(w, &rows[batch]);
            Ok(())
        })?;
    }
    Ok(())
}

/// Accumulates raw socket bytes and yields complete frame payloads — the
/// incremental-decode half of the event loop's nonblocking reads. Bytes
/// arrive in arbitrary segments via [`FrameBuffer::ingest`];
/// [`FrameBuffer::try_frame`] pops one payload when its frame is whole.
/// The MAX_FRAME check happens as soon as the 4-byte header is visible,
/// before any payload accumulates.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append freshly read socket bytes.
    pub fn ingest(&mut self, data: &[u8]) {
        // Reclaim consumed prefix before growing (amortized O(1)).
        if self.start > 0 && (self.start >= READ_CHUNK || self.start == self.buf.len()) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame payload, `Ok(None)` if more bytes are
    /// needed, or an error for an oversized header (connection-fatal).
    pub fn try_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME {
            return Err(malformed(format!("frame of {len} bytes exceeds MAX_FRAME")));
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.start += 4 + len;
        Ok(Some(payload))
    }
}

// ---- message codecs -----------------------------------------------------

impl Request {
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut e = Writer::default();
        self.put(&mut e)?;
        Ok(e.finish()?)
    }

    fn put(&self, e: &mut Writer) -> Result<(), WireError> {
        match self {
            Request::Hello { version } => {
                e.u8(0x01);
                e.u32(*version);
            }
            Request::Tagged { tag, req } => {
                if matches!(**req, Request::Tagged { .. }) {
                    return Err(WireError::Oversize(
                        "refusing to nest Tagged inside Tagged".into(),
                    ));
                }
                e.u8(0x10);
                e.u32(*tag);
                req.put(e)?;
            }
            Request::Query { sql } => {
                e.u8(0x02);
                e.str(sql, MAX_STR);
            }
            Request::Prepare { sql } => {
                e.u8(0x03);
                e.str(sql, MAX_STR);
            }
            Request::Execute { id } => {
                e.u8(0x04);
                e.u32(*id);
            }
            Request::Close { id } => {
                e.u8(0x05);
                e.u32(*id);
            }
            Request::Set { key, value } => {
                e.u8(0x06);
                e.str(key, MAX_STR);
                e.str(value, MAX_STR);
            }
            Request::Cancel { conn_id, key } => {
                e.u8(0x07);
                e.u64(*conn_id);
                e.u64(*key);
            }
            Request::Shutdown => e.u8(0x08),
            Request::Profile { key } => {
                e.u8(0x09);
                e.u64(*key);
            }
        }
        Ok(())
    }

    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut d = Reader::new(payload);
        let req = match d.u8()? {
            0x01 => Request::Hello { version: d.u32()? },
            0x10 => {
                let tag = d.u32()?;
                let inner = Request::decode(d.rest())?;
                if matches!(inner, Request::Tagged { .. }) {
                    return Err(malformed("nested Tagged request"));
                }
                Request::Tagged {
                    tag,
                    req: Box::new(inner),
                }
            }
            0x02 => Request::Query {
                sql: d.str(MAX_STR)?,
            },
            0x03 => Request::Prepare {
                sql: d.str(MAX_STR)?,
            },
            0x04 => Request::Execute { id: d.u32()? },
            0x05 => Request::Close { id: d.u32()? },
            0x06 => Request::Set {
                key: d.str(MAX_STR)?,
                value: d.str(MAX_STR)?,
            },
            0x07 => Request::Cancel {
                conn_id: d.u64()?,
                key: d.u64()?,
            },
            0x08 => Request::Shutdown,
            0x09 => Request::Profile { key: d.u64()? },
            t => return Err(malformed(format!("unknown request tag {t:#x}"))),
        };
        d.finish()?;
        Ok(req)
    }

    /// Write this request as one frame.
    pub fn write(&self, w: &mut impl Write) -> Result<(), WireError> {
        write_frame(w, |e| self.put(e))
    }

    /// Read one request frame.
    pub fn read(r: &mut impl Read) -> Result<Request, WireError> {
        Request::decode(read_frame(r, &mut Vec::new())?)
    }
}

impl Response {
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut e = Writer::default();
        self.put(&mut e)?;
        Ok(e.finish()?)
    }

    fn put(&self, e: &mut Writer) -> Result<(), WireError> {
        match self {
            Response::HelloOk {
                version,
                conn_id,
                cancel_key,
                max_inflight,
            } => {
                e.u8(0x81);
                e.u32(*version);
                e.u64(*conn_id);
                e.u64(*cancel_key);
                e.u32(*max_inflight);
            }
            Response::Tagged { tag, resp } => {
                if matches!(**resp, Response::Tagged { .. }) {
                    return Err(WireError::Oversize(
                        "refusing to nest Tagged inside Tagged".into(),
                    ));
                }
                e.u8(0x90);
                e.u32(*tag);
                resp.put(e)?;
            }
            Response::Ok => e.u8(0x82),
            Response::PrepareOk { id, columns } => {
                e.u8(0x83);
                e.u32(*id);
                put_columns(e, columns);
            }
            Response::RowHeader { columns } => {
                e.u8(0x84);
                put_columns(e, columns);
            }
            Response::RowBatch { rows } => {
                e.reserve(5 + rows.iter().map(|r| row_wire_len(r)).sum::<usize>());
                e.u8(0x85);
                put_rows(e, rows);
            }
            Response::Done { summary } => {
                e.u8(0x86);
                e.u64(summary.work_units);
                e.u64(summary.wall_micros);
                e.count(summary.statements.len(), MAX_STR, "statement");
                for s in &summary.statements {
                    e.u64(s.rows);
                    e.u64(s.work_units);
                    e.u64(s.wall_micros);
                    e.u64(s.slices);
                    e.count(s.order.len(), MAX_STR, "join-order entry");
                    for &t in &s.order {
                        e.u32(t);
                    }
                }
            }
            Response::Text { text } => {
                e.u8(0x87);
                e.str(text, MAX_STR);
            }
            Response::Error { code, message } => {
                e.u8(0x88);
                e.u16(*code as u16);
                e.str(message, MAX_STR);
            }
            Response::Profile(profile) => {
                e.u8(0x89);
                e.u64(profile.total_ns);
                e.u64(profile.dropped);
                e.count(profile.spans.len(), MAX_STR, "span");
                for s in &profile.spans {
                    e.str(&s.stage, MAX_STR);
                    e.str(&s.label, MAX_STR);
                    e.u64(s.start_ns);
                    e.u64(s.dur_ns);
                    e.u64(s.detail);
                }
            }
        }
        Ok(())
    }

    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut d = Reader::new(payload);
        let resp = match d.u8()? {
            0x81 => Response::HelloOk {
                version: d.u32()?,
                conn_id: d.u64()?,
                cancel_key: d.u64()?,
                max_inflight: d.u32()?,
            },
            0x90 => {
                let tag = d.u32()?;
                let inner = Response::decode(d.rest())?;
                if matches!(inner, Response::Tagged { .. }) {
                    return Err(malformed("nested Tagged response"));
                }
                Response::Tagged {
                    tag,
                    resp: Box::new(inner),
                }
            }
            0x82 => Response::Ok,
            0x83 => Response::PrepareOk {
                id: d.u32()?,
                columns: get_columns(&mut d)?,
            },
            0x84 => Response::RowHeader {
                columns: get_columns(&mut d)?,
            },
            0x85 => Response::RowBatch {
                rows: get_rows(&mut d)?,
            },
            0x86 => {
                let work_units = d.u64()?;
                let wall_micros = d.u64()?;
                let n = d.u32()? as usize;
                let mut statements = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    statements.push(StatementSummary {
                        rows: d.u64()?,
                        work_units: d.u64()?,
                        wall_micros: d.u64()?,
                        slices: d.u64()?,
                        order: (0..d.u32()?).map(|_| d.u32()).collect::<Result<_, _>>()?,
                    });
                }
                Response::Done {
                    summary: QuerySummary {
                        work_units,
                        wall_micros,
                        statements,
                    },
                }
            }
            0x87 => Response::Text {
                text: d.str(MAX_STR)?,
            },
            0x88 => {
                let code = d.u16()?;
                let message = d.str(MAX_STR)?;
                Response::Error {
                    code: ErrorCode::from_u16(code)
                        .ok_or_else(|| malformed(format!("unknown error code {code}")))?,
                    message,
                }
            }
            0x89 => {
                let total_ns = d.u64()?;
                let dropped = d.u64()?;
                let n = d.u32()? as usize;
                let mut spans = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    spans.push(ProfileSpan {
                        stage: d.str(MAX_STR)?,
                        label: d.str(MAX_STR)?,
                        start_ns: d.u64()?,
                        dur_ns: d.u64()?,
                        detail: d.u64()?,
                    });
                }
                Response::Profile(QueryProfile {
                    total_ns,
                    dropped,
                    spans,
                })
            }
            t => return Err(malformed(format!("unknown response tag {t:#x}"))),
        };
        d.finish()?;
        Ok(resp)
    }

    /// Write this response as one frame.
    pub fn write(&self, w: &mut impl Write) -> Result<(), WireError> {
        write_frame(w, |e| self.put(e))
    }

    /// Encode as a complete frame (length prefix + payload) into `out` —
    /// the event loop's outbox format. On error `out` is left as it was.
    pub fn encode_framed(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        frame_into(out, None, |e| self.put(e))
    }

    /// Read one response frame.
    pub fn read(r: &mut impl Read) -> Result<Response, WireError> {
        Response::decode(read_frame(r, &mut Vec::new())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        req.write(&mut buf).unwrap();
        let got = Request::read(&mut buf.as_slice()).unwrap();
        assert_eq!(got, req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = Vec::new();
        resp.write(&mut buf).unwrap();
        let got = Response::read(&mut buf.as_slice()).unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_req(Request::Tagged {
            tag: 0xfeed_beef,
            req: Box::new(Request::Query {
                sql: "SELECT t.x FROM t".into(),
            }),
        });
        roundtrip_req(Request::Query {
            sql: "SELECT t.x FROM t".into(),
        });
        roundtrip_req(Request::Prepare { sql: "".into() });
        roundtrip_req(Request::Execute { id: 7 });
        roundtrip_req(Request::Close { id: 7 });
        roundtrip_req(Request::Set {
            key: "strategy".into(),
            value: "parallel_skinner".into(),
        });
        roundtrip_req(Request::Cancel {
            conn_id: u64::MAX,
            key: 12345,
        });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Profile { key: 17 });
        roundtrip_req(Request::Profile { key: u64::MAX });
    }

    #[test]
    fn profiles_roundtrip() {
        roundtrip_resp(Response::Profile(QueryProfile::default()));
        let profile = QueryProfile {
            total_ns: 123_456_789,
            dropped: 2,
            spans: vec![
                ProfileSpan {
                    stage: "admission_wait".into(),
                    label: String::new(),
                    start_ns: 0,
                    dur_ns: 1_200,
                    detail: 0,
                },
                ProfileSpan {
                    stage: "episodes".into(),
                    label: "order=[2,0,1]".into(),
                    start_ns: 9_999,
                    dur_ns: 88_000_000,
                    detail: 412,
                },
            ],
        };
        assert_eq!(profile.stage_ns("episodes"), 88_000_000);
        assert_eq!(profile.stages(), vec!["admission_wait", "episodes"]);
        roundtrip_resp(Response::Profile(profile));
        roundtrip_resp(Response::Tagged {
            tag: 5,
            resp: Box::new(Response::Profile(QueryProfile {
                total_ns: 7,
                dropped: 0,
                spans: vec![ProfileSpan::default()],
            })),
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::HelloOk {
            version: 2,
            conn_id: 3,
            cancel_key: 0xdead_beef,
            max_inflight: 32,
        });
        roundtrip_resp(Response::Tagged {
            tag: 41,
            resp: Box::new(Response::RowHeader {
                columns: vec!["a".into(), "b".into()],
            }),
        });
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::PrepareOk {
            id: 1,
            columns: vec!["t.x".into(), "c".into()],
        });
        roundtrip_resp(Response::RowHeader {
            columns: vec!["a".into()],
        });
        roundtrip_resp(Response::RowBatch {
            rows: vec![
                vec![Value::Int(-5), Value::Float(2.75), Value::from("héllo")],
                vec![
                    Value::Int(i64::MIN),
                    Value::Float(f64::MAX),
                    Value::from(""),
                ],
            ],
        });
        roundtrip_resp(Response::Done {
            summary: QuerySummary {
                work_units: 99,
                wall_micros: 1_000_000,
                statements: vec![
                    StatementSummary {
                        rows: 10,
                        work_units: 44,
                        wall_micros: 17,
                        slices: 3,
                        order: vec![2, 0, 1],
                    },
                    StatementSummary::default(),
                ],
            },
        });
        roundtrip_resp(Response::Text {
            text: "a  b\n-  -\n1  2\n".into(),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        });
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked() {
        // Unknown tag.
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x01]).is_err());
        // Truncated string.
        let mut e = Request::Query {
            sql: "hello".into(),
        }
        .encode()
        .unwrap();
        e.truncate(e.len() - 2);
        assert!(Request::decode(&e).is_err());
        // Trailing garbage, also after a `Hello`'s version.
        let mut e = Request::Shutdown.encode().unwrap();
        e.push(0);
        assert!(Request::decode(&e).is_err());
        let mut e = Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode()
        .unwrap();
        e.extend_from_slice(&[4, 0, 0, 0, b'g', b'o', b'l', b'd']);
        assert!(Request::decode(&e).is_err());
        // Oversized frame length.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice(), &mut Vec::new()).is_err());
        // Unknown error code.
        assert!(Response::decode(&{
            let mut e = Writer::default();
            e.u8(0x88);
            e.u16(999);
            e.str("x", MAX_STR);
            e.finish().unwrap()
        })
        .is_err());
        // Nested Tagged envelopes are refused on both sides.
        let nested = Request::Tagged {
            tag: 1,
            req: Box::new(Request::Tagged {
                tag: 2,
                req: Box::new(Request::Shutdown),
            }),
        };
        assert!(nested.encode().is_err());
        // Build the nested bytes by hand (encode refuses to).
        let mut hand_rolled = Writer::default();
        hand_rolled.u8(0x10);
        hand_rolled.u32(1);
        let mut innermost = Writer::default();
        innermost.u8(0x10);
        innermost.u32(2);
        innermost.bytes(&Request::Shutdown.encode().unwrap());
        hand_rolled.bytes(&innermost.finish().unwrap());
        assert!(Request::decode(&hand_rolled.finish().unwrap()).is_err());
    }

    /// A hostile MAX_FRAME length prefix with *no* payload bytes must not
    /// allocate MAX_FRAME up front — reads proceed in READ_CHUNK slices, so
    /// the reader never sees a huge buffer. The same holds for the
    /// client's [`FrameReader`], whose payload buffer outlives the frame.
    #[test]
    fn hostile_length_prefix_reads_in_bounded_chunks() {
        struct Metered<'a> {
            inner: &'a [u8],
            max_slice: usize,
        }
        impl Read for Metered<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.max_slice = self.max_slice.max(buf.len());
                self.inner.read(buf)
            }
        }
        // Header announces MAX_FRAME; zero payload bytes follow (EOF).
        let header = MAX_FRAME.to_le_bytes();
        let mut r = Metered {
            inner: &header,
            max_slice: 0,
        };
        let mut buf = Vec::new();
        let err = read_frame(&mut r, &mut buf).expect_err("truncated frame must error");
        assert!(matches!(err, WireError::Io(_)), "got {err}");
        assert!(
            r.max_slice <= READ_CHUNK,
            "read slice of {} bytes — payload buffer allocated ahead of data",
            r.max_slice
        );
        assert!(buf.capacity() <= READ_CHUNK, "{} bytes", buf.capacity());
        // A legitimate multi-chunk frame still arrives intact.
        let big = Request::Query {
            sql: "x".repeat(3 * READ_CHUNK + 17),
        };
        let mut bytes = Vec::new();
        big.write(&mut bytes).unwrap();
        let mut r = Metered {
            inner: &bytes,
            max_slice: 0,
        };
        let payload = read_frame(&mut r, &mut buf).unwrap();
        assert_eq!(Request::decode(payload).unwrap(), big);
        assert!(r.max_slice <= READ_CHUNK);

        // The client's reader: a small frame, then a hostile prefix cut off
        // after some payload bytes. The reused buffer is filled at most one
        // chunk past the bytes received (its capacity at most twice that,
        // by the amortised growth of a `Vec`).
        let small = Response::Text { text: "ok".into() };
        let received = READ_CHUNK + 100;
        let mut wire = Vec::new();
        small.write(&mut wire).unwrap();
        wire.extend_from_slice(&MAX_FRAME.to_le_bytes());
        wire.extend(std::iter::repeat_n(0x87, received));
        let mut reader = FrameReader::new(Metered {
            inner: &wire,
            max_slice: 0,
        });
        assert_eq!(reader.read_response().unwrap(), small);
        let err = reader
            .read_response()
            .expect_err("truncated frame must error");
        assert!(matches!(err, WireError::Io(_)), "got {err}");
        assert!(reader.stream.get_ref().max_slice <= READ_CHUNK);
        let bound = received + READ_CHUNK;
        assert!(reader.payload.len() <= bound, "{}", reader.payload.len());
        assert!(reader.payload.capacity() <= 2 * bound);
        // The same reader still decodes whole frames, large and small,
        // from its grown buffer.
        let mut wire = Vec::new();
        let big = Response::Text {
            text: "y".repeat(2 * READ_CHUNK + 5),
        };
        for resp in [&big, &small, &big] {
            resp.write(&mut wire).unwrap();
        }
        reader.stream = BufReader::with_capacity(
            READ_CHUNK,
            Metered {
                inner: &wire,
                max_slice: 0,
            },
        );
        for resp in [&big, &small, &big] {
            assert_eq!(&reader.read_response().unwrap(), resp);
        }
        assert!(matches!(reader.read_response(), Err(WireError::Io(_))));
    }

    /// Satellite regression: encode-side lengths past `u32`/MAX_FRAME
    /// bounds produce a typed error instead of a silently truncated
    /// (corrupt) frame.
    #[test]
    fn oversize_encode_is_a_typed_error_not_truncation() {
        // Exactly at the frame cap: the string length check passes; the
        // whole-frame cap is enforced by the framing layer.
        let at_cap = "x".repeat(MAX_FRAME as usize);
        let ok = Response::Text { text: at_cap }.encode();
        assert!(ok.is_ok(), "MAX_FRAME-long string must still encode");
        // One past the cap: typed Oversize, not a corrupt length prefix.
        let over = "x".repeat(MAX_FRAME as usize + 1);
        let err = Response::Text { text: over }.encode().unwrap_err();
        assert!(matches!(err, WireError::Oversize(_)), "got {err}");
        // The framed write path refuses a payload over MAX_FRAME loudly.
        let at_cap = "x".repeat(MAX_FRAME as usize);
        let mut sink = Vec::new();
        let err = Response::Text { text: at_cap }
            .write(&mut sink)
            .expect_err("payload cap enforced at the frame layer");
        assert!(matches!(err, WireError::Oversize(_)), "got {err}");
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let frames = [
            Request::Query {
                sql: "SELECT 1".into(),
            }
            .encode()
            .unwrap(),
            Request::Tagged {
                tag: 9,
                req: Box::new(Request::Execute { id: 3 }),
            }
            .encode()
            .unwrap(),
            Request::Shutdown.encode().unwrap(),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&(f.len() as u32).to_le_bytes());
            wire.extend_from_slice(f);
        }
        // Feed the byte stream in every possible 1..n chunk size.
        for chunk in [1usize, 2, 3, 5, 7, wire.len()] {
            let mut fb = FrameBuffer::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.ingest(piece);
                while let Some(payload) = fb.try_frame().unwrap() {
                    got.push(payload);
                }
            }
            assert_eq!(got.len(), frames.len(), "chunk size {chunk}");
            for (g, f) in got.iter().zip(frames.iter()) {
                assert_eq!(g, f, "chunk size {chunk}");
            }
            assert_eq!(fb.buffered(), 0);
        }
    }

    #[test]
    fn frame_buffer_rejects_oversized_header_immediately() {
        let mut fb = FrameBuffer::new();
        fb.ingest(&(MAX_FRAME + 1).to_le_bytes());
        assert!(fb.try_frame().is_err());
    }

    #[test]
    fn empty_stream_reports_io_error() {
        let empty: &[u8] = &[];
        assert!(matches!(
            Request::read(&mut { empty }),
            Err(WireError::Io(_))
        ));
    }
}
