//! # skinner_client — the in-repo client for `skinner_server`
//!
//! A small blocking client speaking the native length-prefixed protocol
//! (see `skinner_server`'s crate docs for the wire format). Used by the
//! integration tests, the throughput benchmark and `examples/`.
//!
//! The client speaks protocol version 2 and tags every request, which makes
//! pipelining a first-class operation: [`Client::send_query`] puts a
//! statement in flight and returns its tag immediately, [`Client::wait`]
//! collects a specific tag's result, and interleaved response streams
//! demultiplex by tag. The plain [`Client::query`] is just send + wait.
//!
//! ```no_run
//! use skinner_client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:7878").unwrap();
//! client.set("strategy", "parallel_skinner").unwrap();
//! let result = client.query("SELECT n.x FROM nums n WHERE n.x < 3").unwrap();
//! assert_eq!(result.rows.len(), 3);
//!
//! // Pipelining: several statements in flight on one connection.
//! let a = client.send_query("SELECT n.x FROM nums n").unwrap();
//! let b = client.send_query("SELECT n.x FROM nums n WHERE n.x = 1").unwrap();
//! let rb = client.wait(b).unwrap(); // completion order is the client's choice
//! let ra = client.wait(a).unwrap();
//! assert!(ra.rows.len() >= rb.rows.len());
//!
//! // Out-of-band cancel: grab a handle, run the query elsewhere, cancel.
//! let handle = client.cancel_handle();
//! handle.cancel().unwrap();
//! ```

use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use skinner_server::protocol::{
    ErrorCode, FrameReader, QuerySummary, Request, Response, WireError, PROTOCOL_VERSION,
};
pub use skinner_server::{ProfileSpan, QueryProfile, QueryResult, Value};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server answered with an error frame.
    Server {
        code: ErrorCode,
        message: String,
    },
    /// The server broke protocol (unexpected frame for the state).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Malformed(m) => ClientError::Protocol(m),
            WireError::Oversize(m) => ClientError::Protocol(m),
        }
    }
}

impl ClientError {
    /// The server-side error code, if this is a server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// True for load-shed responses (admission control said no).
    pub fn is_overloaded(&self) -> bool {
        self.code() == Some(ErrorCode::Overloaded)
    }

    /// True when the query was cancelled via the out-of-band cancel path.
    pub fn is_cancelled(&self) -> bool {
        self.code() == Some(ErrorCode::Cancelled)
    }
}

/// A query's result as received over the wire.
#[derive(Debug)]
pub struct RemoteResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// Set instead of columns/rows when the session is in text mode.
    pub text: Option<String>,
    /// Script totals + per-statement detail from the server.
    pub summary: QuerySummary,
}

impl RemoteResult {
    /// View as the library's [`QueryResult`] (e.g. for `canonical_rows`
    /// comparisons against in-process execution).
    pub fn into_query_result(self) -> QueryResult {
        QueryResult {
            columns: self.columns,
            rows: self.rows,
        }
    }
}

/// Credential for cancelling the associated connection's running queries
/// from another thread/connection. Cloneable and independent of the
/// [`Client`]'s borrow state by design: cancel happens *while* the client
/// is blocked in [`Client::query`] / [`Client::wait`].
#[derive(Debug, Clone)]
pub struct CancelHandle {
    addr: SocketAddr,
    conn_id: u64,
    cancel_key: u64,
}

impl CancelHandle {
    /// Open a one-shot connection and cancel the target's in-flight
    /// queries.
    pub fn cancel(&self) -> Result<(), ClientError> {
        let stream = TcpStream::connect(self.addr)?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        Request::Cancel {
            conn_id: self.conn_id,
            key: self.cancel_key,
        }
        .write(&mut writer)?;
        let mut reader = stream;
        match Response::read(&mut reader)? {
            Response::Ok => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected cancel response {other:?}"
            ))),
        }
    }
}

/// Accumulator for one in-flight tag's response stream.
#[derive(Default)]
struct Partial {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    text: Option<String>,
}

/// A finished tag's reply, parked until the caller waits for it.
enum Reply {
    Result(RemoteResult),
    Prepared { id: u32, columns: Vec<String> },
    Profile(QueryProfile),
}

/// A connection to a `skinner-server`.
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
    conn_id: u64,
    cancel_key: u64,
    version: u32,
    max_inflight: u32,
    next_tag: u32,
    pending: HashMap<u32, Partial>,
    done: HashMap<u32, Result<Reply, ClientError>>,
}

impl Client {
    /// Connect and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        let mut client = Client {
            reader: FrameReader::new(reader),
            writer: BufWriter::new(stream),
            addr,
            conn_id: 0,
            cancel_key: 0,
            version: 0,
            max_inflight: 1,
            next_tag: 1,
            pending: HashMap::new(),
            done: HashMap::new(),
        };
        Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .write(&mut client.writer)?;
        match client.reader.read_response()? {
            Response::HelloOk {
                version,
                conn_id,
                cancel_key,
                max_inflight,
            } => {
                client.version = version;
                client.conn_id = conn_id;
                client.cancel_key = cancel_key;
                client.max_inflight = max_inflight.max(1);
                Ok(client)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected handshake response {other:?}"
            ))),
        }
    }

    /// Retry [`Client::connect`] until the server comes up or `patience`
    /// runs out — for tests and scripts racing a server start.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        patience: Duration,
    ) -> Result<Client, ClientError> {
        let deadline = std::time::Instant::now() + patience;
        loop {
            match Client::connect(addr.clone()) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// The server-assigned connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// The negotiated protocol version.
    pub fn protocol_version(&self) -> u32 {
        self.version
    }

    /// The server's per-connection pipelining cap. Sending more than this
    /// many statements is safe — the server just stops reading until
    /// completions drain — but a self-limiting client keeps latency flat.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Statements sent but not yet collected with [`Client::wait`].
    pub fn inflight(&self) -> usize {
        self.pending.len() + self.done.len()
    }

    /// A credential for out-of-band cancellation of this connection.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            addr: self.addr,
            conn_id: self.conn_id,
            cancel_key: self.cancel_key,
        }
    }

    fn alloc_tag(&mut self) -> u32 {
        loop {
            let tag = self.next_tag;
            self.next_tag = self.next_tag.wrapping_add(1).max(1);
            if !self.pending.contains_key(&tag) && !self.done.contains_key(&tag) {
                return tag;
            }
        }
    }

    fn send_tagged(&mut self, req: Request) -> Result<u32, ClientError> {
        let tag = self.alloc_tag();
        Request::Tagged {
            tag,
            req: Box::new(req),
        }
        .write(&mut self.writer)?;
        self.pending.insert(tag, Partial::default());
        Ok(tag)
    }

    /// Pipeline a SQL script: send it and return its tag without waiting.
    pub fn send_query(&mut self, sql: &str) -> Result<u32, ClientError> {
        self.send_tagged(Request::Query {
            sql: sql.to_string(),
        })
    }

    /// Pipeline a prepared-statement execution.
    pub fn send_execute(&mut self, id: u32) -> Result<u32, ClientError> {
        self.send_tagged(Request::Execute { id })
    }

    /// Block until `tag`'s reply is complete and return it. Replies for
    /// other tags arriving meanwhile are parked, not lost.
    pub fn wait(&mut self, tag: u32) -> Result<RemoteResult, ClientError> {
        match self.wait_reply(tag)? {
            Reply::Result(r) => Ok(r),
            Reply::Prepared { .. } => Err(ClientError::Protocol(format!(
                "tag {tag}: expected a result stream, got PrepareOk"
            ))),
            Reply::Profile(_) => Err(ClientError::Protocol(format!(
                "tag {tag}: expected a result stream, got Profile"
            ))),
        }
    }

    fn wait_reply(&mut self, tag: u32) -> Result<Reply, ClientError> {
        loop {
            if let Some(reply) = self.done.remove(&tag) {
                return reply;
            }
            if !self.pending.contains_key(&tag) {
                return Err(ClientError::Protocol(format!("tag {tag} was never sent")));
            }
            let resp = self.reader.read_response()?;
            self.route(resp)?;
        }
    }

    /// File one incoming frame under its tag.
    fn route(&mut self, resp: Response) -> Result<(), ClientError> {
        let (tag, resp) = match resp {
            Response::Tagged { tag, resp } => (tag, *resp),
            other => {
                return Err(ClientError::Protocol(format!(
                    "untagged frame {other:?} outside handshake"
                )))
            }
        };
        let Some(partial) = self.pending.get_mut(&tag) else {
            return Err(ClientError::Protocol(format!(
                "frame for unknown tag {tag}"
            )));
        };
        let finished: Option<Result<Reply, ClientError>> = match resp {
            // SET and friends answered through Query: an empty result.
            Response::Ok => Some(Ok(Reply::Result(RemoteResult {
                columns: std::mem::take(&mut partial.columns),
                rows: std::mem::take(&mut partial.rows),
                text: partial.text.take(),
                summary: QuerySummary::default(),
            }))),
            Response::RowHeader { columns } => {
                partial.columns = columns;
                None
            }
            Response::RowBatch { mut rows } => {
                if partial.rows.is_empty() {
                    partial.rows = rows;
                } else {
                    partial.rows.append(&mut rows);
                }
                None
            }
            Response::Text { text } => {
                partial.text = Some(text);
                None
            }
            Response::Done { summary } => Some(Ok(Reply::Result(RemoteResult {
                columns: std::mem::take(&mut partial.columns),
                rows: std::mem::take(&mut partial.rows),
                text: partial.text.take(),
                summary,
            }))),
            Response::PrepareOk { id, columns } => Some(Ok(Reply::Prepared { id, columns })),
            Response::Profile(profile) => Some(Ok(Reply::Profile(profile))),
            Response::Error { code, message } => Some(Err(ClientError::Server { code, message })),
            other => Some(Err(ClientError::Protocol(format!(
                "unexpected result frame {other:?}"
            )))),
        };
        if let Some(reply) = finished {
            self.pending.remove(&tag);
            self.done.insert(tag, reply);
        }
        Ok(())
    }

    /// Run a SQL script (or a `SET`/`SHOW` command) and collect the reply.
    pub fn query(&mut self, sql: &str) -> Result<RemoteResult, ClientError> {
        let tag = self.send_query(sql)?;
        self.wait(tag)
    }

    /// Set a session option (`strategy`, `threads`, `work_limit`,
    /// `deadline_ms`, `output`).
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ClientError> {
        let tag = self.send_tagged(Request::Set {
            key: key.to_string(),
            value: value.to_string(),
        })?;
        self.wait(tag).map(|_| ())
    }

    /// Prepare a SELECT; returns the statement id and output columns.
    pub fn prepare(&mut self, sql: &str) -> Result<(u32, Vec<String>), ClientError> {
        let tag = self.send_tagged(Request::Prepare {
            sql: sql.to_string(),
        })?;
        match self.wait_reply(tag)? {
            Reply::Prepared { id, columns } => Ok((id, columns)),
            _ => Err(ClientError::Protocol(
                "expected PrepareOk, got a different reply".into(),
            )),
        }
    }

    /// Execute a prepared statement.
    pub fn execute(&mut self, id: u32) -> Result<RemoteResult, ClientError> {
        let tag = self.send_execute(id)?;
        self.wait(tag)
    }

    /// Drop a prepared statement.
    pub fn close(&mut self, id: u32) -> Result<(), ClientError> {
        let tag = self.send_tagged(Request::Close { id })?;
        self.wait(tag).map(|_| ())
    }

    fn fetch_profile(&mut self, key: u64) -> Result<QueryProfile, ClientError> {
        let tag = self.send_tagged(Request::Profile { key })?;
        match self.wait_reply(tag)? {
            Reply::Profile(p) => Ok(p),
            _ => Err(ClientError::Protocol(
                "expected Profile, got a different reply".into(),
            )),
        }
    }

    /// Span-level execution profile of the statement that ran under
    /// `tag` (a tag previously returned by [`Client::send_query`] and
    /// already collected with [`Client::wait`]). The server keeps a
    /// bounded backlog of recent profiles per connection; asking for a
    /// tag that has aged out yields `ErrorCode::UnknownStatement`.
    pub fn profile_of(&mut self, tag: u32) -> Result<QueryProfile, ClientError> {
        self.fetch_profile(tag as u64)
    }

    /// Span-level execution profile of this connection's most recently
    /// completed statement — EXPLAIN ANALYZE after the fact.
    pub fn profile_last(&mut self) -> Result<QueryProfile, ClientError> {
        self.fetch_profile(u64::MAX)
    }

    /// Ask the server to shut down gracefully (drain + join + exit).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let tag = self.send_tagged(Request::Shutdown)?;
        self.wait(tag).map(|_| ())
    }
}
