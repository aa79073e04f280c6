//! # skinner_server — SkinnerDB as a standalone database server
//!
//! The paper describes SkinnerDB as a system clients submit queries to;
//! this crate is that serving layer over the embedded library: a TCP
//! server (std only — no external dependencies) that maps each client
//! connection to its own [`skinnerdb::Session`] over one shared
//! [`skinnerdb::Database`], with server-level admission control so
//! overload degrades predictably.
//!
//! ```no_run
//! use skinner_server::{Server, ServerConfig};
//! use skinnerdb::Database;
//!
//! let db = Database::new();
//! // … create tables …
//! let mut server = Server::bind(db, "127.0.0.1:7878", ServerConfig::default()).unwrap();
//! server.wait(); // serve until a wire-level Shutdown arrives
//! ```
//!
//! The in-repo client is the `skinner_client` crate; the `skinner-server`
//! binary in this crate starts a server from the command line.
//!
//! ## Wire protocol
//!
//! The full normative specification — frame layout, message tags,
//! error codes, the cancel handshake — lives next to this crate in
//! `crates/server/PROTOCOL.md`; the summary:
//!
//! Frames are a little-endian `u32` payload length followed by the
//! payload; the payload's first byte is the message tag (see
//! [`protocol`]). Strings are length-prefixed UTF-8; values carry a
//! one-byte type tag (int / float / string). The flow:
//!
//! 1. **Handshake** — the client opens a TCP connection and sends
//!    `Hello{version}`; the server answers `HelloOk{version, conn_id,
//!    cancel_key, max_inflight}`. Only [`PROTOCOL_VERSION`] is accepted;
//!    the `(conn_id, cancel_key)` pair is this connection's cancellation
//!    credential, and `max_inflight` is the pipelining cap.
//! 2. **Queries** — `Query{sql}` runs a SQL script under the connection's
//!    session. The server streams back `RowHeader{columns}`, zero or more
//!    `RowBatch{rows}`, and a final `Done{summary}` carrying script totals
//!    plus per-statement work/wall/episode metrics. Failures produce a
//!    single `Error{code, message}` instead. A client may wrap requests
//!    in `Tagged{tag, req}` envelopes and keep up to `max_inflight`
//!    statements in flight; every response frame for a tagged request
//!    comes back wrapped in `Tagged{tag, resp}`, so pipelined result
//!    streams interleave without ambiguity.
//! 3. **Session options** — `Set{key, value}` (or a SQL-style `SET key =
//!    value` through `Query`) adjusts the session: `strategy` (any
//!    registered engine, e.g. `skinner-c`, `traditional`,
//!    `parallel_skinner`), `threads`, `work_limit`, `deadline_ms`, and the
//!    wire-level `output` (`binary` row batches or `text` — one rendered
//!    table per query, via the library's shared renderer).
//! 4. **Prepared statements** — `Prepare{sql}` → `PrepareOk{id, columns}`
//!    binds a SELECT once; `Execute{id}` runs it (streaming like Query);
//!    `Close{id}` drops it.
//! 5. **Cancel** — out-of-band, Postgres style: while a query runs on
//!    connection A, the client opens a *new* connection and sends
//!    `Cancel{conn_id, cancel_key}` as its only message. The server trips
//!    connection A's cooperative cancel token; A's query stops at its next
//!    slice boundary and A receives `Error{Cancelled}` promptly. The
//!    credential check stops third parties from cancelling other people's
//!    queries.
//! 6. **Introspection** — `SHOW SERVER STATS` (through `Query`) returns a
//!    `metric | value` table with one row per telemetry-registry series:
//!    active/total connections, queued and shed queries, latency
//!    quantiles, regret proxies and per-strategy totals (queries, learning
//!    episodes, result tuples ≈ cumulative reward, work units, wall time).
//!    Rows carry the `/metrics` names without `skinner_`. `SHOW
//!    STRATEGIES` lists the strategy registry. `Profile{key}` returns the
//!    span timeline (admission wait,
//!    parse/bind, preprocess, per-order episode runs, postprocess, encode)
//!    of a recently completed statement — EXPLAIN ANALYZE over the wire.
//!    With [`ServerConfig::metrics_addr`] set, the same telemetry registry
//!    is additionally served as Prometheus text on `GET /metrics`, and
//!    [`ServerConfig::slow_query_ms`] enables a structured slow-query log
//!    line (template key, join order, convergence, per-stage micros).
//! 7. **Shutdown** — `Shutdown` (ack `Ok`) drains the server: the
//!    admission gate closes (queued queries shed with `ShuttingDown`),
//!    running queries are cancelled, sockets are shut, and every thread —
//!    acceptor and per-connection handlers — is joined before the process
//!    exits.
//!
//! ## Architecture: event loops + completion pool
//!
//! The server is readiness-based, not thread-per-connection. A small set
//! of connection shards each run a nonblocking event loop (epoll on
//! Linux, a portable fallback elsewhere) multiplexing many sockets with
//! per-connection read/write buffers and incremental frame decoding.
//! Query execution is dispatched to a completion pool; finished results
//! come back to the owning shard as pre-encoded bytes through a
//! completion queue plus waker. Backpressure is per connection: reads
//! pause while the in-flight statement count is at the negotiated cap or
//! the write buffer is over the high-water mark, and idle connections
//! are reaped after `idle_timeout`.
//!
//! ## Admission control
//!
//! A global [`admission::AdmissionGate`] (a one-unit-per-query
//! [`skinnerdb::skinner_exec::WorkBudget`] used as a concurrency gate)
//! admits at most `max_concurrent` queries; up to `queue_depth` more wait
//! (bounded, with a timeout); everything beyond that is refused with
//! `Error{Overloaded}` immediately. Connections above `max_connections`
//! are refused at accept time with `TooManyConnections`.

pub mod admission;
pub(crate) mod conn;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub mod server;
pub mod stats;

pub use admission::{
    Admission, AdmissionConfig, AdmissionGate, Begin, ShedReason, SlotPermit, Ticket,
};
pub use metrics::MetricsExporter;
pub use protocol::{
    ErrorCode, FrameBuffer, ProfileSpan, QueryProfile, QuerySummary, Request, Response,
    StatementSummary, WireError, DEFAULT_MAX_INFLIGHT, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use stats::{template_key, ServerStats};

// The registry/handle types `ServerStats` exposes, for embedders.
pub use skinner_telemetry::{Counter, Gauge, Histo, Registry};

// The value/result types that cross the wire, for client-side use.
pub use skinnerdb::{QueryResult, Value};
