//! Connection shards: nonblocking event loops multiplexing many client
//! sockets.
//!
//! Each shard owns a [`Poller`] and a slab of [`ConnState`]s. Sockets are
//! nonblocking; bytes accumulate in a [`FrameBuffer`] and are decoded
//! incrementally. Cheap requests (`SET`, `SHOW`, `Prepare`, `Cancel`) are
//! answered inline on the loop; `Query`/`Execute` go to the statement
//! queue and come back as pre-encoded [`Completion`] bytes, and each
//! shard sheds its own statements that outwait the queue timeout.
//! Per-connection backpressure pauses reads while the in-flight statement
//! count is at the negotiated cap or the write buffer is over the
//! high-water mark, and an idle sweep reaps connections with no traffic
//! and nothing in flight past the configured deadline.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use skinnerdb::skinner_exec::{CancelToken, Trace};
use skinnerdb::{Prepared, QueryResult, Session};

use crate::admission::ShedReason;
use crate::poll::{Event, Interest, Poller, WAKE_TOKEN};
use crate::protocol::{
    ErrorCode, FrameBuffer, QueryProfile, QuerySummary, Request, Response, PROTOCOL_VERSION,
    READ_CHUNK,
};
use crate::server::{
    parse_set, push_frame, shed_job, shed_response, sql_error, strip_keyword, write_result_frames,
    Completion, Job, JobKind, ShardHandle, Shared,
};

/// Spans the per-query trace ring holds before overwriting the oldest
/// (covers the fixed stages plus a generous number of per-order episode
/// runs; `dropped` in the profile reports any overflow).
const TRACE_SPANS: usize = 64;

/// Completed-statement profiles parked per connection for
/// [`Request::Profile`] retrieval.
const PROFILE_BACKLOG: usize = 16;

/// Reading from a connection pauses while its outbox holds more than this
/// many bytes, until the client drains it.
const WRITE_HIGHWATER: usize = 4 * 1024 * 1024;

/// Longest a shard's event loop sleeps without an event.
const TICK: Duration = Duration::from_millis(500);

/// How query results travel back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutputMode {
    Binary,
    Text,
}

/// Per-connection cancel registry, reachable from *other* threads (the
/// out-of-band cancel path and shutdown). One entry per in-flight
/// statement, keyed by pipeline tag; each entry's token is fresh per
/// query, so stale cancels hit an abandoned token harmlessly, and the
/// `cancelled` flag distinguishes an explicit cancel from an ordinary
/// deadline/work-limit timeout.
pub(crate) struct ConnCancel {
    pub cancel_key: u64,
    entries: Mutex<HashMap<u64, CancelEntry>>,
}

struct CancelEntry {
    token: CancelToken,
    cancelled: bool,
}

impl ConnCancel {
    pub(crate) fn new(cancel_key: u64) -> ConnCancel {
        ConnCancel {
            cancel_key,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// Map a pipeline tag to a registry key (untagged statements share
    /// one slot above the `u32` tag space).
    pub(crate) fn tag_key(tag: Option<u32>) -> u64 {
        tag.map(u64::from).unwrap_or(1 << 32)
    }

    /// Register a fresh statement's token under `key` (clearing any stale
    /// cancel aimed at a previous statement of the same tag).
    pub(crate) fn arm(&self, key: u64, token: CancelToken) {
        self.entries.lock().insert(
            key,
            CancelEntry {
                token,
                cancelled: false,
            },
        );
    }

    pub(crate) fn is_armed(&self, key: u64) -> bool {
        self.entries.lock().contains_key(&key)
    }

    /// Cancel every in-flight statement on this connection.
    pub(crate) fn cancel_all(&self) {
        for e in self.entries.lock().values_mut() {
            e.cancelled = true;
            e.token.cancel();
        }
    }

    /// Tear down a finished statement's entry; true if it was explicitly
    /// cancelled.
    pub(crate) fn finish(&self, key: u64) -> bool {
        self.entries
            .lock()
            .remove(&key)
            .map(|e| e.cancelled)
            .unwrap_or(false)
    }
}

/// One client connection on a shard's event loop.
pub(crate) struct ConnState {
    stream: TcpStream,
    /// The shard whose event loop owns this connection.
    shard: usize,
    token: usize,
    conn_id: u64,
    cancel: Arc<ConnCancel>,
    session: Session,
    prepared: HashMap<u32, Arc<Prepared>>,
    next_stmt_id: u32,
    output: OutputMode,
    /// False until the Hello handshake.
    greeted: bool,
    inbuf: FrameBuffer,
    outbox: Vec<u8>,
    outpos: usize,
    /// Statements dispatched but not yet completed.
    inflight: u32,
    /// Span profiles of recently completed statements, keyed by their
    /// cancel-registry key (newest at the back, capped at
    /// [`PROFILE_BACKLOG`]).
    profiles: VecDeque<(u64, QueryProfile)>,
    last_activity: Instant,
    registered: Interest,
    /// Close once the outbox drains (we sent a terminal error or are done).
    closing: bool,
    /// Socket is gone (EOF/reset); close immediately.
    dead: bool,
}

impl ConnState {
    fn pending_out(&self) -> usize {
        self.outbox.len() - self.outpos
    }

    fn inflight_cap(&self, shared: &Shared) -> u32 {
        shared.cfg.max_inflight_per_conn.max(1)
    }

    /// Backpressure: stop reading while at the in-flight cap or while the
    /// peer isn't draining its responses.
    fn wants_read(&self, shared: &Shared) -> bool {
        !self.closing
            && !self.dead
            && self.inflight < self.inflight_cap(shared)
            && self.pending_out() <= WRITE_HIGHWATER
    }

    fn push_resp(&mut self, tag: Option<u32>, resp: Response) {
        push_frame(&mut self.outbox, tag, resp);
    }

    /// Write as much of the outbox as the socket accepts right now.
    fn flush(&mut self) {
        while self.outpos < self.outbox.len() {
            match self.stream.write(&self.outbox[self.outpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.outpos == self.outbox.len() {
            self.outbox.clear();
            self.outpos = 0;
        } else if self.outpos >= READ_CHUNK {
            self.outbox.drain(..self.outpos);
            self.outpos = 0;
        }
    }

    /// Drain the socket into the frame buffer (until WouldBlock/EOF).
    fn read_ready(&mut self) {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.inbuf.ingest(&buf[..n]);
                    self.last_activity = Instant::now();
                    if n < buf.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn update_interest(&mut self, shared: &Shared, poller: &Poller) {
        let desired = Interest {
            readable: self.wants_read(shared),
            writable: self.pending_out() > 0,
        };
        if desired != self.registered
            && poller
                .reregister(self.stream.as_raw_fd(), self.token, desired)
                .is_ok()
        {
            self.registered = desired;
        }
    }
}

/// Fixed-slot connection arena; tokens are slot indices (stable for a
/// connection's lifetime, reused after close — completions guard against
/// reuse with the conn id).
struct Slab {
    slots: Vec<Option<ConnState>>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: ConnState) -> usize {
        match self.free.pop() {
            Some(ix) => {
                self.slots[ix] = Some(conn);
                ix
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    fn get_mut(&mut self, token: usize) -> Option<&mut ConnState> {
        self.slots.get_mut(token).and_then(|s| s.as_mut())
    }

    fn remove(&mut self, token: usize) -> Option<ConnState> {
        let conn = self.slots.get_mut(token)?.take();
        if conn.is_some() {
            self.free.push(token);
        }
        conn
    }

    fn tokens(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(ix, s)| s.as_ref().map(|_| ix))
            .collect()
    }
}

/// One connection shard's event loop: new sockets and completions arrive
/// through the [`ShardHandle`] (waker-popped), readiness through the
/// poller.
pub(crate) fn shard_loop(
    shared: Arc<Shared>,
    handle: Arc<ShardHandle>,
    mut poller: Poller,
    shard_ix: usize,
) {
    let mut conns = Slab::new();
    let mut events: Vec<Event> = Vec::new();
    let mut last_sweep = Instant::now();
    // The earliest queue deadline among this shard's waiting statements.
    let mut next_expiry: Option<Instant> = None;
    loop {
        let timeout = next_expiry.map_or(TICK, |at| {
            at.saturating_duration_since(Instant::now()).min(TICK)
        });
        let _ = poller.wait(&mut events, timeout);
        if shared.is_shutting_down() {
            break;
        }
        for stream in handle.take_inbox() {
            accept_conn(&shared, &poller, &mut conns, shard_ix, stream);
        }
        for c in handle.take_completions() {
            deliver_completion(&shared, &poller, &mut conns, c);
        }
        for &ev in &events {
            if ev.token == WAKE_TOKEN {
                continue;
            }
            if let Some(conn) = conns.get_mut(ev.token) {
                if ev.readable || ev.error {
                    conn.read_ready();
                }
                if ev.writable {
                    conn.flush();
                }
            }
            finish_io(&shared, &poller, &mut conns, ev.token);
        }
        let (expired, next) = shared
            .queue
            .take_expired(Instant::now(), |job| job.shard == shard_ix);
        for job in expired {
            let c = shed_job(&shared, job, ShedReason::QueueTimeout);
            deliver_completion(&shared, &poller, &mut conns, c);
        }
        next_expiry = next;
        if last_sweep.elapsed() >= Duration::from_secs(1) {
            last_sweep = Instant::now();
            sweep_idle(&shared, &poller, &mut conns);
        }
    }
    // Teardown: best-effort flush of anything already encoded (e.g. the
    // Ok acknowledging a Shutdown request), then close everything.
    for token in conns.tokens() {
        if let Some(conn) = conns.get_mut(token) {
            conn.flush();
        }
        close_conn(&shared, &poller, &mut conns, token);
    }
    drop(handle.take_inbox());
    drop(handle.take_completions());
}

fn accept_conn(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut Slab,
    shard: usize,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    let cancel = Arc::new(ConnCancel::new(shared.mint_cancel_key()));
    shared.conns.lock().insert(conn_id, cancel.clone());
    let conn = ConnState {
        stream,
        shard,
        token: 0,
        conn_id,
        cancel,
        session: shared.db.session(),
        prepared: HashMap::new(),
        next_stmt_id: 1,
        output: OutputMode::Binary,
        greeted: false,
        inbuf: FrameBuffer::new(),
        outbox: Vec::new(),
        outpos: 0,
        inflight: 0,
        profiles: VecDeque::new(),
        last_activity: Instant::now(),
        registered: Interest::READ,
        closing: false,
        dead: false,
    };
    let token = conns.insert(conn);
    let conn = conns.get_mut(token).expect("just inserted");
    conn.token = token;
    if poller
        .register(conn.stream.as_raw_fd(), token, Interest::READ)
        .is_err()
    {
        close_conn(shared, poller, conns, token);
    }
}

fn deliver_completion(shared: &Arc<Shared>, poller: &Poller, conns: &mut Slab, c: Completion) {
    let Some(conn) = conns.get_mut(c.conn_token) else {
        return;
    };
    // Slot reuse guard: the statement's connection may have died and the
    // token been handed to a newcomer.
    if conn.conn_id != c.conn_id {
        return;
    }
    conn.inflight = conn.inflight.saturating_sub(1);
    if let Some((key, profile)) = c.profile {
        // A re-used tag replaces its older profile; the backlog stays
        // bounded regardless.
        conn.profiles.retain(|(k, _)| *k != key);
        conn.profiles.push_back((key, profile));
        while conn.profiles.len() > PROFILE_BACKLOG {
            conn.profiles.pop_front();
        }
    }
    // The worker encoded the frames once; an idle outbox takes its buffer
    // whole instead of copying it.
    if conn.outbox.is_empty() {
        conn.outbox = c.bytes;
    } else {
        conn.outbox.extend_from_slice(&c.bytes);
    }
    conn.last_activity = Instant::now();
    finish_io(shared, poller, conns, c.conn_token);
}

/// Post-I/O housekeeping for one connection: decode and handle buffered
/// frames (bounded by the in-flight cap), flush, close or re-arm
/// interest.
fn finish_io(shared: &Arc<Shared>, poller: &Poller, conns: &mut Slab, token: usize) {
    let Some(conn) = conns.get_mut(token) else {
        return;
    };
    if !conn.dead {
        pump(shared, conn);
        conn.flush();
    }
    if conn.dead || (conn.closing && conn.pending_out() == 0) {
        close_conn(shared, poller, conns, token);
        return;
    }
    conn.update_interest(shared, poller);
}

/// Decode and handle every complete frame the backpressure rules allow.
fn pump(shared: &Arc<Shared>, conn: &mut ConnState) {
    while !conn.closing && !conn.dead && conn.inflight < conn.inflight_cap(shared) {
        match conn.inbuf.try_frame() {
            Ok(Some(payload)) => handle_frame(shared, conn, &payload),
            Ok(None) => break,
            Err(e) => {
                let msg = e.to_string();
                conn.push_resp(
                    None,
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: msg,
                    },
                );
                conn.closing = true;
            }
        }
    }
}

fn close_conn(shared: &Arc<Shared>, poller: &Poller, conns: &mut Slab, token: usize) {
    let Some(conn) = conns.remove(token) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    // Any still-running statements are wasted work now; cancel them. The
    // conn-id check drops their completions.
    conn.cancel.cancel_all();
    shared.conns.lock().remove(&conn.conn_id);
    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// Satellite fix: idle and half-open connections used to pin their slot
/// forever. The sweep closes connections with nothing in flight and no
/// traffic inside the idle deadline.
fn sweep_idle(shared: &Arc<Shared>, poller: &Poller, conns: &mut Slab) {
    let Some(idle) = shared.cfg.idle_timeout else {
        return;
    };
    for token in conns.tokens() {
        let reap = conns
            .get_mut(token)
            .map(|c| c.inflight == 0 && c.pending_out() == 0 && c.last_activity.elapsed() > idle)
            .unwrap_or(false);
        if reap {
            shared.stats.connections_reaped_idle.inc();
            close_conn(shared, poller, conns, token);
        }
    }
}

// ---- frame handling -----------------------------------------------------

fn handle_frame(shared: &Arc<Shared>, conn: &mut ConnState, payload: &[u8]) {
    let req = match Request::decode(payload) {
        Ok(req) => req,
        Err(e) => {
            let msg = e.to_string();
            conn.push_resp(
                None,
                Response::Error {
                    code: ErrorCode::Protocol,
                    message: msg,
                },
            );
            conn.closing = true;
            return;
        }
    };
    if !conn.greeted {
        return handle_first_frame(shared, conn, req);
    }
    let (tag, req) = match req {
        Request::Tagged { tag, req } => (Some(tag), *req),
        req => (None, req),
    };
    match req {
        Request::Hello { .. } => conn.push_resp(
            tag,
            Response::Error {
                code: ErrorCode::Protocol,
                message: "duplicate Hello".into(),
            },
        ),
        Request::Tagged { .. } => unreachable!("decoder rejects nested Tagged"),
        Request::Query { sql } => handle_query(shared, conn, tag, &sql),
        Request::Prepare { sql } => {
            let resp = match conn.session.prepare(&sql) {
                Ok(p) => {
                    let id = conn.next_stmt_id;
                    conn.next_stmt_id += 1;
                    let columns = p
                        .query()
                        .select
                        .iter()
                        .map(|s| s.name().to_string())
                        .collect();
                    conn.prepared.insert(id, Arc::new(p));
                    Response::PrepareOk { id, columns }
                }
                Err(e) => sql_error(&e),
            };
            conn.push_resp(tag, resp);
        }
        Request::Execute { id } => match conn.prepared.get(&id).cloned() {
            Some(prepared) => dispatch(shared, conn, tag, JobKind::Execute { prepared }),
            None => conn.push_resp(
                tag,
                Response::Error {
                    code: ErrorCode::UnknownStatement,
                    message: format!("no prepared statement #{id}"),
                },
            ),
        },
        Request::Close { id } => {
            conn.prepared.remove(&id);
            conn.push_resp(tag, Response::Ok);
        }
        Request::Set { key, value } => {
            let resp = handle_set(conn, &key, &value);
            conn.push_resp(tag, resp);
        }
        Request::Cancel { conn_id, key } => {
            let resp = handle_cancel(shared, conn_id, key);
            conn.push_resp(tag, resp);
        }
        Request::Shutdown => handle_shutdown(shared, conn, tag),
        Request::Profile { key } => {
            let found = if key == u64::MAX {
                conn.profiles.back()
            } else {
                conn.profiles.iter().rev().find(|(k, _)| *k == key)
            };
            let resp = match found {
                Some((_, profile)) => Response::Profile(profile.clone()),
                None => Response::Error {
                    code: ErrorCode::UnknownStatement,
                    message: if key == u64::MAX {
                        "no completed statement to profile yet".into()
                    } else {
                        format!("no profile retained for statement key {key}")
                    },
                },
            };
            conn.push_resp(tag, resp);
        }
    }
}

/// First frame on a connection: Hello — or an out-of-band Cancel/Shutdown
/// on a dedicated connection.
fn handle_first_frame(shared: &Arc<Shared>, conn: &mut ConnState, req: Request) {
    match req {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                conn.push_resp(
                    None,
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!(
                            "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                        ),
                    },
                );
                conn.closing = true;
                return;
            }
            conn.greeted = true;
            let max_inflight = conn.inflight_cap(shared);
            let (conn_id, cancel_key) = (conn.conn_id, conn.cancel.cancel_key);
            conn.push_resp(
                None,
                Response::HelloOk {
                    version,
                    conn_id,
                    cancel_key,
                    max_inflight,
                },
            );
        }
        Request::Cancel { conn_id, key } => {
            let resp = handle_cancel(shared, conn_id, key);
            conn.push_resp(None, resp);
            conn.closing = true;
        }
        Request::Shutdown => {
            handle_shutdown(shared, conn, None);
            conn.closing = true;
        }
        _ => {
            conn.push_resp(
                None,
                Response::Error {
                    code: ErrorCode::Protocol,
                    message: "expected Hello as the first message".into(),
                },
            );
            conn.closing = true;
        }
    }
}

fn handle_shutdown(shared: &Arc<Shared>, conn: &mut ConnState, tag: Option<u32>) {
    if !shared.cfg.allow_remote_shutdown {
        conn.push_resp(
            tag,
            Response::Error {
                code: ErrorCode::Protocol,
                message: "remote shutdown is disabled on this server".into(),
            },
        );
        return;
    }
    conn.push_resp(tag, Response::Ok);
    conn.flush(); // the loop exits on the flag; get the Ok out now
    shared.trigger_shutdown();
}

fn handle_cancel(shared: &Shared, conn_id: u64, key: u64) -> Response {
    let conns = shared.conns.lock();
    match conns.get(&conn_id) {
        Some(conn) if conn.cancel_key == key => {
            conn.cancel_all();
            Response::Ok
        }
        _ => Response::Error {
            code: ErrorCode::Protocol,
            message: "unknown connection id or bad cancel key".into(),
        },
    }
}

fn handle_set(conn: &mut ConnState, key: &str, value: &str) -> Response {
    if key.trim().eq_ignore_ascii_case("output") {
        return match value.trim().to_ascii_lowercase().as_str() {
            "binary" => {
                conn.output = OutputMode::Binary;
                Response::Ok
            }
            "text" => {
                conn.output = OutputMode::Text;
                Response::Ok
            }
            other => Response::Error {
                code: ErrorCode::Sql,
                message: format!("output must be 'binary' or 'text', got {other:?}"),
            },
        };
    }
    match conn.session.set_option(key, value) {
        Ok(()) => Response::Ok,
        Err(e) => sql_error(&e),
    }
}

/// `SET`/`SHOW` text commands and plain SQL, multiplexed over Query. The
/// text commands are answered inline on the event loop; SQL dispatches.
fn handle_query(shared: &Arc<Shared>, conn: &mut ConnState, tag: Option<u32>, sql: &str) {
    let trimmed = sql.trim().trim_end_matches(';').trim();
    if let Some(rest) = strip_keyword(trimmed, "SET") {
        let resp = match parse_set(rest) {
            Some((key, value)) => handle_set(conn, &key, &value),
            None => Response::Error {
                code: ErrorCode::Sql,
                message: "usage: SET <option> = <value>".into(),
            },
        };
        conn.push_resp(tag, resp);
        return;
    }
    if let Some(rest) = strip_keyword(trimmed, "SHOW") {
        match handle_show(shared, rest) {
            Ok(table) => {
                write_result_frames(
                    &mut conn.outbox,
                    tag,
                    conn.output,
                    table,
                    QuerySummary::default(),
                );
            }
            Err(resp) => conn.push_resp(tag, resp),
        }
        return;
    }
    let strategy = conn.session.strategy();
    dispatch(
        shared,
        conn,
        tag,
        JobKind::Query {
            sql: sql.to_string(),
            strategy,
        },
    );
}

/// Submit a statement to the statement queue: arm its cancel token
/// (before queueing, so a cancel landing during the queue wait is not
/// lost) and answer at once if the queue sheds it.
fn dispatch(shared: &Arc<Shared>, conn: &mut ConnState, tag: Option<u32>, kind: JobKind) {
    let key = ConnCancel::tag_key(tag);
    if conn.cancel.is_armed(key) {
        conn.push_resp(
            tag,
            Response::Error {
                code: ErrorCode::Protocol,
                message: match tag {
                    Some(t) => format!("tag {t} already has a statement in flight"),
                    None => {
                        "untagged statement already in flight (pipelining requires tags)".into()
                    }
                },
            },
        );
        return;
    }
    // Fresh per-query token honouring the session deadline; the deadline
    // clock also covers queue time — client-perceived latency is what the
    // deadline bounds.
    let token = match conn.session.settings().deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    // Always-on tracing: the ring is preallocated here (one small
    // allocation per statement, off the execution hot path) and every
    // stage records plain monotonic timestamps into it. The trace epoch
    // is this dispatch instant, so `admission_wait` is measured from the
    // client's perspective.
    let trace = Trace::new(TRACE_SPANS);
    let ctx = conn
        .session
        .exec_context()
        .with_cancel(token.clone())
        .with_trace(trace);
    conn.cancel.arm(key, token);
    let job = Job {
        shard: conn.shard,
        conn_token: conn.token,
        conn_id: conn.conn_id,
        tag,
        output: conn.output,
        cancel: conn.cancel.clone(),
        ctx,
        kind,
    };
    match shared.queue.submit(job) {
        Ok(()) => conn.inflight += 1,
        Err(reason) => {
            conn.cancel.finish(key);
            conn.push_resp(tag, shed_response(shared, reason));
        }
    }
}

fn handle_show(shared: &Shared, what: &str) -> Result<QueryResult, Response> {
    let what = what.trim().to_ascii_uppercase();
    match what.as_str() {
        "SERVER STATS" => {
            shared.refresh_gauges();
            Ok(shared.stats.show_table())
        }
        "STRATEGIES" => {
            let names = shared.db.strategies().names();
            Ok(QueryResult {
                columns: vec!["strategy".into()],
                rows: names
                    .into_iter()
                    .map(|n| vec![skinnerdb::Value::from(n.as_str())])
                    .collect(),
            })
        }
        other => Err(Response::Error {
            code: ErrorCode::Sql,
            message: format!("unknown SHOW target {other:?} (try SERVER STATS, STRATEGIES)"),
        }),
    }
}
