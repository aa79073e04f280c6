//! The concurrent server: acceptor, connection-shard event loops, the
//! statement queue and its workers, cancellation and graceful shutdown.
//!
//! Life of a query (pipelined):
//!
//! 1. The blocking **acceptor** thread accepts a `TcpStream`, checks the
//!    connection limit, and hands the socket to one of N **connection
//!    shards** (round-robin) through the shard's inbox + waker.
//! 2. The shard's event loop (`conn::shard_loop`) registers the
//!    nonblocking socket with its [`crate::poll::Poller`], accumulates
//!    bytes into a [`crate::protocol::FrameBuffer`], and decodes complete
//!    frames. `SET`/`SHOW`/`Prepare`/`Cancel` are answered inline on the
//!    loop; `Query`/`Execute` are **dispatched**: a fresh cancel token is
//!    armed and a `Job` is submitted to the `StatementQueue` without
//!    blocking — or shed at once when the queue is full or closed.
//! 3. One of the `max_concurrent` **workers** (each an execution slot)
//!    takes the oldest job, runs the query, encodes the response frames,
//!    frees its slot and pushes the `Completion` to the owning shard,
//!    waking it. A job still queued at its `queue_timeout` is shed by its
//!    own shard, which wakes no later than the earliest such deadline.
//! 4. The event loop routes the completion back to the connection (a
//!    stale token is dropped by conn-id check), appends the bytes to the
//!    connection's outbox and flushes as the socket allows. Backpressure
//!    is per connection: reads pause while the in-flight count is at the
//!    negotiated cap or the outbox exceeds the high-water mark.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use skinnerdb::skinner_exec::{ExecContext, ExecutionStrategy, SpanTimer, Trace};
use skinnerdb::{Database, DbError, Prepared, QueryResult, ScriptOutcome};

use crate::admission::{AdmissionConfig, ShedReason, StatementQueue};
use crate::conn::{shard_loop, ConnCancel, OutputMode};
use crate::metrics::MetricsExporter;
use crate::poll::{Poller, Waker};
use crate::protocol::{
    encode_row_batches, ErrorCode, ProfileSpan, QueryProfile, QuerySummary, Response,
    StatementSummary, WireError, DEFAULT_MAX_INFLIGHT,
};
use crate::stats::{template_key, ServerStats};

/// Server sizing and behaviour.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections allowed at once; further arrivals are turned away with
    /// an explicit error (never silently dropped).
    pub max_connections: usize,
    /// Query admission control (execution slots + bounded queue).
    pub admission: AdmissionConfig,
    /// Honour the wire-level `Shutdown` request (the binary's clean-exit
    /// path; embedders running in-process may prefer to disable it and
    /// call [`Server::shutdown`] themselves).
    pub allow_remote_shutdown: bool,
    /// Connection-shard event loops; `0` = auto (min(4, cores)).
    pub shards: usize,
    /// Pipelined statements a connection may keep in flight at once
    /// (advertised in `HelloOk`).
    pub max_inflight_per_conn: u32,
    /// Close connections idle (no traffic, nothing in flight) longer than
    /// this; `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Serve the telemetry registry as Prometheus text on this address
    /// (`--metrics-addr`); `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Log a structured slow-query line (template key, join order,
    /// convergence, per-stage micros) for queries at or over this wall
    /// time; `None` disables the log.
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            admission: AdmissionConfig::default(),
            allow_remote_shutdown: true,
            shards: 0,
            max_inflight_per_conn: DEFAULT_MAX_INFLIGHT,
            idle_timeout: Some(Duration::from_secs(300)),
            metrics_addr: None,
            slow_query_ms: None,
        }
    }
}

impl ServerConfig {
    pub(crate) fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|p| p.get().min(4))
            .unwrap_or(2)
            .max(1)
    }
}

/// One shard's mailbox: freshly accepted sockets and finished-query
/// completions, plus the waker that pops its event loop.
pub(crate) struct ShardHandle {
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl ShardHandle {
    pub(crate) fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().push(stream);
        self.waker.wake();
    }

    pub(crate) fn push_completion(&self, c: Completion) {
        self.completions.lock().push(c);
        self.waker.wake();
    }

    pub(crate) fn take_inbox(&self) -> Vec<TcpStream> {
        std::mem::take(&mut self.inbox.lock())
    }

    pub(crate) fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut self.completions.lock())
    }

    pub(crate) fn wake(&self) {
        self.waker.wake();
    }
}

/// A dispatched query on its way to a worker.
pub(crate) struct Job {
    pub shard: usize,
    pub conn_token: usize,
    pub conn_id: u64,
    /// Pipelining tag (`None` = untagged): echoed on every response
    /// frame this job produces.
    pub tag: Option<u32>,
    pub output: OutputMode,
    pub cancel: Arc<ConnCancel>,
    pub ctx: ExecContext,
    pub kind: JobKind,
}

pub(crate) enum JobKind {
    Query {
        sql: String,
        strategy: Arc<dyn ExecutionStrategy>,
    },
    Execute {
        prepared: Arc<Prepared>,
    },
}

/// A finished query's pre-encoded response frames, routed back to the
/// owning shard/connection.
pub(crate) struct Completion {
    pub shard: usize,
    pub conn_token: usize,
    pub conn_id: u64,
    pub bytes: Vec<u8>,
    /// The statement's span profile, keyed by its cancel-registry key —
    /// parked on the connection so a follow-up [`crate::protocol::Request::Profile`]
    /// can fetch it.
    pub profile: Option<(u64, QueryProfile)>,
}

pub(crate) struct Shared {
    pub db: Database,
    pub cfg: ServerConfig,
    pub addr: SocketAddr,
    pub queue: StatementQueue<Job>,
    pub stats: ServerStats,
    pub shutting_down: AtomicBool,
    /// `Some(when)` once shutdown was requested; [`Server::wait`] blocks
    /// on the condvar (no polling) and measures its wake latency from the
    /// stored instant.
    shutdown_at: StdMutex<Option<Instant>>,
    shutdown_cv: Condvar,
    /// Cancel registries of live connections, keyed by conn id — the
    /// out-of-band cancel path and shutdown reach running queries here.
    pub conns: Mutex<HashMap<u64, Arc<ConnCancel>>>,
    pub next_conn_id: AtomicU64,
    pub active_conns: AtomicUsize,
    key_seed: AtomicU64,
    pub shards: Vec<Arc<ShardHandle>>,
}

impl Shared {
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn trigger_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stamp the request time and pop `Server::wait` immediately.
        {
            let mut at = self.shutdown_at.lock().unwrap();
            at.get_or_insert_with(Instant::now);
        }
        self.shutdown_cv.notify_all();
        // Shed every queued query and trip every running one.
        for job in self.queue.close() {
            self.shards[job.shard].push_completion(shed_job(self, job, ShedReason::Closed));
        }
        for conn in self.conns.lock().values() {
            conn.cancel_all();
        }
        // Pop every shard's event loop so it tears its connections down.
        for shard in &self.shards {
            shard.wake();
        }
        // Unblock the acceptor's `accept()` with a throwaway connection.
        // A wildcard bind (0.0.0.0 / ::) is not connectable everywhere;
        // wake through loopback on the same port instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match self.addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
    }

    /// Sample live structures (connections, statement queue, join
    /// indexes, learning cache) into registry gauges/counters. Called per
    /// `/metrics` scrape and per `SHOW SERVER STATS`, so both read current
    /// values without any periodic sampler thread.
    pub(crate) fn refresh_gauges(&self) {
        let r = self.stats.registry();
        r.gauge("skinner_active_connections", "Open client connections.")
            .set(self.active_conns.load(Ordering::SeqCst) as u64);
        r.gauge("skinner_active_queries", "Queries executing right now.")
            .set(self.queue.active());
        r.gauge(
            "skinner_queued_queries",
            "Queries waiting for an execution slot.",
        )
        .set(self.queue.queued() as u64);
        r.counter(
            "skinner_admitted_total",
            "Queries granted an execution slot.",
        )
        .raise_to(self.queue.admitted_total());
        r.counter(
            "skinner_shed_total",
            "Queries refused by admission control.",
        )
        .raise_to(self.queue.shed_total());
        r.gauge(
            "skinner_join_index_bytes",
            "Bytes of join indexes retained by catalog tables.",
        )
        .set(self.db.catalog().index_bytes() as u64);
        // The instance-wide default only: a session may override it with
        // `SET learning_cache`, which the hit/miss/published counters reflect.
        r.gauge(
            "skinner_learning_cache_enabled_default",
            "1 when new sessions use the learning cache by default.",
        )
        .set(self.db.learning_cache_enabled() as u64);
        r.gauge(
            "skinner_learning_cache_durable",
            "1 when the learning cache persists to the data directory.",
        )
        .set(self.db.learning_cache().is_durable() as u64);
        let cache = self.db.learning_cache_stats();
        r.gauge(
            "skinner_learning_cache_entries",
            "Templates in the cross-query learning cache.",
        )
        .set(cache.entries as u64);
        r.counter("skinner_learning_cache_hits_total", "Learning-cache hits.")
            .raise_to(cache.hits);
        r.counter(
            "skinner_learning_cache_misses_total",
            "Learning-cache misses.",
        )
        .raise_to(cache.misses);
        r.counter(
            "skinner_learning_cache_published_total",
            "UCT statistics published to the learning cache.",
        )
        .raise_to(cache.published);
        r.counter(
            "skinner_learning_cache_evictions_total",
            "Learning-cache entries evicted.",
        )
        .raise_to(cache.evictions);
        r.counter(
            "skinner_learning_cache_invalidations_total",
            "Learning-cache entries invalidated (drops, content changes).",
        )
        .raise_to(cache.invalidations);
        r.gauge(
            "skinner_learning_cache_quarantined",
            "Templates currently quarantined for warm-start regressions.",
        )
        .set(cache.quarantined as u64);
        r.counter(
            "skinner_learning_cache_quarantines_total",
            "Quarantines ever entered by drift detection.",
        )
        .raise_to(cache.quarantines);
        r.counter(
            "skinner_learning_cache_generalized_hits_total",
            "Lookups served by a nearest-neighbor template.",
        )
        .raise_to(cache.generalized_hits);
        r.counter(
            "skinner_learning_cache_loaded_total",
            "Persisted priors loaded from the data directory.",
        )
        .raise_to(cache.loaded);
        r.counter(
            "skinner_learning_cache_load_rejected_total",
            "Persisted prior payloads refused (corrupt or wrong version).",
        )
        .raise_to(cache.load_rejected);
        r.counter(
            "skinner_learning_cache_flushes_total",
            "Learning-cache flushes to the data directory.",
        )
        .raise_to(cache.flushes);
    }

    /// A process-unique, hard-to-guess cancel key (no RNG dependency:
    /// mixes a counter with the clock, which is plenty for a loopback
    /// protocol's misdirected-cancel guard).
    pub(crate) fn mint_cancel_key(&self) -> u64 {
        let n = self
            .key_seed
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        let mut x = n ^ (t << 17) ^ std::process::id() as u64;
        // splitmix64 finalizer.
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the acceptor, breaks every connection and joins all threads.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    wake_latency: Option<Duration>,
    /// The `/metrics` endpoint. Deliberately NOT stopped by
    /// [`Server::shutdown`]: it outlives the drain so the final scrape
    /// (e.g. CI asserting the shutdown wake-latency gauge) still works;
    /// it stops when the `Server` is dropped.
    exporter: Option<MetricsExporter>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// start serving `db`.
    pub fn bind(
        db: Database,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shard_count = cfg.effective_shards();
        let mut pollers = Vec::with_capacity(shard_count);
        let mut handles = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let poller = Poller::new()?;
            handles.push(Arc::new(ShardHandle {
                inbox: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                waker: poller.waker(),
            }));
            pollers.push(poller);
        }
        let shared = Arc::new(Shared {
            db,
            queue: StatementQueue::new(cfg.admission.clone()),
            addr: local,
            stats: ServerStats::new(),
            shutting_down: AtomicBool::new(false),
            shutdown_at: StdMutex::new(None),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            active_conns: AtomicUsize::new(0),
            key_seed: AtomicU64::new(0x5123_9d1f_8437_aa77),
            shards: handles,
            cfg,
        });
        let workers = (0..shared.queue.slots())
            .map(|ix| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("skinner-worker-{ix}"))
                    .spawn(move || serve_statements(&shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut shard_threads = Vec::with_capacity(shard_count);
        for (ix, poller) in pollers.into_iter().enumerate() {
            let shared2 = shared.clone();
            let handle = shared.shards[ix].clone();
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("skinner-shard-{ix}"))
                    .spawn(move || shard_loop(shared2, handle, poller, ix))?,
            );
        }
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("skinner-acceptor".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        let exporter = match shared.cfg.metrics_addr.clone() {
            Some(maddr) => {
                let weak: Weak<Shared> = Arc::downgrade(&shared);
                let scrapes = shared.stats.metrics_scrapes_total.clone();
                Some(MetricsExporter::bind(
                    maddr.as_str(),
                    shared.stats.registry().clone(),
                    move || {
                        scrapes.inc();
                        if let Some(s) = weak.upgrade() {
                            s.refresh_gauges();
                        }
                    },
                )?)
            }
            None => None,
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            shard_threads,
            workers,
            wake_latency: None,
            exporter,
        })
    }

    /// The address actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The `/metrics` endpoint's bound address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(|e| e.local_addr())
    }

    /// The server's metric registry (shared with `/metrics` and
    /// `SHOW SERVER STATS`).
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// The shared database this server fronts (tests use it to compare
    /// wire results with in-process execution).
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// True once a shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutting_down()
    }

    /// A handle that can request shutdown from another thread (the
    /// binary's SIGTERM watcher uses this). Holds only a `Weak`, so a
    /// forgotten handle never keeps a dead server's state alive.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::downgrade(&self.shared))
    }

    /// Stop accepting, cancel and disconnect every client, and join every
    /// thread the server spawned. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.trigger_shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The closed queue lets each worker go once its statement ends.
        for h in self.shard_threads.drain(..).chain(self.workers.drain(..)) {
            let _ = h.join();
        }
        // Every worker has drained: flush the learning cache's final
        // partial batch of publications so cross-query knowledge survives
        // the restart (no-op without a data directory).
        self.shared.db.flush_learning_cache();
    }

    /// Block until a shutdown is requested (e.g. by a wire-level
    /// `Shutdown` message), then join everything. The binary's main loop.
    /// Wakes by condvar notification, not polling — see
    /// [`Server::shutdown_wake_latency`].
    pub fn wait(&mut self) {
        {
            let mut at = self.shared.shutdown_at.lock().unwrap();
            while at.is_none() {
                at = self.shared.shutdown_cv.wait(at).unwrap();
            }
            let latency = at.expect("stamped before notify").elapsed();
            self.wake_latency = Some(latency);
            // Publish to the registry so CI (and operators) can assert
            // the condvar wake from a `/metrics` scrape instead of
            // parsing stdout.
            self.shared
                .stats
                .shutdown_wake_latency_us
                .set(latency.as_micros() as u64);
        }
        self.shutdown();
    }

    /// How long [`Server::wait`] slept past the shutdown request before
    /// waking (`None` until a `wait` call has been woken). CI asserts this
    /// stays in condvar territory (well under 10 ms), guarding against a
    /// regression to timed polling.
    pub fn shutdown_wake_latency(&self) -> Option<Duration> {
        self.wake_latency
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Requests a graceful shutdown of a [`Server`] from any thread —
/// functionally the same as a wire-level `Shutdown` message: the blocked
/// [`Server::wait`] wakes, drains, and flushes the learning cache.
#[derive(Clone)]
pub struct ShutdownHandle(Weak<Shared>);

impl ShutdownHandle {
    /// Trigger the shutdown; returns `false` if the server is already
    /// gone.
    pub fn request(&self) -> bool {
        match self.0.upgrade() {
            Some(shared) => {
                shared.trigger_shutdown();
                true
            }
            None => false,
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut next_shard = 0usize;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.is_shutting_down() {
                    break;
                }
                // Transient accept failures (e.g. EMFILE under fd
                // pressure) must not busy-spin a core.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.is_shutting_down() {
            // The shutdown wake-up (or an unlucky late client).
            let _ = Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "server is shutting down".into(),
            }
            .write(&mut &stream);
            break;
        }
        if shared.active_conns.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            shared.stats.connections_rejected.inc();
            // Best effort on a still-blocking socket; a stalled peer can't
            // wedge the acceptor for long (tiny frame, fresh buffer).
            let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
            let _ = Response::Error {
                code: ErrorCode::TooManyConnections,
                message: format!(
                    "connection limit ({}) reached; retry later",
                    shared.cfg.max_connections
                ),
            }
            .write(&mut &stream);
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        shared.stats.connections_total.inc();
        shared.shards[next_shard % shared.shards.len()].push_conn(stream);
        next_shard = next_shard.wrapping_add(1);
    }
}

// ---- worker-side execution ---------------------------------------------

/// One execution slot: take statements oldest first, run each, free the
/// slot and hand the completion to the owning shard. Returns once the
/// queue is closed.
fn serve_statements(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let completion = run_job(shared, job);
        shared.queue.finish();
        shared.shards[completion.shard].push_completion(completion);
    }
}

/// Run one job on a worker: execute it and pre-encode every response
/// frame. Always returns one completion: a panic while executing or
/// encoding is caught and answered with an error, so neither the
/// connection's in-flight count nor the worker is lost.
fn run_job(shared: &Shared, job: Job) -> Completion {
    record_admission_wait(shared, &job);
    shared.stats.queries_total.inc();
    let mut out = Vec::new();
    if catch_unwind(AssertUnwindSafe(|| execute(shared, &job, &mut out))).is_err() {
        job.cancel.finish(ConnCancel::tag_key(job.tag));
        shared.stats.queries_failed.inc();
        out.clear();
        push_frame(
            &mut out,
            job.tag,
            Response::Error {
                code: ErrorCode::Sql,
                message: "internal error: query execution panicked".into(),
            },
        );
    }
    complete(job, out)
}

/// Answer a job shed while it waited (queue timeout or shutdown).
pub(crate) fn shed_job(shared: &Shared, job: Job, reason: ShedReason) -> Completion {
    record_admission_wait(shared, &job);
    job.cancel.finish(ConnCancel::tag_key(job.tag));
    let mut out = Vec::new();
    push_frame(&mut out, job.tag, shed_response(shared, reason));
    complete(job, out)
}

/// The error a shed statement gets.
pub(crate) fn shed_response(shared: &Shared, reason: ShedReason) -> Response {
    Response::Error {
        code: match reason {
            ShedReason::Closed => ErrorCode::ShuttingDown,
            _ => ErrorCode::Overloaded,
        },
        message: reason.message(shared.queue.config()),
    }
}

/// End the `admission_wait` span. The trace was attached at dispatch (its
/// epoch is the dispatch instant), so the span covers the time queued.
fn record_admission_wait(shared: &Shared, job: &Job) {
    if let Some(t) = job.ctx.trace() {
        t.record("admission_wait", 0, 0);
        shared.stats.admission_wait_us.record(t.now_ns() / 1_000);
    }
}

/// Execute `job` and encode its response frames into `out`.
fn execute(shared: &Shared, job: &Job, out: &mut Vec<u8>) {
    let (tag, ctx, kind) = (job.tag, &job.ctx, &job.kind);
    let strategy_name = match kind {
        JobKind::Query { strategy, .. } => strategy.name().to_string(),
        JobKind::Execute { prepared } => prepared.strategy().name().to_string(),
    };
    // A cancel (or deadline) that fired while queued aborts before any
    // execution work is done.
    let ran = if ctx.cancel().is_cancelled() {
        Ok(ScriptOutcome {
            result: QueryResult::empty(Vec::new()),
            work_units: 0,
            wall: Duration::ZERO,
            timed_out: true,
            statements: Vec::new(),
        })
    } else {
        match kind {
            JobKind::Query { sql, strategy } => {
                shared.db.run_script_detailed(sql, strategy.as_ref(), ctx)
            }
            JobKind::Execute { prepared } => {
                let started = Instant::now();
                let out = prepared.execute_in(ctx);
                Ok(ScriptOutcome {
                    work_units: out.work_units,
                    wall: started.elapsed(),
                    timed_out: out.timed_out,
                    statements: vec![skinnerdb::StatementOutcome {
                        kind: skinnerdb::StatementKind::Select,
                        rows: out.result.num_rows(),
                        work_units: out.work_units,
                        wall: out.wall,
                        timed_out: out.timed_out,
                        metrics: out.metrics,
                    }],
                    result: out.result,
                })
            }
        }
    };
    let cancelled = job.cancel.finish(ConnCancel::tag_key(tag));
    match ran {
        Err(e) => {
            shared.stats.queries_failed.inc();
            push_frame(out, tag, sql_error(&e));
        }
        Ok(script) if script.timed_out => {
            let (code, counter) = if cancelled {
                (ErrorCode::Cancelled, &shared.stats.queries_cancelled)
            } else {
                (ErrorCode::Timeout, &shared.stats.queries_timed_out)
            };
            counter.inc();
            push_frame(
                out,
                tag,
                Response::Error {
                    code,
                    message: match code {
                        ErrorCode::Cancelled => "query cancelled by client request".into(),
                        _ => "query exceeded its work limit or deadline".into(),
                    },
                },
            );
        }
        Ok(script) => {
            let metrics: Vec<&skinnerdb::ExecMetrics> =
                script.statements.iter().map(|s| &s.metrics).collect();
            shared
                .stats
                .record_query(&strategy_name, &metrics, script.work_units, script.wall);
            maybe_log_slow_query(shared, kind, &strategy_name, &script, ctx.trace());
            let summary = summarize(&script);
            let ScriptOutcome { result, .. } = script;
            let enc_timer = SpanTimer::start(ctx.trace(), "encode_flush");
            write_result_frames(out, tag, job.output, result, summary);
            enc_timer.finish(out.len() as u64);
        }
    }
}

/// Wrap a job's encoded response, and its span profile, for its shard.
fn complete(job: Job, bytes: Vec<u8>) -> Completion {
    let profile = job.ctx.trace().map(|t| {
        let spans = t
            .spans()
            .into_iter()
            .map(|s| ProfileSpan {
                stage: s.stage.to_string(),
                label: s.label,
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
                detail: s.detail,
            })
            .collect();
        (
            ConnCancel::tag_key(job.tag),
            QueryProfile {
                total_ns: t.now_ns(),
                dropped: t.dropped(),
                spans,
            },
        )
    });
    Completion {
        shard: job.shard,
        conn_token: job.conn_token,
        conn_id: job.conn_id,
        bytes,
        profile,
    }
}

/// Emit the structured slow-query line when the statement's wall time
/// crossed `slow_query_ms`: template key, strategy, learned join order,
/// convergence point, warm-start/page/join-index counters and per-stage
/// micros.
fn maybe_log_slow_query(
    shared: &Shared,
    kind: &JobKind,
    strategy: &str,
    script: &ScriptOutcome,
    trace: Option<&Trace>,
) {
    let Some(threshold_ms) = shared.cfg.slow_query_ms else {
        return;
    };
    if script.wall < Duration::from_millis(threshold_ms) {
        return;
    }
    shared.stats.slow_queries_total.inc();
    let template = match kind {
        JobKind::Query { sql, .. } => template_key(sql),
        JobKind::Execute { .. } => "<prepared statement>".to_string(),
    };
    // Script statistics of the heaviest statement (by wall) stand in for
    // the script when scripts have several.
    let stmt = script
        .statements
        .iter()
        .max_by_key(|s| s.wall)
        .map(|s| &s.metrics);
    let order: Vec<usize> = stmt.map(|m| m.order.clone()).unwrap_or_default();
    let counter = |name: &str| stmt.and_then(|m| m.counter(name)).unwrap_or(0);
    let (pages_read, pages_skipped, slices) = stmt
        .map(|m| (m.pages_read, m.pages_skipped, m.slices))
        .unwrap_or((0, 0, 0));
    let stages = trace
        .map(|t| {
            let mut agg: Vec<(&'static str, u64)> = Vec::new();
            for s in t.spans() {
                match agg.iter_mut().find(|(n, _)| *n == s.stage) {
                    Some(e) => e.1 += s.dur_ns,
                    None => agg.push((s.stage, s.dur_ns)),
                }
            }
            agg.iter()
                .map(|(n, ns)| format!("{n}={}us", ns / 1_000))
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default();
    eprintln!(
        "slow-query wall_ms={} strategy={} slices={} order={:?} last_order_switch={} \
         order_switches={} warm_start={} pages_read={} pages_skipped={} index_builds={} \
         index_reuses={} stages=[{}] template={:?}",
        script.wall.as_millis(),
        strategy,
        slices,
        order,
        counter("last_order_switch"),
        counter("order_switches"),
        counter("cache_hit"),
        pages_read,
        pages_skipped,
        counter("index_builds"),
        counter("index_reuses"),
        stages,
        template,
    );
}

// ---- response encoding --------------------------------------------------

/// Append `resp` to `out` as a complete frame, wrapped in a `Tagged`
/// envelope when the originating request was tagged. An unencodable
/// response (oversized value) degrades to a typed `TooLarge` error
/// frame instead of desyncing the stream. Returns false when the original response could not be encoded
/// (callers streaming multi-frame results stop at the first failure; the
/// error frame is terminal).
pub(crate) fn push_frame(out: &mut Vec<u8>, tag: Option<u32>, resp: Response) -> bool {
    let wrap = |resp: Response| match tag {
        Some(t) => Response::Tagged {
            tag: t,
            resp: Box::new(resp),
        },
        None => resp,
    };
    match wrap(resp).encode_framed(out) {
        Ok(()) => true,
        Err(e) => {
            push_too_large(out, tag, e);
            false
        }
    }
}

/// Answer an unencodable frame with a `TooLarge` error, its text clipped
/// so the *error* frame always encodes.
fn push_too_large(out: &mut Vec<u8>, tag: Option<u32>, e: WireError) {
    let mut message = e.to_string();
    message.truncate(512);
    let error = Response::Error {
        code: ErrorCode::TooLarge,
        message,
    };
    let error = match tag {
        Some(tag) => Response::Tagged {
            tag,
            resp: Box::new(error),
        },
        None => error,
    };
    let _ = error.encode_framed(out);
}

/// Stream a result as frames: text mode sends one rendered table, binary
/// mode sends header + row batches; both end with `Done`.
pub(crate) fn write_result_frames(
    out: &mut Vec<u8>,
    tag: Option<u32>,
    output: OutputMode,
    result: QueryResult,
    summary: QuerySummary,
) {
    match output {
        OutputMode::Text => {
            let mut text = skinnerdb::render_table_with(
                &result,
                &skinnerdb::TableOptions {
                    max_rows: usize::MAX,
                    row_count_footer: true,
                    ..skinnerdb::TableOptions::default()
                },
            );
            // A rendered table must still fit one frame; clip rather than
            // desync the connection with an unwritable frame.
            let budget = (crate::protocol::MAX_FRAME as usize).saturating_sub(1024);
            if text.len() > budget {
                let mut cut = budget;
                while cut > 0 && !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
                text.push_str("\n… (output truncated: table exceeds one frame)\n");
            }
            if !push_frame(out, tag, Response::Text { text }) {
                return;
            }
        }
        OutputMode::Binary => {
            let QueryResult { columns, rows } = result;
            if !push_frame(out, tag, Response::RowHeader { columns }) {
                return;
            }
            if let Err(e) = encode_row_batches(out, tag, &rows) {
                push_too_large(out, tag, e);
                return;
            }
        }
    }
    push_frame(out, tag, Response::Done { summary });
}

pub(crate) fn summarize(script: &ScriptOutcome) -> QuerySummary {
    QuerySummary {
        work_units: script.work_units,
        wall_micros: script.wall.as_micros() as u64,
        statements: script
            .statements
            .iter()
            .map(|s| StatementSummary {
                rows: s.rows as u64,
                work_units: s.work_units,
                wall_micros: s.wall.as_micros() as u64,
                slices: s.metrics.slices,
                order: s.metrics.order.iter().map(|&t| t as u32).collect(),
            })
            .collect(),
    }
}

pub(crate) fn sql_error(e: &DbError) -> Response {
    let code = match e {
        DbError::Timeout => ErrorCode::Timeout,
        _ => ErrorCode::Sql,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// Case-insensitive keyword prefix: returns the remainder if `input`
/// starts with `kw` followed by whitespace or end.
pub(crate) fn strip_keyword<'x>(input: &'x str, kw: &str) -> Option<&'x str> {
    if input.len() < kw.len() || !input[..kw.len()].eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &input[kw.len()..];
    if rest.is_empty() || rest.starts_with(char::is_whitespace) {
        Some(rest)
    } else {
        None
    }
}

/// Parse the tail of a `SET` command: `key = value`, `key TO value`, or
/// `key value`; values may be quoted.
pub(crate) fn parse_set(rest: &str) -> Option<(String, String)> {
    let rest = rest.trim();
    let (key, value) = match rest.split_once('=') {
        Some((k, v)) => (k, v),
        None => {
            let (k, v) = rest.split_once(char::is_whitespace)?;
            let v = strip_keyword(v.trim(), "TO").unwrap_or(v);
            (k, v)
        }
    };
    let value = value.trim().trim_matches('\'').trim_matches('"');
    let key = key.trim();
    if key.is_empty() || value.is_empty() {
        return None;
    }
    Some((key.to_string(), value.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_command_forms_parse() {
        assert_eq!(
            parse_set("strategy = 'parallel_skinner'"),
            Some(("strategy".into(), "parallel_skinner".into()))
        );
        assert_eq!(
            parse_set("threads TO 4"),
            Some(("threads".into(), "4".into()))
        );
        assert_eq!(
            parse_set("work_limit 100"),
            Some(("work_limit".into(), "100".into()))
        );
        assert_eq!(parse_set("lonely"), None);
        assert_eq!(parse_set(""), None);
    }

    #[test]
    fn keyword_stripping_is_case_insensitive_and_word_bounded() {
        assert_eq!(strip_keyword("SET a = b", "set"), Some(" a = b"));
        assert_eq!(strip_keyword("settle down", "SET"), None);
        assert_eq!(
            strip_keyword("show server stats", "SHOW"),
            Some(" server stats")
        );
        assert_eq!(strip_keyword("SHOW", "SHOW"), Some(""));
    }

    #[test]
    fn cancel_keys_are_distinct() {
        let shared = Shared {
            db: Database::new(),
            cfg: ServerConfig::default(),
            addr: "127.0.0.1:1".parse().unwrap(),
            queue: StatementQueue::new(AdmissionConfig::default()),
            stats: ServerStats::new(),
            shutting_down: AtomicBool::new(false),
            shutdown_at: StdMutex::new(None),
            shutdown_cv: Condvar::new(),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
            active_conns: AtomicUsize::new(0),
            key_seed: AtomicU64::new(1),
            shards: Vec::new(),
        };
        let a = shared.mint_cancel_key();
        let b = shared.mint_cancel_key();
        assert_ne!(a, b);
    }

    /// One execution slot: a statement that panics is answered with one
    /// error and leaves its worker serving, so the next statement runs.
    #[test]
    fn a_panicking_statement_yields_one_error_and_its_worker_survives() {
        use crate::protocol::{Request, PROTOCOL_VERSION};
        use skinnerdb::{DataType, Value};
        let db = Database::new();
        db.create_table(
            "t",
            &[("x", DataType::Int)],
            (0..10).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        db.register_udf("boom", |_| panic!("udf boom"));
        let cfg = ServerConfig {
            admission: AdmissionConfig {
                max_concurrent: 1,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = Server::bind(db, "127.0.0.1:0", cfg).unwrap();
        assert_eq!(server.workers.len(), 1);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let roundtrip = |req: Request| {
            req.write(&mut &stream).unwrap();
            let mut frames = vec![Response::read(&mut &stream).unwrap()];
            while matches!(
                frames.last(),
                Some(Response::RowHeader { .. } | Response::RowBatch { .. })
            ) {
                frames.push(Response::read(&mut &stream).unwrap());
            }
            frames
        };
        roundtrip(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        let query = |sql: &str| Request::Query { sql: sql.into() };
        match &roundtrip(query("SELECT boom(t.x) y FROM t"))[..] {
            [Response::Error { code, message }] => {
                assert_eq!(*code, ErrorCode::Sql);
                assert!(message.contains("panicked"), "{message}");
            }
            other => panic!("expected one error frame, got {other:?}"),
        }
        let frames = roundtrip(query("SELECT t.x FROM t"));
        assert!(
            matches!(frames.last(), Some(Response::Done { .. })),
            "{frames:?}"
        );
        assert_eq!(server.stats().queries_failed.get(), 1);
        server.shutdown();
    }

    /// Frame-level degradation: an unencodable response becomes a typed
    /// error frame in place, tagged like the original.
    #[test]
    fn unencodable_response_degrades_to_typed_error() {
        let huge = "x".repeat(crate::protocol::MAX_FRAME as usize + 1);
        let mut out = Vec::new();
        let ok = push_frame(&mut out, Some(9), Response::Text { text: huge });
        assert!(!ok);
        // The appended frame decodes as Tagged{9, Error{TooLarge}}.
        let len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
        let resp = Response::decode(&out[4..4 + len]).unwrap();
        match resp {
            Response::Tagged { tag, resp } => {
                assert_eq!(tag, 9);
                assert!(matches!(
                    *resp,
                    Response::Error {
                        code: ErrorCode::TooLarge,
                        ..
                    }
                ));
            }
            other => panic!("expected tagged error, got {other:?}"),
        }
    }
}
