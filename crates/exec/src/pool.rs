//! A persistent worker pool for data-parallel episode execution.
//!
//! The paper's multi-threaded SkinnerC splits each time slice's tuple
//! batches across threads. [`WorkerPool`] is the engine-agnostic half of
//! that design: N − 1 long-lived helper threads fed per-episode tasks over
//! channels, plus the calling thread, which runs the last task of each
//! scatter/gather call itself; results come back in task order.
//! [`partition_tuples`] cuts an input-tuple range into near-equal
//! contiguous chunks, and [`merge_worker_metrics`] folds the per-worker
//! [`ExecMetrics`] back into the single block an [`crate::ExecOutcome`]
//! carries.
//!
//! The pool is deliberately dumb: it knows nothing about joins, budgets or
//! learning. Strategies (e.g. `parallel_skinner` in `skinner_core`) own the
//! episode loop and ship self-contained tasks — everything a worker touches
//! travels inside the task, typically behind `Arc`s.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::outcome::ExecMetrics;

/// A half-open range `[start, end)` of tuple indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleRange {
    pub start: u64,
    pub end: u64,
}

impl TupleRange {
    pub fn new(start: u64, end: u64) -> Self {
        debug_assert!(start <= end, "inverted range {start}..{end}");
        TupleRange { start, end }
    }

    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Split `[start, end)` into at most `parts` contiguous non-empty ranges of
/// near-equal size (sizes differ by at most one tuple). Deterministic, and
/// empty for an empty input range.
pub fn partition_tuples(start: u64, end: u64, parts: usize) -> Vec<TupleRange> {
    if start >= end || parts == 0 {
        return Vec::new();
    }
    let total = end - start;
    let parts = (parts as u64).min(total);
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut lo = start;
    for i in 0..parts {
        let size = base + u64::from(i < extra);
        out.push(TupleRange::new(lo, lo + size));
        lo += size;
    }
    debug_assert_eq!(lo, end);
    out
}

/// Named counters that are *shared snapshots*, not per-worker
/// contributions: every worker's block replicates the same value (a
/// cache-probe fact, a configuration constant, a convergence index), so
/// the merge takes the maximum. Summing them — the treatment every other
/// counter gets — would multiply the shared fact by the worker count.
const SNAPSHOT_COUNTERS: &[&str] = &[
    "cache_hit",
    "warm_start_visits",
    "warm_start_generalized",
    "last_order_switch",
    "order_switches",
    "threads",
];

/// Merge per-worker metric blocks into the single block a sequential run
/// over the same work would report: additive counts (tuples, slices,
/// pages) sum; sizes describing shared structures (the UCT tree, the
/// result set) take the maximum; per-order slice counts merge by key;
/// named counters sum per name except the snapshot counters listed in
/// `SNAPSHOT_COUNTERS`, which are replicated across workers and merge by
/// maximum so each shared fact is counted exactly once.
pub fn merge_worker_metrics(parts: impl IntoIterator<Item = ExecMetrics>) -> ExecMetrics {
    let mut merged = ExecMetrics::default();
    for m in parts {
        merged.intermediate_tuples += m.intermediate_tuples;
        merged.result_tuples += m.result_tuples;
        merged.slices += m.slices;
        merged.pages_read += m.pages_read;
        merged.pages_skipped += m.pages_skipped;
        merged.uct_nodes = merged.uct_nodes.max(m.uct_nodes);
        merged.tracker_nodes = merged.tracker_nodes.max(m.tracker_nodes);
        merged.result_set_bytes = merged.result_set_bytes.max(m.result_set_bytes);
        merged.total_aux_bytes = merged.total_aux_bytes.max(m.total_aux_bytes);
        // Growth samples describe one shared tree; keep the densest curve.
        if m.tree_growth.len() > merged.tree_growth.len() {
            merged.tree_growth = m.tree_growth;
        }
        for (order, n) in m.order_slice_counts {
            match merged
                .order_slice_counts
                .iter_mut()
                .find(|(o, _)| *o == order)
            {
                Some(slot) => slot.1 += n,
                None => merged.order_slice_counts.push((order, n)),
            }
        }
        for (name, value) in m.counters {
            let prior = merged.counter(name).unwrap_or(0);
            let next = if SNAPSHOT_COUNTERS.contains(&name) {
                prior.max(value)
            } else {
                prior + value
            };
            merged = merged.with_counter(name, next);
        }
        if merged.order.is_empty() {
            merged.order = m.order;
        }
        if merged.winner.is_none() {
            merged.winner = m.winner;
        }
    }
    // Restore the most-used-first invariant after per-order summing.
    merged
        .order_slice_counts
        .sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    merged
}

/// A pool of `threads − 1` persistent helper threads plus the calling
/// thread, processing tasks of type `T` into results of type `R`.
///
/// [`WorkerPool::scatter_gather`] hands all but the last task of a call
/// round-robin to the helpers, runs the last one on the calling thread,
/// waits for the helpers' results and returns every result in task order.
/// The caller works instead of sleeping at the barrier, and a call with one
/// task (or a one-thread pool) never touches another thread. Dropping the
/// pool closes the task channels and joins the helpers.
pub struct WorkerPool<T, R> {
    worker: Arc<Worker<T, R>>,
    task_txs: Vec<mpsc::Sender<(usize, T)>>,
    result_rx: mpsc::Receiver<(usize, std::thread::Result<R>)>,
    handles: Vec<JoinHandle<()>>,
}

type Worker<T, R> = dyn Fn(usize, T) -> R + Send + Sync;

impl<T: Send + 'static, R: Send + 'static> WorkerPool<T, R> {
    /// A pool of `threads` (at least one) running `worker(worker_id, task)`
    /// per task: it spawns `threads − 1` helpers, ids `0..threads − 1`, and
    /// the calling thread is worker `threads − 1`.
    pub fn new<F>(threads: usize, worker: F) -> Self
    where
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let helpers = threads.max(1) - 1;
        let worker: Arc<Worker<T, R>> = Arc::new(worker);
        let (result_tx, result_rx) = mpsc::channel();
        let mut task_txs = Vec::with_capacity(helpers);
        let mut handles = Vec::with_capacity(helpers);
        for id in 0..helpers {
            let (task_tx, task_rx) = mpsc::channel::<(usize, T)>();
            task_txs.push(task_tx);
            let worker = worker.clone();
            let result_tx = result_tx.clone();
            handles.push(std::thread::spawn(move || {
                // Exits when the pool drops its sender.
                while let Ok((ix, task)) = task_rx.recv() {
                    // A panicking task (a user UDF, say) must still produce
                    // a result message, or `scatter_gather` would wait for
                    // it forever; the caller re-raises the panic instead.
                    let r =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(id, task)));
                    if result_tx.send((ix, r)).is_err() {
                        return; // pool gone
                    }
                }
            }));
        }
        WorkerPool {
            worker,
            task_txs,
            result_rx,
            handles,
        }
    }

    /// Number of threads, the calling one included.
    pub fn threads(&self) -> usize {
        self.task_txs.len() + 1
    }

    /// Run `tasks`: all but the last round-robin on the helpers, the last on
    /// the calling thread. Returns one result per task, in task order.
    /// A panic in any task is re-raised here only after every task handed
    /// to a helper has reported, so the pool stays usable after the caller
    /// catches it.
    pub fn scatter_gather(&self, mut tasks: Vec<T>) -> Vec<R> {
        let helpers = self.task_txs.len();
        if helpers == 0 {
            return tasks.into_iter().map(|t| (self.worker)(0, t)).collect();
        }
        let Some(last) = tasks.pop() else {
            return Vec::new();
        };
        let sent = tasks.len();
        for (ix, task) in tasks.into_iter().enumerate() {
            self.task_txs[ix % helpers]
                .send((ix, task))
                .expect("helper thread exited while the pool is alive");
        }
        let local = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (self.worker)(helpers, last)
        }));
        let mut results: Vec<Option<R>> = (0..sent).map(|_| None).collect();
        let mut panicked = None;
        for _ in 0..sent {
            let (ix, r) = self
                .result_rx
                .recv()
                .expect("helper thread exited while the pool is alive");
            match r {
                Ok(r) => results[ix] = Some(r),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        let local = local.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.expect("one result per task"))
            .chain(std::iter::once(local))
            .collect()
    }
}

impl<T, R> Drop for WorkerPool<T, R> {
    fn drop(&mut self) {
        self.task_txs.clear(); // close the channels → helpers exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---- completion-hook pool ----------------------------------------------

struct CompletionQueue<T> {
    state: std::sync::Mutex<CompletionQueueState<T>>,
    ready: std::sync::Condvar,
}

struct CompletionQueueState<T> {
    tasks: std::collections::VecDeque<T>,
    closed: bool,
}

/// The asynchronous sibling of [`WorkerPool`]: N persistent threads pull
/// tasks from one shared queue, and each finished task's result is handed
/// to a *completion hook* on the worker thread instead of being gathered
/// by the submitter.
///
/// Where [`WorkerPool::scatter_gather`] is a barrier (run a batch, wait
/// for all of it), [`CompletionPool::submit`] never blocks:
/// an event loop can hand work over and keep multiplexing sockets while
/// the hook routes each result back (e.g. into a per-shard completion
/// queue followed by a poller wake-up). The shared queue also means no
/// head-of-line blocking behind a slow task on a round-robin channel —
/// any idle worker picks up the next task.
///
/// The hook runs on the worker thread; keep it cheap (push + notify). A
/// panicking task is swallowed and produces *no* completion — callers
/// that need exactly-one-completion semantics must catch panics inside
/// `worker` and return an error-shaped `R`. Dropping the pool closes the
/// queue, lets workers drain what was already submitted, and joins them.
pub struct CompletionPool<T> {
    queue: Arc<CompletionQueue<T>>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> CompletionPool<T> {
    /// Spawn `threads` workers (at least one). Each task runs as
    /// `complete(id, worker(id, task))` on whichever worker dequeues it.
    pub fn new<R, W, H>(threads: usize, worker: W, complete: H) -> Self
    where
        R: Send + 'static,
        W: Fn(usize, T) -> R + Send + Sync + 'static,
        H: Fn(usize, R) + Send + Sync + 'static,
    {
        let threads = threads.max(1);
        let queue = Arc::new(CompletionQueue {
            state: std::sync::Mutex::new(CompletionQueueState {
                tasks: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: std::sync::Condvar::new(),
        });
        let worker = Arc::new(worker);
        let complete = Arc::new(complete);
        let mut handles = Vec::with_capacity(threads);
        for id in 0..threads {
            let queue = queue.clone();
            let worker = worker.clone();
            let complete = complete.clone();
            handles.push(std::thread::spawn(move || loop {
                let task = {
                    let mut state = queue.state.lock().unwrap();
                    loop {
                        if let Some(task) = state.tasks.pop_front() {
                            break task;
                        }
                        if state.closed {
                            return;
                        }
                        state = queue.ready.wait(state).unwrap();
                    }
                };
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(id, task)));
                if let Ok(r) = r {
                    complete(id, r);
                }
            }));
        }
        CompletionPool { queue, handles }
    }

    /// Enqueue a task without blocking; some worker will run it and feed
    /// the result to the completion hook. Tasks submitted after the pool
    /// started dropping are silently discarded (shutdown race).
    pub fn submit(&self, task: T) {
        let mut state = self.queue.state.lock().unwrap();
        if state.closed {
            return;
        }
        state.tasks.push_back(task);
        drop(state);
        self.queue.ready.notify_one();
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Tasks waiting in the queue (not yet claimed by a worker).
    pub fn pending(&self) -> usize {
        self.queue.state.lock().unwrap().tasks.len()
    }
}

impl<T> Drop for CompletionPool<T> {
    fn drop(&mut self) {
        self.queue.state.lock().unwrap().closed = true;
        self.queue.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_range_without_overlap() {
        for (lo, hi, parts) in [(0u64, 100, 4), (7, 12, 3), (0, 3, 8), (5, 6, 2), (0, 97, 5)] {
            let ranges = partition_tuples(lo, hi, parts);
            assert!(ranges.len() <= parts);
            assert!(!ranges.iter().any(|r| r.is_empty()));
            assert_eq!(ranges.first().unwrap().start, lo);
            assert_eq!(ranges.last().unwrap().end, hi);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap or overlap");
            }
            let min = ranges.iter().map(TupleRange::len).min().unwrap();
            let max = ranges.iter().map(TupleRange::len).max().unwrap();
            assert!(max - min <= 1, "imbalanced: {ranges:?}");
        }
    }

    #[test]
    fn empty_and_degenerate_partitions() {
        assert!(partition_tuples(5, 5, 4).is_empty());
        assert!(partition_tuples(9, 3, 4).is_empty());
        assert!(partition_tuples(0, 10, 0).is_empty());
    }

    #[test]
    fn pool_processes_all_tasks() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(4, |_, x| x * 2);
        let results = pool.scatter_gather((0..100).collect());
        assert_eq!(results, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
        // The pool is reusable across episodes.
        assert_eq!(pool.scatter_gather(vec![21]), vec![42]);
        assert!(pool.scatter_gather(Vec::new()).is_empty());
    }

    #[test]
    fn results_come_back_in_task_order() {
        use std::time::Duration;
        // Early tasks sleep longest, so they finish last.
        let pool: WorkerPool<u64, u64> = WorkerPool::new(4, |_, x| {
            std::thread::sleep(Duration::from_millis(4 * (4 - x)));
            x
        });
        for _ in 0..3 {
            assert_eq!(pool.scatter_gather(vec![0, 1, 2, 3]), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn last_task_runs_on_the_calling_thread() {
        use std::thread::{current, ThreadId};
        let pool: WorkerPool<(), (usize, ThreadId)> =
            WorkerPool::new(3, |id, ()| (id, current().id()));
        assert_eq!(pool.threads(), 3);
        let got = pool.scatter_gather(vec![(), (), ()]);
        let me = current().id();
        assert_eq!(got[2], (2, me), "the caller is the last worker");
        for (ix, &(id, thread)) in got[..2].iter().enumerate() {
            assert_eq!(id, ix, "task {ix} goes to helper {ix}");
            assert_ne!(thread, me, "task {ix} ran on the caller");
        }
        assert_ne!(got[0].1, got[1].1);
        // A single task never leaves the calling thread.
        assert_eq!(pool.scatter_gather(vec![()]), vec![(2, me)]);
    }

    #[test]
    fn one_thread_spawns_nothing_and_runs_every_task_inline() {
        let pool: WorkerPool<u64, (u64, std::thread::ThreadId)> =
            WorkerPool::new(1, |_, x| (x, std::thread::current().id()));
        assert_eq!(pool.threads(), 1);
        assert!(pool.handles.is_empty(), "no helper thread");
        let me = std::thread::current().id();
        let got = pool.scatter_gather((0..5).collect());
        assert_eq!(got, (0..5).map(|x| (x, me)).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(4, |_, x| {
            assert!(x != 3, "poison task");
            x
        });
        // One poisoned task among many, on a helper: gather must raise,
        // not hang.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scatter_gather((0..8).collect())
        }));
        assert!(r.is_err(), "helper panic must propagate to the caller");
        // No result of the failed call is left behind for the next one.
        assert_eq!(pool.scatter_gather(vec![4, 5, 6]), vec![4, 5, 6]);
    }

    #[test]
    fn local_task_panic_propagates_after_the_helpers_finish() {
        let pool: WorkerPool<u64, u64> = WorkerPool::new(3, |_, x| {
            assert!(x != 9, "poison task");
            x
        });
        // The poisoned task is last, so it runs on the calling thread.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scatter_gather(vec![1, 2, 9])
        }));
        assert!(r.is_err(), "local panic must propagate");
        assert_eq!(pool.scatter_gather(vec![1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        let pool: WorkerPool<(), usize> = WorkerPool::new(0, |id, ()| id);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.scatter_gather(vec![(), ()]), vec![0, 0]);
    }

    #[test]
    fn completion_pool_delivers_every_result_through_the_hook() {
        use std::sync::Mutex;
        let done: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let done2 = done.clone();
        let pool: CompletionPool<u64> = CompletionPool::new(
            4,
            |_, x: u64| x * 2,
            move |_, r| done2.lock().unwrap().push(r),
        );
        for x in 0..100u64 {
            pool.submit(x);
        }
        // submit() never blocks; completions drain asynchronously and the
        // drop below joins the workers, so everything is delivered.
        drop(pool);
        let mut got = done.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn completion_pool_survives_a_panicking_task() {
        use std::sync::Mutex;
        let done: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let done2 = done.clone();
        let pool: CompletionPool<u64> = CompletionPool::new(
            2,
            |_, x: u64| {
                assert!(x != 3, "poison task");
                x
            },
            move |_, r| done2.lock().unwrap().push(r),
        );
        for x in 0..8u64 {
            pool.submit(x);
        }
        drop(pool); // joins — a panicked worker iteration must not wedge the queue
        let mut got = done.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn completion_pool_clamps_to_one_thread() {
        let pool: CompletionPool<()> = CompletionPool::new(0, |_, ()| (), |_, ()| ());
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn metrics_merge_sums_and_maxes() {
        let a = ExecMetrics {
            result_tuples: 3,
            slices: 2,
            result_set_bytes: 100,
            ..ExecMetrics::default()
        }
        .with_counter("probes", 5);
        let b = ExecMetrics {
            result_tuples: 4,
            slices: 1,
            result_set_bytes: 40,
            ..ExecMetrics::default()
        }
        .with_counter("probes", 7)
        .with_counter("skips", 1);
        let m = merge_worker_metrics([a, b]);
        assert_eq!(m.result_tuples, 7);
        assert_eq!(m.slices, 3);
        assert_eq!(m.result_set_bytes, 100);
        assert_eq!(m.counter("probes"), Some(12));
        assert_eq!(m.counter("skips"), Some(1));
    }

    /// Shared-snapshot counters (cache probe facts, convergence indexes)
    /// appear identically in every worker block and must merge to the
    /// shared value — summing them once per worker was the drift this
    /// guards against.
    #[test]
    fn metrics_merge_counts_shared_snapshots_once() {
        let worker = |slices: u64| {
            ExecMetrics {
                slices,
                ..ExecMetrics::default()
            }
            .with_counter("cache_hit", 1)
            .with_counter("warm_start_visits", 250)
            .with_counter("last_order_switch", 7)
            .with_counter("chunks", 3)
        };
        let m = merge_worker_metrics([worker(5), worker(6), worker(7)]);
        assert_eq!(m.slices, 18);
        assert_eq!(m.counter("cache_hit"), Some(1), "not 3");
        assert_eq!(m.counter("warm_start_visits"), Some(250), "not 750");
        assert_eq!(m.counter("last_order_switch"), Some(7), "not 21");
        assert_eq!(m.counter("chunks"), Some(9), "additive counters still sum");
    }

    #[test]
    fn metrics_merge_keeps_structured_fields() {
        let a = ExecMetrics {
            order_slice_counts: vec![(vec![0, 1], 5), (vec![1, 0], 2)],
            tree_growth: vec![(1, 2), (2, 5)],
            winner: Some("learned"),
            ..ExecMetrics::default()
        };
        let b = ExecMetrics {
            order_slice_counts: vec![(vec![1, 0], 9)],
            tree_growth: vec![(1, 3)],
            ..ExecMetrics::default()
        };
        let m = merge_worker_metrics([a, b]);
        // Per-order sums, most-used first.
        assert_eq!(
            m.order_slice_counts,
            vec![(vec![1, 0], 11), (vec![0, 1], 5)]
        );
        assert_eq!(m.tree_growth, vec![(1, 2), (2, 5)], "densest curve kept");
        assert_eq!(m.winner, Some("learned"));
    }
}
