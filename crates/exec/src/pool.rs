//! Thread pools and the helpers of data-parallel phases.
//!
//! The paper's multi-threaded SkinnerDB parallelizes pre-processing,
//! index building and the per-episode batches of the join phase
//! (Section 6.1). Every such phase here runs through [`scatter_gather`]:
//! one process-wide pool of parked helper threads, started by the first
//! call that has more than one task, which runs a call's borrowed closures
//! and returns their results in task order. [`partition_tuples`] cuts an
//! input-tuple range into near-equal contiguous chunks; a caller folds its
//! chunks' results and counts back together itself. [`CompletionPool`] is
//! the other mechanism: the server's asynchronous statement pool.
//!
//! The pool is deliberately dumb: it knows nothing about joins, budgets or
//! learning, and it has no size knob. Callers cut their work into chunks
//! by their own `threads` setting, so rows, work units and learned orders
//! never depend on how many helpers the pool has or which of them ran a
//! chunk.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::JoinHandle;

use crate::context::default_threads;

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

// ---- the process-wide scatter/gather pool -------------------------------

/// Run `tasks` and return their results in task order.
///
/// Every task but the last is queued on the process-wide pool; the caller
/// runs the last, then takes back and runs every task of this call that no
/// helper has started, and waits only for those already running. It never
/// runs another call's task, so calls may nest or run concurrently without
/// deadlock, and one statement never picks up another's work. Tasks may
/// borrow from the caller. A one-task call runs inline; the first call with
/// more tasks starts [`default_threads`]` − 1` helpers (at least one), which
/// park between calls. A task's panic is caught, so its helper survives;
/// the first panic in task order is re-raised here once every task of the
/// call has finished.
pub fn scatter_gather<'a, R, F>(tasks: Vec<F>) -> Vec<R>
where
    F: FnOnce() -> R + Send + 'a,
    R: Send + 'a,
{
    static POOL: Pool = Pool::new();
    POOL.scatter_gather(tasks)
}

/// Helpers on a machine with `available` hardware threads: one fewer,
/// since the caller works too, but at least one.
fn helper_count(available: usize) -> usize {
    available.saturating_sub(1).max(1)
}

/// Helper threads parked on one queue of lifetime-erased jobs.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled once per queued job.
    ready: Condvar,
    start: Once,
}

/// A queued task, and the latch of the call it belongs to.
struct Job {
    run: Box<dyn FnOnce() + Send>,
    call: Arc<Latch>,
}

/// Counts the finished jobs of one call.
#[derive(Default)]
struct Latch {
    finished: Mutex<usize>,
    done: Condvar,
}

/// One call's claim on the jobs it queued. Its drop — on return or while
/// unwinding — runs every job of the call no helper has started, then
/// waits until all `queued` have finished.
struct Call {
    pool: &'static Pool,
    latch: Arc<Latch>,
    queued: usize,
}

/// Nothing panics while holding the pool's locks, and every update under
/// them is a single step, so a poisoned lock would still guard valid data;
/// ignoring poison keeps [`Call`]'s drop free of panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Job {
    fn run(self) {
        (self.run)();
        *lock(&self.call.finished) += 1;
        self.call.done.notify_one();
    }
}

impl Pool {
    const fn new() -> Self {
        Pool {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            start: Once::new(),
        }
    }

    fn scatter_gather<'a, R, F>(&'static self, mut tasks: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send + 'a,
        R: Send + 'a,
    {
        let Some(last) = tasks.pop() else {
            return Vec::new();
        };
        if tasks.is_empty() {
            return vec![last()];
        }
        self.start.call_once(|| {
            for _ in 0..helper_count(default_threads()) {
                // Helpers live as long as the process and never panic (each
                // job catches its task's panic), so no handle is kept. One
                // that fails to spawn costs only parallelism: the caller
                // takes back whatever no helper starts.
                let _ = std::thread::Builder::new()
                    .name("skinner-pool".into())
                    .spawn(move || self.serve());
            }
        });
        let slots: Vec<Mutex<Option<std::thread::Result<R>>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        let local = {
            let mut call = Call {
                pool: self,
                latch: Arc::default(),
                queued: 0,
            };
            let mut queue = lock(&self.queue);
            for (task, slot) in tasks.into_iter().zip(&slots) {
                let run: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    *lock(slot) = Some(panic::catch_unwind(AssertUnwindSafe(task)));
                });
                // SAFETY: the job borrows `slot` and what `task` borrows, so
                // it must not run after this call returns or unwinds. It
                // cannot: `call` drops before `slots` and before this
                // function returns or unwinds, and its drop runs every job
                // of the call still queued and waits for all the others. A
                // helper touches nothing of a job after running it but the
                // reference-counted latch.
                let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
                queue.push_back(Job {
                    run,
                    call: call.latch.clone(),
                });
                call.queued += 1;
            }
            drop(queue);
            for _ in 0..call.queued {
                self.ready.notify_one();
            }
            panic::catch_unwind(AssertUnwindSafe(last))
        };
        let results: std::thread::Result<Vec<R>> = slots
            .into_iter()
            .map(|slot| lock(&slot).take().expect("every task has finished"))
            .chain(std::iter::once(local))
            .collect();
        results.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// A helper's life: run queued jobs of any call, park when none is left.
    fn serve(&self) {
        loop {
            let mut queue = self
                .ready
                .wait_while(lock(&self.queue), |queue| queue.is_empty())
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(job) = queue.pop_front() {
                drop(queue);
                job.run();
            }
        }
    }
}

impl Drop for Call {
    fn drop(&mut self) {
        loop {
            let mut queue = lock(&self.pool.queue);
            let mine = queue
                .iter()
                .position(|job| Arc::ptr_eq(&job.call, &self.latch));
            let Some(job) = mine.and_then(|ix| queue.remove(ix)) else {
                break;
            };
            drop(queue);
            job.run();
        }
        let finished = self
            .latch
            .done
            .wait_while(lock(&self.latch.finished), |n| *n < self.queued);
        drop(finished);
    }
}

// ---- completion-hook pool ----------------------------------------------

struct CompletionQueue<T> {
    state: std::sync::Mutex<CompletionQueueState<T>>,
    ready: std::sync::Condvar,
}

struct CompletionQueueState<T> {
    tasks: VecDeque<T>,
    closed: bool,
}

/// The asynchronous sibling of [`scatter_gather`]: N persistent threads
/// pull tasks from one shared queue, and each finished task's result is
/// handed to a *completion hook* on the worker thread instead of being
/// gathered by the submitter.
///
/// Where [`scatter_gather`] is a barrier (run a batch, wait for all of
/// it), [`CompletionPool::submit`] never blocks: an event loop can hand
/// work over and keep multiplexing sockets while the hook routes each
/// result back (e.g. into a per-shard completion queue followed by a
/// poller wake-up). Any idle worker picks up the next task, so nothing
/// queues behind a slow one.
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
                tasks: VecDeque::new(),
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

    /// A pool of its own, so a test can watch it start.
    fn fresh_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    #[test]
    fn pool_processes_all_tasks() {
        let results = scatter_gather((0..100u64).map(|x| move || x * 2).collect());
        assert_eq!(results, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
        // The pool is reused across calls.
        assert_eq!(scatter_gather(vec![|| 42]), vec![42]);
        let none: Vec<fn() -> u64> = Vec::new();
        assert!(scatter_gather(none).is_empty());
    }

    #[test]
    fn tasks_borrow_from_the_caller() {
        use std::time::Duration;
        let data: Vec<u64> = (0..1000).collect();
        // On the caller's stack: a task that outlived the call would write
        // into a dead frame.
        let mut sums = [0u64; 4];
        let tasks: Vec<_> = data
            .chunks(250)
            .zip(sums.iter_mut())
            .enumerate()
            .map(|(ix, (chunk, sum))| {
                move || {
                    // Early chunks finish last.
                    std::thread::sleep(Duration::from_millis(3 * (4 - ix as u64)));
                    *sum = chunk.iter().sum();
                    chunk.len()
                }
            })
            .collect();
        assert_eq!(scatter_gather(tasks), vec![250; 4]);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn results_come_back_in_task_order() {
        use std::time::Duration;
        for _ in 0..3 {
            // Early tasks sleep longest, so they finish last.
            let tasks: Vec<_> = (0..4u64)
                .map(|x| {
                    move || {
                        std::thread::sleep(Duration::from_millis(4 * (4 - x)));
                        x
                    }
                })
                .collect();
            assert_eq!(scatter_gather(tasks), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn last_task_runs_on_the_calling_thread() {
        use std::thread::current;
        let me = current().id();
        let got = scatter_gather((0..3).map(|_| || current().id()).collect());
        assert_eq!(got[2], me, "the caller runs the last task");
        // A single task never leaves the calling thread.
        assert_eq!(scatter_gather(vec![|| current().id()]), vec![me]);
    }

    #[test]
    fn one_thread_spawns_nothing_and_runs_every_task_inline() {
        let pool = fresh_pool();
        let me = std::thread::current().id();
        assert_eq!(
            pool.scatter_gather(vec![|| std::thread::current().id()]),
            vec![me]
        );
        assert!(
            !pool.start.is_completed(),
            "a one-task call starts no helper"
        );
        assert_eq!(pool.scatter_gather(vec![|| 1, || 2]), vec![1, 2]);
        assert!(pool.start.is_completed(), "a two-task call starts the pool");
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        assert_eq!(helper_count(0), 1);
        assert_eq!(helper_count(1), 1);
        assert_eq!(helper_count(2), 1);
        assert_eq!(helper_count(8), 7);
    }

    #[test]
    fn nested_calls_finish_in_task_order() {
        let outer: Vec<_> = (0..4u64)
            .map(|i| {
                move || {
                    let inner: Vec<_> = (0..4u64).map(|j| move || 10 * i + j).collect();
                    scatter_gather(inner)
                }
            })
            .collect();
        let got = scatter_gather(outer);
        let want: Vec<Vec<u64>> = (0..4u64)
            .map(|i| (0..4u64).map(|j| 10 * i + j).collect())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_callers_never_run_each_others_tasks() {
        use std::sync::Barrier;
        use std::thread::{current, ThreadId};
        let barrier = Barrier::new(2);
        let callers: Vec<(ThreadId, Vec<ThreadId>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let mut ran_on = Vec::new();
                        for _ in 0..200 {
                            let tasks: Vec<_> = (0..4).map(|_| || current().id()).collect();
                            ran_on.extend(scatter_gather(tasks));
                        }
                        (current().id(), ran_on)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(!callers[0].1.contains(&callers[1].0));
        assert!(!callers[1].1.contains(&callers[0].0));
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // One poisoned task among many, queued for a helper: the call must
        // raise the task's own panic, not hang.
        let tasks: Vec<_> = (0..8u64)
            .map(|x| {
                move || {
                    assert!(x != 3, "poison task");
                    x
                }
            })
            .collect();
        let r = panic::catch_unwind(AssertUnwindSafe(|| scatter_gather(tasks)));
        let payload = r.expect_err("a task's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"poison task"));
        // The helpers survive, and nothing of the failed call is left
        // behind for the next one.
        for _ in 0..10 {
            assert_eq!(scatter_gather(vec![|| 4, || 5, || 6]), vec![4, 5, 6]);
        }
    }

    #[test]
    fn local_task_panic_propagates_after_the_helpers_finish() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let finished = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..3u64)
            .map(|x| {
                let finished = &finished;
                move || {
                    // The poisoned task is last, so the caller runs it.
                    assert!(x != 2, "poison task");
                    std::thread::sleep(Duration::from_millis(10));
                    finished.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        let r = panic::catch_unwind(AssertUnwindSafe(|| scatter_gather(tasks)));
        assert!(r.is_err(), "local panic must propagate");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            2,
            "raised before the others finished"
        );
        assert_eq!(scatter_gather(vec![|| 1, || 2, || 3]), vec![1, 2, 3]);
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
}
