//! Server-level admission control: one bounded statement queue.
//!
//! Every dispatched statement enters one FIFO `StatementQueue`, served
//! by exactly `StatementQueue::slots` worker threads, so a worker is an
//! execution slot: at most `max_concurrent` statements run (execution and
//! response encoding both), at most `queue_depth` more wait, and every
//! further arrival is shed at once with an explicit `Overloaded` error
//! instead of piling up. A waiting statement that outwaits
//! [`AdmissionConfig::queue_timeout`] is shed as well; while every worker
//! is busy only the event loops are free to notice, so the shard that
//! submitted it takes it back with `StatementQueue::take_expired`.
//!
//! Only `StatementQueue::pop` blocks, and only workers call it: the
//! event loops submit, expire and close without waiting.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Queue sizing.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queries allowed to execute concurrently across all connections:
    /// the number of statement worker threads.
    pub max_concurrent: usize,
    /// Arrivals allowed to wait for a slot before load shedding starts.
    pub queue_depth: usize,
    /// How long a queued arrival waits before being shed.
    pub queue_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent: skinnerdb::skinner_exec::default_threads().max(2),
            queue_depth: 64,
            queue_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a query was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    QueueFull,
    QueueTimeout,
    /// The queue was closed (server shutting down); nothing is admitted.
    Closed,
}

impl ShedReason {
    pub fn message(&self, cfg: &AdmissionConfig) -> String {
        match self {
            ShedReason::QueueFull => format!(
                "server overloaded: {} queries running and {} queued; retry later",
                cfg.max_concurrent, cfg.queue_depth
            ),
            ShedReason::QueueTimeout => format!(
                "server overloaded: no execution slot freed within {:?}; retry later",
                cfg.queue_timeout
            ),
            ShedReason::Closed => "server is shutting down".into(),
        }
    }
}

/// The bounded FIFO of submitted statements and the count of running
/// ones. The owner starts [`StatementQueue::slots`] workers, each looping
/// [`pop`](StatementQueue::pop) → run → [`finish`](StatementQueue::finish).
pub(crate) struct StatementQueue<T> {
    cfg: AdmissionConfig,
    state: Mutex<QueueState<T>>,
    /// Signalled once per submitted statement, and on close.
    ready: Condvar,
    admitted_total: AtomicU64,
    shed_total: AtomicU64,
}

struct QueueState<T> {
    /// Statements no worker has taken yet, oldest first, each with its
    /// queue deadline (so deadlines grow front to back).
    waiting: VecDeque<(T, Instant)>,
    /// Statements taken by a worker and not yet finished.
    running: usize,
    closed: bool,
}

impl<T> StatementQueue<T> {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        StatementQueue {
            cfg,
            state: Mutex::new(QueueState {
                waiting: VecDeque::new(),
                running: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            admitted_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
        }
    }

    pub(crate) fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Execution slots, i.e. worker threads: `max_concurrent`, at least one.
    pub(crate) fn slots(&self) -> usize {
        self.cfg.max_concurrent.max(1)
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state
            .lock()
            .expect("no thread panics holding the statement queue")
    }

    /// Queue `job` without blocking, or shed it: `Closed` once the queue
    /// is closed, `QueueFull` while every slot is taken and `queue_depth`
    /// statements already wait.
    pub(crate) fn submit(&self, job: T) -> Result<(), ShedReason> {
        let mut s = self.lock();
        let reason = if s.closed {
            ShedReason::Closed
        } else if s.waiting.len() + s.running >= self.slots() + self.cfg.queue_depth {
            ShedReason::QueueFull
        } else {
            s.waiting
                .push_back((job, Instant::now() + self.cfg.queue_timeout));
            drop(s);
            self.ready.notify_one();
            return Ok(());
        };
        drop(s);
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        Err(reason)
    }

    /// Block until a statement waits, then take the oldest and count it as
    /// running; `None` once the queue is closed. Callers are the
    /// [`slots`](StatementQueue::slots) workers, so a taken statement
    /// always has a slot.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if s.closed {
                return None;
            }
            if let Some((job, _)) = s.waiting.pop_front() {
                s.running += 1;
                self.admitted_total.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
            s = self
                .ready
                .wait(s)
                .expect("no thread panics holding the statement queue");
        }
    }

    /// Free the slot of a statement taken by [`pop`](StatementQueue::pop).
    pub(crate) fn finish(&self) {
        self.lock().running -= 1;
    }

    /// Shed and hand back the waiting statements chosen by `mine` whose
    /// queue deadline is not after `now`, and return the earliest deadline
    /// among `mine`'s statements still waiting.
    pub(crate) fn take_expired(
        &self,
        now: Instant,
        mine: impl Fn(&T) -> bool,
    ) -> (Vec<T>, Option<Instant>) {
        let mut s = self.lock();
        let mut expired = Vec::new();
        let mut ix = 0;
        while let Some((job, deadline)) = s.waiting.get(ix) {
            if *deadline > now {
                break;
            }
            if mine(job) {
                expired.extend(s.waiting.remove(ix).map(|(job, _)| job));
            } else {
                ix += 1;
            }
        }
        let next = s
            .waiting
            .range(ix..)
            .find(|(job, _)| mine(job))
            .map(|e| e.1);
        drop(s);
        self.shed_total
            .fetch_add(expired.len() as u64, Ordering::Relaxed);
        (expired, next)
    }

    /// Close the queue (shutdown): workers' `pop` returns `None`, every
    /// later arrival is shed with [`ShedReason::Closed`], and the waiting
    /// statements are shed and handed back.
    pub(crate) fn close(&self) -> Vec<T> {
        let mut s = self.lock();
        s.closed = true;
        let shed: Vec<T> = s.waiting.drain(..).map(|(job, _)| job).collect();
        drop(s);
        self.ready.notify_all();
        self.shed_total
            .fetch_add(shed.len() as u64, Ordering::Relaxed);
        shed
    }

    /// Statements executing right now.
    pub(crate) fn active(&self) -> u64 {
        self.lock().running as u64
    }

    /// Statements waiting for a slot: those queued beyond the free ones.
    pub(crate) fn queued(&self) -> usize {
        let s = self.lock();
        let free = self.slots().saturating_sub(s.running);
        s.waiting.len().saturating_sub(free)
    }

    /// Statements shed since startup.
    pub(crate) fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Statements a worker has taken since startup.
    pub(crate) fn admitted_total(&self) -> u64 {
        self.admitted_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn queue<T>(max_concurrent: usize, queue_depth: usize, timeout_ms: u64) -> StatementQueue<T> {
        StatementQueue::new(AdmissionConfig {
            max_concurrent,
            queue_depth,
            queue_timeout: Duration::from_millis(timeout_ms),
        })
    }

    #[test]
    fn grants_up_to_capacity_then_sheds_past_queue() {
        let q = queue(2, 0, 50);
        q.submit('a').unwrap();
        q.submit('b').unwrap();
        // Queue depth 0: a third arrival is shed while two hold slots.
        assert_eq!(q.submit('c').unwrap_err(), ShedReason::QueueFull);
        assert_eq!((q.pop(), q.pop()), (Some('a'), Some('b')));
        assert_eq!(q.submit('c').unwrap_err(), ShedReason::QueueFull);
        assert_eq!((q.active(), q.queued()), (2, 0));
        assert_eq!((q.admitted_total(), q.shed_total()), (2, 2));
    }

    #[test]
    fn queue_is_bounded() {
        let q = queue(1, 1, 400);
        q.submit('a').unwrap();
        assert_eq!(q.pop(), Some('a'));
        q.submit('b').unwrap();
        assert_eq!(q.queued(), 1);
        // The one waiting place is taken: the next arrival is shed.
        assert_eq!(q.submit('c').unwrap_err(), ShedReason::QueueFull);
        assert_eq!(q.shed_total(), 1);
    }

    #[test]
    fn zero_max_concurrent_clamps_to_one_slot() {
        let q = queue(0, 0, 50);
        assert_eq!(q.slots(), 1);
        q.submit('a').unwrap();
        assert_eq!(q.submit('b').unwrap_err(), ShedReason::QueueFull);
    }

    /// One worker, as the server runs it: `submit` never blocks, and each
    /// freed slot takes the oldest waiting statement.
    #[test]
    fn released_slot_admits_a_queued_waiter() {
        let q = Arc::new(queue(1, 8, 5_000));
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                while let Some(job) = q.pop() {
                    tx.send(job).unwrap();
                    q.finish();
                }
            })
        };
        for job in 0..6 {
            q.submit(job).unwrap();
        }
        let ran: Vec<u32> = rx.iter().take(6).collect();
        assert_eq!(ran, (0..6).collect::<Vec<_>>());
        assert!(q.close().is_empty());
        worker.join().unwrap();
        assert_eq!((q.admitted_total(), q.shed_total(), q.active()), (6, 0, 0));
    }

    #[test]
    fn queued_waiters_time_out_to_shed() {
        // Jobs are `(shard, id)`; each shard expires only its own.
        let q = queue(1, 4, 30);
        q.submit((0, 0)).unwrap();
        assert_eq!(q.pop(), Some((0, 0)));
        q.submit((0, 1)).unwrap();
        q.submit((1, 2)).unwrap();
        let now = Instant::now();
        let (expired, next) = q.take_expired(now, |j| j.0 == 0);
        assert!(expired.is_empty());
        let deadline = next.expect("shard 0 has a waiting job");
        assert!(deadline > now && deadline <= now + Duration::from_millis(30));
        let (expired, next) = q.take_expired(deadline, |j| j.0 == 0);
        assert_eq!((expired, next), (vec![(0, 1)], None));
        assert_eq!((q.queued(), q.shed_total()), (1, 1));
        let later = deadline + Duration::from_millis(30);
        assert_eq!(q.take_expired(later, |j| j.0 == 1).0, vec![(1, 2)]);
        assert_eq!((q.queued(), q.shed_total()), (0, 2));
    }

    #[test]
    fn closing_the_gate_sheds_waiters_and_arrivals() {
        let q = queue(1, 4, 60_000);
        q.submit('a').unwrap();
        assert_eq!(q.pop(), Some('a'));
        q.submit('b').unwrap();
        assert_eq!(q.close(), vec!['b']);
        assert_eq!(q.submit('c').unwrap_err(), ShedReason::Closed);
        assert_eq!(q.pop(), None);
        assert_eq!(q.shed_total(), 2);
    }
}
