//! Server-level admission control.
//!
//! A global concurrency gate built on the library's [`WorkBudget`]: the
//! budget's limit is the number of queries allowed to execute at once, and
//! each admitted query holds a one-unit [`WorkPermit`] that returns to the
//! budget when the query finishes (RAII). Arrivals beyond the limit wait
//! in a *bounded* queue; once the queue is full — or a queued arrival
//! outwaits [`AdmissionConfig::queue_timeout`] — the query is load-shed
//! with an explicit `Overloaded` error instead of piling up. Overload
//! therefore degrades predictably: at most `max_concurrent` queries run,
//! at most `queue_depth` wait, everyone else is told to back off.
//!
//! ## Event-loop split
//!
//! The event-loop server must never block, so admission is two-phase:
//! [`AdmissionGate::begin`] is non-blocking — it either grants
//! immediately, sheds, or returns a queued [`Ticket`]; the blocking
//! [`Ticket::wait`] then runs on a pool worker thread, not on the event
//! loop. The one-call [`AdmissionGate::admit`] wraps both for blocking
//! callers (tests, benches).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use skinnerdb::skinner_exec::{WorkBudget, WorkPermit};

/// Gate sizing.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queries allowed to execute concurrently across all connections.
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

/// Outcome of asking the gate for a slot (blocking path).
pub enum Admission {
    /// Run now; drop the permit when the query finishes.
    Granted(SlotPermit),
    /// Load-shed: the queue was full, or the wait timed out.
    Shed(ShedReason),
}

/// Outcome of the non-blocking [`AdmissionGate::begin`].
pub enum Begin {
    /// Run now.
    Granted(SlotPermit),
    /// Queued: hand the ticket to a thread that may block and call
    /// [`Ticket::wait`].
    Queued(Ticket),
    /// Load-shed immediately (queue full or gate closed).
    Shed(ShedReason),
}

/// Why a query was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    QueueFull,
    QueueTimeout,
    /// The gate was closed (server shutting down); nothing is admitted.
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

/// The gate itself. Cheap to share (`Arc` inside); the permit-returning
/// entry points take `&Arc<Self>` so permits can hold the gate alive.
pub struct AdmissionGate {
    cfg: AdmissionConfig,
    slots: Arc<WorkBudget>,
    /// Arrivals waiting in the queue. Slots are taken and returned under
    /// this lock, so a waiter cannot miss the wake-up of a freed slot.
    waiting: Mutex<usize>,
    freed: Condvar,
    shed_total: AtomicU64,
    admitted_total: AtomicU64,
    closed: AtomicBool,
}

impl AdmissionGate {
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionGate {
            slots: Arc::new(WorkBudget::with_limit(cfg.max_concurrent.max(1) as u64)),
            cfg,
            waiting: Mutex::new(0),
            freed: Condvar::new(),
            shed_total: AtomicU64::new(0),
            admitted_total: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Close the gate (shutdown): every queued waiter and every future
    /// arrival is shed immediately with [`ShedReason::Closed`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.waiting.lock().unwrap();
        self.freed.notify_all();
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    fn grant(self: &Arc<Self>, permit: WorkPermit) -> SlotPermit {
        self.admitted_total.fetch_add(1, Ordering::Relaxed);
        SlotPermit {
            gate: self.clone(),
            permit: Some(permit),
        }
    }

    fn shed(&self, reason: ShedReason) -> ShedReason {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        reason
    }

    /// Non-blocking admission for the event loop: grant, queue (returning
    /// a [`Ticket`] whose blocking `wait` belongs on a worker thread), or
    /// shed.
    pub fn begin(self: &Arc<Self>) -> Begin {
        let mut waiting = self.waiting.lock().unwrap();
        if self.closed.load(Ordering::SeqCst) {
            return Begin::Shed(self.shed(ShedReason::Closed));
        }
        if let Some(permit) = self.slots.acquire(1) {
            return Begin::Granted(self.grant(permit));
        }
        if *waiting >= self.cfg.queue_depth {
            return Begin::Shed(self.shed(ShedReason::QueueFull));
        }
        *waiting += 1;
        Begin::Queued(Ticket {
            gate: self.clone(),
            deadline: Instant::now() + self.cfg.queue_timeout,
            queued: true,
        })
    }

    /// Blocking admission: [`AdmissionGate::begin`] plus the queue wait.
    pub fn admit(self: &Arc<Self>) -> Admission {
        match self.begin() {
            Begin::Granted(p) => Admission::Granted(p),
            Begin::Queued(ticket) => ticket.wait(),
            Begin::Shed(r) => Admission::Shed(r),
        }
    }

    /// Queries currently holding an execution slot.
    pub fn active(&self) -> u64 {
        self.slots.used()
    }

    /// Arrivals currently waiting in the queue.
    pub fn queued(&self) -> usize {
        *self.waiting.lock().unwrap()
    }

    /// Total queries shed since startup.
    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Total queries admitted since startup.
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total.load(Ordering::Relaxed)
    }
}

/// A queued admission: blocks in [`Ticket::wait`] until a slot frees (or
/// timeout/closure sheds it). Dropping an unwaited ticket dequeues it.
pub struct Ticket {
    gate: Arc<AdmissionGate>,
    deadline: Instant,
    queued: bool,
}

impl Ticket {
    /// Block until granted, shed by timeout, or shed by gate closure.
    pub fn wait(mut self) -> Admission {
        let gate = self.gate.clone();
        let mut waiting = gate.waiting.lock().unwrap();
        let reason = loop {
            if gate.closed.load(Ordering::SeqCst) {
                break ShedReason::Closed;
            }
            if let Some(permit) = gate.slots.acquire(1) {
                self.dequeue(&mut waiting);
                return Admission::Granted(gate.grant(permit));
            }
            let now = Instant::now();
            if now >= self.deadline {
                break ShedReason::QueueTimeout;
            }
            waiting = gate
                .freed
                .wait_timeout(waiting, self.deadline - now)
                .unwrap()
                .0;
        };
        self.dequeue(&mut waiting);
        drop(waiting);
        gate.freed.notify_all();
        Admission::Shed(gate.shed(reason))
    }

    fn dequeue(&mut self, waiting: &mut usize) {
        if std::mem::take(&mut self.queued) {
            *waiting -= 1;
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.queued {
            let gate = self.gate.clone();
            let mut waiting = gate.waiting.lock().unwrap();
            self.dequeue(&mut waiting);
            drop(waiting);
            gate.freed.notify_all();
        }
    }
}

/// RAII admission: holds one execution slot. Dropping it refunds the slot
/// and wakes every queued waiter.
pub struct SlotPermit {
    gate: Arc<AdmissionGate>,
    permit: Option<WorkPermit>,
}

impl Drop for SlotPermit {
    fn drop(&mut self) {
        let waiting = self.gate.waiting.lock().unwrap();
        self.permit.take(); // refund the slot …
        drop(waiting);
        self.gate.freed.notify_all(); // … then wake every waiter.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn gate(max_concurrent: usize, queue_depth: usize, timeout_ms: u64) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate::new(AdmissionConfig {
            max_concurrent,
            queue_depth,
            queue_timeout: Duration::from_millis(timeout_ms),
        }))
    }

    #[test]
    fn grants_up_to_capacity_then_sheds_past_queue() {
        let g = gate(2, 0, 50);
        let a = g.admit();
        let b = g.admit();
        assert!(matches!(a, Admission::Granted(_)));
        assert!(matches!(b, Admission::Granted(_)));
        // Queue depth 0: third arrival is shed immediately.
        match g.admit() {
            Admission::Shed(ShedReason::QueueFull) => {}
            _ => panic!("expected immediate shed"),
        }
        assert_eq!(g.shed_total(), 1);
        assert_eq!(g.active(), 2);
    }

    #[test]
    fn released_slot_admits_a_queued_waiter() {
        let g = gate(1, 4, 5_000);
        let first = match g.admit() {
            Admission::Granted(p) => p,
            _ => panic!(),
        };
        let g2 = g.clone();
        let waiter = std::thread::spawn(move || match g2.admit() {
            Admission::Granted(_) => true,
            Admission::Shed(_) => false,
        });
        // Give the waiter time to enqueue, then free the slot.
        while g.queued() == 0 {
            std::thread::yield_now();
        }
        drop(first);
        assert!(waiter.join().unwrap(), "waiter must inherit the freed slot");
        assert_eq!(g.shed_total(), 0);
    }

    #[test]
    fn queued_waiters_time_out_to_shed() {
        let g = gate(1, 4, 30);
        let _hold = match g.admit() {
            Admission::Granted(p) => p,
            _ => panic!(),
        };
        let started = Instant::now();
        match g.admit() {
            Admission::Shed(ShedReason::QueueTimeout) => {}
            _ => panic!("expected queue timeout"),
        }
        assert!(started.elapsed() >= Duration::from_millis(25));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shed must be prompt, not a hang"
        );
    }

    #[test]
    fn closing_the_gate_sheds_waiters_and_arrivals() {
        let g = gate(1, 4, 60_000);
        let _hold = match g.admit() {
            Admission::Granted(p) => p,
            _ => panic!(),
        };
        let g2 = g.clone();
        let waiter = std::thread::spawn(move || g2.admit());
        while g.queued() == 0 {
            std::thread::yield_now();
        }
        g.close();
        assert!(matches!(
            waiter.join().unwrap(),
            Admission::Shed(ShedReason::Closed)
        ));
        assert!(matches!(g.admit(), Admission::Shed(ShedReason::Closed)));
    }

    #[test]
    fn queue_is_bounded() {
        let g = gate(1, 1, 400);
        let _hold = match g.admit() {
            Admission::Granted(p) => p,
            _ => panic!(),
        };
        let g2 = g.clone();
        let queued = std::thread::spawn(move || matches!(g2.admit(), Admission::Shed(_)));
        while g.queued() == 0 {
            std::thread::yield_now();
        }
        // Queue of 1 is occupied: the next arrival is shed instantly.
        match g.admit() {
            Admission::Shed(ShedReason::QueueFull) => {}
            _ => panic!("expected queue-full shed"),
        }
        // The queued waiter eventually times out too (slot never freed
        // while _hold lives).
        assert!(queued.join().unwrap());
        assert_eq!(g.shed_total(), 2);
    }

    #[test]
    fn begin_is_nonblocking_and_tickets_wait() {
        let g = gate(1, 4, 5_000);
        let held = match g.begin() {
            Begin::Granted(p) => p,
            _ => panic!("first arrival must be granted"),
        };
        let ticket = match g.begin() {
            Begin::Queued(t) => t,
            _ => panic!("second arrival must queue"),
        };
        assert_eq!(g.queued(), 1);
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert!(matches!(waiter.join().unwrap(), Admission::Granted(_)));
        assert_eq!(g.queued(), 0);
    }

    #[test]
    fn dropping_an_unwaited_ticket_dequeues_it() {
        let g = gate(1, 2, 5_000);
        let _held = match g.begin() {
            Begin::Granted(p) => p,
            _ => panic!(),
        };
        let ticket = match g.begin() {
            Begin::Queued(t) => t,
            _ => panic!(),
        };
        assert_eq!(g.queued(), 1);
        drop(ticket); // e.g. the dispatch path died before waiting
        assert_eq!(g.queued(), 0);
    }
}
