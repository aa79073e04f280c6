//! Always-on per-query trace spans.
//!
//! A [`Trace`] is created when a query enters the system and rides along
//! (behind an `Arc`) through admission, parse/bind, the learning episode
//! loop and result encoding. Each stage records a [`Span`]: a static
//! stage name, nanosecond start/duration relative to the trace's epoch,
//! and one free `detail` integer (pages skipped, slices run, bytes
//! written — stage-defined).
//!
//! Cost discipline: the span ring is preallocated at construction and
//! plain spans carry only a `&'static str` and integers, so recording on
//! the hot path performs no allocation. Per-order episode spans carry an
//! owned label, but those are built only when the learned join order
//! *switches* — a cold event — and only for the first half of the ring:
//! [`EpisodeRuns`] folds every later run into one trailing span, so one
//! statement's episode loop can never evict its own earlier spans. When
//! the ring does fill (several statements sharing a trace) the oldest
//! span is overwritten and a dropped count maintained, bounding memory
//! per query regardless of episode count.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded stage of a query's life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (static: `admission_wait`, `parse_bind`, `preprocess`,
    /// `episodes`, `postprocess`, `encode_flush`, ...).
    pub stage: &'static str,
    /// Optional qualifier (e.g. the join order an episode run used);
    /// empty for plain spans.
    pub label: String,
    /// Nanoseconds from the trace epoch to the stage start.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
    /// Stage-defined detail (slices run, pages skipped, bytes, ...).
    pub detail: u64,
}

#[derive(Debug)]
struct Ring {
    spans: Vec<Span>,
    /// Overwrite cursor once the ring is full.
    next: usize,
    dropped: u64,
}

/// A per-query span ring with a monotonic epoch. Clones share state via
/// `Arc<Trace>`; recording locks a plain mutex (uncontended in practice —
/// one query's stages rarely overlap).
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    cap: usize,
    inner: Mutex<Ring>,
}

impl Trace {
    /// A trace holding at most `cap` spans (oldest overwritten beyond
    /// that). The ring is fully preallocated here.
    pub fn new(cap: usize) -> Arc<Trace> {
        let cap = cap.max(1);
        Arc::new(Trace {
            epoch: Instant::now(),
            cap,
            inner: Mutex::new(Ring {
                spans: Vec::with_capacity(cap),
                next: 0,
                dropped: 0,
            }),
        })
    }

    /// Nanoseconds elapsed since the trace was created.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans the ring holds before it overwrites the oldest.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Record a plain (unlabeled) span that started at `start_ns` and
    /// ends now.
    pub fn record(&self, stage: &'static str, start_ns: u64, detail: u64) {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.push(Span {
            stage,
            label: String::new(),
            start_ns,
            dur_ns,
            detail,
        });
    }

    /// Record a fully specified span (labeled spans, externally timed
    /// durations).
    pub fn push(&self, span: Span) {
        let mut ring = self.inner.lock().unwrap();
        if ring.spans.len() < self.cap {
            ring.spans.push(span);
        } else {
            let i = ring.next;
            ring.spans[i] = span;
            ring.next = (i + 1) % self.cap;
            ring.dropped += 1;
        }
    }

    /// The recorded spans in chronological (insertion) order.
    pub fn spans(&self) -> Vec<Span> {
        let ring = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(ring.spans.len());
        out.extend_from_slice(&ring.spans[ring.next..]);
        out.extend_from_slice(&ring.spans[..ring.next]);
        out
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }
}

/// Times one stage against an optional trace; a no-op (not even a clock
/// read) when no trace is attached.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    trace: Option<&'a Trace>,
    stage: &'static str,
    start_ns: u64,
}

impl<'a> SpanTimer<'a> {
    pub fn start(trace: Option<&'a Trace>, stage: &'static str) -> SpanTimer<'a> {
        SpanTimer {
            start_ns: trace.map(|t| t.now_ns()).unwrap_or(0),
            trace,
            stage,
        }
    }

    /// Close the stage, recording its span (if tracing).
    pub fn finish(self, detail: u64) {
        self.finish_labeled(detail, String::new);
    }

    /// [`SpanTimer::finish`] with a qualifier, built only when tracing.
    /// For once-per-statement stages: a non-empty label is an allocation.
    pub fn finish_labeled(self, detail: u64, label: impl FnOnce() -> String) {
        if let Some(t) = self.trace {
            t.push(Span {
                stage: self.stage,
                label: label(),
                start_ns: self.start_ns,
                dur_ns: t.now_ns().saturating_sub(self.start_ns),
                detail,
            });
        }
    }
}

/// Label of the span [`EpisodeRuns`] folds late runs into.
const FOLDED_LABEL: &str = "order=*";

/// Per-order attribution of an episode loop: one `episodes` span per
/// contiguous run of slices on the same join order, labelled with the
/// order. Runs are opened for at most half the ring's capacity; from then
/// on every later run folds into a single trailing span labelled
/// `order=*` whose `detail` is the slices it covers — so the loop's spans
/// never overwrite the statement's own `parse_bind` / `preprocess` /
/// early `episodes` spans, however often the learner switches. A no-op
/// (no clock read, no label built) without a trace.
#[derive(Debug)]
pub struct EpisodeRuns<'a> {
    trace: Option<&'a Trace>,
    /// Per-order runs that may still be opened.
    left: usize,
    /// The open run's label; empty while no run is open.
    label: String,
    start_ns: u64,
    slices: u64,
}

impl<'a> EpisodeRuns<'a> {
    pub fn start(trace: Option<&'a Trace>) -> EpisodeRuns<'a> {
        EpisodeRuns {
            trace,
            left: trace.map_or(0, |t| t.capacity() / 2),
            label: String::new(),
            start_ns: 0,
            slices: 0,
        }
    }

    /// The loop moved to another join order: close the open run and open
    /// one labelled by `label` (built only if the span will be recorded).
    pub fn switch(&mut self, label: impl FnOnce() -> String) {
        let Some(t) = self.trace else { return };
        if self.label == FOLDED_LABEL {
            return; // the trailing run absorbs every later order
        }
        self.close(t);
        self.start_ns = t.now_ns();
        self.slices = 0;
        self.label = match self.left.checked_sub(1) {
            Some(left) => {
                self.left = left;
                label()
            }
            None => FOLDED_LABEL.to_string(),
        };
    }

    /// One more slice (or episode) ran on the current order.
    #[inline]
    pub fn slice(&mut self) {
        self.slices += 1;
    }

    /// Close the final run.
    pub fn finish(mut self) {
        if let Some(t) = self.trace {
            self.close(t);
        }
    }

    fn close(&mut self, t: &Trace) {
        if !self.label.is_empty() {
            t.push(Span {
                stage: "episodes",
                label: std::mem::take(&mut self.label),
                start_ns: self.start_ns,
                dur_ns: t.now_ns().saturating_sub(self.start_ns),
                detail: self.slices,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_order_with_nonzero_durations() {
        let t = Trace::new(16);
        let s1 = t.now_ns();
        std::hint::black_box((0..1000).sum::<u64>());
        t.record("parse_bind", s1, 0);
        let s2 = t.now_ns();
        std::hint::black_box((0..1000).sum::<u64>());
        t.record("episodes", s2, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "parse_bind");
        assert_eq!(spans[1].stage, "episodes");
        assert_eq!(spans[1].detail, 42);
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans.iter().all(|s| s.dur_ns > 0));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Trace::new(3);
        for i in 0..5u64 {
            t.push(Span {
                stage: "episodes",
                label: String::new(),
                start_ns: i,
                dur_ns: 1,
                detail: i,
            });
        }
        assert_eq!(t.dropped(), 2);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        // Oldest two (details 0, 1) were overwritten; order preserved.
        assert_eq!(
            spans.iter().map(|s| s.detail).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn episode_runs_fold_late_switches_instead_of_evicting() {
        let t = Trace::new(64);
        t.record("parse_bind", 0, 0);
        t.record("preprocess", 0, 0);
        let mut runs = EpisodeRuns::start(Some(&t));
        let mut labels_built = 0;
        for switch in 0..500u64 {
            runs.switch(|| {
                labels_built += 1;
                format!("order=[{switch}]")
            });
            runs.slice();
            runs.slice();
        }
        runs.finish();
        t.record("postprocess", 0, 0);

        assert_eq!(t.dropped(), 0, "a statement must not evict its own spans");
        let spans = t.spans();
        assert_eq!(spans[0].stage, "parse_bind");
        assert_eq!(spans[1].stage, "preprocess");
        let episodes: Vec<&Span> = spans.iter().filter(|s| s.stage == "episodes").collect();
        assert_eq!(episodes.len(), 33, "32 per-order runs and one folded tail");
        assert_eq!(labels_built, 32, "folded runs build no label");
        assert_eq!(episodes[0].label, "order=[0]");
        assert_eq!(episodes[31].label, "order=[31]");
        assert!(episodes[..32].iter().all(|s| s.detail == 2));
        assert_eq!(episodes[32].label, "order=*");
        assert_eq!(episodes[32].detail, 2 * (500 - 32));
        // Every slice is attributed exactly once.
        assert_eq!(episodes.iter().map(|s| s.detail).sum::<u64>(), 1000);
    }

    #[test]
    fn episode_runs_are_a_noop_without_a_trace() {
        let mut runs = EpisodeRuns::start(None);
        runs.switch(|| unreachable!("no label without a trace"));
        runs.slice();
        runs.finish();
    }

    #[test]
    fn span_timer_is_a_noop_without_a_trace() {
        let timer = SpanTimer::start(None, "preprocess");
        assert_eq!(timer.start_ns, 0);
        timer.finish(7); // must not panic
        let t = Trace::new(4);
        let timer = SpanTimer::start(Some(&t), "preprocess");
        timer.finish(7);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].detail, 7);
    }
}
