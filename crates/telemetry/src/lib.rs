//! Std-only telemetry for the SkinnerDB workspace.
//!
//! Three pieces, all cheap enough to stay on in production:
//!
//! * [`Histogram`] — a lock-free log-linear (HDR-style) histogram over
//!   `u64` values. Sixteen linear sub-buckets per power of two bound the
//!   relative quantile error to one part in sixteen; recording is a single
//!   relaxed `fetch_add` into an atomic bucket array.
//! * [`Registry`] — a named family store for counters, gauges and
//!   histograms. Handle types ([`Counter`], [`Gauge`], [`Histo`]) are
//!   `Arc`-backed and cloneable, so hot paths touch atomics directly and
//!   never take the registry lock; the lock is only held while *creating*
//!   a series or rendering a snapshot. [`Registry::render_prometheus`]
//!   emits the Prometheus text exposition format for a `/metrics`
//!   endpoint; [`Registry::flatten`] renders the same series as
//!   `(name, value)` rows, the whole of `SHOW SERVER STATS`.
//! * [`Trace`] — a fixed-capacity per-query span ring. Stages record
//!   monotonic nanosecond timestamps ([`Span`]); recording a plain span
//!   allocates nothing (static stage name, preallocated ring), so traces
//!   ride along on every query, not just sampled ones.
//!
//! The crate deliberately depends on nothing (std only) so every layer of
//! the workspace — exec, core, server, client, bench — can use it without
//! dependency cycles.

mod hist;
mod registry;
mod trace;

pub use hist::{bucket_bounds, bucket_index, HistSnapshot, Histogram, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Histo, Registry};
pub use trace::{EpisodeRuns, Span, SpanTimer, Trace};
