//! Benchmark harness reproducing **every table and figure** of the
//! SkinnerDB paper's evaluation (Section 6 + appendix).
//!
//! Each experiment lives in [`experiments`] and is listed by name in
//! [`experiments::ALL`]; `cargo run --release -p skinner_bench --bin run_all
//! -- <name>…` regenerates the named tables/figures, and `--bin run_all`
//! alone regenerates everything into `bench_reports/`.
//!
//! Two measurement axes are reported throughout:
//! * **wall-clock time** — honest end-to-end timing of this implementation;
//! * **work units** — deterministic counts of elementary operations (tuples
//!   scanned/produced, probes, predicate evaluations), identical accounting
//!   across engines. Work units are the hardware-independent counterpart of
//!   the paper's measurements (its cardinality columns and "#evaluations").
//!
//! `BENCH_SCALE=paper` switches from the quick default to larger data and
//! higher work limits (closer to the paper's scale; minutes → hours);
//! `BENCH_SCALE=smoke` is the seconds-level CI scale.

pub mod experiments;
pub mod harness;

pub use harness::{Scale, SysOutcome, System};
