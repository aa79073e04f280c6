//! Offline stand-in for `criterion`.
//!
//! Implements the API subset the workspace's micro-benchmarks use —
//! [`Criterion::bench_function`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], `criterion_group!` / `criterion_main!` —
//! with a simple median-of-samples timing loop instead of criterion's
//! statistical machinery. When invoked by `cargo test` (which passes
//! `--test` to bench binaries), every benchmark body runs exactly once as
//! a smoke test.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Batch sizing hints (accepted, not differentiated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Benchmark driver handed to `bench_function` closures.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    sample_size: usize,
    measurement_time: Duration,
    smoke_test: bool,
}

impl Bencher<'_> {
    /// Time `routine` repeatedly; its return value is black-boxed so the
    /// optimizer cannot delete the work.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.smoke_test {
            black_box(routine());
            return;
        }
        let per_sample =
            (self.measurement_time / self.sample_size as u32).max(Duration::from_micros(200));
        for _ in 0..self.sample_size {
            let started = Instant::now();
            let mut iters = 0u64;
            while started.elapsed() < per_sample {
                black_box(routine());
                iters += 1;
            }
            self.samples.push(started.elapsed() / iters.max(1) as u32);
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.smoke_test {
            black_box(routine(setup()));
            return;
        }
        for _ in 0..self.sample_size {
            let input = setup();
            let started = Instant::now();
            black_box(routine(input));
            self.samples.push(started.elapsed());
        }
    }
}

/// Top-level benchmark runner (API subset of `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    smoke_test: bool,
    /// Run only benchmarks whose name contains this (the first
    /// non-flag command-line argument, as in `cargo bench -- <filter>`).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(200),
            measurement_time: Duration::from_secs(1),
            smoke_test: std::env::args().any(|a| a == "--test"),
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Run one named benchmark and print a one-line summary.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: &str,
        mut f: F,
    ) -> &mut Self {
        if self
            .filter
            .as_ref()
            .is_some_and(|f| !name.contains(f.as_str()))
        {
            return self;
        }
        let mut samples = Vec::new();
        if !self.smoke_test {
            // Warm-up pass: identical loop, results discarded.
            let mut warmup = Vec::new();
            let mut b = Bencher {
                samples: &mut warmup,
                sample_size: 2,
                measurement_time: self.warm_up_time,
                smoke_test: false,
            };
            f(&mut b);
        }
        let mut b = Bencher {
            samples: &mut samples,
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            smoke_test: self.smoke_test,
        };
        f(&mut b);
        if self.smoke_test {
            println!("{name}: ok (smoke test)");
        } else {
            samples.sort_unstable();
            let median = samples[samples.len() / 2];
            let (lo, hi) = (samples[0], samples[samples.len() - 1]);
            println!(
                "{name:<40} time: [{} {} {}]",
                fmt_ns(lo),
                fmt_ns(median),
                fmt_ns(hi)
            );
        }
        self
    }
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_body() {
        let mut c = Criterion {
            sample_size: 2,
            warm_up_time: Duration::from_millis(1),
            measurement_time: Duration::from_millis(4),
            smoke_test: false,
            filter: Some("o".to_string()),
        };
        let mut runs = 0u64;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
        c.bench_function("skipped", |_| panic!("name does not match the filter"));

        let mut batched = 0u64;
        c.bench_function("batched_noop", |b| {
            b.iter_batched(|| 7u64, |x| batched += x, BatchSize::SmallInput)
        });
        assert!(batched > 0);
    }
}
