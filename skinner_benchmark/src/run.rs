//! One benchmark run: set up (several times, for a steady `setup_s`),
//! compute reference answers, drive the closed loop for the requested
//! time, check every result, and fold what was seen into the metrics of
//! `metrics.rs`.
//!
//! All loops are closed: an analytical client waits for its answer before
//! it sends the next statement. The plain run gives the end-to-end
//! metrics; the traced run alternates plain and traced passes (so the two
//! see the same machine state) and gives the per-layer ones.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::layers::{self, Caller, Exec, Prelude, World};
use crate::metrics::{self, median};
use crate::spans::{self, Recorder};
use crate::workloads::{self, Kind, Plan};

pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// How many times to set up; `setup_s` is the median.
    pub setups: usize,
    /// Where the traced run writes its spans (JSON lines).
    pub spans_path: Option<PathBuf>,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A value for one of the metrics of `metrics.rs`, with its unit.
fn metric(name: &'static str, value: f64) -> Metric {
    let unit = metrics::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a metric of this benchmark"))
        .1;
    Metric { name, value, unit }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable remarks: sample counts, absent layers, first errors.
    pub notes: Vec<String>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Passes per caller that measure `peak_rss_mb`, after the timed phase.
const MEMORY_PASSES: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
    /// `tpch_disk` under sequential Skinner-C, for `core.parallel_speedup`.
    Sequential,
    /// A pass after the timed phase that only measures `peak_rss_mb`.
    Memory,
}

struct PassRecord {
    mode: Mode,
    wall_ns: u64,
    /// The statements alone, without ingest and open.
    queries_ns: u64,
    max_latency_ns: u64,
    work_units: u64,
    ok: u64,
}

/// Sum, number of reports and maximum of one engine counter.
#[derive(Default, Clone, Copy)]
struct Tally {
    sum: u64,
    n: u64,
    max: u64,
}

/// What the traced executions of one source (a caller, or the probe
/// pass) reported about the layers.
#[derive(Default)]
struct LayerSums {
    passes: u64,
    executions: u64,
    sql_statements: u64,
    rows: u64,
    work_units: u64,
    execute_us: u64,
    latency_ns: u64,
    server_total_ns: u64,
    server_totals: u64,
    /// Per stage name: total time, and how many executions reported the
    /// stage at all (the mean is over those, since absent is not zero).
    stage_ns: BTreeMap<String, (u64, u64)>,
    counts: BTreeMap<&'static str, Tally>,
}

impl LayerSums {
    fn add(&mut self, exec: &Exec) {
        self.executions += 1;
        self.sql_statements += exec.statements;
        self.rows += exec.rows;
        self.work_units += exec.work_units;
        self.execute_us += exec.execute_us;
        self.latency_ns += exec.latency_ns;
        let Some(r) = &exec.readout else { return };
        if let Some(t) = r.server_total_ns {
            self.server_total_ns += t;
            self.server_totals += 1;
        }
        let mut reported: Vec<&str> = Vec::new();
        for s in &r.stages {
            let e = self.stage_ns.entry(s.name.clone()).or_default();
            e.0 += s.dur_ns;
            if !reported.contains(&s.name.as_str()) {
                reported.push(&s.name);
                e.1 += 1;
            }
        }
        for &(name, v) in &r.counts {
            let t = self.counts.entry(name).or_default();
            t.sum += v;
            t.n += 1;
            t.max = t.max.max(v);
        }
    }

    fn merge(&mut self, other: &LayerSums) {
        self.passes += other.passes;
        self.executions += other.executions;
        self.sql_statements += other.sql_statements;
        self.rows += other.rows;
        self.work_units += other.work_units;
        self.execute_us += other.execute_us;
        self.latency_ns += other.latency_ns;
        self.server_total_ns += other.server_total_ns;
        self.server_totals += other.server_totals;
        for (k, v) in &other.stage_ns {
            let e = self.stage_ns.entry(k.clone()).or_default();
            e.0 += v.0;
            e.1 += v.1;
        }
        for (k, v) in &other.counts {
            let t = self.counts.entry(k).or_default();
            t.sum += v.sum;
            t.n += v.n;
            t.max = t.max.max(v.max);
        }
    }
}

#[derive(Default)]
struct CallerLog {
    passes: Vec<PassRecord>,
    /// Latencies of correct statements in plain passes.
    latencies_ns: Vec<u64>,
    preludes: Vec<Prelude>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    layers: LayerSums,
    recorder: Option<Recorder>,
}

/// One pass of one caller: the prelude (ingest and open, `tpch_disk`
/// only), then every statement of the plan's order, each checked.
fn run_pass(
    caller: &mut Caller,
    plan: &Plan,
    order: &[usize],
    reference: Option<&[u64]>,
    mode: Mode,
    log: &mut CallerLog,
) {
    let traced = mode == Mode::Traced;
    let pass_start = Instant::now();
    let rec = if traced { log.recorder.as_mut() } else { None };
    match caller.begin_pass(rec, mode == Mode::Sequential) {
        Ok(Some(p)) => log.preludes.push(p),
        Ok(None) => {}
        Err(e) => {
            log.attempted += 1;
            log.failed += 1;
            log.errors.push(format!("pass prelude: {e}"));
            return;
        }
    }
    let queries_start = Instant::now();
    let mut record = PassRecord {
        mode,
        wall_ns: 0,
        queries_ns: 0,
        max_latency_ns: 0,
        work_units: 0,
        ok: 0,
    };
    for &ix in order {
        log.attempted += 1;
        let request = log.attempted;
        let rec = if traced { log.recorder.as_mut() } else { None };
        let exec = match caller.run(plan, ix, rec, request) {
            Ok(exec) => exec,
            Err(e) => {
                log.failed += 1;
                log.errors.push(e);
                continue;
            }
        };
        if reference.is_some_and(|r| r[ix] != exec.checksum) {
            log.failed += 1;
            log.errors.push(format!(
                "{}: result differs from the reference",
                plan.statements[ix].name
            ));
            continue;
        }
        record.ok += 1;
        record.work_units += exec.work_units;
        record.max_latency_ns = record.max_latency_ns.max(exec.latency_ns);
        match mode {
            Mode::Plain => log.latencies_ns.push(exec.latency_ns),
            Mode::Traced => log.layers.add(&exec),
            Mode::Sequential | Mode::Memory => {}
        }
    }
    record.queries_ns = queries_start.elapsed().as_nanos() as u64;
    record.wall_ns = pass_start.elapsed().as_nanos() as u64;
    if traced {
        log.layers.passes += 1;
    }
    log.passes.push(record);
}

/// Drive every caller on its own thread until `seconds` have passed; a
/// pass that has begun is finished, so passes are whole, and every mode
/// runs at least once. Passes are numbered from `first_pass` (the number
/// picks the pass's statement order).
fn drive(
    world: &mut World,
    plan: &Plan,
    reference: Option<&[u64]>,
    seconds: f64,
    modes: &[Mode],
    first_pass: u64,
    epoch: Instant,
) -> Vec<CallerLog> {
    let limit = Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = world
            .callers
            .iter_mut()
            .enumerate()
            .map(|(c, caller)| {
                scope.spawn(move || {
                    let mut log = CallerLog {
                        recorder: modes
                            .contains(&Mode::Traced)
                            .then(|| Recorder::new(c as u32, epoch)),
                        ..CallerLog::default()
                    };
                    let start = Instant::now();
                    let mut n = 0usize;
                    while n < modes.len() || start.elapsed() < limit {
                        let order = plan.order(c, first_pass + n as u64);
                        let mode = modes[n % modes.len()];
                        run_pass(caller, plan, &order, reference, mode, &mut log);
                        n += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a caller thread panicked"))
            .collect()
    })
}

fn set_up(kind: Kind, seed: u64, scratch: &std::path::Path) -> Result<(Plan, World), String> {
    let inputs = layers::generate(kind);
    let callers = kind.callers(nproc());
    let plan = match kind {
        Kind::JobServed => workloads::plan_job(seed, &inputs.queries, callers),
        Kind::RepeatServed => workloads::plan_repeat(seed, callers),
        Kind::TortureEmbedded => workloads::plan_torture(seed, &inputs.queries),
        Kind::TpchDisk => workloads::plan_tpch(seed, &inputs.queries, inputs.orders),
    };
    let mut world = World::build(&plan, inputs, scratch)?;
    // Warm-up: one unchecked pass per caller, so caches fill and lazy
    // set-up finishes before anything is timed.
    let logs = drive(
        &mut world,
        &plan,
        None,
        0.0,
        &[Mode::Plain],
        0,
        Instant::now(),
    );
    if let Some(e) = logs.iter().flat_map(|l| &l.errors).next() {
        world.close();
        return Err(format!("warm-up: {e}"));
    }
    Ok((plan, world))
}

/// Reference checksum per statement; statements with the same text on
/// the same database share one execution.
fn references(world: &World, plan: &Plan) -> Result<Vec<u64>, String> {
    let mut seen: BTreeMap<(usize, &str), u64> = BTreeMap::new();
    plan.statements
        .iter()
        .map(|s| match seen.get(&(s.db, s.sql.as_str())) {
            Some(&c) => Ok(c),
            None => {
                let c = world.reference(s)?;
                seen.insert((s.db, &s.sql), c);
                Ok(c)
            }
        })
        .collect()
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Median of `f` over all callers' passes of one mode; `None` without one.
fn pass_median(logs: &[CallerLog], mode: Mode, f: impl Fn(&PassRecord) -> f64) -> Option<f64> {
    let values: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.passes)
        .filter(|p| p.mode == mode)
        .map(f)
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

fn end_to_end(logs: &[CallerLog], setup_s: f64, peak_rss_mb: f64) -> (Vec<Metric>, Vec<String>) {
    let mut latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies_ns.iter().map(|&n| n as f64))
        .collect();
    latencies.sort_by(f64::total_cmp);
    let plain_passes = logs
        .iter()
        .flat_map(|l| &l.passes)
        .filter(|p| p.mode == Mode::Plain)
        .count();
    let of = |f: &dyn Fn(&PassRecord) -> f64| pass_median(logs, Mode::Plain, f).unwrap_or(0.0);
    let (p95, used) = metrics::tail(&latencies, 0.95);
    // Throughput at the stated client count: each caller's own rate, summed.
    let qps: f64 = logs
        .iter()
        .map(|l| {
            let (ok, wall) = l
                .passes
                .iter()
                .filter(|p| p.mode == Mode::Plain)
                .fold((0u64, 0u64), |(ok, wall), p| (ok + p.ok, wall + p.wall_ns));
            ok as f64 / (wall as f64 / 1e9).max(1e-9)
        })
        .sum();
    let mut notes = vec![format!(
        "samples: {} statements in {} passes by {} caller(s)",
        latencies.len(),
        plain_passes,
        logs.len()
    )];
    if used < 0.95 {
        notes.push(format!(
            "query_p95_ms holds p{:.0}: {} samples leave fewer than ten beyond p95",
            used * 100.0,
            latencies.len()
        ));
    }
    (
        vec![
            metric("setup_s", setup_s),
            metric("query_p50_ms", ms(metrics::percentile(&latencies, 0.5))),
            metric("query_p95_ms", ms(p95)),
            metric("pass_s", of(&|p| p.wall_ns as f64 / 1e9)),
            metric("pass_max_ms", ms(of(&|p| p.max_latency_ns as f64))),
            metric("queries_per_s", qps),
            metric("work_units_per_pass", of(&|p| p.work_units as f64)),
            metric("peak_rss_mb", peak_rss_mb),
        ],
        notes,
    )
}

/// Everything the traced run gathered besides the callers' logs.
struct TracedExtras {
    probe: Option<LayerSums>,
    preprocess_rows: Option<(u64, u64)>,
    cache: (u64, u64, u64),
    server: Option<layers::ServerCounts>,
    noop_ns: Option<f64>,
    micro: layers::Micro,
    persist_ns: Option<u64>,
    segment_bytes: Option<u64>,
    user_bytes: Option<u64>,
}

fn per_layer(logs: &[CallerLog], x: &TracedExtras) -> (Vec<Metric>, Vec<String>) {
    let mut primary = LayerSums::default();
    let mut total_passes = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    let mut preludes: Vec<Prelude> = Vec::new();
    for l in logs {
        total_passes += l.passes.len() as u64;
        primary.merge(&l.layers);
        latencies.extend(l.latencies_ns.iter().map(|&n| n as f64));
        preludes.extend(&l.preludes);
    }
    latencies.sort_by(f64::total_cmp);
    // Served workloads take engine counters from the in-process probe
    // pass; embedded ones from their own traced passes.
    let engine = x.probe.as_ref().unwrap_or(&primary);

    let mut out: Vec<Metric> = Vec::new();
    let mut absent: Vec<&'static str> = Vec::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if value.is_none() {
            absent.push(name);
        }
        out.push(metric(name, value.unwrap_or(0.0)));
    };
    let ratio = |a: f64, b: f64| (b > 0.0).then(|| a / b);
    let execs = primary.executions as f64;
    let stage_us = |name: &str| {
        primary
            .stage_ns
            .get(name)
            .and_then(|&(ns, n)| ratio(ns as f64 / 1e3, n as f64))
    };
    let per_pass = |sums: &LayerSums, v: u64| ratio(v as f64, sums.passes as f64);
    let count = |name: &str| engine.counts.get(name).copied();
    let count_per_pass = |name: &str| count(name).and_then(|t| per_pass(engine, t.sum));
    let count_mean = |name: &str| count(name).and_then(|t| ratio(t.sum as f64, t.n as f64));
    let count_max = |name: &str| count(name).map(|t| t.max as f64);

    put("query.parse_bind_us", stage_us("parse_bind"));
    put(
        "query.statements",
        per_pass(&primary, primary.sql_statements),
    );
    put("exec.preprocess_us", stage_us("preprocess"));
    put(
        "exec.preprocess_rows_in",
        x.preprocess_rows.map(|r| r.0 as f64),
    );
    put(
        "exec.preprocess_rows_out",
        x.preprocess_rows.map(|r| r.1 as f64),
    );
    let (read, skipped) = (count("pages_read"), count("pages_skipped"));
    put("exec.zonescan_pages_read", count_per_pass("pages_read"));
    put(
        "exec.zonescan_pages_skipped",
        count_per_pass("pages_skipped"),
    );
    put(
        "exec.zonescan_skip_ratio",
        read.zip(skipped)
            .and_then(|(r, s)| ratio(s.sum as f64, (r.sum + s.sum) as f64)),
    );
    put("exec.postprocess_us", stage_us("postprocess"));
    put(
        "exec.postprocess_tuples_in",
        count_per_pass("result_tuples"),
    );
    put("exec.result_rows", per_pass(&primary, primary.rows));
    put("exec.execute_us", ratio(primary.execute_us as f64, execs));
    put("core.episodes_us", stage_us("episodes"));
    put("core.slices", count_per_pass("slices"));
    // Time and slices of the same executions: the callers' own traced
    // ones (a served statement's slice count rides in its wire summary).
    put(
        "core.ns_per_slice",
        primary
            .stage_ns
            .get("episodes")
            .zip(primary.counts.get("slices"))
            .and_then(|(&(ns, _), t)| ratio(ns as f64, t.sum as f64)),
    );
    put("core.work_units", per_pass(&primary, primary.work_units));
    put(
        "core.work_units_per_s",
        ratio(primary.work_units as f64, primary.execute_us as f64 / 1e6),
    );
    put("core.order_switches", count_per_pass("order_switches"));
    put("core.last_order_switch", count_mean("last_order_switch"));
    put(
        "core.off_best_slice_share",
        count("off_best_slices")
            .zip(count("slices"))
            .and_then(|(off, all)| ratio(off.sum as f64, all.sum as f64)),
    );
    put(
        "core.abandoned_episodes",
        count_per_pass("abandoned_episodes"),
    );
    put("core.result_tuples", count_per_pass("result_tuples"));
    put("core.result_set_bytes", count_max("result_set_bytes"));
    put("core.aux_bytes", count_max("aux_bytes"));
    let queries = |mode| pass_median(logs, mode, |p| p.queries_ns as f64);
    put(
        "core.parallel_speedup",
        queries(Mode::Sequential)
            .zip(queries(Mode::Plain))
            .and_then(|(seq, par)| ratio(seq, par)),
    );
    put("uct.shards", count_mean("uct_shards"));
    put(
        "uct.root_cas_contention",
        count_per_pass("root_cas_contention"),
    );
    let (hits, misses, quarantines) = x.cache;
    let lookups = hits + misses;
    let passes = total_passes as f64;
    put(
        "core.cache_hits",
        (lookups > 0).then(|| hits as f64 / passes),
    );
    put(
        "core.cache_misses",
        (lookups > 0).then(|| misses as f64 / passes),
    );
    put("core.cache_hit_ratio", ratio(hits as f64, lookups as f64));
    put(
        "core.warm_start_visits",
        (lookups > 0)
            .then(|| count_per_pass("warm_start_visits"))
            .flatten(),
    );
    put(
        "core.cache_quarantines",
        (lookups > 0).then_some(quarantines as f64),
    );
    put("uct.select_backup_ns", Some(x.micro.uct_select_backup_ns));
    put("uct.nodes", count_per_pass("uct_nodes"));
    put("storage.index_build_us", Some(x.micro.index_build_us));
    put("storage.index_probe_ns", Some(x.micro.index_probe_ns));
    let prelude = |f: &dyn Fn(&Prelude) -> f64| {
        (!preludes.is_empty()).then(|| median(&preludes.iter().map(f).collect::<Vec<_>>()))
    };
    put("storage.open_us", prelude(&|p| p.open_ns as f64 / 1e3));
    put("storage.persist_us", x.persist_ns.map(|ns| ns as f64 / 1e3));
    put(
        "storage.csv_ingest_us",
        prelude(&|p| p.ingest_ns as f64 / 1e3),
    );
    put(
        "storage.ingest_rows_per_s",
        prelude(&|p| p.ingest_rows as f64 / (p.ingest_ns as f64 / 1e9)),
    );
    put("storage.segment_bytes", x.segment_bytes.map(|b| b as f64));
    put(
        "storage.disk_bytes_per_user_byte",
        x.segment_bytes
            .zip(x.user_bytes)
            .and_then(|(s, u)| ratio(s as f64, u as f64)),
    );
    put("server.admission_wait_us", stage_us("admission_wait"));
    put("server.encode_flush_us", stage_us("encode_flush"));
    let served = primary.server_totals as f64;
    put(
        "server.stage_total_us",
        ratio(primary.server_total_ns as f64 / 1e3, served),
    );
    // What the profiles leave unexplained: gaps between stages, and spans
    // the server's fixed-size trace ring overwrote on long statements.
    let staged: u64 = primary.stage_ns.values().map(|v| v.0).sum();
    put(
        "server.unattributed_us",
        ratio(
            primary.server_total_ns.saturating_sub(staged) as f64 / 1e3,
            served,
        ),
    );
    put(
        "server.wire_overhead_us",
        ratio(
            primary.latency_ns.saturating_sub(primary.server_total_ns) as f64 / 1e3,
            served,
        ),
    );
    put("server.noop_roundtrip_us", x.noop_ns.map(|ns| ns / 1e3));
    put(
        "server.protocol_encode_ns_per_row",
        Some(x.micro.protocol_encode_ns_per_row),
    );
    put(
        "server.protocol_decode_ns_per_row",
        Some(x.micro.protocol_decode_ns_per_row),
    );
    put("server.shed", x.server.map(|s| s.shed as f64));
    put("server.queued", x.server.map(|s| s.queued as f64));
    let (p99, used) = metrics::tail(&latencies, 0.99);
    put("client.latency_p99_ms", Some(ms(p99)));
    let wall = |mode| pass_median(logs, mode, |p| p.wall_ns as f64);
    put(
        "telemetry.trace_overhead_pct",
        wall(Mode::Traced)
            .zip(wall(Mode::Plain))
            .and_then(|(t, p)| ratio((t - p) * 100.0, p)),
    );

    let mut notes = vec![format!(
        "samples: {} traced statements in {} traced passes, {} passes in all",
        primary.executions, primary.passes, total_passes
    )];
    if used < 0.99 {
        notes.push(format!(
            "client.latency_p99_ms holds p{:.0}: {} plain samples",
            used * 100.0,
            latencies.len()
        ));
    }
    if !absent.is_empty() {
        notes.push(format!(
            "absent on this workload (printed as 0): {}",
            absent.join(" ")
        ));
    }
    (out, notes)
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch =
        PathBuf::from(".bench_run").join(format!("{}-{}", opts.kind.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    // Set up several times and keep the last world: one set-up is a
    // single sample, and `setup_s` has to be steady enough to compare.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Plan, World)> = None;
    for _ in 0..opts.setups.max(1) {
        if let Some((_, world)) = kept.take() {
            world.close();
        }
        let t0 = Instant::now();
        kept = Some(set_up(opts.kind, opts.seed, &scratch)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (plan, mut world) = kept.expect("at least one set-up ran");

    let outcome = measure(opts, &plan, &mut world, median(&setup_s));
    world.close();
    let _ = std::fs::remove_dir_all(&scratch);
    // Leave `.bench_run` itself only if something else is in it.
    let _ = std::fs::remove_dir(".bench_run");
    outcome
}

fn measure(
    opts: &Options,
    plan: &Plan,
    world: &mut World,
    setup_s: f64,
) -> Result<Outcome, String> {
    let reference = references(world, plan)?;
    let cache_before = world.cache_stats();
    let epoch = Instant::now();
    let modes: &[Mode] = match (opts.trace, plan.kind) {
        (false, _) => &[Mode::Plain],
        (true, Kind::TpchDisk) => &[Mode::Plain, Mode::Traced, Mode::Sequential],
        (true, _) => &[Mode::Plain, Mode::Traced],
    };
    let mut logs = drive(world, plan, Some(&reference), opts.seconds, modes, 1, epoch);
    let (metrics, notes) = if opts.trace {
        traced_metrics(opts, plan, world, &mut logs, cache_before)?
    } else {
        let (peak, memory_logs) = memory_passes(plan, world, &reference, epoch);
        let out = end_to_end(&logs, setup_s, peak);
        logs.extend(memory_logs);
        out
    };
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let mut all_notes: Vec<String> = logs
        .iter()
        .flat_map(|l| &l.errors)
        .take(5)
        .map(|e| format!("error: {e}"))
        .collect();
    all_notes.extend(notes);
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes: all_notes,
    })
}

/// `peak_rss_mb`, measured after the timed phase on passes of its own:
/// returning freed heap to the kernel costs the next pass its page
/// faults, which must not leak into the timings. Each memory pass starts
/// from a trimmed heap and a restarted watermark, so the figure is what
/// one pass of all callers needs and does not grow with the number of
/// passes a faster system gets through. The largest of the passes' peaks
/// is reported: which statements follow each other, and which overlap
/// across callers, moves a single pass's peak by a fifth, and over ten
/// runs the largest of seven repeated better than their median (spread
/// 5 % against 13 % on `job_served`, 5 % against 15 % on
/// `torture_embedded`). The passes' results are checked
/// like any other; their logs come back for the failure count.
fn memory_passes(
    plan: &Plan,
    world: &mut World,
    reference: &[u64],
    epoch: Instant,
) -> (f64, Vec<CallerLog>) {
    let mut peaks = Vec::new();
    let mut logs = Vec::new();
    for k in 0..MEMORY_PASSES {
        metrics::reset_peak_rss();
        // Pass numbers far from the timed ones: orders of their own.
        let first = 1_000_000 + k;
        logs.extend(drive(
            world,
            plan,
            Some(reference),
            0.0,
            &[Mode::Memory],
            first,
            epoch,
        ));
        peaks.push(metrics::peak_rss_mb());
    }
    (peaks.into_iter().fold(0.0, f64::max), logs)
}

/// The per-layer metrics of a traced run: the callers' read-outs, plus
/// the in-process probe pass, the server's counters and the micro-loops.
fn traced_metrics(
    opts: &Options,
    plan: &Plan,
    world: &mut World,
    logs: &mut [CallerLog],
    cache_before: (u64, u64, u64),
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let cache_after = world.cache_stats();
    // Engine counters of served workloads: one in-process pass.
    let probe = if matches!(plan.kind, Kind::JobServed | Kind::RepeatServed) {
        let mut sums = LayerSums {
            passes: 1,
            ..LayerSums::default()
        };
        for &ix in &plan.slots {
            sums.add(&world.probe(&plan.statements[ix])?);
        }
        Some(sums)
    } else {
        None
    };
    let mut rows: Option<(u64, u64)> = None;
    for &ix in &plan.slots {
        if let Some((i, o)) = world.preprocess_rows(&plan.statements[ix]) {
            let r = rows.get_or_insert((0, 0));
            r.0 += i;
            r.1 += o;
        }
    }
    let extras = TracedExtras {
        probe,
        preprocess_rows: rows,
        cache: (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
            cache_after.2 - cache_before.2,
        ),
        noop_ns: world.noop_roundtrip_ns(200),
        server: world.server_counts(),
        micro: layers::micro()?,
        persist_ns: world.persist_ns,
        segment_bytes: world.segment_bytes,
        user_bytes: world.user_bytes,
    };
    let (metrics, mut notes) = per_layer(logs, &extras);
    let recorders: Vec<Recorder> = logs.iter_mut().filter_map(|l| l.recorder.take()).collect();
    let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in &recorders {
        for (name, (ns, n)) in spans::self_time_by_name(r.spans()) {
            let e = by_name.entry(name).or_default();
            e.0 += ns;
            e.1 += n;
        }
    }
    for (name, (ns, n)) in by_name {
        notes.push(format!(
            "span {name}: {n} spans, self time {:.1} us each",
            ns as f64 / 1e3 / n.max(1) as f64
        ));
    }
    if let Some(path) = &opts.spans_path {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut w| {
                spans::write_jsonl(&mut w, &recorders)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
    }
    Ok((metrics, notes))
}
