//! Server throughput under massed pipelined wire clients.
//!
//! Starts a real `skinner_server` on a loopback port and drives it with
//! hundreds to thousands of *simultaneously connected* simulated clients
//! — far more connections than threads, which is exactly what the
//! event-loop server exists for. A small pool of driver threads each owns
//! a slice of the connections; every connection pipelines a burst of
//! tagged statements (protocol v2), then collects the interleaved
//! replies. Admission control is on and deliberately tight, so overload
//! shows up as explicit `Overloaded` sheds and a bounded p99 instead of
//! collapse.
//!
//! Besides the markdown table, the run writes
//! `bench_reports/BENCH_server_throughput.json` with the per-level
//! completed/shed/latency curve for CI artifacts.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use skinner_client::Client;
use skinner_server::poll::max_open_files;
use skinner_server::{AdmissionConfig, Server, ServerConfig};
use skinnerdb::{DataType, Database, Value};

use crate::harness::{fmt_dur, markdown_table, Scale};

const DRIVER_THREADS: usize = 16;

fn bench_db(scale: Scale) -> Database {
    let n = scale.pick(400u64, 2_000);
    let db = Database::new();
    db.create_table(
        "t",
        &[("id", DataType::Int), ("g", DataType::Int)],
        (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::Int((i % 7) as i64)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "u",
        &[("tid", DataType::Int), ("w", DataType::Int)],
        (0..n * 2)
            .map(|i| vec![Value::Int((i % n) as i64), Value::Int((i % 13) as i64)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "v",
        &[("uid", DataType::Int)],
        (0..n)
            .map(|i| vec![Value::Int(((i * 3) % n) as i64)])
            .collect(),
    )
    .unwrap();
    db
}

const QUERIES: [&str; 3] = [
    "SELECT t.g, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g",
    "SELECT t.id FROM t, u, v WHERE t.id = u.tid AND u.tid = v.uid AND t.g = 2",
    "SELECT u.w, COUNT(*) c FROM t, u WHERE t.id = u.tid AND t.g = 1 GROUP BY u.w",
];

struct LevelStats {
    clients: usize,
    completed: usize,
    shed: usize,
    io_failed: usize,
    wall: Duration,
    p50: Duration,
    p99: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Hold `clients` connections open at once, pipeline `depth` tagged
/// statements on every connection, collect everything.
fn drive(addr: &str, clients: usize, depth: usize) -> LevelStats {
    let addr: Arc<str> = addr.into();
    // All drivers finish connecting before anyone sends: the load level
    // means "N clients connected simultaneously", not a ramp.
    let barrier = Arc::new(Barrier::new(DRIVER_THREADS));
    let started = Instant::now();
    let handles: Vec<_> = (0..DRIVER_THREADS)
        .map(|d| {
            let addr = addr.clone();
            let barrier = barrier.clone();
            // Spread the remainder so counts differ by at most one.
            let mine = clients / DRIVER_THREADS + usize::from(d < clients % DRIVER_THREADS);
            std::thread::spawn(move || {
                let mut conns: Vec<Client> = (0..mine)
                    .map(|_| {
                        Client::connect_with_retry(&*addr, Duration::from_secs(30))
                            .expect("connect")
                    })
                    .collect();
                barrier.wait();
                let mut latencies: Vec<Duration> = Vec::with_capacity(mine * depth);
                let mut shed = 0usize;
                let mut io_failed = 0usize;
                // Send phase: every connection fills its pipeline before
                // anyone blocks on a reply.
                let mut inflight: Vec<Vec<(u32, Instant)>> = vec![Vec::new(); mine];
                for (ci, conn) in conns.iter_mut().enumerate() {
                    for k in 0..depth {
                        let sql = QUERIES[(d + ci + k) % QUERIES.len()];
                        match conn.send_query(sql) {
                            Ok(tag) => inflight[ci].push((tag, Instant::now())),
                            Err(_) => io_failed += 1,
                        }
                    }
                }
                // Collect phase: replies demultiplex by tag per conn.
                for (ci, conn) in conns.iter_mut().enumerate() {
                    for (tag, t0) in inflight[ci].drain(..) {
                        match conn.wait(tag) {
                            Ok(_) => latencies.push(t0.elapsed()),
                            Err(e) if e.is_overloaded() => shed += 1,
                            Err(_) => io_failed += 1,
                        }
                    }
                }
                (latencies, shed, io_failed)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut shed = 0;
    let mut io_failed = 0;
    for h in handles {
        let (l, s, f) = h.join().expect("driver thread");
        latencies.extend(l);
        shed += s;
        io_failed += f;
    }
    let wall = started.elapsed();
    latencies.sort();
    LevelStats {
        clients,
        completed: latencies.len(),
        shed,
        io_failed,
        wall,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn write_json(
    dir: &std::path::Path,
    cores: usize,
    depth: usize,
    fd_cap: usize,
    levels: &[LevelStats],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_server_throughput.json");
    // Headline figures for the CI artifact: the largest level that
    // completed work with zero I/O failures, and its p99 — the "sustains
    // N concurrent clients with bounded tail latency" claim.
    let sustained = levels
        .iter()
        .filter(|l| l.completed > 0 && l.io_failed == 0)
        .map(|l| l.clients)
        .max()
        .unwrap_or(0);
    let p99_at_max = levels
        .iter()
        .filter(|l| l.clients == sustained)
        .map(|l| l.p99)
        .next()
        .unwrap_or(Duration::ZERO);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"pipeline_depth\": {depth},\n"));
    out.push_str(&format!("  \"fd_cap\": {fd_cap},\n"));
    out.push_str(&format!("  \"max_clients_sustained\": {sustained},\n"));
    out.push_str(&format!(
        "  \"p99_us_at_max_level\": {},\n",
        p99_at_max.as_micros()
    ));
    out.push_str(&format!(
        "  \"queries\": [{}],\n",
        QUERIES
            .iter()
            .map(|q| format!("\"{}\"", json_escape(q)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"levels\": [\n");
    for (i, l) in levels.iter().enumerate() {
        let qps = l.completed as f64 / l.wall.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "    {{\"clients\": {}, \"completed\": {}, \"shed\": {}, \"io_failed\": {}, \
             \"qps\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"wall_us\": {}}}{}\n",
            l.clients,
            l.completed,
            l.shed,
            l.io_failed,
            qps,
            l.p50.as_micros(),
            l.p99.as_micros(),
            l.wall.as_micros(),
            if i + 1 < levels.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

pub fn run(scale: Scale) -> String {
    let depth = scale.pick(3, 6);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Every simulated client costs two descriptors in this process (the
    // client socket and the server's accepted peer); leave headroom for
    // the poller, listener, data files and the test harness itself.
    let fd_cap = max_open_files()
        .map(|n| ((n.saturating_sub(256)) / 2) as usize)
        .unwrap_or(usize::MAX);
    let mut levels: Vec<usize> = vec![64, 256, 1_000];
    if !scale.is_smoke() {
        levels.push(4_000);
    }
    let mut clamped = Vec::new();
    levels.retain(|&l| {
        let fits = l <= fd_cap;
        if !fits {
            clamped.push(l);
        }
        fits
    });
    if levels.last() != Some(&fd_cap) && !clamped.is_empty() && fd_cap > 64 {
        levels.push(fd_cap); // still probe the largest level that fits
    }

    let mut out = format!(
        "## Server throughput — massed pipelined clients on the event-loop server\n\n\
         Machine: {cores} core(s), fd budget {fd_cap} simultaneous connections.\n\
         {DRIVER_THREADS} driver threads hold every connection of a level open at\n\
         once; each connection pipelines {depth} tagged statements (protocol v2)\n\
         and then collects the interleaved replies. The admission gate is sized\n\
         to the machine ({} concurrent, queue 64, 2s queue timeout), so overload\n\
         sheds explicitly with `Overloaded` instead of hanging; sheds are\n\
         excluded from latency.\n\n",
        cores.max(2)
    );
    if !clamped.is_empty() {
        out.push_str(&format!(
            "Levels {clamped:?} exceed this process's file-descriptor budget and were skipped.\n\n"
        ));
    }

    let mut stats = Vec::new();
    let mut rows = Vec::new();
    for &clients in &levels {
        let cfg = ServerConfig {
            max_connections: clients + 64,
            admission: AdmissionConfig {
                max_concurrent: cores.max(2),
                queue_depth: 64,
                queue_timeout: Duration::from_secs(2),
            },
            ..ServerConfig::default()
        };
        let mut server = Server::bind(bench_db(scale), "127.0.0.1:0", cfg).expect("bind");
        let addr = server.local_addr().to_string();
        let s = drive(&addr, clients, depth);
        server.shutdown();
        let qps = s.completed as f64 / s.wall.as_secs_f64().max(1e-9);
        rows.push(vec![
            s.clients.to_string(),
            s.completed.to_string(),
            s.shed.to_string(),
            s.io_failed.to_string(),
            format!("{qps:.0}"),
            fmt_dur(s.p50),
            fmt_dur(s.p99),
            fmt_dur(s.wall),
        ]);
        stats.push(s);
    }
    out.push_str(&markdown_table(
        &[
            "clients",
            "completed",
            "shed",
            "io_failed",
            "qps",
            "p50",
            "p99",
            "total",
        ],
        &rows,
    ));
    match write_json(
        std::path::Path::new("bench_reports"),
        cores,
        depth,
        fd_cap,
        &stats,
    ) {
        Ok(path) => out.push_str(&format!("\nJSON artifact: {}\n", path.display())),
        Err(e) => out.push_str(&format!(
            "\n(could not write BENCH_server_throughput.json: {e})\n"
        )),
    }
    out.push_str(
        "\nReading guide: completed + shed + io_failed always equals clients ×\n\
         pipeline depth — every statement gets an answer. As levels grow, qps\n\
         plateaus at what the admission gate admits, p99 stays near the queue\n\
         timeout bound, and the shed column absorbs the rest; io_failed > 0\n\
         would mean dropped connections, which is the failure mode the\n\
         event-loop rewrite exists to prevent.\n",
    );
    out
}
