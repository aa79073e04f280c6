//! The `skinner-server` binary: serve a SkinnerDB instance over TCP.
//!
//! ```sh
//! skinner-server --addr 127.0.0.1:7878 --demo
//! skinner-server --addr 0.0.0.0:7878 --csv people=data/people.csv --csv orders=data/orders.csv
//! skinner-server --data-dir /var/lib/skinnerdb --bulk-csv lineitem=data/lineitem.csv
//! ```
//!
//! The process runs until it receives a wire-level `Shutdown` request
//! (e.g. `skinner_client::Client::shutdown_server`) or a SIGTERM/SIGINT,
//! then drains, flushes learned priors to the data directory, joins every
//! thread and exits 0 — which is what the CI clean-shutdown and
//! learning-persistence checks assert.

use std::time::Duration;

use skinner_server::{AdmissionConfig, Server, ServerConfig, ShutdownHandle};
use skinnerdb::{DataType, Database, Value};

/// Route SIGTERM/SIGINT into a graceful [`ShutdownHandle::request`].
///
/// The handler itself must be async-signal-safe, so it only `write(2)`s
/// one byte into a pre-created socketpair (the classic self-pipe trick);
/// a watcher thread blocks on the read end and performs the actual
/// shutdown outside signal context. The write end leaks by design — a
/// signal can arrive at any point in the process lifetime.
#[cfg(unix)]
mod signals {
    use super::ShutdownHandle;
    use std::io::Read;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};

    static SIGNAL_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        let fd = SIGNAL_FD.load(Ordering::Relaxed);
        if fd >= 0 {
            let byte = 1u8;
            unsafe {
                let _ = write(fd, &byte, 1);
            }
        }
    }

    pub fn install(handle: ShutdownHandle) {
        let Ok((tx, mut rx)) = UnixStream::pair() else {
            eprintln!("skinner-server: cannot create signal channel; SIGTERM will be abrupt");
            return;
        };
        use std::os::unix::io::IntoRawFd;
        SIGNAL_FD.store(tx.into_raw_fd(), Ordering::Relaxed);
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
        std::thread::Builder::new()
            .name("skinner-signals".into())
            .spawn(move || {
                let mut buf = [0u8; 1];
                if rx.read(&mut buf).is_ok() {
                    eprintln!("skinner-server: signal received, shutting down");
                    handle.request();
                }
            })
            .expect("spawn signal watcher");
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: skinner-server [--addr HOST:PORT] [--demo] [--csv NAME=PATH]...\n\
         \x20                     [--data-dir DIR] [--bulk-csv NAME=PATH]...\n\
         \x20                     [--max-conns N] [--max-queries N] [--queue N]\n\
         \x20                     [--queue-timeout-ms N] [--threads N] [--no-remote-shutdown]\n\
         \x20                     [--shards N] [--max-inflight N] [--idle-timeout-ms N]\n\
         \x20                     [--metrics-addr HOST:PORT] [--slow-query-ms N]\n\
         \x20                     [--metrics-linger-ms N]\n\
         \n\
         --addr                listen address (default 127.0.0.1:7878)\n\
         --demo                load the built-in demo tables (nums, customers, products, orders)\n\
         --csv NAME=PATH       load a CSV file as table NAME (repeatable)\n\
         --data-dir DIR        open a persistent data directory: committed tables are\n\
         \x20                     loaded at startup, dropped tables are removed on disk,\n\
         \x20                     and learned join-order priors persist across restarts\n\
         --learning-cache      enable cross-query learning by default (templates\n\
         \x20                     warm-start from previous executions; with --data-dir\n\
         \x20                     the learned priors survive restarts)\n\
         --bulk-csv NAME=PATH  stream a CSV straight into a persistent zone-mapped\n\
         \x20                     segment (requires --data-dir earlier on the command line)\n\
         --max-conns N         connection limit (default 256)\n\
         --max-queries N       concurrently executing queries (default: cores)\n\
         --queue N             admission queue depth (default 64)\n\
         --queue-timeout-ms N  max wait for an execution slot (default 10000)\n\
         --threads N           default worker threads per parallel query\n\
         --no-remote-shutdown  ignore wire-level Shutdown requests\n\
         --shards N            connection event-loop shards (default: auto)\n\
         --max-inflight N      pipelined statements per connection (default 32)\n\
         --idle-timeout-ms N   reap idle connections after N ms (0 = never, default 300000)\n\
         --metrics-addr A:P    serve Prometheus text exposition on GET /metrics\n\
         --slow-query-ms N     log a structured slow-query line for queries >= N ms\n\
         --metrics-linger-ms N keep /metrics up this long after shutdown (default 0),\n\
         \x20                     so a final scrape can read the shutdown gauges"
    );
    std::process::exit(2);
}

fn demo_tables(db: &Database) {
    // A numbers table big enough that a 3-way cross join is a torture
    // query (cancellation demos), …
    db.create_table(
        "nums",
        &[("x", DataType::Int)],
        (0..2000).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    // … and a small star schema for sensible queries.
    db.create_table(
        "customers",
        &[
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("country", DataType::Str),
        ],
        vec![
            vec![Value::Int(1), Value::from("ada"), Value::from("uk")],
            vec![Value::Int(2), Value::from("grace"), Value::from("us")],
            vec![Value::Int(3), Value::from("edsger"), Value::from("nl")],
        ],
    )
    .unwrap();
    db.create_table(
        "products",
        &[
            ("id", DataType::Int),
            ("label", DataType::Str),
            ("price", DataType::Float),
        ],
        vec![
            vec![Value::Int(10), Value::from("keyboard"), Value::Float(49.5)],
            vec![Value::Int(11), Value::from("monitor"), Value::Float(199.0)],
            vec![Value::Int(12), Value::from("mouse"), Value::Float(25.0)],
        ],
    )
    .unwrap();
    db.create_table(
        "orders",
        &[
            ("id", DataType::Int),
            ("customer_id", DataType::Int),
            ("product_id", DataType::Int),
            ("quantity", DataType::Int),
        ],
        (0..200)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(1 + i % 3),
                    Value::Int(10 + i % 3),
                    Value::Int(1 + (i * 7) % 5),
                ]
            })
            .collect(),
    )
    .unwrap();
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServerConfig::default();
    let mut admission = AdmissionConfig::default();
    let mut metrics_linger = Duration::ZERO;
    let db = Database::new();

    let mut args = std::env::args().skip(1);
    let expect = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = expect(&mut args, "--addr"),
            "--demo" => demo_tables(&db),
            "--learning-cache" => db.set_learning_cache(true),
            "--csv" => {
                let spec = expect(&mut args, "--csv");
                let Some((name, path)) = spec.split_once('=') else {
                    eprintln!("--csv expects NAME=PATH, got {spec:?}");
                    usage();
                };
                if let Err(e) = db.load_csv(name, path) {
                    eprintln!("cannot load {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("loaded table {name} from {path}");
            }
            "--data-dir" => {
                let dir = expect(&mut args, "--data-dir");
                match db.attach_data_dir(&dir) {
                    Ok(tables) if tables.is_empty() => {
                        eprintln!("data dir {dir}: no committed tables yet")
                    }
                    Ok(tables) => eprintln!("data dir {dir}: loaded {}", tables.join(", ")),
                    Err(e) => {
                        eprintln!("cannot open data dir {dir}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--bulk-csv" => {
                let spec = expect(&mut args, "--bulk-csv");
                let Some((name, path)) = spec.split_once('=') else {
                    eprintln!("--bulk-csv expects NAME=PATH, got {spec:?}");
                    usage();
                };
                if let Err(e) = db.bulk_load_csv(name, path) {
                    eprintln!("cannot bulk-load {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("bulk-loaded persistent table {name} from {path}");
            }
            "--max-conns" => {
                cfg.max_connections = expect(&mut args, "--max-conns")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-queries" => {
                admission.max_concurrent = expect(&mut args, "--max-queries")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--queue" => {
                admission.queue_depth = expect(&mut args, "--queue")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--queue-timeout-ms" => {
                admission.queue_timeout = Duration::from_millis(
                    expect(&mut args, "--queue-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--threads" => db.set_default_threads(
                expect(&mut args, "--threads")
                    .parse()
                    .unwrap_or_else(|_| usage()),
            ),
            "--no-remote-shutdown" => cfg.allow_remote_shutdown = false,
            "--shards" => {
                cfg.shards = expect(&mut args, "--shards")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-inflight" => {
                cfg.max_inflight_per_conn = expect(&mut args, "--max-inflight")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--idle-timeout-ms" => {
                let ms: u64 = expect(&mut args, "--idle-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| usage());
                cfg.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--metrics-addr" => cfg.metrics_addr = Some(expect(&mut args, "--metrics-addr")),
            "--slow-query-ms" => {
                cfg.slow_query_ms = Some(
                    expect(&mut args, "--slow-query-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--metrics-linger-ms" => {
                metrics_linger = Duration::from_millis(
                    expect(&mut args, "--metrics-linger-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    cfg.admission = admission;

    let mut server = match Server::bind(db, addr.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    #[cfg(unix)]
    signals::install(server.shutdown_handle());
    println!("skinner-server listening on {}", server.local_addr());
    if let Some(maddr) = server.metrics_addr() {
        println!("skinner-server: /metrics on http://{maddr}/metrics");
    }
    server.wait();
    // Human-readable echo of the skinner_shutdown_wake_latency_us gauge;
    // CI asserts the gauge from a /metrics scrape during the linger.
    println!(
        "skinner-server: shutdown wake latency {}us",
        server
            .shutdown_wake_latency()
            .unwrap_or_default()
            .as_micros()
    );
    // The exporter stays up until the Server drops; linger so a final
    // scrape can read the shutdown gauges (CI's wake-latency assert).
    if server.metrics_addr().is_some() && !metrics_linger.is_zero() {
        std::thread::sleep(metrics_linger);
    }
    drop(server);
    println!("skinner-server: drained and joined all threads, bye");
}
