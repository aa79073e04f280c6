//! End-to-end loopback tests: a real `Server` on an ephemeral port, real
//! TCP clients, concurrency, admission control, cancellation, shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use skinner_client::Client;
use skinner_server::protocol::{ErrorCode, Request, Response, PROTOCOL_VERSION};
use skinner_server::{AdmissionConfig, Server, ServerConfig};
use skinnerdb::{DataType, Database, Value};

/// Shared fixture schema: a join pair (t, u), a mid-size table for slow
/// queries and a big one for torture queries.
fn fixture_db() -> Database {
    let db = Database::new();
    db.create_table(
        "t",
        &[("id", DataType::Int), ("g", DataType::Int)],
        (0..60)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "u",
        &[("tid", DataType::Int), ("w", DataType::Float)],
        (0..90)
            .map(|i| vec![Value::Int(i % 60), Value::Float(i as f64 / 2.0)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "mid",
        &[("x", DataType::Int)],
        (0..220).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    db.create_table(
        "big",
        &[("x", DataType::Int)],
        (0..1500).map(|i| vec![Value::Int(i)]).collect(),
    )
    .unwrap();
    db
}

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = Server::bind(fixture_db(), "127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn default_server() -> (Server, String) {
    start(ServerConfig::default())
}

/// Cross join big³ with non-equi predicates: ~3×10⁹ tuple combinations.
/// Minutes of work — only ever run to be cancelled or deadlined.
const TORTURE: &str = "SELECT COUNT(*) c FROM big a, big b, big c \
                       WHERE a.x <= b.x AND b.x <= c.x";

/// A query slow enough (~hundreds of ms) to hold an admission slot.
const SLOW: &str = "SELECT COUNT(*) c FROM mid a, mid b, mid c \
                    WHERE a.x <= b.x AND b.x <= c.x";

const QUERIES: [&str; 3] = [
    "SELECT t.g, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g ORDER BY t.g",
    "SELECT t.id FROM t, u WHERE t.id = u.tid AND t.g = 1",
    "SELECT u.w FROM t, u WHERE t.id = u.tid AND t.g = 2 ORDER BY u.w",
];

#[test]
fn sixteen_concurrent_clients_match_in_process_execution() {
    let (mut server, addr) = default_server();
    let db = server.database().clone();
    // Ground truth computed in-process, per query.
    let expected: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| db.query_with(q, "reference").unwrap().canonical_rows())
        .collect();
    let expected = Arc::new(expected);
    let strategies = ["skinner-c", "traditional", "parallel_skinner", "skinner-g"];
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let addr = addr.clone();
            let expected = expected.clone();
            let strategy = strategies[i % strategies.len()];
            std::thread::spawn(move || {
                let mut client = Client::connect(&*addr).expect("connect");
                client.set("strategy", strategy).unwrap();
                for (q, want) in QUERIES.iter().zip(expected.iter()) {
                    let got = client.query(q).expect("query over the wire");
                    assert!(got.summary.wall_micros > 0);
                    assert_eq!(
                        &got.into_query_result().canonical_rows(),
                        want,
                        "client {i} ({strategy}) diverged on {q}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

#[test]
fn per_statement_summaries_cross_the_wire() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    let script = "CREATE TEMP TABLE e2e_sums AS \
                  SELECT t.g grp, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g; \
                  SELECT s.grp, s.c FROM e2e_sums s ORDER BY s.grp; \
                  DROP TABLE e2e_sums;";
    let r = client.query(script).unwrap();
    assert_eq!(r.rows.len(), 5);
    assert_eq!(r.summary.statements.len(), 3, "one summary per statement");
    let stmts = &r.summary.statements;
    assert!(stmts[0].work_units > 0 && stmts[1].work_units > 0);
    assert_eq!(stmts[0].order.len(), 2, "learned join order reported");
    assert_eq!(stmts[2].work_units, 0, "DROP does no work");
    assert_eq!(
        r.summary.work_units,
        stmts.iter().map(|s| s.work_units).sum::<u64>()
    );
    server.shutdown();
}

#[test]
fn prepared_statements_roundtrip_over_the_wire() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    let (id, columns) = client
        .prepare("SELECT t.g, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g")
        .unwrap();
    assert_eq!(columns, vec!["t.g".to_string(), "c".to_string()]);
    let first = client.execute(id).unwrap().into_query_result();
    let second = client.execute(id).unwrap().into_query_result();
    assert_eq!(first.canonical_rows(), second.canonical_rows());
    assert_eq!(first.num_rows(), 5);
    client.close(id).unwrap();
    let gone = client.execute(id);
    assert!(matches!(
        gone.unwrap_err().code(),
        Some(ErrorCode::UnknownStatement)
    ));
    // Bad SQL at prepare time is a clean error, not a dropped connection.
    assert!(client.prepare("SELECT nope.x FROM t").is_err());
    assert_eq!(
        client.query(QUERIES[1]).unwrap().summary.statements.len(),
        1
    );
    server.shutdown();
}

#[test]
fn set_show_and_text_mode() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    // SQL-style SET through Query, wire-style through Set.
    client.query("SET strategy = 'traditional'").unwrap();
    client.set("deadline_ms", "30000").unwrap();
    assert!(client.set("strategy", "bogus").is_err());
    assert!(client.query("SET bogus = 1").is_err());
    // SHOW STRATEGIES lists the registry.
    let strategies = client.query("SHOW STRATEGIES").unwrap();
    let names: Vec<String> = strategies
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    assert!(names.iter().any(|n| n == "parallel_skinner"));
    assert!(names.iter().any(|n| n == "Skinner-C"));
    // Text mode: one rendered table instead of row batches.
    client.set("output", "text").unwrap();
    let r = client.query(QUERIES[0]).unwrap();
    let text = r.text.expect("text-mode response");
    assert!(text.contains("t.g"), "header rendered: {text}");
    assert!(text.contains("(5 row(s))"), "footer rendered: {text}");
    assert!(r.rows.is_empty());
    client.set("output", "binary").unwrap();
    // Back in binary mode, rows flow again.
    assert_eq!(client.query(QUERIES[1]).unwrap().rows.len(), 18);
    // SHOW SERVER STATS: counters and per-strategy aggregates.
    let stats = client
        .query("SHOW SERVER STATS")
        .unwrap()
        .into_query_result();
    let metric = |name: &str| -> i64 {
        stats
            .rows
            .iter()
            .find(|r| r[0].as_str() == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing"))[1]
            .as_i64()
            .unwrap()
    };
    assert!(metric("queries_total") >= 2);
    assert_eq!(metric("active_connections"), 1);
    assert!(metric("strategy_queries_total{strategy=\"Traditional\"}") >= 1);
    server.shutdown();
}

#[test]
fn learning_cache_over_the_wire() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    let metric = |client: &mut Client, name: &str| -> i64 {
        let stats = client
            .query("SHOW SERVER STATS")
            .unwrap()
            .into_query_result();
        stats
            .rows
            .iter()
            .find(|r| r[0].as_str() == Some(name))
            .unwrap_or_else(|| panic!("metric {name} missing"))[1]
            .as_i64()
            .unwrap()
    };
    assert_eq!(metric(&mut client, "learning_cache_enabled_default"), 0);
    // Off by default: repeated queries never touch the cache.
    let cold = client.query(QUERIES[0]).unwrap().into_query_result();
    assert_eq!(metric(&mut client, "learning_cache_published_total"), 0);
    // Opt in per connection; the same template then publishes and hits.
    client.set("learning_cache", "on").unwrap();
    let first = client.query(QUERIES[0]).unwrap().into_query_result();
    let second = client.query(QUERIES[0]).unwrap().into_query_result();
    assert_eq!(first.canonical_rows(), cold.canonical_rows());
    assert_eq!(second.canonical_rows(), cold.canonical_rows());
    assert!(metric(&mut client, "learning_cache_published_total") >= 2);
    assert!(metric(&mut client, "learning_cache_hits_total") >= 1);
    assert!(metric(&mut client, "learning_cache_entries") >= 1);
    // A second connection shares the warmed templates.
    let mut other = Client::connect(&addr).unwrap();
    other.set("learning_cache", "on").unwrap();
    let shared = other.query(QUERIES[0]).unwrap().into_query_result();
    assert_eq!(shared.canonical_rows(), cold.canonical_rows());
    assert!(metric(&mut client, "learning_cache_hits_total") >= 2);
    assert!(client.set("learning_cache", "sideways").is_err());
    server.shutdown();
}

#[test]
fn wire_cancel_aborts_a_torture_query_promptly() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    let handle = client.cancel_handle();
    // Cancelling an idle connection is harmless …
    handle.cancel().unwrap();
    // … and must not taint the next query.
    assert_eq!(client.query(QUERIES[1]).unwrap().rows.len(), 18);

    let started = Instant::now();
    let runner = std::thread::spawn(move || {
        let err = client.query(TORTURE).expect_err("torture must not finish");
        (err, client)
    });
    // Let the query get going, then cancel from outside.
    std::thread::sleep(Duration::from_millis(300));
    let cancelled_at = Instant::now();
    handle.cancel().expect("cancel is acknowledged");
    let (err, mut client) = runner.join().unwrap();
    let latency = cancelled_at.elapsed();
    assert!(
        err.is_cancelled(),
        "expected Cancelled, got {err} after {:?}",
        started.elapsed()
    );
    assert!(
        latency < Duration::from_secs(1),
        "cancel took {latency:?}, want < 1s"
    );
    // The connection survives and serves the next query.
    assert_eq!(client.query(QUERIES[1]).unwrap().rows.len(), 18);
    server.shutdown();
}

#[test]
fn cancel_while_queued_at_the_admission_gate_is_not_lost() {
    let (mut server, addr) = start(ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 1,
            queue_depth: 4,
            queue_timeout: Duration::from_secs(60),
        },
        ..ServerConfig::default()
    });
    // Occupy the only slot with a torture query.
    let mut holder = Client::connect(&addr).unwrap();
    let holder_handle = holder.cancel_handle();
    let holder_thread = std::thread::spawn(move || {
        let _ = holder.query(TORTURE);
    });
    std::thread::sleep(Duration::from_millis(200));
    // A second query queues behind it; cancel it while it waits.
    let mut queued = Client::connect(&addr).unwrap();
    let queued_handle = queued.cancel_handle();
    let queued_thread = std::thread::spawn(move || queued.query(QUERIES[0]));
    std::thread::sleep(Duration::from_millis(200));
    queued_handle.cancel().expect("cancel acknowledged");
    // Free the slot so the queued query gets admitted — it must then
    // abort as cancelled instead of silently executing.
    holder_handle.cancel().unwrap();
    holder_thread.join().unwrap();
    let err = queued_thread
        .join()
        .unwrap()
        .expect_err("a cancelled queued query must not run");
    assert!(err.is_cancelled(), "got {err}");
    server.shutdown();
}

#[test]
fn deadline_timeouts_are_reported_as_timeout_not_cancel() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    client.set("deadline_ms", "100").unwrap();
    let err = client.query(TORTURE).expect_err("deadline must trip");
    assert_eq!(err.code(), Some(ErrorCode::Timeout), "got {err}");
    client.set("deadline_ms", "none").unwrap();
    client.set("work_limit", "50").unwrap();
    let err = client.query(QUERIES[0]).expect_err("work limit must trip");
    assert_eq!(err.code(), Some(ErrorCode::Timeout));
    server.shutdown();
}

#[test]
fn bad_cancel_credentials_are_rejected() {
    let (mut server, addr) = default_server();
    let client = Client::connect(&addr).unwrap();
    // Speak the protocol manually with a wrong key.
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    Request::Cancel {
        conn_id: client.conn_id(),
        key: 0xbad,
    }
    .write(&mut &stream)
    .unwrap();
    match Response::read(&mut &stream).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected rejection, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversubscribed_burst_sheds_explicitly_and_never_hangs() {
    let (mut server, addr) = start(ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 1,
            queue_depth: 1,
            queue_timeout: Duration::from_millis(200),
        },
        ..ServerConfig::default()
    });
    let clients = 6;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&*addr).unwrap();
                match client.query(SLOW) {
                    Ok(r) => {
                        assert_eq!(r.rows.len(), 1, "a completed SLOW returns one row");
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            })
        })
        .collect();
    let mut completed = 0;
    let mut shed = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(()) => completed += 1,
            Err(e) => {
                assert!(
                    e.is_overloaded(),
                    "overload must shed with Overloaded, got {e}"
                );
                shed += 1;
            }
        }
    }
    assert_eq!(completed + shed, clients);
    assert!(completed >= 1, "the slot holder must finish");
    assert!(shed >= 1, "an oversubscribed burst must shed");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "overload must resolve promptly, not hang"
    );
    // The shed counter is visible in SHOW SERVER STATS.
    let mut probe = Client::connect(&addr).unwrap();
    let stats = probe
        .query("SHOW SERVER STATS")
        .unwrap()
        .into_query_result();
    let shed_row = stats
        .rows
        .iter()
        .find(|r| r[0].as_str() == Some("shed_total"))
        .unwrap();
    assert!(shed_row[1].as_i64().unwrap() >= shed as i64);
    server.shutdown();
}

#[test]
fn connection_limit_is_enforced_with_an_explicit_error() {
    let (mut server, addr) = start(ServerConfig {
        max_connections: 2,
        ..ServerConfig::default()
    });
    let _a = Client::connect(&addr).unwrap();
    let _b = Client::connect(&addr).unwrap();
    // Give the acceptor a moment to account for both.
    std::thread::sleep(Duration::from_millis(100));
    let c = Client::connect(&addr);
    match c {
        Err(e) => assert_eq!(e.code(), Some(ErrorCode::TooManyConnections), "got {e}"),
        Ok(_) => panic!("third connection must be refused"),
    }
    server.shutdown();
}

#[test]
fn shutdown_joins_all_threads_and_refuses_new_work() {
    let (mut server, addr) = default_server();
    // One idle client and one mid-handshake client exist while we stop.
    let _idle = Client::connect(&addr).unwrap();
    let _idle2 = Client::connect(&addr).unwrap();
    let t0 = Instant::now();
    server.shutdown(); // must join acceptor + connection threads
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown must not hang on idle connections"
    );
    // Fresh connections are refused once the server is gone.
    assert!(Client::connect(&addr).is_err());
    // Idempotent.
    server.shutdown();
}

#[test]
fn wire_level_shutdown_drains_the_server() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.query(QUERIES[1]).unwrap().rows.len(), 18);
    client.shutdown_server().expect("shutdown acknowledged");
    let t0 = Instant::now();
    server.wait(); // returns once the wire request lands and all threads join
    assert!(t0.elapsed() < Duration::from_secs(10));
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn shutdown_cancels_running_queries_promptly() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    let runner = std::thread::spawn(move || {
        // Either a Cancelled/ShuttingDown error or a broken connection is
        // acceptable — what matters is that it returns promptly.
        let _ = client.query(TORTURE);
    });
    std::thread::sleep(Duration::from_millis(300));
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown must interrupt a torture query, took {:?}",
        t0.elapsed()
    );
    runner.join().unwrap();
}

#[test]
fn protocol_version_mismatch_is_refused() {
    let (mut server, addr) = default_server();
    for version in [1, PROTOCOL_VERSION + 999] {
        let stream = std::net::TcpStream::connect(&addr).unwrap();
        Request::Hello { version }.write(&mut &stream).unwrap();
        match Response::read(&mut &stream).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected version {version} refused, got {other:?}"),
        }
    }
    server.shutdown();
}

/// Pull one metric out of a `SHOW SERVER STATS` result.
fn stat(r: &skinner_client::RemoteResult, key: &str) -> i64 {
    r.rows
        .iter()
        .find(|row| row[0].as_str() == Some(key))
        .unwrap_or_else(|| panic!("metric {key} missing"))[1]
        .as_i64()
        .unwrap()
}

#[test]
fn pipelined_statements_interleave_and_complete_out_of_order() {
    let (mut server, addr) = default_server();
    let db = server.database().clone();
    let expected: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| db.query_with(q, "reference").unwrap().canonical_rows())
        .collect();
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.protocol_version(), PROTOCOL_VERSION);
    assert!(client.max_inflight() > 1, "v2 must allow pipelining");
    // Put nine statements in flight at once, then collect them newest
    // first: responses for other tags must be parked, not lost, and each
    // tag's stream must demultiplex to the right query.
    let tags: Vec<(u32, usize)> = (0..9)
        .map(|i| (client.send_query(QUERIES[i % 3]).unwrap(), i % 3))
        .collect();
    assert_eq!(client.inflight(), 9);
    for (tag, qi) in tags.into_iter().rev() {
        let got = client.wait(tag).unwrap();
        assert_eq!(
            got.into_query_result().canonical_rows(),
            expected[qi],
            "tag {tag} returned the wrong query's rows"
        );
    }
    assert_eq!(client.inflight(), 0);
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_their_slots_released() {
    let (mut server, addr) = start(ServerConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        max_connections: 1,
        ..ServerConfig::default()
    });
    let mut idle = Client::connect(&addr).unwrap();
    assert_eq!(idle.query(QUERIES[1]).unwrap().rows.len(), 18);
    // The sweep runs about once a second; wait past idle deadline + sweep.
    std::thread::sleep(Duration::from_millis(2500));
    // The only connection slot was held by the idle client; a newcomer
    // fitting means the reap released it.
    let mut second = Client::connect(&addr).expect("reaped slot must be reusable");
    let stats = second.query("SHOW SERVER STATS").unwrap();
    assert!(stat(&stats, "connections_reaped_idle") >= 1);
    assert!(
        idle.query(QUERIES[0]).is_err(),
        "reaped connection must be closed"
    );
    server.shutdown();
}

#[test]
fn clean_shutdown_wakes_the_waiter_within_10ms() {
    let (server, addr) = default_server();
    let waiter = std::thread::spawn(move || {
        let mut server = server;
        server.wait();
        let latency = server.shutdown_wake_latency().expect("latency recorded");
        server.shutdown();
        latency
    });
    let mut client = Client::connect_with_retry(&addr, Duration::from_secs(5)).unwrap();
    // Let the waiter actually park on the condvar before firing.
    std::thread::sleep(Duration::from_millis(100));
    client.shutdown_server().unwrap();
    let latency = waiter.join().unwrap();
    assert!(
        latency < Duration::from_millis(10),
        "shutdown wake took {latency:?}, want < 10ms (condvar, not a poll loop)"
    );
}

#[test]
fn slow_query_threshold_counts_offenders() {
    // Threshold 0: every statement qualifies, so the structured log line
    // fires (to stderr) and the counter reflects it.
    let (mut server, addr) = start(ServerConfig {
        slow_query_ms: Some(0),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    client.query(QUERIES[0]).unwrap();
    client.query(QUERIES[1]).unwrap();
    let stats = client.query("SHOW SERVER STATS").unwrap();
    assert!(stat(&stats, "slow_queries_total") >= 2);
    server.shutdown();

    // A generous threshold stays quiet for fast queries.
    let (mut server, addr) = start(ServerConfig {
        slow_query_ms: Some(60_000),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    client.query(QUERIES[0]).unwrap();
    let stats = client.query("SHOW SERVER STATS").unwrap();
    assert_eq!(stat(&stats, "slow_queries_total"), 0);
    server.shutdown();
}

#[test]
fn query_profiles_expose_every_pipeline_stage() {
    let (mut server, addr) = default_server();
    let mut client = Client::connect(&addr).unwrap();
    client.set("strategy", "skinner-c").unwrap();
    // Asking before anything ran is a clean error, not a hang.
    let early = client.profile_last().expect_err("no profile yet");
    assert_eq!(early.code(), Some(ErrorCode::UnknownStatement));
    // A join heavy enough that every stage takes measurable time.
    let tag = client.send_query(SLOW).unwrap();
    let r = client.wait(tag).unwrap();
    assert_eq!(r.rows.len(), 1);
    let profile = client.profile_of(tag).expect("profile for the tag");
    assert!(profile.total_ns > 0);
    let stages = profile.stages();
    for want in [
        "admission_wait",
        "parse_bind",
        "preprocess",
        "episodes",
        "postprocess",
        "encode_flush",
    ] {
        assert!(stages.contains(&want), "stage {want} missing: {stages:?}");
        assert!(
            profile.stage_ns(want) > 0,
            "stage {want} has zero duration: {:?}",
            profile.spans
        );
    }
    assert!(stages.len() >= 5, "want >= 5 distinct stages: {stages:?}");
    // Episode spans carry the join order they explored.
    assert!(
        profile
            .spans
            .iter()
            .any(|s| s.stage == "episodes" && s.label.starts_with("order=")),
        "episode spans must attribute their join order: {:?}",
        profile.spans
    );
    // The preprocess span says how many join indexes the statement built
    // and how many it found on the tables.
    assert!(
        profile.spans.iter().any(|s| s.stage == "preprocess"
            && s.label.starts_with("index_builds=")
            && s.label.contains(" index_reuses=")),
        "preprocess span must carry the index counters: {:?}",
        profile.spans
    );
    // u64::MAX means "most recent" — same statement here.
    let last = client.profile_last().unwrap();
    assert_eq!(last.total_ns, profile.total_ns);
    // A second statement replaces "most recent" but the old tag still
    // resolves from the per-connection backlog.
    let tag2 = client.send_query(QUERIES[1]).unwrap();
    client.wait(tag2).unwrap();
    assert!(client.profile_of(tag).is_ok());
    let newest = client.profile_last().unwrap();
    assert!(newest.stage_ns("parse_bind") > 0);
    // That one was an equi-join: its indexes stay with the tables.
    let stats = client.query("SHOW SERVER STATS").unwrap();
    assert!(stat(&stats, "join_index_bytes") > 0);
    // Unknown tags are refused explicitly.
    let missing = client.profile_of(9999).expect_err("unknown tag");
    assert_eq!(missing.code(), Some(ErrorCode::UnknownStatement));
    server.shutdown();
}

#[test]
fn protocol_fuzz_under_pipelining_never_wedges_the_server() {
    let (mut server, addr) = default_server();
    // Hostile byte streams, each on its own connection: truncated length
    // prefix, truncated payload, absurd length, garbage message tag.
    let hostile: Vec<Vec<u8>> = vec![
        vec![0x03],
        vec![0x10, 0x00, 0x00, 0x00],
        {
            let mut b = vec![0xff, 0xff, 0xff, 0x7f];
            b.extend_from_slice(&[0u8; 64]);
            b
        },
        vec![0x08, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4],
        // A valid Hello followed by a frame that lies about its length.
        {
            let mut b = Vec::new();
            Request::Hello {
                version: PROTOCOL_VERSION,
            }
            .write(&mut b)
            .unwrap();
            b.extend_from_slice(&[0xAA, 0x00, 0x00, 0x00, 0x05]);
            b
        },
    ];
    for bytes in hostile {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s.write_all(&bytes).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink); // server must close, not hang
    }
    // Cancel racing an in-flight pipeline: a torture query and a quick
    // one share the connection; the out-of-band cancel kills whatever is
    // still running without corrupting tag demultiplexing.
    let mut c = Client::connect(&addr).unwrap();
    let handle = c.cancel_handle();
    let slow = c.send_query(TORTURE).unwrap();
    let quick = c.send_query(QUERIES[0]).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    handle.cancel().unwrap();
    let err = c.wait(slow).expect_err("torture query must be cancelled");
    assert!(err.is_cancelled(), "got {err}");
    match c.wait(quick) {
        Ok(r) => assert_eq!(r.rows.len(), 5),
        Err(e) => assert!(e.is_cancelled(), "got {e}"),
    }
    // The connection and the server both survive.
    assert_eq!(c.query(QUERIES[1]).unwrap().rows.len(), 18);
    let mut fresh = Client::connect(&addr).unwrap();
    assert_eq!(fresh.query(QUERIES[1]).unwrap().rows.len(), 18);
    server.shutdown();
}
