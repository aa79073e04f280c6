//! Integration test for the Prometheus exporter: a real `Server` with
//! `metrics_addr` enabled, real queries over the wire protocol, and raw
//! HTTP scrapes of `/metrics` validated against the text exposition
//! format (0.0.4): HELP/TYPE preambles, histogram bucket structure,
//! monotone counters across scrapes, the idle-reap gauge.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use skinner_server::protocol::{Request, Response, PROTOCOL_VERSION};
use skinner_server::{Server, ServerConfig};
use skinnerdb::{DataType, Database, Value};

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
    db
}

/// Minimal wire client: handshake, then run a script to completion.
fn run_query(addr: &str, sql: &str) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    Request::Hello {
        version: PROTOCOL_VERSION,
    }
    .write(&mut &stream)
    .unwrap();
    match Response::read(&mut &stream).unwrap() {
        Response::HelloOk { .. } => {}
        other => panic!("handshake failed: {other:?}"),
    }
    Request::Query {
        sql: sql.to_string(),
    }
    .write(&mut &stream)
    .unwrap();
    loop {
        match Response::read(&mut &stream).unwrap() {
            Response::RowHeader { .. } | Response::RowBatch { .. } | Response::Text { .. } => {}
            Response::Done { .. } => break,
            Response::Error { code, message } => panic!("query failed: {code:?} {message}"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// One raw HTTP GET against the exporter; returns (status line, headers,
/// body).
fn scrape(addr: SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {raw:?}"));
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// Parse `name{labels} value` sample lines into a map (HELP/TYPE skipped).
fn samples(body: &str) -> HashMap<String, f64> {
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, value) = l
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("bad line {l:?}"));
            (name.to_string(), value.parse::<f64>().unwrap())
        })
        .collect()
}

/// Every sample family must have exactly one HELP and one TYPE line, in
/// that order, before its first sample.
fn check_exposition_format(body: &str) {
    let mut seen_help: HashMap<String, usize> = HashMap::new();
    let mut seen_type: HashMap<String, usize> = HashMap::new();
    for line in body.lines().filter(|l| !l.trim().is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let fam = rest.split(' ').next().unwrap().to_string();
            assert!(!seen_help.contains_key(&fam), "duplicate HELP for {fam}");
            assert!(!seen_type.contains_key(&fam), "HELP must precede TYPE");
            seen_help.insert(fam, 1);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let fam = parts.next().unwrap().to_string();
            let kind = parts.next().unwrap_or("");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE {kind:?} for {fam}"
            );
            assert!(seen_help.contains_key(&fam), "TYPE without HELP for {fam}");
            seen_type.insert(fam, 1);
        } else if !line.starts_with('#') {
            let name = line
                .split([' ', '{'])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                seen_type.contains_key(name),
                "sample {line:?} has no TYPE preamble (family {name})"
            );
        }
    }
}

#[test]
fn metrics_endpoint_serves_valid_exposition_and_counters_are_monotone() {
    let mut server = Server::bind(
        fixture_db(),
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let maddr = server.metrics_addr().expect("exporter bound");

    run_query(
        &addr,
        "SELECT t.g, COUNT(*) c FROM t, u WHERE t.id = u.tid GROUP BY t.g",
    );
    let (status, headers, body1) = scrape(maddr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(
        headers.to_ascii_lowercase().contains("text/plain") && headers.contains("version=0.0.4"),
        "exposition content type missing: {headers}"
    );
    check_exposition_format(&body1);
    let s1 = samples(&body1);
    assert!(s1["skinner_queries_total"] >= 1.0, "{body1}");
    assert!(s1["skinner_connections_total"] >= 1.0);
    assert!(s1["skinner_admitted_total"] >= 1.0);
    assert!(s1["skinner_metrics_scrapes_total"] >= 1.0);
    // The latency histogram exposes cumulative buckets, +Inf, sum, count.
    assert!(
        body1.contains("skinner_query_latency_us_bucket{le=\"+Inf\"}"),
        "{body1}"
    );
    assert_eq!(
        s1["skinner_query_latency_us_bucket{le=\"+Inf\"}"],
        s1["skinner_query_latency_us_count"]
    );
    assert!(s1["skinner_query_latency_us_sum"] > 0.0);
    // Admission wait is traced for every admitted query.
    assert!(s1["skinner_admission_wait_us_count"] >= 1.0);
    // The join left its indexes on the catalog tables.
    assert!(s1["skinner_join_index_bytes"] > 0.0, "{body1}");
    // Regret proxies from the learning engine.
    assert!(s1.contains_key("skinner_order_switches_total"), "{body1}");
    assert!(s1.contains_key("skinner_warm_start_hits_total"));
    // Per-strategy aggregates carry labels.
    assert!(
        body1.contains("skinner_strategy_queries_total{strategy="),
        "{body1}"
    );

    run_query(
        &addr,
        "SELECT t.id FROM t, u WHERE t.id = u.tid AND t.g = 1",
    );
    let (_, _, body2) = scrape(maddr, "/metrics");
    check_exposition_format(&body2);
    let s2 = samples(&body2);
    assert!(s2["skinner_queries_total"] >= s1["skinner_queries_total"] + 1.0);
    for monotone in [
        "skinner_connections_total",
        "skinner_admitted_total",
        "skinner_metrics_scrapes_total",
        "skinner_query_latency_us_count",
    ] {
        assert!(
            s2[monotone] >= s1[monotone],
            "{monotone} went backwards: {} -> {}",
            s1[monotone],
            s2[monotone]
        );
    }
    assert!(s2["skinner_metrics_scrapes_total"] >= 2.0);

    // Non-metrics paths and methods answer with proper HTTP errors.
    let (status, _, _) = scrape(maddr, "/nope");
    assert!(status.contains("404"), "{status}");

    server.shutdown();
}

#[test]
fn reap_gauge_counts_idle_connections() {
    let mut server = Server::bind(
        fixture_db(),
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let maddr = server.metrics_addr().unwrap();

    // An idle wire connection that the sweeper will reap.
    let idle = TcpStream::connect(&addr).unwrap();
    Request::Hello {
        version: PROTOCOL_VERSION,
    }
    .write(&mut &idle)
    .unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match Response::read(&mut &idle).unwrap() {
        Response::HelloOk { .. } => {}
        other => panic!("handshake failed: {other:?}"),
    }
    // Sweep cadence is ~1s; wait past deadline + sweep.
    std::thread::sleep(Duration::from_millis(2500));

    let (_, _, body) = scrape(maddr, "/metrics");
    check_exposition_format(&body);
    let s = samples(&body);
    assert!(
        s["skinner_connections_reaped_idle"] >= 1.0,
        "idle reap gauge missing: {body}"
    );
    server.shutdown();
}
