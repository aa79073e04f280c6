//! The `/metrics` exporter: a minimal HTTP endpoint serving the telemetry
//! registry in Prometheus text exposition format (version 0.0.4).
//!
//! One dedicated thread accepts plain HTTP/1.x GETs on a nonblocking
//! `TcpListener`. Per request it invokes a refresh hook (the server
//! samples live gauges — active connections, admission-gate counters,
//! learning-cache counters — into the registry) and writes the rendered
//! exposition with `Connection: close`. No keep-alive, no TLS, no routing
//! beyond `/metrics` — it is an observability sidecar, not a web server,
//! and it deliberately shares nothing with the query protocol's event
//! loops so a scrape can never stall a query (and vice versa).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use skinner_telemetry::Registry;

/// A running exporter; dropping it stops the thread.
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Bind `addr` and serve `registry`, calling `refresh` before each
    /// render so sampled gauges are current.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Registry,
        refresh: impl Fn() + Send + 'static,
    ) -> std::io::Result<MetricsExporter> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("skinner-metrics".into())
            .spawn(move || serve(listener, registry, refresh, stop2))?;
        Ok(MetricsExporter {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the serving thread and join it. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(listener: TcpListener, registry: Registry, refresh: impl Fn(), stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => handle(stream, &registry, &refresh),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn handle(mut stream: TcpStream, registry: &Registry, refresh: &impl Fn()) {
    // The accepted socket inherits nonblocking from the listener on some
    // platforms; scraping is request/response, so blocking with a short
    // timeout is simplest and safe.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // Read until the end of the request headers (or timeout/overflow) —
    // only the request line matters.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 16 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let request_line = buf
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else if path == "/metrics" || path.starts_with("/metrics?") || path == "/" {
        refresh();
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics\n".to_string(),
        )
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).unwrap();
        (status.trim().to_string(), body)
    }

    #[test]
    fn serves_prometheus_text_and_refreshes() {
        let registry = Registry::new();
        let c = registry.counter("skinner_test_total", "Test counter.");
        let g = registry.gauge("skinner_test_sampled", "Sampled on scrape.");
        let g2 = g.clone();
        let mut exp = MetricsExporter::bind("127.0.0.1:0", registry, move || g2.inc()).unwrap();
        c.add(3);
        let (status, body) = scrape(exp.local_addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("# TYPE skinner_test_total counter"), "{body}");
        assert!(body.contains("skinner_test_total 3"), "{body}");
        assert!(body.contains("skinner_test_sampled 1"), "{body}");
        // Second scrape re-samples; counters stay monotone.
        c.inc();
        let (_, body2) = scrape(exp.local_addr(), "/metrics");
        assert!(body2.contains("skinner_test_total 4"), "{body2}");
        assert!(body2.contains("skinner_test_sampled 2"), "{body2}");
        let (status404, _) = scrape(exp.local_addr(), "/nope");
        assert!(status404.contains("404"), "{status404}");
        exp.shutdown();
    }
}
