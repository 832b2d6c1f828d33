//! Std-only live metrics endpoint.
//!
//! [`MetricsServer::spawn`] binds a `TcpListener` and serves:
//!
//! * `GET /metrics` — the recorder snapshot in Prometheus text format;
//! * `GET /healthz` — `ok`;
//! * anything else — 404.
//!
//! One request per connection, HTTP/1.0-style (`Connection: close`), no
//! keep-alive — exactly enough for a scrape loop or `curl` while a long
//! sim runs on the main thread. Shutdown sets a flag and self-connects
//! to unblock `accept`.

use crate::prom::render_prometheus;
use owan_obs::Recorder;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Total time a client gets to send its request headers. The deadline
/// covers the whole read, not each `read` call, so a client trickling one
/// byte at a time cannot hold the single serving thread past it.
const READ_DEADLINE: Duration = Duration::from_secs(2);

/// A running metrics endpoint (see module docs).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9464"`, port 0 for ephemeral) and
    /// serves `recorder` snapshots until [`MetricsServer::shutdown`] or
    /// drop.
    pub fn spawn(addr: &str, recorder: Recorder) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("owan-metrics".into())
            .spawn(move || serve_loop(listener, recorder, flag))?;
        Ok(MetricsServer {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

fn serve_loop(listener: TcpListener, recorder: Recorder, shutdown: Arc<AtomicBool>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = handle_connection(stream, &recorder);
    }
}

fn handle_connection(mut stream: TcpStream, recorder: &Recorder) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the header terminator (or EOF/4 KiB) within the deadline;
    // body is ignored.
    let deadline = Instant::now() + READ_DEADLINE;
    let mut raw = Vec::with_capacity(256);
    let mut buf = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if raw.windows(4).any(|w| w == b"\r\n\r\n") || raw.len() >= 4096 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&raw);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");

    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&recorder.snapshot()),
        ),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let rec = Recorder::enabled();
        rec.counter("chaos.crashes").add(2);
        let server = MetricsServer::spawn("127.0.0.1:0", rec.clone()).unwrap();
        let addr = server.addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"));
        assert!(metrics.contains("owan_chaos_crashes 2"));

        // Live: counters move between scrapes.
        rec.counter("chaos.crashes").add(3);
        assert!(get(addr, "/metrics").contains("owan_chaos_crashes 5"));

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"));
        assert!(health.ends_with("ok\n"));

        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let server = MetricsServer::spawn("127.0.0.1:0", Recorder::disabled()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // After shutdown the port stops answering.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || get_safe(addr).is_none()
        );
    }

    #[test]
    fn trickling_client_is_dropped_at_the_deadline() {
        let server = MetricsServer::spawn("127.0.0.1:0", Recorder::enabled()).unwrap();
        let addr = server.addr();
        let slow = TcpStream::connect(addr).unwrap();
        let mut writer = slow.try_clone().unwrap();
        let start = Instant::now();
        // One byte every 50 ms: each read completes far inside any
        // per-read timeout, and 4 KiB would take minutes.
        let trickle = std::thread::spawn(move || {
            let request = b"GET /metrics HTTP/1.1\r\nX-Pad: ";
            for &byte in request.iter().chain(std::iter::repeat(&b'a')) {
                if writer.write_all(&[byte]).is_err() || start.elapsed() > 3 * READ_DEADLINE {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let mut reader = slow;
        reader.set_read_timeout(Some(3 * READ_DEADLINE)).unwrap();
        let mut out = Vec::new();
        // The server closes without a response: EOF, or a reset if a
        // trickled byte raced the close.
        let dropped = match reader.read_to_end(&mut out) {
            Ok(_) => out.is_empty(),
            Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
        };
        let held = start.elapsed();
        trickle.join().unwrap();
        assert!(dropped, "trickling client was answered or never dropped");
        assert!(
            held < READ_DEADLINE + Duration::from_secs(1),
            "server held the trickling client for {held:?}"
        );
        // The single serving thread is free again.
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200 OK"));
        server.shutdown();
    }

    fn get_safe(addr: SocketAddr) -> Option<String> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(200)).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .ok()?;
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").ok()?;
        let mut out = String::new();
        stream.read_to_string(&mut out).ok()?;
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }
}
