//! The metrics endpoint, end to end with a std-only HTTP client: start
//! a daemon with `--metrics-addr`, scrape `/metrics`, and validate the
//! Prometheus exposition text.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A daemon child serving metrics; killed and its state directory
/// removed on drop, so a failed assert leaves nothing running.
struct Served {
    child: Child,
    dir: PathBuf,
    metrics: String,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Spawn a daemon serving metrics on an ephemeral port and return it
/// once both listeners are announced on stderr.
fn spawn_with_metrics() -> Served {
    let dir = std::env::temp_dir().join(format!("amjs-metrics-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_amjs"))
        .args(["serve", "--serve-addr", "127.0.0.1:0", "--serve-dir"])
        .arg(&dir)
        .args(["--machine", "flat", "--nodes", "64"])
        .args(["--metrics-addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn amjs serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut served = Served {
        child,
        dir,
        metrics: String::new(),
    };
    let mut lines = BufReader::new(stderr).lines();
    let mut listening = false;
    while served.metrics.is_empty() || !listening {
        let line = lines
            .next()
            .expect("amjs serve exited before announcing its listeners")
            .expect("read stderr");
        if let Some(rest) = line.split("http://").nth(1) {
            served.metrics = rest.trim_end_matches("/metrics").to_string();
        }
        listening |= line.starts_with("amjs serve: listening on ");
    }
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    served
}

/// Minimal std-only scrape: send `method path` and return (status
/// line, body).
fn http(addr: &str, method: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: amjs\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Validate Prometheus text format 0.0.4: HELP/TYPE comments plus
/// `name{labels} value` samples with finite values.
fn assert_valid_prometheus(body: &str) {
    let mut samples = 0;
    for line in body.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        let name = match series.split_once('{') {
            None => series,
            Some((name, labels)) => {
                assert!(labels.ends_with('}'), "unterminated labels on: {line}");
                name
            }
        };
        assert!(
            name.starts_with("amjs_")
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name: {name}"
        );
        let value: f64 = value.parse().expect("numeric value");
        assert!(value.is_finite(), "non-finite value on: {line}");
        samples += 1;
    }
    assert!(samples >= 5, "suspiciously few samples:\n{body}");
}

#[test]
fn metrics_endpoint_serves_valid_prometheus() {
    let served = spawn_with_metrics();
    let addr = served.metrics.as_str();

    // The daemon publishes on its first tick; scrape until it has.
    let begin = Instant::now();
    let body = loop {
        let (status, body) = http(addr, "GET", "/metrics");
        assert!(status.starts_with("HTTP/1.1 200"), "status: {status}");
        if body.contains("amjs_repl_role") {
            break body;
        }
        assert!(
            begin.elapsed() < Duration::from_secs(20),
            "the daemon never published:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_valid_prometheus(&body);
    assert!(
        body.contains("amjs_utilization_24h"),
        "missing amjs_utilization_24h:\n{body}"
    );
    assert!(body.contains("# TYPE amjs_utilization_24h gauge"));
    assert!(body.contains("amjs_queue_depth_minutes"));
    assert!(body.contains("amjs_jobs_running"));
    assert!(body.contains("\namjs_repl_role 1\n"), "{body}");

    // Unknown paths 404, non-GET methods 405.
    let (status, _) = http(addr, "GET", "/nope");
    assert!(status.starts_with("HTTP/1.1 404"), "status: {status}");
    let (status, _) = http(addr, "POST", "/metrics");
    assert!(status.starts_with("HTTP/1.1 405"), "status: {status}");
}
