//! Metrics exposition: a tiny `std::net` HTTP listener serving
//! Prometheus text format.
//!
//! The serve daemon publishes its gauges (the paper's monitored
//! signals — queue depth, instant/1H/10H/24H utilization, down nodes,
//! jobs running/waiting — plus replication posture and its own
//! counters and histograms) into a mutex-guarded [`LiveStats`]; a
//! background thread answers `GET /metrics` with exposition-format
//! text (version 0.0.4). The server only *reads* shared state — it can
//! never perturb the scheduler, so determinism guarantees hold with
//! the endpoint enabled. A batch run is observed through its
//! artefacts (`--series`, `--trace`, the summary CSV) instead.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::hist::Histogram;

/// The monitored signals, as last published by the daemon.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LiveStats {
    /// Simulated time, seconds since the epoch.
    pub sim_time_s: i64,
    /// Engine events handled so far.
    pub events: u64,
    /// Aggregate queue demand, node-minutes.
    pub queue_depth_mins: f64,
    /// Instant utilization.
    pub util_instant: f64,
    /// Trailing 1-hour utilization.
    pub util_1h: f64,
    /// Trailing 10-hour utilization.
    pub util_10h: f64,
    /// Trailing 24-hour utilization.
    pub util_24h: f64,
    /// Nodes currently down.
    pub down_nodes: u64,
    /// Jobs running.
    pub running: u64,
    /// Jobs waiting in the queue.
    pub waiting: u64,
    /// Replication posture (`None` until the daemon first publishes).
    pub repl: Option<ReplStats>,
    /// Additional publisher-defined gauges, rendered verbatim as
    /// `amjs_<name> <value>`. The serve daemon uses this for its
    /// connection/shedding/what-if latency dashboard.
    pub extra: Vec<(String, f64)>,
    /// Publisher-defined histograms, rendered as the Prometheus
    /// `_bucket`/`_sum`/`_count` triple under `amjs_<name>`. The serve
    /// daemon uses these for per-verb request latency, WAL append,
    /// snapshot, and replication-lag distributions.
    pub hists: Vec<HistEntry>,
}

/// One published histogram: family name, help text, an optional
/// `key="value"` label (several entries may share a family name with
/// different labels — per-verb latency does), and the data.
#[derive(Clone, Debug, PartialEq)]
pub struct HistEntry {
    /// Family name without the `amjs_` prefix (e.g.
    /// `serve_request_latency_seconds`).
    pub name: String,
    /// HELP docstring (escaped on exposition).
    pub help: String,
    /// Optional label rendered on every sample of this entry.
    pub label: Option<(String, String)>,
    /// The observations.
    pub hist: Histogram,
}

impl HistEntry {
    /// A labeled histogram entry.
    pub fn labeled(
        name: impl Into<String>,
        help: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<String>,
        hist: Histogram,
    ) -> HistEntry {
        HistEntry {
            name: name.into(),
            help: help.into(),
            label: Some((key.into(), value.into())),
            hist,
        }
    }

    /// An unlabeled histogram entry.
    pub fn plain(name: impl Into<String>, help: impl Into<String>, hist: Histogram) -> HistEntry {
        HistEntry {
            name: name.into(),
            help: help.into(),
            label: None,
            hist,
        }
    }
}

/// Escape a HELP docstring per the exposition format: backslash and
/// newline only.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value per the exposition format: backslash, quote,
/// and newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The serve daemon's replication posture: role, epoch, attached
/// followers, and how far behind the primary a follower is running.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplStats {
    /// 1 = primary, 2 = follower (gauge-friendly encoding).
    pub role: u8,
    /// Current failover epoch.
    pub epoch: u64,
    /// Followers attached to this daemon's record stream.
    pub followers: u64,
    /// Records the primary has logged that this follower has not yet
    /// applied (0 on a primary).
    pub lag_records: u64,
    /// WAL sequence the next local append will get.
    pub last_seq: u64,
}

/// Shared handle the daemon publishes into and the server reads.
pub type SharedStats = Arc<Mutex<LiveStats>>;

/// A fresh all-zero [`SharedStats`].
pub fn shared_stats() -> SharedStats {
    Arc::new(Mutex::new(LiveStats::default()))
}

/// Render a sample value: integers without a fractional part, floats
/// with Rust's shortest round-trip formatting.
fn render_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Render `stats` in Prometheus exposition text format (version 0.0.4).
pub fn prometheus_text(stats: &LiveStats) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, help: &str, value: f64| {
        out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} gauge\n",
            escape_help(help)
        ));
        out.push_str(&format!("{name} {}\n", render_value(value)));
    };
    gauge(
        "amjs_sim_time_seconds",
        "Simulated time since the epoch.",
        stats.sim_time_s as f64,
    );
    gauge(
        "amjs_events_total",
        "Engine events handled so far.",
        stats.events as f64,
    );
    gauge(
        "amjs_queue_depth_minutes",
        "Aggregate queue demand in node-minutes (paper Fig. 5 signal).",
        stats.queue_depth_mins,
    );
    gauge(
        "amjs_utilization_instant",
        "Instant system utilization.",
        stats.util_instant,
    );
    gauge(
        "amjs_utilization_1h",
        "Trailing 1-hour utilization.",
        stats.util_1h,
    );
    gauge(
        "amjs_utilization_10h",
        "Trailing 10-hour utilization.",
        stats.util_10h,
    );
    gauge(
        "amjs_utilization_24h",
        "Trailing 24-hour utilization.",
        stats.util_24h,
    );
    gauge(
        "amjs_down_nodes",
        "Nodes currently failed or awaiting repair.",
        stats.down_nodes as f64,
    );
    gauge(
        "amjs_jobs_running",
        "Jobs currently running.",
        stats.running as f64,
    );
    gauge(
        "amjs_jobs_waiting",
        "Jobs currently waiting in the queue.",
        stats.waiting as f64,
    );
    if let Some(repl) = &stats.repl {
        gauge(
            "amjs_repl_role",
            "Replication role: 1 = primary, 2 = follower.",
            repl.role as f64,
        );
        gauge(
            "amjs_repl_epoch",
            "Current failover epoch (bumped on promotion).",
            repl.epoch as f64,
        );
        gauge(
            "amjs_repl_followers",
            "Followers attached to this daemon's record stream.",
            repl.followers as f64,
        );
        gauge(
            "amjs_repl_lag_records",
            "Primary records not yet applied locally (0 on a primary).",
            repl.lag_records as f64,
        );
        gauge(
            "amjs_repl_wal_seq",
            "WAL sequence the next local append will get.",
            repl.last_seq as f64,
        );
    }
    for (name, value) in &stats.extra {
        gauge(&format!("amjs_{name}"), "Publisher-defined gauge.", *value);
    }
    // Histograms: HELP/TYPE once per family (entries sharing a name —
    // per-verb labels — are one family), then the cumulative
    // `_bucket{le=...}` ladder, `_sum`, and `_count` per entry.
    let mut seen_families: Vec<&str> = Vec::new();
    for entry in &stats.hists {
        let name = format!("amjs_{}", entry.name);
        if !seen_families.contains(&entry.name.as_str()) {
            seen_families.push(&entry.name);
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} histogram\n",
                escape_help(&entry.help)
            ));
        }
        let label_prefix = match &entry.label {
            Some((k, v)) => format!("{k}=\"{}\",", escape_label(v)),
            None => String::new(),
        };
        for (bound, cum) in entry.hist.cumulative() {
            out.push_str(&format!(
                "{name}_bucket{{{label_prefix}le=\"{}\"}} {cum}\n",
                render_value(bound)
            ));
        }
        out.push_str(&format!(
            "{name}_bucket{{{label_prefix}le=\"+Inf\"}} {}\n",
            entry.hist.count()
        ));
        let inner_label = match &entry.label {
            Some((k, v)) => format!("{{{k}=\"{}\"}}", escape_label(v)),
            None => String::new(),
        };
        out.push_str(&format!(
            "{name}_sum{inner_label} {}\n",
            render_value(entry.hist.sum())
        ));
        out.push_str(&format!(
            "{name}_count{inner_label} {}\n",
            entry.hist.count()
        ));
    }
    out
}

/// The background HTTP listener behind `--metrics-addr`.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// start answering `GET /metrics` with the current `stats`.
    pub fn bind(addr: impl ToSocketAddrs, stats: SharedStats) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("amjs-metrics".into())
            .spawn(move || serve(listener, stats, stop2))
            .expect("spawn metrics thread");
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener and join its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve(listener: TcpListener, stats: SharedStats, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        handle_conn(&mut stream, &stats);
    }
}

fn handle_conn(stream: &mut TcpStream, stats: &SharedStats) {
    // Read until the end of the request head (or give up); only the
    // request line matters.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, body, content_type) = if method != "GET" {
        (
            "405 Method Not Allowed",
            String::from("method not allowed\n"),
            "text/plain; charset=utf-8",
        )
    } else if path == "/metrics" || path == "/" {
        let snapshot = stats.lock().map(|s| s.clone()).unwrap_or_default();
        (
            "200 OK",
            prometheus_text(&snapshot),
            "text/plain; version=0.0.4; charset=utf-8",
        )
    } else {
        (
            "404 Not Found",
            String::from("try /metrics\n"),
            "text/plain; charset=utf-8",
        )
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LiveStats {
        LiveStats {
            sim_time_s: 7200,
            events: 42,
            queue_depth_mins: 1234.5,
            util_instant: 0.5,
            util_1h: 0.6,
            util_10h: 0.7,
            util_24h: 0.8,
            down_nodes: 2,
            running: 10,
            waiting: 3,
            repl: None,
            extra: Vec::new(),
            hists: Vec::new(),
        }
    }

    #[test]
    fn extra_gauges_are_exposed_with_the_amjs_prefix() {
        let mut s = sample();
        s.extra.push(("serve_sheds_total".to_string(), 3.0));
        let text = prometheus_text(&s);
        assert!(text.contains("# TYPE amjs_serve_sheds_total gauge"));
        assert!(text.contains("amjs_serve_sheds_total 3"));
    }

    #[test]
    fn repl_gauges_appear_only_in_replicated_topologies() {
        let plain = prometheus_text(&sample());
        assert!(!plain.contains("amjs_repl_"));
        let mut s = sample();
        s.repl = Some(ReplStats {
            role: 2,
            epoch: 3,
            followers: 0,
            lag_records: 7,
            last_seq: 41,
        });
        let text = prometheus_text(&s);
        assert!(text.contains("amjs_repl_role 2"));
        assert!(text.contains("amjs_repl_epoch 3"));
        assert!(text.contains("amjs_repl_lag_records 7"));
        assert!(text.contains("amjs_repl_wal_seq 41"));
    }

    #[test]
    fn exposition_has_help_type_and_required_gauge() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# HELP amjs_utilization_24h "));
        assert!(text.contains("# TYPE amjs_utilization_24h gauge"));
        assert!(text.contains("amjs_utilization_24h 0.8"));
        assert!(text.contains("amjs_jobs_running 10"));
        // Every non-comment line is `name value` with a finite value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            assert!(name.starts_with("amjs_"), "bad metric name: {name}");
            let value: f64 = parts.next().unwrap().parse().unwrap();
            assert!(value.is_finite());
            assert_eq!(parts.next(), None);
        }
    }

    #[test]
    fn histograms_render_the_bucket_sum_count_triple() {
        let mut s = sample();
        let mut h = Histogram::new(vec![0.001, 0.01, 0.1]);
        h.observe(0.0005);
        h.observe(0.05);
        h.observe(7.0);
        s.hists.push(HistEntry::labeled(
            "serve_request_latency_seconds",
            "Request latency by verb.",
            "verb",
            "submit",
            h,
        ));
        let text = prometheus_text(&s);
        assert!(text.contains("# TYPE amjs_serve_request_latency_seconds histogram"));
        assert!(text
            .contains("amjs_serve_request_latency_seconds_bucket{verb=\"submit\",le=\"0.001\"} 1"));
        assert!(text
            .contains("amjs_serve_request_latency_seconds_bucket{verb=\"submit\",le=\"0.1\"} 2"));
        assert!(text
            .contains("amjs_serve_request_latency_seconds_bucket{verb=\"submit\",le=\"+Inf\"} 3"));
        assert!(text.contains("amjs_serve_request_latency_seconds_sum{verb=\"submit\"} 7.0505"));
        assert!(text.contains("amjs_serve_request_latency_seconds_count{verb=\"submit\"} 3"));
    }

    #[test]
    fn shared_family_emits_help_type_once() {
        let mut s = sample();
        for verb in ["submit", "status"] {
            s.hists.push(HistEntry::labeled(
                "serve_request_latency_seconds",
                "Request latency by verb.",
                "verb",
                verb,
                Histogram::new(vec![1.0]),
            ));
        }
        let text = prometheus_text(&s);
        let helps = text
            .lines()
            .filter(|l| l.starts_with("# HELP amjs_serve_request_latency_seconds"))
            .count();
        assert_eq!(helps, 1);
        assert!(text.contains("{verb=\"submit\",le="));
        assert!(text.contains("{verb=\"status\",le="));
    }

    #[test]
    fn help_text_is_escaped() {
        let mut s = sample();
        s.hists.push(HistEntry::plain(
            "odd",
            "line one\nback\\slash",
            Histogram::new(vec![1.0]),
        ));
        let text = prometheus_text(&s);
        assert!(text.contains("# HELP amjs_odd line one\\nback\\\\slash"));
    }

    /// Satellite: a strict exposition parser that round-trips the full
    /// text, including `_bucket` lines. Each line is parsed into a
    /// typed form (comment / sample with optional labels); the parser
    /// enforces HELP-then-TYPE-then-samples ordering, monotone
    /// cumulative buckets ending in `+Inf == _count`, and finite
    /// values; re-serializing the parse must reproduce the input
    /// byte-for-byte.
    #[test]
    fn strict_parser_round_trips_the_exposition() {
        enum Line {
            Comment(String),
            // name, labels in source order, raw value text
            Sample(String, Vec<(String, String)>, String),
        }

        fn parse_line(line: &str) -> Line {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "unknown comment kind: {line}"
                );
                return Line::Comment(line.to_string());
            }
            let (name_labels, value) = line.rsplit_once(' ').expect("sample needs a value");
            let v: f64 = value.parse().expect("value must parse as f64");
            assert!(v.is_finite(), "non-finite value in {line}");
            let (name, labels) = match name_labels.split_once('{') {
                None => (name_labels.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("unterminated label set");
                    let labels = body
                        .split(',')
                        .map(|pair| {
                            let (k, quoted) = pair.split_once('=').expect("label needs =");
                            let inner = quoted
                                .strip_prefix('"')
                                .and_then(|s| s.strip_suffix('"'))
                                .expect("label value must be quoted");
                            (k.to_string(), inner.to_string())
                        })
                        .collect();
                    (name.to_string(), labels)
                }
            };
            assert!(name.starts_with("amjs_"), "bad metric name: {name}");
            Line::Sample(name, labels, value.to_string())
        }

        fn unparse(lines: &[Line]) -> String {
            let mut out = String::new();
            for line in lines {
                match line {
                    Line::Comment(c) => out.push_str(c),
                    Line::Sample(name, labels, value) => {
                        out.push_str(name);
                        if !labels.is_empty() {
                            out.push('{');
                            for (i, (k, v)) in labels.iter().enumerate() {
                                if i > 0 {
                                    out.push(',');
                                }
                                out.push_str(&format!("{k}=\"{v}\""));
                            }
                            out.push('}');
                        }
                        out.push_str(&format!(" {value}"));
                    }
                }
                out.push('\n');
            }
            out
        }

        let mut s = sample();
        s.extra.push(("serve_sheds_total".to_string(), 3.0));
        let mut by_verb = |verb: &str, vals: &[f64]| {
            let mut h = Histogram::latency();
            for v in vals {
                h.observe(*v);
            }
            s.hists.push(HistEntry::labeled(
                "serve_request_latency_seconds",
                "Request latency by verb.",
                "verb",
                verb,
                h,
            ));
        };
        by_verb("submit", &[0.0001, 0.002, 0.5]);
        by_verb("whatif", &[0.3, 2.0, 300.0]); // one in +Inf
        let mut wal = Histogram::latency();
        wal.observe(0.004);
        s.hists
            .push(HistEntry::plain("serve_wal_append_seconds", "WAL.", wal));

        let text = prometheus_text(&s);
        let lines: Vec<Line> = text.lines().map(parse_line).collect();

        // HELP immediately precedes TYPE, and samples follow their TYPE.
        let mut declared: Vec<String> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            match line {
                Line::Comment(c) if c.starts_with("# HELP ") => {
                    let name = c.split_whitespace().nth(2).unwrap();
                    match &lines[i + 1] {
                        Line::Comment(t) => {
                            assert!(t.starts_with(&format!("# TYPE {name} ")), "{t}")
                        }
                        _ => panic!("HELP for {name} not followed by TYPE"),
                    }
                    declared.push(name.to_string());
                }
                Line::Sample(name, _, _) => {
                    let family = name
                        .strip_suffix("_bucket")
                        .or_else(|| name.strip_suffix("_sum"))
                        .or_else(|| name.strip_suffix("_count"))
                        .filter(|f| declared.iter().any(|d| d == f))
                        .unwrap_or(name);
                    assert!(
                        declared.iter().any(|d| d == family),
                        "sample {name} before its TYPE"
                    );
                }
                _ => {}
            }
        }

        // Histogram invariants: per series, buckets are monotone and
        // the +Inf bucket equals _count.
        let mut series: Vec<(String, Vec<(String, f64)>)> = Vec::new();
        let mut counts: Vec<(String, f64)> = Vec::new();
        for line in &lines {
            if let Line::Sample(name, labels, value) = line {
                let key = |suffix: &str| {
                    let base = name.strip_suffix(suffix).unwrap();
                    let tag: Vec<String> = labels
                        .iter()
                        .filter(|(k, _)| k != "le")
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect();
                    format!("{base}|{}", tag.join(","))
                };
                if name.ends_with("_bucket") {
                    let k = key("_bucket");
                    let le = labels.iter().find(|(k, _)| k == "le").unwrap().1.clone();
                    match series.iter_mut().find(|(s, _)| *s == k) {
                        Some((_, v)) => v.push((le, value.parse().unwrap())),
                        None => series.push((k, vec![(le, value.parse().unwrap())])),
                    }
                } else if name.ends_with("_count")
                    && (name.contains("latency") || name == "amjs_serve_wal_append_seconds_count")
                {
                    counts.push((key("_count"), value.parse().unwrap()));
                }
            }
        }
        assert!(!series.is_empty());
        for (key, buckets) in &series {
            assert_eq!(buckets.last().unwrap().0, "+Inf", "{key} missing +Inf");
            let vals: Vec<f64> = buckets.iter().map(|(_, c)| *c).collect();
            assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{key} not monotone");
            let total = counts
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no _count for {key}"))
                .1;
            assert_eq!(*vals.last().unwrap(), total, "{key} +Inf != count");
        }

        // And the parse is lossless.
        assert_eq!(unparse(&lines), text);
    }

    #[test]
    fn server_serves_metrics_and_shuts_down() {
        let stats = shared_stats();
        *stats.lock().unwrap() = sample();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&stats)).unwrap();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("version=0.0.4"));
        assert!(response.contains("amjs_utilization_24h 0.8"));

        // Unknown path → 404; wrong method → 405.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));

        server.shutdown();
        // After shutdown the port stops answering (bind may be reused,
        // so just assert the call returns).
    }
}
