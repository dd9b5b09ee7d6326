//! Minimal std-only HTTP exposition routes.
//!
//! Read-only routes, one request per connection, served by the
//! gateway's event loop 0 (the exposition listener is just another
//! registration on that loop's poller — see [`crate::gateway`]):
//!
//! * `GET /metrics` — Prometheus text exposition format 0.0.4 rendered
//!   from the server's [`obs::Registry`] (latency buckets carry
//!   OpenMetrics exemplars linking to trace ids);
//! * `GET /trace` — the causal [`obs::TraceLog`] event buffer as JSONL
//!   (`application/x-ndjson`), the live plane's one trace;
//! * `GET /trace/<id>` — only the events of one trace id.
//!
//! Anything else answers 404. Requests are parsed from the request line
//! only; headers are buffered until the blank line and ignored. This is
//! an operator/debug surface, not a general web server — no keep-alive,
//! no TLS, loopback binding only.

use crate::metrics::LiveMetrics;
use std::sync::Arc;

/// State the exposition routes read from.
pub struct MetricsHttp {
    pub registry: Arc<obs::Registry>,
    pub metrics: Arc<LiveMetrics>,
}

/// Map a request line to `(status, content-type, body)`.
pub fn route(request_line: &str, shared: &MetricsHttp) -> (&'static str, &'static str, String) {
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".into(),
        );
    }
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            shared.registry.render_prometheus(),
        ),
        "/trace" => (
            "200 OK",
            "application/x-ndjson; charset=utf-8",
            shared.metrics.traces_jsonl(None),
        ),
        _ => {
            // `/trace/<id>`: one trace's events as JSONL.
            if let Some(id) = path
                .strip_prefix("/trace/")
                .and_then(|id| id.parse::<u64>().ok())
            {
                return (
                    "200 OK",
                    "application/x-ndjson; charset=utf-8",
                    shared.metrics.traces_jsonl(Some(id)),
                );
            }
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".into(),
            )
        }
    }
}

/// Serialize a full `HTTP/1.1` response (head + body) for the event
/// loop to queue on the connection's output buffer.
pub fn response_bytes(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared() -> MetricsHttp {
        let registry = Arc::new(obs::Registry::new());
        registry.counter("t_total", &[]).add(3);
        MetricsHttp {
            registry,
            metrics: Arc::new(LiveMetrics::new(1, 1)),
        }
    }

    #[test]
    fn routes_metrics_and_404() {
        let s = shared();
        let (status, ctype, body) = route("GET /metrics HTTP/1.1\r\n", &s);
        assert_eq!(status, "200 OK");
        assert!(ctype.starts_with("text/plain; version=0.0.4"));
        assert!(body.contains("t_total 3"), "{body}");
        let (status, _, _) = route("GET /nope HTTP/1.1\r\n", &s);
        assert_eq!(status, "404 Not Found");
        let (status, _, _) = route("POST /metrics HTTP/1.1\r\n", &s);
        assert_eq!(status, "405 Method Not Allowed");
    }

    #[test]
    fn trace_routes_filter_by_id() {
        let s = shared();
        // An untraced request (`None`) records nothing.
        for trace in [Some(7u64), None, Some(9)] {
            let request = trace.unwrap_or(8) * 10;
            let at = (1.0, 0.0);
            s.metrics
                .record_trace(trace, request, 0, "front_door", "admitted", at);
        }
        let (status, ctype, body) = route("GET /trace HTTP/1.1\r\n", &s);
        assert_eq!(status, "200 OK");
        assert!(ctype.starts_with("application/x-ndjson"));
        assert_eq!(body.lines().count(), 2, "{body}");
        let (status, _, body) = route("GET /trace/7 HTTP/1.1\r\n", &s);
        assert_eq!(status, "200 OK");
        assert_eq!(body.lines().count(), 1, "{body}");
        assert!(body.contains("\"trace\":7"), "{body}");
        let (status, _, _) = route("GET /trace/oops HTTP/1.1\r\n", &s);
        assert_eq!(status, "404 Not Found");
    }

    #[test]
    fn response_bytes_carry_length_and_body() {
        let bytes = response_bytes("200 OK", "text/plain; charset=utf-8", "hello\n");
        let text = String::from_utf8(bytes).expect("ascii response");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 6\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello\n"), "{text}");
    }
}
