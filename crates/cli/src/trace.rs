//! `topfull trace` — render causal request traces as per-request
//! waterfalls.
//!
//! Accepts any of:
//!
//! * a run artifact (`topfull live … --json > run.json`) — a JSON
//!   object with a top-level `"traces"` array;
//! * a raw JSONL stream of [`obs::TraceEvent`] objects, as served by
//!   the live gateway's `GET /trace` route;
//! * an `http://host:port[/trace[/<id>]]` URL, fetched with a one-shot
//!   GET against the gateway's exposition endpoint.
//!
//! Rendering is [`obs::render_waterfall`]: one block per trace id with
//! a bar per pipeline stage, so an operator can see *where* a request
//! spent its latency — or which stage shed it.

use crate::explain::{parse_items, Items};
use obs::TraceEvent;

/// Load events from `arg` (file path or `http://` URL), keep only
/// `filter`'s trace when given, and render the waterfall.
pub fn trace_source(arg: &str, filter: Option<u64>) -> Result<String, String> {
    let events = load_events(arg)?;
    let events: Vec<TraceEvent> = events
        .into_iter()
        .filter(|e| filter.is_none() || filter == Some(e.trace))
        .collect();
    Ok(obs::render_waterfall(&events))
}

fn load_events(arg: &str) -> Result<Vec<TraceEvent>, String> {
    if let Some(rest) = arg.strip_prefix("http://") {
        return fetch_http(rest);
    }
    let text = std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
    parse_events(&text)
}

/// What `trace` reads: a live run artifact's `traces`, or their JSONL.
const TRACES: Items = Items {
    field: "traces",
    item: "trace event",
    empty: "no trace events: the input is empty (expected a run artifact with a \
            \"traces\" array, or JSONL of trace events)",
    none: "no trace events found",
    no_field: Some(
        "no \"traces\" array in this run artifact — only live runs carry \
         traces (the simulator has no wire to sample trace ids from); \
         rerun with `topfull live … --json`",
    ),
};

/// Parse trace events out of either supported text shape.
fn parse_events(text: &str) -> Result<Vec<TraceEvent>, String> {
    parse_items(text, &TRACES)
}

/// One-shot `GET` against a live gateway's exposition endpoint. A bare
/// `host:port` defaults to the `/trace` route.
fn fetch_http(rest: &str) -> Result<Vec<TraceEvent>, String> {
    use std::io::{Read, Write};
    let (host, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/trace"),
    };
    let mut conn =
        std::net::TcpStream::connect(host).map_err(|e| format!("cannot connect to {host}: {e}"))?;
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("cannot send request to {host}: {e}"))?;
    let mut buf = String::new();
    conn.read_to_string(&mut buf)
        .map_err(|e| format!("cannot read response from {host}: {e}"))?;
    let (head, body) = buf
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from {host}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("{host}{path} answered: {status}"));
    }
    parse_events(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_json(trace: u64, stage: &str, at: f64) -> String {
        format!(
            "{{\"trace\":{trace},\"request\":{},\"api\":0,\"shard\":0,\
             \"stage\":\"{stage}\",\"outcome\":\"admitted\",\"at\":{at},\"dur\":0.0}}",
            trace * 10
        )
    }

    #[test]
    fn jsonl_and_run_artifact_both_parse() {
        let jsonl = format!(
            "{}\n{}\n",
            ev_json(3, "token_bucket", 0.1),
            ev_json(3, "worker", 0.2)
        );
        let events = parse_events(&jsonl).expect("jsonl parses");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].trace, 3);

        let artifact = format!(
            "{{\"name\":\"run\",\"traces\":[{},{}]}}",
            ev_json(7, "front_door", 0.0),
            ev_json(7, "reply", 0.4)
        );
        let events = parse_events(&artifact).expect("artifact parses");
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.trace == 7));
    }

    #[test]
    fn traceless_artifacts_and_garbage_fail_loudly() {
        let err = parse_events("{\"name\":\"sim-run\",\"journal\":[]}").expect_err("no traces");
        assert!(err.contains("only live runs carry traces"), "{err}");
        let err = parse_events("not json\n").expect_err("garbage");
        assert!(err.contains("line 1"), "{err}");
        assert!(parse_events("  \n").is_err());
    }

    #[test]
    fn waterfall_filters_by_trace_id() {
        let path = std::env::temp_dir().join("topfull-trace-cli-test.jsonl");
        let jsonl = format!(
            "{}\n{}\n{}\n",
            ev_json(1, "token_bucket", 0.1),
            ev_json(2, "token_bucket", 0.2),
            ev_json(1, "worker", 0.3)
        );
        std::fs::write(&path, jsonl).expect("write temp");
        let text = trace_source(path.to_str().expect("utf8 path"), Some(1)).expect("renders");
        assert!(text.contains("trace 1"), "{text}");
        assert!(!text.contains("trace 2"), "{text}");
        let text = trace_source(path.to_str().expect("utf8 path"), None).expect("renders");
        assert!(
            text.contains("trace 1") && text.contains("trace 2"),
            "{text}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
