//! `topfull explain` — render a controller decision journal as a
//! human-readable timeline.
//!
//! Accepts either a run artifact
//! (`topfull run <scenario.json> --json > run.json`, a `topfull live`
//! outcome, or a bench report) — any JSON object with a top-level
//! `"journal"` array — or a raw JSONL journal as written by
//! [`obs::to_jsonl`]. The timeline names every overload
//! detection instant, re-clustering, per-API rate action (with the
//! state inputs that drove it), §4.1 increase block, headroom release,
//! and MIMD-fallback strike, followed by a run summary.

use obs::JournalEntry;
use serde::Deserialize;
use std::fmt::Write;

/// Read `path` and render its journal. The file may be a JSON object
/// embedding a `"journal"` array or a JSONL stream of entries.
pub fn explain_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = parse_journal(&text)?;
    Ok(render_timeline(&entries))
}

/// How a command names what [`parse_items`] reads, for its errors.
pub(crate) struct Items {
    /// The run artifact's top-level array: `journal`, `traces`.
    pub field: &'static str,
    /// One element, as a line error names it: `journal entry`.
    pub item: &'static str,
    /// The error for blank input.
    pub empty: &'static str,
    /// The error for JSONL that holds no element.
    pub none: &'static str,
    /// The error for a JSON object that neither carries `field` nor is
    /// one element; `None` reads it line by line instead.
    pub no_field: Option<&'static str>,
}

/// What `explain` reads: a run artifact's `journal`, or its JSONL.
const JOURNAL: Items = Items {
    field: "journal",
    item: "journal entry",
    empty: "empty journal: the input has no content — expected a run artifact \
            with a \"journal\" array, or JSONL of journal entries (was the file \
            truncated before anything was written?)",
    none: "no journal entries found (expected a JSON object with a \"journal\" \
           array, or JSONL of journal entries)",
    no_field: None,
};

/// Read the elements of a run artifact's `what.field` array, or of a
/// JSONL stream of them — the one reader behind `explain` and `trace`.
pub(crate) fn parse_items<T: Deserialize>(text: &str, what: &Items) -> Result<Vec<T>, String> {
    let Items { field, item, .. } = what;
    if text.trim().is_empty() {
        return Err(what.empty.into());
    }
    // A run artifact is one JSON document; try that reading first.
    match serde_json::from_str::<serde_json::JsonValue>(text) {
        Ok(doc) => {
            if let Some(items) = doc.get(field) {
                let serde::Value::Array(items) = items else {
                    return Err(format!("\"{field}\" field is not an array"));
                };
                return items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| T::from_value(v).map_err(|e| format!("{field}[{i}]: {e}")))
                    .collect();
            }
            if let Ok(one) = T::from_value(&doc) {
                return Ok(vec![one]); // a lone element
            }
            if let (Some(err), serde::Value::Object(_)) = (what.no_field, &doc) {
                return Err(err.into());
            }
            // Otherwise the line reader below names the failure.
        }
        Err(e) => {
            // A document that opens like a run artifact but doesn't
            // parse was almost certainly cut off mid-write. Say so,
            // with where the text ends, instead of limping into the
            // JSONL path and blaming "line 1".
            if text.trim_start().starts_with('{') && text.contains(&format!("\"{field}\"")) {
                let last = text.lines().count().max(1);
                return Err(format!(
                    "run artifact is not valid JSON (parse fails near line {last}): {e}\n\
                     the file looks truncated mid-write — regenerate it, or pass the \
                     {field} JSONL directly"
                ));
            }
        }
    }
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let one = serde_json::from_str::<T>(line).map_err(|e| {
            if line.starts_with('{') && !line.ends_with('}') {
                format!(
                    "line {}: {item} is truncated (no closing '}}') — the \
                     file was likely cut off mid-write",
                    lineno + 1
                )
            } else {
                format!("line {}: not a {item}: {e}", lineno + 1)
            }
        })?;
        out.push(one);
    }
    if out.is_empty() {
        return Err(what.none.into());
    }
    Ok(out)
}

/// Parse journal entries out of either supported input shape.
fn parse_journal(text: &str) -> Result<Vec<JournalEntry>, String> {
    parse_items(text, &JOURNAL)
}

/// Render the decision timeline plus a summary. Pure function of the
/// entries, so the output is as deterministic as the journal itself.
fn render_timeline(entries: &[JournalEntry]) -> String {
    let mut s = String::new();
    let _ = write!(s, "controller decision journal — {} entries", entries.len());
    if let Some(JournalEntry::Truncated { t, dropped }) = entries.last() {
        let _ = write!(s, " (full at t={t:.2}s: {dropped} later entries dropped)");
    }
    s.push('\n');
    if entries.is_empty() {
        let _ = writeln!(
            s,
            "(no decisions recorded: the run never left nominal state)"
        );
        return s;
    }
    for e in entries {
        let _ = writeln!(s, "{}", render_entry(e));
    }
    s.push('\n');
    s.push_str(&render_summary(entries));
    s
}

fn render_entry(e: &JournalEntry) -> String {
    let t = e.at();
    match e {
        JournalEntry::Overload {
            name,
            service,
            utilization,
            entered,
            ..
        } => {
            let verb = if *entered { "OVERLOAD" } else { "recovered" };
            format!("t={t:>8.2}s  {verb:<9} {name} (svc {service}) util={utilization:.3}")
        }
        JournalEntry::Recluster {
            clusters,
            assignment,
            ..
        } => {
            if *clusters == 0 {
                format!("t={t:>8.2}s  recluster  no overloaded targets; clusters dissolved")
            } else {
                format!("t={t:>8.2}s  recluster  {clusters} cluster(s): apis [{assignment}]")
            }
        }
        JournalEntry::RateAction {
            target_name,
            apis,
            action,
            goodput_ratio,
            latency_ratio,
            total_limit,
            reason,
            ..
        } => format!(
            "t={t:>8.2}s  rate       {target_name}: step {action:+.3} on apis [{apis}] \
             (goodput {goodput_ratio:.2}, latency {latency_ratio:.2}x SLO, \
             limit {total_limit:.1} rps) — {reason}"
        ),
        JournalEntry::RateBlocked { api, reason, .. } => {
            format!("t={t:>8.2}s  blocked    api {api}: {reason}")
        }
        JournalEntry::Release { api, reason, .. } => {
            format!("t={t:>8.2}s  release    api {api}: {reason}")
        }
        JournalEntry::FallbackStrike {
            strikes,
            max_strikes,
            tripped,
            ..
        } => {
            let tail = if *tripped {
                " — primary tripped, MIMD fallback engaged"
            } else {
                ""
            };
            format!("t={t:>8.2}s  strike     fallback strike {strikes}/{max_strikes}{tail}")
        }
        JournalEntry::Watchdog { event, .. } => {
            format!("t={t:>8.2}s  watchdog   {event}")
        }
        JournalEntry::PlaneVetoes {
            resilience,
            admission,
            faults,
            ..
        } => format!(
            "t={t:>8.2}s  vetoes     resilience={resilience} admission={admission} \
             faults={faults} (window)"
        ),
        JournalEntry::FaultTelemetry {
            dropouts,
            noisy,
            stale,
            ..
        } => format!(
            "t={t:>8.2}s  telemetry  degraded signals: dropouts={dropouts} \
             noisy={noisy} stale={stale} (window)"
        ),
        JournalEntry::ShardMembership {
            shard,
            event,
            live,
            total,
            ..
        } => format!("t={t:>8.2}s  shard      shard {shard}: {event} ({live}/{total} live)"),
        JournalEntry::ShardAggregate {
            reporting,
            total,
            goodput,
            ..
        } => format!(
            "t={t:>8.2}s  aggregate  merged {reporting}/{total} shard reports \
             (goodput {goodput:.1} rps)"
        ),
        JournalEntry::ShardSplit {
            api,
            global,
            quotas,
            reason,
            ..
        } => {
            let g = if *global < 0.0 {
                "unlimited".to_string()
            } else {
                format!("{global:.1} rps")
            };
            format!("t={t:>8.2}s  split      api {api}: {g} -> [{quotas}] — {reason}")
        }
        JournalEntry::ShardFallback {
            shard,
            phase,
            detail,
            ..
        } => format!("t={t:>8.2}s  degrade    shard {shard} [{phase}]: {detail}"),
        JournalEntry::AdmissionWindow {
            cache_hits,
            follower_hits,
            misses,
            shed,
            rate_limited,
            ..
        } => format!(
            "t={t:>8.2}s  frontdoor  cache={cache_hits} inflight={follower_hits} \
             miss={misses} shed={shed} rate-limited={rate_limited} (window)"
        ),
        JournalEntry::PriorityThreshold {
            from,
            to,
            admitted,
            shed,
            reason,
            ..
        } => format!(
            "t={t:>8.2}s  priority   threshold {from} -> {to} \
             (window: admitted={admitted} shed={shed}) — {reason}"
        ),
        JournalEntry::SloBurn {
            api_name,
            from,
            to,
            fast_burn,
            slow_burn,
            budget_remaining,
            ..
        } => format!(
            "t={t:>8.2}s  slo-burn   {api_name}: {from} -> {to} \
             (fast {fast_burn:.1}x, slow {slow_burn:.1}x, \
             budget {:.0}% left)",
            budget_remaining * 100.0
        ),
        JournalEntry::Truncated { dropped, .. } => format!(
            "t={t:>8.2}s  truncated  journal full: {dropped} later entries dropped, \
             the timeline ends here"
        ),
    }
}

fn render_summary(entries: &[JournalEntry]) -> String {
    let mut enters = 0u64;
    let mut clears = 0u64;
    let mut first_enter: Option<(f64, String)> = None;
    let mut reclusters = 0u64;
    let mut cuts = 0u64;
    let mut raises = 0u64;
    let mut blocks = 0u64;
    let mut releases = 0u64;
    let mut strikes = 0u64;
    let mut tripped = false;
    let mut watchdog = 0u64;
    let mut shard_events = 0u64;
    let mut splits = 0u64;
    let mut degradations = 0u64;
    let mut front_windows = 0u64;
    let mut front_hits = 0u64;
    let mut front_shed = 0u64;
    let mut threshold_moves = 0u64;
    let mut slo_pages = 0u64;
    let mut slo_tickets = 0u64;
    let mut first_page: Option<(f64, String)> = None;
    for e in entries {
        match e {
            JournalEntry::Overload {
                t, name, entered, ..
            } => {
                if *entered {
                    enters += 1;
                    if first_enter.is_none() {
                        first_enter = Some((*t, name.clone()));
                    }
                } else {
                    clears += 1;
                }
            }
            JournalEntry::Recluster { .. } => reclusters += 1,
            JournalEntry::RateAction { action, .. } => {
                if *action < 0.0 {
                    cuts += 1;
                } else {
                    raises += 1;
                }
            }
            JournalEntry::RateBlocked { .. } => blocks += 1,
            JournalEntry::Release { .. } => releases += 1,
            JournalEntry::FallbackStrike { tripped: trip, .. } => {
                strikes += 1;
                tripped |= *trip;
            }
            JournalEntry::Watchdog { .. } => watchdog += 1,
            JournalEntry::PlaneVetoes { .. } | JournalEntry::FaultTelemetry { .. } => {}
            JournalEntry::Truncated { .. } => {}
            JournalEntry::ShardMembership { .. } | JournalEntry::ShardAggregate { .. } => {
                shard_events += 1
            }
            JournalEntry::ShardSplit { .. } => splits += 1,
            JournalEntry::ShardFallback { .. } => degradations += 1,
            JournalEntry::AdmissionWindow {
                cache_hits,
                follower_hits,
                shed,
                ..
            } => {
                front_windows += 1;
                front_hits += cache_hits + follower_hits;
                front_shed += shed;
            }
            JournalEntry::PriorityThreshold { .. } => threshold_moves += 1,
            JournalEntry::SloBurn {
                t, api_name, to, ..
            } => match to.as_str() {
                "page" => {
                    slo_pages += 1;
                    if first_page.is_none() {
                        first_page = Some((*t, api_name.clone()));
                    }
                }
                "ticket" => slo_tickets += 1,
                _ => {}
            },
        }
    }
    let mut s = String::from("summary:\n");
    match &first_enter {
        Some((t, name)) => {
            let _ = writeln!(
                s,
                "  overload detections: {enters} (first: {name} at t={t:.2}s), recoveries: {clears}"
            );
        }
        None => {
            let _ = writeln!(s, "  overload detections: 0");
        }
    }
    let _ = writeln!(s, "  re-clusterings: {reclusters}");
    let _ = writeln!(
        s,
        "  rate actions: {} ({cuts} cuts, {raises} raises)",
        cuts + raises
    );
    let _ = writeln!(s, "  increases blocked by the path rule: {blocks}");
    let _ = writeln!(s, "  headroom releases: {releases}");
    let fb = if strikes > 0 {
        format!(
            "  fallback strikes: {strikes}{}",
            if tripped { " (primary tripped)" } else { "" }
        )
    } else {
        "  fallback strikes: 0".into()
    };
    let _ = writeln!(s, "{fb}");
    if watchdog > 0 {
        let _ = writeln!(s, "  watchdog events: {watchdog}");
    }
    if shard_events + splits + degradations > 0 {
        let _ = writeln!(
            s,
            "  shard plane: {shard_events} membership/aggregate events, \
             {splits} quota splits, {degradations} local degradations"
        );
    }
    if front_windows + threshold_moves > 0 {
        let _ = writeln!(
            s,
            "  front door: {front_windows} active windows, {front_hits} coalesced \
             responses, {front_shed} priority sheds, {threshold_moves} threshold moves"
        );
    }
    if slo_pages + slo_tickets > 0 {
        let first = match &first_page {
            Some((t, name)) => format!(" (first page: {name} at t={t:.2}s)"),
            None => String::new(),
        };
        let _ = writeln!(
            s,
            "  slo burn alerts: {slo_pages} page escalations, {slo_tickets} \
             ticket escalations{first}"
        );
    }
    s
}

/// Fingerprint a journal file: parse entries from either supported
/// shape, re-render as canonical JSONL, and hash. Two runs of the same
/// plan must print the same value (`scripts/verify.sh` pins this for
/// the sharded sim at 1 vs 4 workers).
pub fn fingerprint_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = parse_journal(&text)?;
    let jsonl = obs::to_jsonl(&entries);
    Ok(format!(
        "{:#018x} ({} entries)",
        obs::journal_fingerprint(&jsonl),
        entries.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry::Overload {
                t: 10.0,
                service: 4,
                name: "backend".into(),
                utilization: 0.97,
                entered: true,
            },
            JournalEntry::Recluster {
                t: 10.0,
                clusters: 1,
                assignment: "0,2".into(),
            },
            JournalEntry::RateAction {
                t: 10.0,
                target: 4,
                target_name: "backend".into(),
                apis: "0,2".into(),
                action: -0.25,
                goodput_ratio: 0.4,
                latency_ratio: 2.5,
                total_limit: 120.0,
                reason: "mimd action -0.250".into(),
            },
            JournalEntry::RateBlocked {
                t: 11.0,
                api: 1,
                reason: "rate-increase blocked: path contains overloaded backend".into(),
            },
            JournalEntry::FallbackStrike {
                t: 12.0,
                strikes: 3,
                max_strikes: 3,
                tripped: true,
            },
            JournalEntry::Release {
                t: 30.0,
                api: 0,
                reason: "limit held 2.0x above offered for 5 intervals".into(),
            },
            JournalEntry::Overload {
                t: 31.0,
                service: 4,
                name: "backend".into(),
                utilization: 0.50,
                entered: false,
            },
        ]
    }

    #[test]
    fn timeline_names_detections_strikes_and_releases() {
        let text = render_timeline(&sample_entries());
        assert!(
            text.contains("OVERLOAD  backend (svc 4) util=0.970"),
            "{text}"
        );
        assert!(text.contains("1 cluster(s): apis [0,2]"), "{text}");
        assert!(text.contains("step -0.250"), "{text}");
        assert!(text.contains("path contains overloaded backend"), "{text}");
        assert!(
            text.contains("fallback strike 3/3 — primary tripped"),
            "{text}"
        );
        assert!(text.contains("release    api 0"), "{text}");
        assert!(text.contains("recovered backend"), "{text}");
        assert!(text.contains("overload detections: 1 (first: backend at t=10.00s)"));
        assert!(text.contains("fallback strikes: 1 (primary tripped)"));
    }

    #[test]
    fn a_full_journal_says_where_its_timeline_stops() {
        let j = obs::Journal::with_capacity(4);
        // The fifth entry, the first refused, is the strike at t=12.
        for e in sample_entries().into_iter().cycle().take(10) {
            j.record(e);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 5);
        let back = parse_journal(&obs::to_jsonl(&snap)).expect("jsonl parses");
        assert_eq!(back, snap);
        let text = render_timeline(&back);
        assert!(
            text.starts_with(
                "controller decision journal — 5 entries \
                 (full at t=12.00s: 6 later entries dropped)\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("t=   12.00s  truncated  journal full: 6 later entries dropped"),
            "{text}"
        );
        // A journal under its cap has no such line.
        let text = render_timeline(&sample_entries());
        assert!(!text.contains("truncated"), "{text}");
    }

    #[test]
    fn parses_jsonl_journals() {
        let jsonl = obs::to_jsonl(&sample_entries());
        let back = parse_journal(&jsonl).expect("jsonl parses");
        assert_eq!(back, sample_entries());
    }

    #[test]
    fn parses_run_artifacts_with_embedded_journals() {
        let jsonl = obs::to_jsonl(&sample_entries());
        let inner: Vec<String> = jsonl.lines().map(String::from).collect();
        let doc = format!(
            r#"{{"name":"run","total_goodput":120.5,"journal":[{}]}}"#,
            inner.join(",")
        );
        let back = parse_journal(&doc).expect("artifact parses");
        assert_eq!(back, sample_entries());
    }

    #[test]
    fn rejects_non_journal_input() {
        assert!(parse_journal("").is_err());
        assert!(parse_journal("{\"name\":\"run\"}").is_err());
        assert!(parse_journal("not json at all").is_err());
        let err = parse_journal("{\"journal\": 3}").unwrap_err();
        assert!(err.contains("not an array"), "{err}");
    }

    #[test]
    fn empty_input_gets_a_friendly_message() {
        for text in ["", "   \n\n  "] {
            let err = parse_journal(text).unwrap_err();
            assert!(err.contains("empty journal"), "{err}");
            assert!(err.contains("truncated"), "{err}");
        }
    }

    #[test]
    fn truncated_run_artifact_names_the_failing_line() {
        // A real artifact cut off mid-write: valid prefix, no closing
        // braces.
        let full = format!(
            "{{\n  \"name\": \"run\",\n  \"journal\": [\n    {}\n",
            obs::to_jsonl(&sample_entries()).lines().next().unwrap()
        );
        let err = parse_journal(&full).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("near line"), "{err}");
        assert!(!err.contains("line 1: not a journal entry"), "{err}");
    }

    #[test]
    fn truncated_jsonl_line_reports_its_line_number() {
        let jsonl = obs::to_jsonl(&sample_entries());
        let mut lines: Vec<&str> = jsonl.lines().collect();
        let cut = &lines[1][..lines[1].len() / 2];
        lines[1] = cut;
        let err = parse_journal(&lines.join("\n")).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn timeline_renders_shard_plane_entries() {
        let entries = vec![
            JournalEntry::ShardMembership {
                t: 60.0,
                shard: 1,
                event: "struck out after 3 missed reports; quota redistributed".into(),
                live: 2,
                total: 3,
            },
            JournalEntry::ShardAggregate {
                t: 60.0,
                reporting: 2,
                total: 3,
                goodput: 812.5,
            },
            JournalEntry::ShardSplit {
                t: 60.0,
                api: 0,
                global: 120.0,
                quotas: "60.0|-|60.0".into(),
                reason: "redistribution: live set changed".into(),
            },
            JournalEntry::ShardFallback {
                t: 72.0,
                shard: 2,
                phase: "fallback".into(),
                detail: "ttl expired; local mimd engaged".into(),
            },
        ];
        let text = render_timeline(&entries);
        assert!(text.contains("shard 1: struck out"), "{text}");
        assert!(text.contains("merged 2/3 shard reports"), "{text}");
        assert!(text.contains("120.0 rps -> [60.0|-|60.0]"), "{text}");
        assert!(text.contains("shard 2 [fallback]"), "{text}");
        assert!(
            text.contains("shard plane: 2 membership/aggregate events, 1 quota splits"),
            "{text}"
        );
    }

    #[test]
    fn timeline_renders_front_door_entries() {
        let entries = vec![
            JournalEntry::AdmissionWindow {
                t: 15.0,
                cache_hits: 42,
                follower_hits: 9,
                misses: 12,
                shed: 3,
                rate_limited: 7,
            },
            JournalEntry::PriorityThreshold {
                t: 15.0,
                from: 1024,
                to: 960,
                admitted: 310,
                shed: 3,
                reason: "overload".into(),
            },
        ];
        let text = render_timeline(&entries);
        assert!(
            text.contains("frontdoor  cache=42 inflight=9 miss=12 shed=3 rate-limited=7"),
            "{text}"
        );
        assert!(text.contains("threshold 1024 -> 960"), "{text}");
        assert!(
            text.contains(
                "front door: 1 active windows, 51 coalesced responses, \
             3 priority sheds, 1 threshold moves"
            ),
            "{text}"
        );
    }

    #[test]
    fn timeline_renders_slo_burn_entries() {
        let entries = vec![
            JournalEntry::SloBurn {
                t: 20.0,
                api: 1,
                api_name: "checkout".into(),
                from: "ok".into(),
                to: "page".into(),
                fast_burn: 22.1,
                slow_burn: 3.4,
                budget_remaining: 0.74,
            },
            JournalEntry::SloBurn {
                t: 44.0,
                api: 1,
                api_name: "checkout".into(),
                from: "page".into(),
                to: "ticket".into(),
                fast_burn: 4.0,
                slow_burn: 7.2,
                budget_remaining: 0.41,
            },
        ];
        let text = render_timeline(&entries);
        assert!(
            text.contains("slo-burn   checkout: ok -> page (fast 22.1x, slow 3.4x"),
            "{text}"
        );
        assert!(text.contains("budget 74% left"), "{text}");
        assert!(
            text.contains(
                "slo burn alerts: 1 page escalations, 1 ticket escalations \
             (first page: checkout at t=20.00s)"
            ),
            "{text}"
        );
    }

    #[test]
    fn fingerprint_is_deterministic_for_same_journal() {
        let jsonl = obs::to_jsonl(&sample_entries());
        let dir = std::env::temp_dir();
        let p1 = dir.join("topfull_fp_a.jsonl");
        let p2 = dir.join("topfull_fp_b.jsonl");
        std::fs::write(&p1, &jsonl).unwrap();
        std::fs::write(&p2, &jsonl).unwrap();
        let f1 = fingerprint_file(p1.to_str().unwrap()).expect("fingerprints");
        let f2 = fingerprint_file(p2.to_str().unwrap()).expect("fingerprints");
        assert_eq!(f1, f2);
        assert!(f1.starts_with("0x"), "{f1}");
        let _ = std::fs::remove_file(p1);
        let _ = std::fs::remove_file(p2);
    }

    #[test]
    fn empty_journal_renders_nominal_note() {
        let text = render_timeline(&[]);
        assert!(text.contains("never left nominal state"), "{text}");
    }
}
