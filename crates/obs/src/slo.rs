//! Per-API error-budget accounting and multi-window burn-rate alerting.
//!
//! TopFull's controller reacts to *instantaneous* SLO state (p99 vs
//! target, goodput ratio per window). This module adds the Google-SRE
//! complement: an **error budget** per API (the tolerated fraction of
//! bad requests implied by the objective) and **burn rates** — how many
//! times faster than "exactly exhausting the budget" the API is
//! currently spending it — computed over two window *pairs*:
//!
//! * the **fast pair** (default 5 s / 1 m) catches sharp burns; paging
//!   only when *both* windows exceed the page threshold keeps one noisy
//!   tick from paging while still firing seconds into a real incident;
//! * the **slow pair** (default 30 s / 6 m) catches smoulders that
//!   would exhaust the budget over hours; it raises a ticket.
//!
//! The monitor is fed one [`ApiSloSample`] batch per control tick (sim
//! ticks or wall clock — it only sees `(t, good, bad)`), keeps a
//! time-pruned ring per API, and reports a [`SloBurnSignal`] per API
//! plus a [`SloTransition`] whenever an API's severity changes. The
//! control loop — its one caller — journals transitions as
//! `JournalEntry::SloBurn` and hands the signals to the plane it runs
//! over, which exports them as `/metrics` gauges (DESIGN.md §18, §19).
//!
//! Determinism: the monitor is a pure fold over its inputs — no clocks,
//! no randomness — so for a fixed run it transitions identically at any
//! worker count.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// SLO objective + burn-rate alerting policy for every API. This is
/// also the scenario file's `slo` block.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct SloConfig {
    /// Fraction of requests that must be good (in-SLO successes), e.g.
    /// `0.999` tolerates 0.1% bad before the budget is exhausted.
    pub objective: f64,
    /// Fast `(short, long)` window pair, seconds. Page severity.
    pub fast_windows_secs: (f64, f64),
    /// Slow `(short, long)` window pair, seconds. Ticket severity.
    pub slow_windows_secs: (f64, f64),
    /// Burn-rate threshold for the fast pair (Google SRE: 14.4 spends
    /// ~2% of a 30-day budget per hour).
    pub page_burn: f64,
    /// Burn-rate threshold for the slow pair.
    pub ticket_burn: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            objective: 0.999,
            fast_windows_secs: (5.0, 60.0),
            slow_windows_secs: (30.0, 360.0),
            page_burn: 14.4,
            ticket_burn: 6.0,
        }
    }
}

impl SloConfig {
    /// The error budget: tolerated bad fraction.
    pub fn budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }
}

/// Alert severity, worst first when ordering matters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SloSeverity {
    /// Burning within budget.
    #[default]
    Ok,
    /// The slow pair exceeds the ticket threshold: a smoulder.
    Ticket,
    /// The fast pair exceeds the page threshold: an active incident.
    Page,
}

impl SloSeverity {
    pub fn as_str(self) -> &'static str {
        match self {
            SloSeverity::Ok => "ok",
            SloSeverity::Ticket => "ticket",
            SloSeverity::Page => "page",
        }
    }
}

/// One API's contribution to a control window: counts, not rates.
#[derive(Clone, Copy, Debug)]
pub struct ApiSloSample {
    /// Requests that completed within the SLO.
    pub good: f64,
    /// Requests that violated the SLO or failed outright. Rejected
    /// requests are *neither*: shedding spends no error budget, which
    /// is exactly why an overload controller protects the budget.
    pub bad: f64,
}

/// The read-only burn-rate signal exported per API each tick.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SloBurnSignal {
    /// API index (`ApiId` ordinal).
    pub api: u32,
    /// Burn rate over the fast pair's *short* window.
    pub fast_burn: f64,
    /// Burn rate over the fast pair's *long* window.
    pub fast_burn_long: f64,
    /// Burn rate over the slow pair's *short* window.
    pub slow_burn: f64,
    /// Burn rate over the slow pair's *long* window.
    pub slow_burn_long: f64,
    /// Fraction of the run's error budget still unspent (can go
    /// negative once the objective is blown for the run so far).
    pub budget_remaining: f64,
    pub severity: SloSeverity,
}

/// An API crossed a severity boundary this tick.
#[derive(Clone, Debug)]
pub struct SloTransition {
    pub api: u32,
    pub from: SloSeverity,
    pub to: SloSeverity,
    pub fast_burn: f64,
    pub slow_burn: f64,
    pub budget_remaining: f64,
}

/// What one `observe` call produced: the per-API signals (always, one
/// per API) and any severity transitions (usually none).
#[derive(Clone, Debug, Default)]
pub struct SloTick {
    pub signals: Vec<SloBurnSignal>,
    pub transitions: Vec<SloTransition>,
}

struct ApiState {
    /// `(t, good, bad)` per observed tick, pruned to the longest window.
    ring: VecDeque<(f64, f64, f64)>,
    total_good: f64,
    total_bad: f64,
    severity: SloSeverity,
}

/// The per-API error-budget engine. Feed it once per control tick.
pub struct SloMonitor {
    cfg: SloConfig,
    apis: Vec<ApiState>,
}

impl SloMonitor {
    pub fn new(cfg: SloConfig) -> Self {
        SloMonitor {
            cfg,
            apis: Vec::new(),
        }
    }

    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    fn ensure_sized(&mut self, n: usize) {
        while self.apis.len() < n {
            self.apis.push(ApiState {
                ring: VecDeque::new(),
                total_good: 0.0,
                total_bad: 0.0,
                severity: SloSeverity::Ok,
            });
        }
    }

    /// Error ratio over the trailing `window` seconds ending at `now`,
    /// divided by the budget — the burn rate. 0 when the window is
    /// empty.
    fn burn(&self, api: usize, now: f64, window: f64) -> f64 {
        let from = now - window;
        let (mut good, mut bad) = (0.0, 0.0);
        for &(t, g, b) in &self.apis[api].ring {
            if t > from {
                good += g;
                bad += b;
            }
        }
        let total = good + bad;
        if total <= 0.0 {
            return 0.0;
        }
        (bad / total) / self.cfg.budget()
    }

    /// Ingest one control tick's per-API `(good, bad)` counts observed
    /// at time `t` (seconds since run start).
    pub fn observe(&mut self, t: f64, samples: &[ApiSloSample]) -> SloTick {
        self.ensure_sized(samples.len());
        let longest = self
            .cfg
            .fast_windows_secs
            .1
            .max(self.cfg.slow_windows_secs.1)
            .max(1.0);
        let mut out = SloTick::default();
        for (i, s) in samples.iter().enumerate() {
            {
                let st = &mut self.apis[i];
                st.ring.push_back((t, s.good.max(0.0), s.bad.max(0.0)));
                while st.ring.front().is_some_and(|&(t0, _, _)| t0 <= t - longest) {
                    st.ring.pop_front();
                }
                st.total_good += s.good.max(0.0);
                st.total_bad += s.bad.max(0.0);
            }
            let fast = self.burn(i, t, self.cfg.fast_windows_secs.0);
            let fast_long = self.burn(i, t, self.cfg.fast_windows_secs.1);
            let slow = self.burn(i, t, self.cfg.slow_windows_secs.0);
            let slow_long = self.burn(i, t, self.cfg.slow_windows_secs.1);
            let severity = if fast > self.cfg.page_burn && fast_long > self.cfg.page_burn {
                SloSeverity::Page
            } else if slow > self.cfg.ticket_burn && slow_long > self.cfg.ticket_burn {
                SloSeverity::Ticket
            } else {
                SloSeverity::Ok
            };
            let st = &mut self.apis[i];
            let total = st.total_good + st.total_bad;
            let budget_remaining = if total > 0.0 {
                1.0 - (st.total_bad / total) / self.cfg.budget()
            } else {
                1.0
            };
            if severity != st.severity {
                out.transitions.push(SloTransition {
                    api: i as u32,
                    from: st.severity,
                    to: severity,
                    fast_burn: fast,
                    slow_burn: slow,
                    budget_remaining,
                });
                st.severity = severity;
            }
            out.signals.push(SloBurnSignal {
                api: i as u32,
                fast_burn: fast,
                fast_burn_long: fast_long,
                slow_burn: slow,
                slow_burn_long: slow_long,
                budget_remaining,
                severity,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig::default()
    }

    /// Feed `ratio` bad for `secs` ticks at 1 Hz starting at `t0`.
    fn feed(m: &mut SloMonitor, t0: f64, secs: u64, rate: f64, ratio: f64) -> SloTick {
        let mut last = SloTick::default();
        for i in 0..secs {
            last = m.observe(
                t0 + i as f64 + 1.0,
                &[ApiSloSample {
                    good: rate * (1.0 - ratio),
                    bad: rate * ratio,
                }],
            );
        }
        last
    }

    #[test]
    fn clean_traffic_never_alerts_and_keeps_budget() {
        let mut m = SloMonitor::new(cfg());
        let tick = feed(&mut m, 0.0, 120, 100.0, 0.0);
        let s = &tick.signals[0];
        assert_eq!(s.severity, SloSeverity::Ok);
        assert_eq!(s.fast_burn, 0.0);
        assert!((s.budget_remaining - 1.0).abs() < 1e-12);
        assert!(tick.transitions.is_empty());
    }

    #[test]
    fn hard_burn_pages_once_both_fast_windows_concur() {
        let mut m = SloMonitor::new(cfg());
        // A minute of clean traffic, then 30% bad. The 5 s window
        // crosses 14.4×0.1% = 1.44% immediately; the 1 m window needs
        // bad/(total over 60s) > 1.44% ⇒ about 3 s of 30%-bad traffic.
        feed(&mut m, 0.0, 60, 100.0, 0.0);
        let mut paged_at = None;
        for i in 0..20u64 {
            let tick = feed(&mut m, 60.0 + i as f64, 1, 100.0, 0.3);
            if tick.signals[0].severity == SloSeverity::Page {
                paged_at = Some(i + 1);
                break;
            }
        }
        let paged_at = paged_at.expect("a 300× burn must page");
        assert!(
            (2..=6).contains(&paged_at),
            "long fast window should gate the page a few seconds, paged after {paged_at}s"
        );
    }

    #[test]
    fn smoulder_raises_ticket_not_page() {
        let mut m = SloMonitor::new(cfg());
        // 1% bad: fast burn = 10 < 14.4 (no page), slow burn = 10 > 6.
        let tick = feed(&mut m, 0.0, 400, 100.0, 0.01);
        assert_eq!(tick.signals[0].severity, SloSeverity::Ticket);
        // The transition was journalable exactly once.
        let mut m = SloMonitor::new(cfg());
        let mut transitions = 0;
        for i in 0..400u64 {
            transitions += feed(&mut m, i as f64, 1, 100.0, 0.01).transitions.len();
        }
        assert_eq!(transitions, 1, "steady smoulder transitions Ok→Ticket once");
    }

    #[test]
    fn recovery_clears_the_alert_and_budget_reflects_spend() {
        let mut m = SloMonitor::new(cfg());
        feed(&mut m, 0.0, 60, 100.0, 0.5);
        assert_eq!(
            m.observe(
                61.0,
                &[ApiSloSample {
                    good: 100.0,
                    bad: 0.0
                }]
            )
            .signals[0]
                .severity,
            SloSeverity::Page
        );
        // Clean traffic long enough to drain every window.
        let tick = feed(&mut m, 61.0, 400, 100.0, 0.0);
        let s = &tick.signals[0];
        assert_eq!(s.severity, SloSeverity::Ok);
        assert!(
            s.budget_remaining < 0.0,
            "50% bad for a minute blew a 0.1% budget for the run: {}",
            s.budget_remaining
        );
    }

    #[test]
    fn burn_rates_are_windowed_not_cumulative() {
        let mut m = SloMonitor::new(cfg());
        feed(&mut m, 0.0, 30, 100.0, 1.0);
        // 90 clean seconds later the fast windows are clean again.
        let tick = feed(&mut m, 30.0, 90, 100.0, 0.0);
        let s = &tick.signals[0];
        assert_eq!(s.fast_burn, 0.0);
        assert_eq!(s.fast_burn_long, 0.0);
        // …but the 6 m slow-long window still remembers the burn.
        assert!(s.slow_burn_long > 0.0);
    }

    #[test]
    fn monitor_is_deterministic() {
        let run = || {
            let mut m = SloMonitor::new(cfg());
            let mut log = Vec::new();
            for i in 0..200u64 {
                let ratio = if i % 7 == 0 { 0.4 } else { 0.001 };
                let tick = m.observe(
                    i as f64,
                    &[ApiSloSample {
                        good: 80.0 * (1.0 - ratio),
                        bad: 80.0 * ratio,
                    }],
                );
                for tr in tick.transitions {
                    log.push((tr.api, tr.from, tr.to, tr.fast_burn.to_bits()));
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
