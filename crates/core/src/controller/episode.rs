//! The collapse backoff — one law for cluster targets and recovery
//! probes.
//!
//! The rate controller owns the step's *direction*, but when a candidate
//! set's admission has fully collapsed — goodput ratio ≈ 0 with latency
//! pinned far past the SLO — a small fixed cut walks down geometrically
//! from a transient-inflated limit while nothing is served at all.
//! Collapse is unambiguous evidence the limit is far above capacity, so
//! [`escalate`] deepens any cut to `collapse_backoff`, inside an
//! *episode*: anchored at the subject's total limit when the collapse
//! was first seen, and spent once the limit has shrunk to
//! [`COLLAPSE_FLOOR_FRAC`] of that anchor.
//!
//! Who holds the anchor differs by subject (`decide.rs`), the law does
//! not. A cluster target's anchor is keyed by its service and dropped on
//! any tick the service is not a collapsing target; a probe's anchor
//! lives in its API's `ApiLimit` and is dropped on the first
//! non-collapsed visit. The probe copy exists because a flapping
//! detector (telemetry noise straddling the enter threshold) reads a
//! freshly throttled API's path as cold for a tick and routes its cut
//! through the probe — the fuzzer's noise-blinded descent, fuzz 2-10.

use crate::rate_controller::RateState;

/// Goodput ratio below this counts as collapsed admission...
const COLLAPSE_GOODPUT_EPS: f64 = 0.05;
/// ...when latency is simultaneously pinned at least this far past the
/// SLO. Both must hold: near-zero goodput alone can be an idle API.
const COLLAPSE_LATENCY_RATIO: f64 = 2.0;
/// Episode budget: escalated cuts may shrink a subject's total limit to
/// at most this fraction of its value when the collapse was first
/// detected, then the normal step law resumes. Collapse proves the limit
/// is *far* above capacity, but "far" is bounded — under sustained
/// overload with a deep queue, latency stays pinned long after the limit
/// has reached capacity, and unbounded escalation would ride every API
/// to the floor (erasing the priority-ordered split the cuts are
/// supposed to produce).
pub(super) const COLLAPSE_FLOOR_FRAC: f64 = 0.25;
/// An episode may only *start* within this many control ticks of one of
/// the subject's candidate APIs getting its limit initialized (the first
/// throttle snapshots the admitted rate, which an overload transient —
/// flash crowd or ramp past capacity — inflates far above what the
/// service can serve). That mistake is visible immediately, so a
/// collapse right after initialization is the initialization's fault. A
/// collapse that develops later, under an established limit, is a
/// capacity fade (e.g. a slow-pod brownout); cutting 4× deep there
/// tracks the faulted capacity faster but strands recovery several
/// times lower once the fault clears, so the normal step law keeps it.
pub(super) const COLLAPSE_INIT_WINDOW: u64 = 5;

/// Deepen `action` if `state` says admission has collapsed.
///
/// `anchor` is the subject's episode slot: `None` outside an episode,
/// else the total limit at episode start. It is set when an episode
/// starts (only if `recently_initialised`), kept while the collapse
/// holds, and cleared as soon as it does not. Only a finite cut
/// shallower than `backoff` is ever touched; the result never cuts past
/// `anchor × COLLAPSE_FLOOR_FRAC` nor deeper than `backoff`. Returns the
/// action to apply and whether it was deepened.
pub(super) fn escalate(
    anchor: &mut Option<f64>,
    recently_initialised: bool,
    backoff: f64,
    action: f64,
    state: &RateState,
) -> (f64, bool) {
    let collapsed = backoff > 0.0
        && action.is_finite()
        && action < 0.0
        && action > -backoff
        && state.goodput_ratio < COLLAPSE_GOODPUT_EPS
        && state.latency_ratio >= COLLAPSE_LATENCY_RATIO
        && state.total_limit.is_finite()
        && state.total_limit > 0.0;
    if !collapsed {
        *anchor = None;
        return (action, false);
    }
    if anchor.is_none() && !recently_initialised {
        return (action, false);
    }
    let anchor = *anchor.get_or_insert(state.total_limit);
    // The action that lands exactly on the episode floor.
    let floor_action = (anchor * COLLAPSE_FLOOR_FRAC) / state.total_limit - 1.0;
    let deep = (-backoff).max(floor_action);
    if deep < action {
        (deep, true)
    } else {
        (action, false)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{obs, sid};
    use super::super::{TopFull, TopFullConfig};
    use super::*;
    use cluster::Controller;
    use proptest::prelude::*;

    /// First throttle: unlimited, admitted 300, serving 80 past the SLO.
    const FIRST_CUT: (f64, f64, f64, u64, u8, f64) = (300.0, 300.0, 80.0, 2000, 0, f64::INFINITY);
    /// Collapsed admission (goodput ratio ≈ 0, latency pinned ≥2×SLO).
    const COLLAPSED: (f64, f64, f64, u64, u8, f64) = (285.0, 285.0, 0.0, 2500, 0, 285.0);
    /// Overloaded but serving: latency just past the SLO.
    const STRAINED: (f64, f64, f64, u64, u8, f64) = (285.0, 285.0, 100.0, 1100, 0, 285.0);

    /// One tick over a single API on a single service at `util`.
    fn tick(tf: &mut TopFull, util: f64, api: (f64, f64, f64, u64, u8, f64)) -> f64 {
        let ups = tf.control(&obs(&[util], &[api], vec![sid(&[0])]));
        assert_eq!(ups.len(), 1);
        ups[0].rate
    }

    #[test]
    fn collapse_backoff_deepens_cut_after_fresh_initialization() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Tick 1: first throttle initializes from admitted (300→285);
        // goodput ratio 0.27 is not collapsed, so the step is plain −5%.
        assert!((tick(&mut tf, 0.95, FIRST_CUT) - 285.0).abs() < 1e-9);
        // Tick 2: admission collapses right after initialization — the
        // −5% step escalates to the collapse backoff (−25%).
        let rate = tick(&mut tf, 0.95, COLLAPSED);
        assert!(
            (rate - 285.0 * 0.75).abs() < 1e-9,
            "escalated cut expected, got {rate}"
        );
    }

    #[test]
    fn collapse_backoff_stops_at_episode_floor() {
        let mut tf = TopFull::new(TopFullConfig::default());
        tick(&mut tf, 0.95, FIRST_CUT);
        // Sustained collapse: −25% steps walk 285 down, but stop at the
        // episode floor 285 × COLLAPSE_FLOOR_FRAC = 71.25 rather than
        // riding to the configured minimum rate.
        let mut last = 285.0;
        for _ in 0..5 {
            last = tick(&mut tf, 0.95, COLLAPSED);
        }
        let floor = 285.0 * COLLAPSE_FLOOR_FRAC;
        assert!(
            (last - floor).abs() < 1e-6,
            "descent should land exactly on the floor: {last} vs {floor}"
        );
        // Past the floor the normal −5% law resumes.
        let rate = tick(&mut tf, 0.95, COLLAPSED);
        assert!(
            (rate - floor * 0.95).abs() < 1e-6,
            "normal step past the floor, got {rate}"
        );
    }

    #[test]
    fn collapse_backoff_only_starts_near_limit_initialization() {
        let mut tf = TopFull::new(TopFullConfig::default());
        tick(&mut tf, 0.95, FIRST_CUT);
        let mut expect = 285.0;
        // Strained-but-serving ticks age the initialization past the
        // episode window; each is a plain −5%.
        for _ in 0..COLLAPSE_INIT_WINDOW + 1 {
            expect *= 0.95;
            assert!((tick(&mut tf, 0.95, STRAINED) - expect).abs() < 1e-6);
        }
        // A collapse developing this late is a capacity fade, not a bad
        // initialization — the step must stay −5%.
        let rate = tick(&mut tf, 0.95, COLLAPSED);
        expect *= 0.95;
        assert!(
            (rate - expect).abs() < 1e-6,
            "late collapse must not escalate: {rate} vs {expect}"
        );
    }

    #[test]
    fn collapse_backoff_applies_on_recovery_probe_path() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Tick 1: first throttle initializes from admitted (300→285).
        tick(&mut tf, 0.95, FIRST_CUT);
        // Tick 2: telemetry noise drops the reported utilization below
        // the enter threshold — the detector flaps, the API's path
        // reads cold, and the collapsed cut routes through the per-API
        // recovery probe. It must escalate exactly like the cluster
        // path (fuzz 2-10: without this, the walk-down from the
        // inflated limit is −5%/tick while nothing is served).
        let mut last = tick(&mut tf, 0.5, COLLAPSED);
        assert!(
            (last - 285.0 * 0.75).abs() < 1e-9,
            "recovery-path cut must escalate under collapse, got {last}"
        );
        // Recovery ticks continue the episode down to the same floor …
        for _ in 0..4 {
            last = tick(&mut tf, 0.5, COLLAPSED);
        }
        let floor = 285.0 * COLLAPSE_FLOOR_FRAC;
        assert!(
            (last - floor).abs() < 1e-6,
            "recovery descent should stop at the episode floor: {last} vs {floor}"
        );
        // … past which the normal −5% law resumes.
        let rate = tick(&mut tf, 0.5, COLLAPSED);
        assert!(
            (rate - floor * 0.95).abs() < 1e-6,
            "normal step past the floor, got {rate}"
        );
    }

    #[test]
    fn collapse_backoff_zero_disables_escalation() {
        let mut tf = TopFull::new(TopFullConfig {
            collapse_backoff: 0.0,
            ..TopFullConfig::default()
        });
        tick(&mut tf, 0.95, FIRST_CUT);
        let rate = tick(&mut tf, 0.95, COLLAPSED);
        assert!(
            (rate - 285.0 * 0.95).abs() < 1e-9,
            "ablated backoff must keep the paper's −5% step, got {rate}"
        );
    }

    /// Mostly `finite`, sometimes what an unhardened policy or a
    /// telemetry dropout produces instead.
    fn wild(finite: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
        (0u8..16, finite).prop_map(|(k, v)| match k {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The one law, over arbitrary inputs (drawn around the collapse
        /// region, so a few percent of cases escalate and the floor binds
        /// in some of those): it only ever deepens a finite cut, never
        /// past the episode floor nor beyond the backoff, and
        /// `collapse_backoff = 0` is the identity.
        #[test]
        fn escalate_stays_inside_the_episode_budget(
            anchor in (any::<bool>(), 1.0f64..10_000.0),
            recent in any::<bool>(),
            backoff in (0u8..4, 0.0f64..0.5).prop_map(|(k, b)| if k == 0 { 0.0 } else { b }),
            action in wild(-0.5..0.1),
            goodput_ratio in wild(0.0..0.1),
            latency_ratio in wild(1.5..5.0),
            // The limit left of an episode's anchor (or an unrelated one).
            remaining in wild(-0.1..1.1),
        ) {
            let total_limit = anchor.1 * remaining;
            let state = RateState { goodput_ratio, latency_ratio, total_limit };
            let before = anchor.0.then_some(anchor.1);
            let mut slot = before;
            let (out, escalated) = escalate(&mut slot, recent, backoff, action, &state);
            if !escalated {
                // Bit-for-bit the policy's action (NaN included).
                prop_assert_eq!(out.to_bits(), action.to_bits());
            } else {
                prop_assert!(action.is_finite() && action < 0.0, "touched {action}");
                prop_assert!(out < action, "escalation must deepen: {action} -> {out}");
                prop_assert!(out >= -backoff, "deeper than the backoff: {out} < -{backoff}");
                let episode = slot.expect("an escalated cut is inside an episode");
                prop_assert!(
                    total_limit * (1.0 + out) >= episode * COLLAPSE_FLOOR_FRAC * (1.0 - 1e-12),
                    "cut past the floor: {total_limit} x (1 + {out}) under {episode}/4"
                );
                prop_assert!(before.is_some() || recent, "episode started outside the window");
            }
            if backoff == 0.0 {
                prop_assert!(!escalated && slot.is_none(), "backoff 0 must be the identity");
            }
            // An ongoing episode keeps its anchor or ends; it never re-anchors.
            if let (Some(b), Some(a)) = (before, slot) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
