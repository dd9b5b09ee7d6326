//! # baselines — comparator overload controllers
//!
//! Re-implementations of the systems the paper benchmarks against (§5
//! "Baseline implementation and parameters") or discusses (§7), acting
//! at the same point they act in the paper: *inside* the application,
//! per service, via the engine's [`cluster::admission::AdmissionControl`]
//! hook. Each control law is written once:
//!
//! * [`dagor`] — WeChat's DAGOR: per-service admission thresholds over
//!   (business, user) priority pairs, adjusted each second from local
//!   queueing delay, with thresholds propagated upstream so callers drop
//!   doomed sub-requests early. The threshold law is
//!   [`cluster::front::priority`]'s gate, one per service, tuned by the
//!   same [`PriorityConfig`] as the front door's.
//! * [`breakwater`] — Breakwater: per-server credit pools (modeled as a
//!   rate) grown additively while the local delay is under target and
//!   shrunk multiplicatively with overload severity, enforced with a
//!   token bucket on the server's incoming calls. The delay law, with
//!   its constants, is [`breakwater::step`].
//! * [`wisp`] — WISP: per-service rates under Breakwater's delay law,
//!   propagated toward the entry via a-priori call-graph weights.
//!   Discussed (not evaluated) in the paper's §7; implemented here as an
//!   extension comparator.
//!
//! The "no overload control" baseline is [`cluster::NoControl`] (entry)
//! plus no admission hook (services admit everything).

pub mod breakwater;
pub mod dagor;
pub mod wisp;

pub use breakwater::Breakwater;
pub use cluster::front::PriorityConfig;
pub use dagor::Dagor;
pub use wisp::Wisp;

/// A per-service scheme as a roster or a scenario file names one.
#[derive(Clone, Copy, Debug)]
pub enum Scheme {
    /// DAGOR with multiplicative decrease `alpha`.
    Dagor {
        alpha: f64,
    },
    Breakwater,
    Wisp,
}

impl Scheme {
    /// Build the scheme for `engine`'s topology and hook it into every
    /// service's admission. Nothing then runs at the entry.
    pub fn install(self, engine: &mut cluster::Engine) {
        let n = engine.topology().num_services();
        engine.set_admission(match self {
            Scheme::Dagor { alpha } => {
                let cfg = PriorityConfig {
                    alpha,
                    ..PriorityConfig::default()
                };
                Box::new(Dagor::new(n, cfg))
            }
            Scheme::Breakwater => Box::new(Breakwater::new(n)),
            Scheme::Wisp => Box::new(Wisp::new(engine.topology())),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Engine, EngineConfig, OpenLoopWorkload};
    use simnet::SimTime;

    /// Each scheme, installed, takes part: under a load far past
    /// capacity the run ends differently from one with no admission
    /// hook.
    #[test]
    fn every_scheme_installs_and_sheds_at_services() {
        let shed = |scheme: Option<Scheme>| {
            let ob = apps::OnlineBoutique::build();
            let load = OpenLoopWorkload::constant(vec![(ob.getproduct, 3000.0)]);
            let mut engine = Engine::new(ob.topology, EngineConfig::default(), Box::new(load));
            if let Some(scheme) = scheme {
                scheme.install(&mut engine);
            }
            engine.run_until(SimTime::from_secs(8));
            engine.api_totals(ob.getproduct)
        };
        assert!(shed(None).offered > 0);
        for scheme in [
            Scheme::Dagor { alpha: 0.05 },
            Scheme::Breakwater,
            Scheme::Wisp,
        ] {
            let with = shed(Some(scheme));
            let without = shed(None);
            assert_ne!(
                (with.good, with.failed),
                (without.good, without.failed),
                "{scheme:?} changed nothing"
            );
        }
    }
}
