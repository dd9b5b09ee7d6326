//! Identifiers and request metadata shared across the simulator.

use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::fmt;

/// Index of a service within a [`crate::topology::Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServiceId(pub u32);

/// Index of an external API within a [`crate::topology::Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ApiId(pub u32);

impl ServiceId {
    /// Usable as a `Vec` index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl ApiId {
    /// Usable as a `Vec` index.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc#{}", self.0)
    }
}

impl fmt::Display for ApiId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "api#{}", self.0)
    }
}

/// Business priority of an API: **lower value = more important**, matching
/// DAGOR's convention where admission thresholds cut from the high
/// (unimportant) end. The operator assigns these per API type (§4.1
/// "Respecting the business priority").
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct BusinessPriority(pub u8);

impl BusinessPriority {
    /// The most important priority level.
    pub const HIGHEST: BusinessPriority = BusinessPriority(0);
}

/// Metadata accompanying a request through the cluster; what a per-service
/// admission controller (DAGOR, Breakwater) is allowed to look at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestMeta {
    /// Which external API the request belongs to (DAGOR/TopFull know the
    /// API type; Breakwater ignores it).
    pub api: ApiId,
    /// Business priority inherited from the API type.
    pub business: BusinessPriority,
    /// User priority drawn uniformly in `0..=127` at the entry point and
    /// inherited by all sub-requests (DAGOR §5: "random user priority at
    /// the entry points").
    pub user: u8,
    /// Arrival time at the entry gateway.
    pub arrival: SimTime,
    /// Absolute deadline propagated with the request (DAGOR-style):
    /// derived at entry from the client timeout / latency SLO when
    /// deadline propagation is enabled ([`crate::resilience`]). Services
    /// check it before starting work and before dispatching sub-calls;
    /// `None` disables all deadline machinery.
    pub deadline: Option<SimTime>,
}

/// Terminal status of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Completed end-to-end within the latency SLO.
    Good,
    /// Completed end-to-end but after the SLO deadline.
    SloViolated,
    /// Rejected by the entry gateway's rate limiter.
    RejectedAtEntry,
    /// Rejected by a per-service admission controller.
    RejectedAtService(ServiceId),
    /// Dropped because a pod queue overflowed.
    QueueOverflow(ServiceId),
    /// Lost because the pod processing it crashed.
    PodCrashed(ServiceId),
    /// Lost in transit to a service on a degraded network path
    /// ([`crate::faults::FaultSpec::NetworkDegrade`]).
    NetworkLost(ServiceId),
    /// Abandoned by a closed-loop client that timed out waiting.
    ClientTimeout,
    /// Failed because its propagated deadline expired before a service
    /// could start (or continue) working on it.
    DeadlineExpired(ServiceId),
    /// Rejected at dispatch by an open circuit breaker on the edge into
    /// this service ([`crate::resilience::EdgeBreakers`]).
    BreakerOpen(ServiceId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index_vectors() {
        let v = [10, 20, 30];
        assert_eq!(v[ServiceId(1).idx()], 20);
        assert_eq!(v[ApiId(2).idx()], 30);
    }

    #[test]
    fn business_priority_orders_low_first() {
        assert!(BusinessPriority::HIGHEST < BusinessPriority(1));
        assert!(BusinessPriority(3) > BusinessPriority(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ServiceId(4).to_string(), "svc#4");
        assert_eq!(ApiId(1).to_string(), "api#1");
    }
}
