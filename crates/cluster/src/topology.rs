//! Application topology: services, external APIs, and execution paths.
//!
//! A [`Topology`] is the static description the paper's tracing collector
//! would learn from Istio: which services exist, which external APIs the
//! application exposes, and the call tree(s) each API executes. Branching
//! APIs (§4.2 "APIs with branching execution paths") carry several weighted
//! trees; for clustering purposes an API is considered to *touch* every
//! service on any of its possible paths.

use crate::types::{ApiId, BusinessPriority, ServiceId};
use serde::{Deserialize, Serialize};
use simnet::SimDuration;

/// One node of an execution path: process `cost` of CPU time at `service`,
/// then invoke all `children` in parallel and wait for them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CallNode {
    pub service: ServiceId,
    /// CPU time this call consumes on one pod of `service` (before jitter).
    pub cost: SimDuration,
    pub children: Vec<CallNode>,
}

impl CallNode {
    /// Leaf call with no downstream fan-out.
    pub fn leaf(service: ServiceId, cost: SimDuration) -> Self {
        CallNode {
            service,
            cost,
            children: Vec::new(),
        }
    }

    /// Internal call fanning out to `children`.
    pub fn with_children(service: ServiceId, cost: SimDuration, children: Vec<CallNode>) -> Self {
        CallNode {
            service,
            cost,
            children,
        }
    }

    /// Number of calls in the subtree (including this node).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(CallNode::len).sum::<usize>()
    }

    /// Always false: a call tree has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Visit every node in the subtree, parents before children.
    pub fn visit(&self, f: &mut impl FnMut(&CallNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    fn collect_services(&self, out: &mut Vec<ServiceId>) {
        self.visit(&mut |n| {
            if !out.contains(&n.service) {
                out.push(n.service);
            }
        });
    }
}

/// One call of a [`CallTemplate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemplateNode {
    pub service: ServiceId,
    /// CPU time this call consumes on one pod of `service` (before jitter).
    pub cost: SimDuration,
    /// Index of the calling node; `None` at the root.
    pub parent: Option<u32>,
    /// This node's range in the template's child-index array.
    children: (u32, u32),
}

/// A [`CallNode`] tree flattened once into an index-addressed table:
/// nodes in visit order (parents before children, the root at 0), each
/// with its parent and a contiguous slice of child indices in call
/// order. A topology is immutable while an engine runs it, so every
/// request on the same path shares one template and keeps only its own
/// per-node join counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallTemplate {
    nodes: Vec<TemplateNode>,
    /// Child indices of every node, grouped per parent.
    child_idx: Vec<u32>,
}

impl CallTemplate {
    /// Flatten the tree under `root`.
    pub fn new(root: &CallNode) -> Self {
        fn walk(n: &CallNode, parent: Option<u32>, t: &mut CallTemplate) -> u32 {
            let idx = t.nodes.len() as u32;
            t.nodes.push(TemplateNode {
                service: n.service,
                cost: n.cost,
                parent,
                children: (0, 0),
            });
            let kids: Vec<u32> = n.children.iter().map(|c| walk(c, Some(idx), t)).collect();
            let start = t.child_idx.len() as u32;
            t.child_idx.extend(kids);
            t.nodes[idx as usize].children = (start, t.child_idx.len() as u32);
            idx
        }
        let mut t = CallTemplate {
            nodes: Vec::with_capacity(root.len()),
            child_idx: Vec::new(),
        };
        walk(root, None, &mut t);
        t
    }

    /// Number of calls in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false: a call tree has at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The call at index `i`.
    #[inline]
    pub fn node(&self, i: u32) -> &TemplateNode {
        &self.nodes[i as usize]
    }

    /// Indices of the calls node `i` fans out to, in call order.
    #[inline]
    pub fn children(&self, i: u32) -> &[u32] {
        let (start, end) = self.nodes[i as usize].children;
        &self.child_idx[start as usize..end as usize]
    }

    /// Service of the node that calls node `i` (`None` at the root).
    #[inline]
    pub fn caller(&self, i: u32) -> Option<ServiceId> {
        self.nodes[i as usize]
            .parent
            .map(|p| self.nodes[p as usize].service)
    }
}

/// A service (microservice) definition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    pub name: String,
    /// Initial pod count.
    pub replicas: u32,
    /// Per-pod queue bound; calls arriving at a full pod fail the request.
    pub queue_capacity: u32,
    /// Relative processing speed of a pod (1.0 = costs taken literally).
    pub pod_speed: f64,
    /// Whether sustained pod saturation crash-loops the pod (models
    /// liveness/readiness-probe failures, §6.3 Online Boutique).
    pub crash_on_overload: bool,
}

impl ServiceSpec {
    /// A service with sensible defaults: given replicas, queue bound 2048,
    /// unit speed, no crash-looping.
    pub fn new(name: impl Into<String>, replicas: u32) -> Self {
        ServiceSpec {
            name: name.into(),
            replicas: replicas.max(1),
            queue_capacity: 2048,
            pod_speed: 1.0,
            crash_on_overload: false,
        }
    }

    /// Builder: set the per-pod queue bound.
    pub fn queue_capacity(mut self, cap: u32) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Builder: enable the overload crash-loop model.
    pub fn crash_on_overload(mut self) -> Self {
        self.crash_on_overload = true;
        self
    }

    /// Builder: set the relative pod speed.
    pub fn pod_speed(mut self, speed: f64) -> Self {
        self.pod_speed = speed.max(1e-6);
        self
    }
}

/// An external API definition.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ApiSpec {
    pub name: String,
    pub business: BusinessPriority,
    /// Weighted alternative execution paths; a single entry means the API
    /// does not branch. Weights need not be normalized.
    pub paths: Vec<(f64, CallNode)>,
}

impl ApiSpec {
    /// An API with a single execution path.
    pub fn single(name: impl Into<String>, root: CallNode) -> Self {
        ApiSpec {
            name: name.into(),
            business: BusinessPriority::default(),
            paths: vec![(1.0, root)],
        }
    }

    /// An API with weighted branching paths.
    pub fn branching(name: impl Into<String>, paths: Vec<(f64, CallNode)>) -> Self {
        assert!(!paths.is_empty(), "API must have at least one path");
        ApiSpec {
            name: name.into(),
            business: BusinessPriority::default(),
            paths,
        }
    }

    /// Builder: assign a business priority (lower = more important).
    pub fn business(mut self, p: BusinessPriority) -> Self {
        self.business = p;
        self
    }

    /// All services on *any* possible path, deduplicated, in first-visit
    /// order. Branching APIs count every branch (§4.2).
    pub fn touched_services(&self) -> Vec<ServiceId> {
        let mut out = Vec::new();
        for (_, root) in &self.paths {
            root.collect_services(&mut out);
        }
        out
    }
}

/// A full application topology.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    pub name: String,
    services: Vec<ServiceSpec>,
    apis: Vec<ApiSpec>,
}

impl Topology {
    /// An empty topology with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            services: Vec::new(),
            apis: Vec::new(),
        }
    }

    /// Add a service, returning its id.
    pub fn add_service(&mut self, spec: ServiceSpec) -> ServiceId {
        let id = ServiceId(self.services.len() as u32);
        self.services.push(spec);
        id
    }

    /// Add an external API, returning its id.
    ///
    /// Panics if any path references an unknown service.
    pub fn add_api(&mut self, spec: ApiSpec) -> ApiId {
        for s in spec.touched_services() {
            assert!(
                s.idx() < self.services.len(),
                "API {} references unknown {s}",
                spec.name
            );
        }
        let id = ApiId(self.apis.len() as u32);
        self.apis.push(spec);
        id
    }

    /// Number of services.
    pub fn num_services(&self) -> usize {
        self.services.len()
    }

    /// Number of external APIs.
    pub fn num_apis(&self) -> usize {
        self.apis.len()
    }

    /// Service definition by id.
    pub fn service(&self, id: ServiceId) -> &ServiceSpec {
        &self.services[id.idx()]
    }

    /// API definition by id.
    pub fn api(&self, id: ApiId) -> &ApiSpec {
        &self.apis[id.idx()]
    }

    /// Mutable service definition (e.g. to resize replicas for an
    /// experiment before building an engine).
    pub fn service_mut(&mut self, id: ServiceId) -> &mut ServiceSpec {
        &mut self.services[id.idx()]
    }

    /// Mutable API definition (e.g. to reassign business priorities).
    pub fn api_mut(&mut self, id: ApiId) -> &mut ApiSpec {
        &mut self.apis[id.idx()]
    }

    /// All services.
    pub fn services(&self) -> impl Iterator<Item = (ServiceId, &ServiceSpec)> {
        self.services
            .iter()
            .enumerate()
            .map(|(i, s)| (ServiceId(i as u32), s))
    }

    /// All APIs.
    pub fn apis(&self) -> impl Iterator<Item = (ApiId, &ApiSpec)> {
        self.apis
            .iter()
            .enumerate()
            .map(|(i, a)| (ApiId(i as u32), a))
    }

    /// Look up a service id by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServiceId(i as u32))
    }

    /// Look up an API id by name.
    pub fn api_by_name(&self, name: &str) -> Option<ApiId> {
        self.apis
            .iter()
            .position(|a| a.name == name)
            .map(|i| ApiId(i as u32))
    }

    /// The execution-path map the tracing collector exports: for each API,
    /// the set of services on any of its possible paths.
    pub fn api_service_map(&self) -> Vec<Vec<ServiceId>> {
        self.apis.iter().map(ApiSpec::touched_services).collect()
    }

    /// For each service, the set of APIs whose (possible) paths include it.
    pub fn service_api_map(&self) -> Vec<Vec<ApiId>> {
        let mut out = vec![Vec::new(); self.services.len()];
        for (i, api) in self.apis.iter().enumerate() {
            for s in api.touched_services() {
                out[s.idx()].push(ApiId(i as u32));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn two_service_topo() -> (Topology, ServiceId, ServiceId, ApiId, ApiId) {
        // Figure 1 topology: API1 → {A, B}; API2 → {A}.
        let mut t = Topology::new("fig1");
        let a = t.add_service(ServiceSpec::new("A", 4));
        let b = t.add_service(ServiceSpec::new("B", 2));
        let api1 = t.add_api(ApiSpec::single(
            "api1",
            CallNode::with_children(a, ms(1), vec![CallNode::leaf(b, ms(1))]),
        ));
        let api2 = t.add_api(ApiSpec::single("api2", CallNode::leaf(a, ms(1))));
        (t, a, b, api1, api2)
    }

    #[test]
    fn touched_services_dedup_and_order() {
        let (t, a, b, api1, api2) = two_service_topo();
        assert_eq!(t.api(api1).touched_services(), vec![a, b]);
        assert_eq!(t.api(api2).touched_services(), vec![a]);
    }

    #[test]
    fn branching_api_touches_all_branches() {
        let mut t = Topology::new("branch");
        let a = t.add_service(ServiceSpec::new("A", 1));
        let b = t.add_service(ServiceSpec::new("B", 1));
        let c = t.add_service(ServiceSpec::new("C", 1));
        let api = t.add_api(ApiSpec::branching(
            "br",
            vec![
                (
                    0.7,
                    CallNode::with_children(a, ms(1), vec![CallNode::leaf(b, ms(1))]),
                ),
                (
                    0.3,
                    CallNode::with_children(a, ms(1), vec![CallNode::leaf(c, ms(1))]),
                ),
            ],
        ));
        assert_eq!(t.api(api).touched_services(), vec![a, b, c]);
    }

    #[test]
    fn service_api_map_inverts_api_service_map() {
        let (t, a, b, api1, api2) = two_service_topo();
        let by_service = t.service_api_map();
        assert_eq!(by_service[a.idx()], vec![api1, api2]);
        assert_eq!(by_service[b.idx()], vec![api1]);
        let by_api = t.api_service_map();
        assert_eq!(by_api[api1.idx()], vec![a, b]);
    }

    #[test]
    fn lookup_by_name() {
        let (t, a, _, api1, _) = two_service_topo();
        assert_eq!(t.service_by_name("A"), Some(a));
        assert_eq!(t.api_by_name("api1"), Some(api1));
        assert_eq!(t.service_by_name("nope"), None);
    }

    #[test]
    fn call_tree_len_counts_nodes() {
        let (t, _, _, api1, _) = two_service_topo();
        assert_eq!(t.api(api1).paths[0].1.len(), 2);
    }

    #[test]
    #[should_panic(expected = "references unknown")]
    fn api_referencing_unknown_service_panics() {
        let mut t = Topology::new("bad");
        t.add_service(ServiceSpec::new("A", 1));
        t.add_api(ApiSpec::single("x", CallNode::leaf(ServiceId(9), ms(1))));
    }

    #[test]
    fn spec_builders_clamp() {
        let s = ServiceSpec::new("s", 0).queue_capacity(0).pod_speed(-1.0);
        assert_eq!(s.replicas, 1);
        assert_eq!(s.queue_capacity, 1);
        assert!(s.pod_speed > 0.0);
    }
}
