//! `cluster::CallTemplate` — the call tree every request on a path
//! shares — against the per-request flattening the engine used to do,
//! on every execution path of the three application topologies.

use apps::{AlibabaDemo, OnlineBoutique, TrainTicket};
use cluster::{CallNode, CallTemplate, ServiceId, Topology};
use simnet::SimDuration;

/// The engine's former per-request node: what `flatten` produced.
#[derive(Debug, PartialEq)]
struct NodeRt {
    service: ServiceId,
    cost: SimDuration,
    parent: Option<u32>,
    children: Vec<u32>,
}

/// Flatten a call tree into `NodeRt`s, parents before children.
fn flatten(node: &CallNode, parent: Option<u32>, out: &mut Vec<NodeRt>) {
    let idx = out.len() as u32;
    out.push(NodeRt {
        service: node.service,
        cost: node.cost,
        parent,
        children: Vec::with_capacity(node.children.len()),
    });
    for c in &node.children {
        let child_idx = out.len() as u32;
        out[idx as usize].children.push(child_idx);
        flatten(c, Some(idx), out);
    }
}

fn check(topo: &Topology) -> usize {
    let mut paths = 0;
    for (_, api) in topo.apis() {
        for (_, root) in &api.paths {
            let mut want = Vec::new();
            flatten(root, None, &mut want);
            let tmpl = CallTemplate::new(root);
            assert_eq!(tmpl.len(), want.len(), "{}/{}", topo.name, api.name);
            let got: Vec<NodeRt> = (0..tmpl.len() as u32)
                .map(|i| NodeRt {
                    service: tmpl.node(i).service,
                    cost: tmpl.node(i).cost,
                    parent: tmpl.node(i).parent,
                    children: tmpl.children(i).to_vec(),
                })
                .collect();
            assert_eq!(got, want, "{}/{}", topo.name, api.name);
            for (i, n) in want.iter().enumerate() {
                let caller = n.parent.map(|p| want[p as usize].service);
                assert_eq!(tmpl.caller(i as u32), caller);
            }
            paths += 1;
        }
    }
    paths
}

#[test]
fn template_matches_flatten_on_every_application_path() {
    assert!(check(&OnlineBoutique::build().topology) >= 5);
    assert!(check(&TrainTicket::build().topology) >= 5);
    assert!(check(&AlibabaDemo::build(7).topology) >= 5);
}
