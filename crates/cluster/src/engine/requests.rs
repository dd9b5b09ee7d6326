//! The live-request table: a generation-checked slab.
//!
//! Every call-tree node of a request looks its request up several times
//! (dispatch, arrival, processing, join), so the lookup is an index, not
//! a hash. A [`ReqId`] names a slab slot *and* the slot's generation at
//! admission; freeing a slot bumps its generation.
//!
//! **The stale-id rule.** Events, pod queues and in-flight calls keep
//! addressing a request after it failed elsewhere in its tree — that is
//! how wasted work is modelled. Such a late id must read "gone" for
//! good, even once the slot holds a newer request: [`RequestTable::get`]
//! answers only when the generations match, so work addressed to a
//! finished request is never charged to the slot's next tenant.

use crate::types::RequestMeta;
use crate::workload::UserRef;
use simnet::SimTime;

/// Handle to a request in the [`RequestTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct ReqId {
    slot: u32,
    gen: u32,
}

impl ReqId {
    /// The handle as an opaque tag (the front door's flight-leader tag).
    pub(super) fn to_bits(self) -> u64 {
        u64::from(self.gen) << 32 | u64::from(self.slot)
    }

    pub(super) fn from_bits(bits: u64) -> Self {
        ReqId {
            slot: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }
}

/// A duplicate read parked on an in-flight leader's completion.
pub(super) struct Parked {
    pub(super) user: Option<UserRef>,
    pub(super) arrival: SimTime,
}

/// A live request.
pub(super) struct RequestRt {
    pub(super) meta: RequestMeta,
    pub(super) user: Option<UserRef>,
    /// Admission ordinal (0, 1, 2, …): the request id tracing spans carry.
    pub(super) serial: u64,
    /// Index of the request's call tree in the engine's template table.
    pub(super) tmpl: u32,
    /// Per template node: children still running (counts down to the
    /// node's join).
    pub(super) pending: Vec<u32>,
    /// Coalescing key of the front-door flight this request leads.
    pub(super) flight_key: Option<u64>,
    /// Duplicate reads parked on this request's completion.
    pub(super) parked: Vec<Parked>,
}

struct Slot {
    /// Bumped on every free; a [`ReqId`] is live iff its `gen` matches.
    gen: u32,
    req: Option<RequestRt>,
}

/// Slab of live requests plus a pool of returned `pending` buffers, so a
/// steady-state admission allocates nothing.
#[derive(Default)]
pub(super) struct RequestTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    pending_pool: Vec<Vec<u32>>,
}

impl RequestTable {
    /// Number of live requests.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slots ever created (live or free): the peak concurrency.
    #[cfg(test)]
    pub(super) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// A zeroed join-counter buffer for a call tree of `nodes` calls.
    pub(super) fn pending_buffer(&mut self, nodes: usize) -> Vec<u32> {
        let mut buf = self.pending_pool.pop().unwrap_or_default();
        buf.clear();
        buf.resize(nodes, 0);
        buf
    }

    pub(super) fn insert(&mut self, req: RequestRt) -> ReqId {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.req = Some(req);
                ReqId { slot, gen: s.gen }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 live requests");
                self.slots.push(Slot {
                    gen: 0,
                    req: Some(req),
                });
                ReqId { slot, gen: 0 }
            }
        }
    }

    #[inline]
    pub(super) fn get(&self, id: ReqId) -> Option<&RequestRt> {
        let s = self.slots.get(id.slot as usize)?;
        if s.gen != id.gen {
            return None;
        }
        s.req.as_ref()
    }

    #[inline]
    pub(super) fn get_mut(&mut self, id: ReqId) -> Option<&mut RequestRt> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.gen != id.gen {
            return None;
        }
        s.req.as_mut()
    }

    pub(super) fn contains(&self, id: ReqId) -> bool {
        self.get(id).is_some()
    }

    /// Retire `id`: its slot is free for reuse under a new generation
    /// and its join counters return to the pool. `None` if already gone.
    pub(super) fn remove(&mut self, id: ReqId) -> Option<RequestRt> {
        let s = self.slots.get_mut(id.slot as usize)?;
        if s.gen != id.gen {
            return None;
        }
        let mut req = s.req.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.pending_pool.push(std::mem::take(&mut req.pending));
        Some(req)
    }
}
