//! The flat mailbox arena behind [`crate::AsyncNetwork`]: membership,
//! inboxes, the dropped-message log, counters, and the optional per-kind
//! tally.
//!
//! The engine used to keep membership in a `BTreeSet<NodeId>` and inboxes
//! in a `BTreeMap<NodeId, Vec<Envelope>>` — a pointer-chasing tree lookup
//! per delivery and an O(live-nodes) full-map walk per
//! [`crate::NetworkEngine::nodes_with_mail_into`] call. [`Mailboxes`]
//! replaces both with a slot arena:
//!
//! - **dense id → slot translation**: ids below [`DENSE_ID_LIMIT`] index a
//!   flat `Vec<u32>` directly (grown on demand); larger ids spill to a hash
//!   map, mirroring the graph arena's interner;
//! - **slot-indexed inboxes**: each slot owns a reusable `Vec<Envelope>`
//!   that keeps its capacity across drains — steady-state delivery and
//!   drain allocate nothing;
//! - **a maintained dirty-slot list**: slots holding mail register in an
//!   unordered list (with a back-pointer for O(1) removal), so
//!   `nodes_with_mail_into` costs O(d log d) in the number of mailboxes
//!   with mail, independent of membership size;
//! - **an envelope-buffer slab**: removed processors' slots keep their
//!   (cleared) inbox vectors and queue on a free list, so churn
//!   (remove + re-add) recycles warmed buffers instead of reallocating —
//!   steady-state stepping stays allocation-free.
//!
//! Delivery order is untouched: envelopes append to their inbox in
//! delivery order, and `nodes_with_mail_into` still reports ascending
//! [`NodeId`]s (the dirty list is sorted on read), exactly matching the
//! old `BTreeMap` iteration order.

use xheal_graph::{FxHashMap, NodeId};

use crate::engine::{Counters, Envelope};

/// Ids below this bound translate through the flat dense table; ids at or
/// above it go through the hashed spill map. Matches the graph arena's
/// dense-interner policy.
pub(crate) const DENSE_ID_LIMIT: u64 = 1 << 24;

/// Sentinel for "no slot" / "not in the dirty list".
const NONE: u32 = u32::MAX;

/// Minimum inbox capacity reserved when a slot first receives mail in a
/// round. Per-round fan-in beyond this is possible but far off the tail of
/// any balls-in-bins delivery pattern, so hot-path pushes never grow.
const MIN_INBOX_CAP: usize = 16;

/// One processor slot: its id, liveness, inbox, and dirty-list position.
#[derive(Clone, Debug)]
struct Slot<M> {
    node: NodeId,
    alive: bool,
    /// Position in the dirty list, or [`NONE`] when the inbox is empty.
    dirty_pos: u32,
    inbox: Vec<Envelope<M>>,
}

/// The optional per-kind tally: a classifier installed by the protocol
/// layer (see [`crate::NetworkEngine::set_classifier`]) plus one send
/// counter per kind label.
#[derive(Clone, Debug)]
struct KindTally<M> {
    labels: &'static [&'static str],
    classify: fn(&M) -> usize,
    sent: Vec<u64>,
}

/// The flat mailbox arena (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Mailboxes<M> {
    /// Dense id → slot translation (ids < [`DENSE_ID_LIMIT`]).
    dense: Vec<u32>,
    /// Hashed spill for ids at or above the dense bound.
    spill: FxHashMap<u64, u32>,
    slots: Vec<Slot<M>>,
    /// Recyclable slot indices of removed processors.
    free: Vec<u32>,
    /// Registered (alive) processors.
    live: usize,
    /// Slots with non-empty inboxes, unordered; each slot back-points via
    /// `dirty_pos` so removal is a swap.
    dirty: Vec<u32>,
    /// Messages dropped since the last drain.
    dropped: Vec<Envelope<M>>,
    counters: Counters,
    kinds: Option<KindTally<M>>,
    /// Test probe counting the slots examined by `nodes_with_mail_into`
    /// — the no-full-scan regression guard.
    #[cfg(test)]
    pub(crate) scan_probe: std::cell::Cell<u64>,
}

impl<M> Default for Mailboxes<M> {
    fn default() -> Self {
        Mailboxes::new()
    }
}

impl<M> Mailboxes<M> {
    pub(crate) fn new() -> Self {
        Mailboxes {
            dense: Vec::new(),
            spill: FxHashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            dirty: Vec::new(),
            dropped: Vec::new(),
            counters: Counters::default(),
            kinds: None,
            #[cfg(test)]
            scan_probe: std::cell::Cell::new(0),
        }
    }

    /// Slot of `v`, if it was ever registered (alive or not).
    fn slot_of(&self, v: NodeId) -> Option<u32> {
        let raw = v.as_u64();
        let s = if raw < DENSE_ID_LIMIT {
            *self.dense.get(raw as usize)?
        } else {
            *self.spill.get(&raw)?
        };
        (s != NONE).then_some(s)
    }

    /// Registers `v`. Idempotent; recycles a freed slot (and its warmed
    /// inbox buffer) when one is available.
    pub(crate) fn add(&mut self, v: NodeId) {
        if let Some(s) = self.slot_of(v) {
            let slot = &mut self.slots[s as usize];
            if !slot.alive {
                slot.alive = true;
                self.live += 1;
            }
            return;
        }
        let s = match self.free.pop() {
            Some(s) => {
                let slot = &mut self.slots[s as usize];
                slot.node = v;
                slot.alive = true;
                debug_assert!(slot.inbox.is_empty() && slot.dirty_pos == NONE);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Slot {
                    node: v,
                    alive: true,
                    dirty_pos: NONE,
                    inbox: Vec::new(),
                });
                s
            }
        };
        let raw = v.as_u64();
        if raw < DENSE_ID_LIMIT {
            if self.dense.len() <= raw as usize {
                self.dense.resize(raw as usize + 1, NONE);
            }
            self.dense[raw as usize] = s;
        } else {
            self.spill.insert(raw, s);
        }
        self.live += 1;
    }

    /// Unregisters `v`, discarding its pending inbox. The slot keeps its
    /// (cleared, still-warm) inbox buffer and queues on the free list —
    /// the envelope slab later registrations draw from.
    pub(crate) fn remove(&mut self, v: NodeId) {
        let Some(s) = self.slot_of(v) else {
            return;
        };
        if !self.slots[s as usize].alive {
            return;
        }
        self.undirty(s);
        let slot = &mut self.slots[s as usize];
        slot.alive = false;
        slot.inbox.clear();
        self.live -= 1;
        // Unmap the id and free the slot: a re-added id must not resurrect
        // the discarded inbox, and dead ids must not pin slots forever.
        let raw = v.as_u64();
        if raw < DENSE_ID_LIMIT {
            self.dense[raw as usize] = NONE;
        } else {
            self.spill.remove(&raw);
        }
        self.free.push(s);
    }

    /// Is `v` registered?
    pub(crate) fn contains(&self, v: NodeId) -> bool {
        self.slot_of(v)
            .is_some_and(|s| self.slots[s as usize].alive)
    }

    /// Number of registered processors.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Delivers `env` into its recipient's inbox, or logs it as dropped
    /// when the recipient is gone (or `doomed` — a fault already claimed
    /// it). Returns whether it was delivered. Counter upkeep for `dropped`
    /// happens here; the per-round `messages` total is the caller's (it
    /// adds the returned delivery count once per step).
    pub(crate) fn deliver(&mut self, env: Envelope<M>, doomed: bool) -> bool {
        match self.slot_of(env.to) {
            Some(s) if !doomed && self.slots[s as usize].alive => {
                let slot = &mut self.slots[s as usize];
                if slot.dirty_pos == NONE {
                    // Empty → nonempty: floor the inbox capacity so a burst
                    // of fan-in this round never reallocates mid-step. Each
                    // slot Vec pays this at most once — capacity never
                    // shrinks — so steady-state delivery stays alloc-free.
                    if slot.inbox.capacity() < MIN_INBOX_CAP {
                        slot.inbox.reserve(MIN_INBOX_CAP);
                    }
                    slot.dirty_pos = self.dirty.len() as u32;
                    self.dirty.push(s);
                }
                slot.inbox.push(env);
                true
            }
            _ => {
                self.counters.dropped += 1;
                self.dropped.push(env);
                false
            }
        }
    }

    /// Appends the ids of slots holding mail to `out` (cleared first),
    /// ascending. Work is O(d log d) in the number of dirty slots —
    /// membership size never enters.
    pub(crate) fn nodes_with_mail_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.reserve(self.dirty.len());
        for &s in &self.dirty {
            #[cfg(test)]
            self.scan_probe.set(self.scan_probe.get() + 1);
            out.push(self.slots[s as usize].node);
        }
        out.sort_unstable();
    }

    /// Moves all mail waiting at `v` into `out` (cleared first), keeping
    /// the slot's buffer capacity for the next delivery burst.
    pub(crate) fn drain_inbox_into(&mut self, v: NodeId, out: &mut Vec<Envelope<M>>) {
        out.clear();
        let Some(s) = self.slot_of(v) else {
            return;
        };
        if self.slots[s as usize].inbox.is_empty() {
            return;
        }
        self.undirty(s);
        out.append(&mut self.slots[s as usize].inbox);
    }

    /// Moves every message dropped since the last call into `out`
    /// (cleared first).
    pub(crate) fn drain_dropped_into(&mut self, out: &mut Vec<Envelope<M>>) {
        out.clear();
        out.append(&mut self.dropped);
    }

    /// Removes `s` from the dirty list if present (O(1) via the slot's
    /// back-pointer; the displaced tail entry is re-pointed).
    fn undirty(&mut self, s: u32) {
        let pos = self.slots[s as usize].dirty_pos;
        if pos == NONE {
            return;
        }
        self.slots[s as usize].dirty_pos = NONE;
        self.dirty.swap_remove(pos as usize);
        if let Some(&moved) = self.dirty.get(pos as usize) {
            self.slots[moved as usize].dirty_pos = pos;
        }
    }

    /// Cost counters so far.
    pub(crate) fn counters(&self) -> Counters {
        self.counters
    }

    /// Counts one stepped round.
    pub(crate) fn count_round(&mut self) {
        self.counters.rounds += 1;
    }

    /// Counts `delivered` messages delivered this round.
    pub(crate) fn count_delivered(&mut self, delivered: usize) {
        self.counters.messages += delivered as u64;
    }

    /// Installs the per-kind payload classifier (resetting any tally).
    pub(crate) fn set_classifier(
        &mut self,
        labels: &'static [&'static str],
        classify: fn(&M) -> usize,
    ) {
        self.kinds = Some(KindTally {
            labels,
            classify,
            sent: vec![0; labels.len()],
        });
    }

    /// Tallies one sent payload against its kind (no-op when no
    /// classifier is installed).
    pub(crate) fn tally(&mut self, payload: &M) {
        if let Some(k) = &mut self.kinds {
            let i = (k.classify)(payload);
            if let Some(c) = k.sent.get_mut(i) {
                *c += 1;
            }
        }
    }

    /// The per-kind sent-message breakdown (empty without a classifier).
    pub(crate) fn kind_counts(&self) -> (&'static [&'static str], &[u64]) {
        match &self.kinds {
            Some(k) => (k.labels, &k.sent),
            None => (&[], &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn env(from: u64, to: u64, payload: u32) -> Envelope<u32> {
        Envelope {
            from: n(from),
            to: n(to),
            payload,
        }
    }

    #[test]
    fn membership_add_remove_recycles_slots() {
        let mut mb: Mailboxes<u32> = Mailboxes::new();
        for i in 0..10 {
            mb.add(n(i));
        }
        assert_eq!(mb.len(), 10);
        mb.add(n(3)); // idempotent
        assert_eq!(mb.len(), 10);
        mb.remove(n(3));
        assert!(!mb.contains(n(3)));
        assert_eq!(mb.len(), 9);
        let slots_before = mb.slots.len();
        mb.add(n(77)); // reuses the freed slot
        assert_eq!(mb.slots.len(), slots_before);
        assert!(mb.contains(n(77)));
    }

    #[test]
    fn spilled_ids_work_like_dense_ones() {
        let mut mb: Mailboxes<u32> = Mailboxes::new();
        let big = DENSE_ID_LIMIT + 5;
        mb.add(n(1));
        mb.add(n(big));
        assert!(mb.contains(n(big)));
        assert!(mb.deliver(env(1, big, 9), false));
        let mut out = Vec::new();
        mb.nodes_with_mail_into(&mut out);
        assert_eq!(out, vec![n(big)]);
        mb.remove(n(big));
        assert!(!mb.contains(n(big)));
        mb.drain_inbox_into(n(big), &mut Vec::new());
    }

    #[test]
    fn removed_inbox_is_discarded_not_resurrected() {
        let mut mb: Mailboxes<u32> = Mailboxes::new();
        mb.add(n(1));
        mb.add(n(2));
        assert!(mb.deliver(env(1, 2, 7), false));
        mb.remove(n(2));
        mb.add(n(2));
        let mut out = vec![env(0, 0, 99)];
        mb.drain_inbox_into(n(2), &mut out);
        assert!(out.is_empty(), "stale mail survived remove/add");
        let mut mail = Vec::new();
        mb.nodes_with_mail_into(&mut mail);
        assert!(mail.is_empty());
    }

    #[test]
    fn deliveries_to_dead_or_doomed_recipients_drop() {
        let mut mb: Mailboxes<u32> = Mailboxes::new();
        mb.add(n(1));
        assert!(!mb.deliver(env(1, 2, 5), false), "unregistered recipient");
        assert!(!mb.deliver(env(1, 1, 6), true), "doomed in flight");
        assert_eq!(mb.counters().dropped, 2);
        let mut lost = Vec::new();
        mb.drain_dropped_into(&mut lost);
        assert_eq!(lost.len(), 2);
        mb.drain_dropped_into(&mut lost);
        assert!(lost.is_empty());
    }

    #[test]
    fn dirty_list_tracks_mail_and_sorts_ascending() {
        let mut mb: Mailboxes<u32> = Mailboxes::new();
        for i in 0..6 {
            mb.add(n(i));
        }
        for &to in &[4u64, 1, 5, 1] {
            assert!(mb.deliver(env(0, to, to as u32), false));
        }
        let mut out = Vec::new();
        mb.nodes_with_mail_into(&mut out);
        assert_eq!(out, vec![n(1), n(4), n(5)]);
        let mut mail = Vec::new();
        mb.drain_inbox_into(n(4), &mut mail);
        assert_eq!(mail.len(), 1);
        mb.nodes_with_mail_into(&mut out);
        assert_eq!(out, vec![n(1), n(5)]);
        mb.drain_inbox_into(n(1), &mut mail);
        assert_eq!(mail.len(), 2, "both deliveries to 1 queued in order");
        assert_eq!(mail[0].payload, 1);
    }

    #[test]
    fn nodes_with_mail_never_scans_the_full_membership() {
        // The no-full-scan regression guard: 50k registered processors,
        // three with mail — the scan probe must count exactly the dirty
        // slots, not the membership.
        let mut mb: Mailboxes<u32> = Mailboxes::new();
        for i in 0..50_000 {
            mb.add(n(i));
        }
        for &to in &[17u64, 40_001, 9_999] {
            assert!(mb.deliver(env(0, to, 1), false));
        }
        let mut out = Vec::new();
        mb.scan_probe.set(0);
        mb.nodes_with_mail_into(&mut out);
        assert_eq!(out, vec![n(17), n(9_999), n(40_001)]);
        assert_eq!(
            mb.scan_probe.get(),
            3,
            "nodes_with_mail_into touched more slots than have mail"
        );
    }

    #[test]
    fn kind_tally_counts_sends_per_class() {
        let mut mb: Mailboxes<u32> = Mailboxes::new();
        mb.set_classifier(&["even", "odd"], |p| (*p % 2) as usize);
        for p in 0..7u32 {
            mb.tally(&p);
        }
        let (labels, counts) = mb.kind_counts();
        assert_eq!(labels, &["even", "odd"]);
        assert_eq!(counts, &[4, 3]);
        let fresh: Mailboxes<u32> = Mailboxes::new();
        assert_eq!(fresh.kind_counts(), (&[] as &[&str], &[] as &[u64]));
    }
}
