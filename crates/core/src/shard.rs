//! Store-generic repair logic and the copy-on-write component shard.
//!
//! The healing cases (Algorithms 3.2–3.6) are written once here, generic
//! over a [`PlanStore`] — the mutable planner state they read and write.
//! Two stores implement it:
//!
//! - [`crate::RepairPlanner`] itself (the *direct* store): zero-overhead
//!   pass-through used by single deletions and sequential batch healing;
//! - [`CompShard`]: a copy-on-write overlay over a frozen `&RepairPlanner`
//!   used by component-parallel batch healing. Every access to
//!   *pre-existing* state (colors allocated before the shard's own
//!   namespace, any node) is recorded in a footprint; shards whose
//!   footprints are disjoint from everything committed before them are
//!   guaranteed to have made exactly the decisions the sequential planner
//!   would have made, so their recorded actions commit verbatim. Overlapping
//!   shards are replayed against the committed state instead.
//!
//! Determinism across stores (and thread counts) comes from two batch-scoped
//! conventions, used identically by the sequential and parallel paths:
//!
//! - **Derived randomness**: one master draw per batch seeds a
//!   [`derive_seed`]-split RNG per detached cloud (phase 1) and per dead
//!   component (phase 2), so no repair consumes another repair's stream.
//! - **Color namespaces**: each component `i` allocates colors from a
//!   reserved window `[base_i, base_i + bound_i)` computed by prefix sums of
//!   a per-component upper bound, so fresh colors never depend on what other
//!   components allocated.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use xheal_expander::{EdgeDelta, MaintainedExpander};
use xheal_graph::{CloudColor, CloudKind, FxHashMap, NodeId};

use crate::cloud::{Cloud, NodeState};
use crate::config::XhealConfig;
use crate::plan::PlanAction;
use crate::planner::{match_representatives, RepairPlanner};

/// An empty free set, lent out for dead clouds.
pub(crate) static EMPTY_FREE: BTreeSet<NodeId> = BTreeSet::new();

/// Domain tag for phase-1 (per-cloud detach) RNG streams.
pub(crate) const SEED_DETACH: u64 = 0xD37A_C41B;
/// Domain tag for phase-2 (per-component healing) RNG streams.
pub(crate) const SEED_COMPONENT: u64 = 0xC0_3417;

/// Splits one master batch seed into independent per-task seeds
/// (splitmix64-style finalizer — tag and key are mixed in with distinct odd
/// multipliers so `(tag, key)` pairs never collide in practice).
pub(crate) fn derive_seed(batch_seed: u64, tag: u64, key: u64) -> u64 {
    let mut z = batch_seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ key.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The mutable planner state the healing cases run against.
///
/// Read methods take `&mut self` because the overlay store records every
/// access (including negative lookups) in its conflict footprint. Combined
/// operations ([`PlanStore::build_expander`], [`PlanStore::expander_insert`])
/// exist because the expander mutators need the store's RNG and a cloud
/// simultaneously — a borrow split a trait cannot express with accessors.
pub(crate) trait PlanStore {
    /// The configuration in force.
    fn config(&self) -> &XhealConfig;
    /// Is this cloud live?
    fn contains_cloud(&mut self, c: CloudColor) -> bool;
    /// Read access to a cloud.
    fn cloud_ref(&mut self, c: CloudColor) -> Option<&Cloud>;
    /// Write access to a cloud.
    fn cloud_mut(&mut self, c: CloudColor) -> Option<&mut Cloud>;
    /// Registers a new cloud under `c`.
    fn insert_cloud(&mut self, c: CloudColor, cloud: Cloud);
    /// Unregisters a cloud, returning it.
    fn remove_cloud(&mut self, c: CloudColor) -> Option<Cloud>;
    /// Read access to a node's membership state.
    fn node_ref(&mut self, v: NodeId) -> Option<&NodeState>;
    /// Write access to a node's membership state.
    fn node_mut(&mut self, v: NodeId) -> Option<&mut NodeState>;
    /// Records one more bridge of secondary `f` targeting primary `p` (I8).
    fn attach_inc(&mut self, p: CloudColor, f: CloudColor);
    /// Removes one bridge of secondary `f` targeting primary `p` (I8).
    fn attach_dec(&mut self, p: CloudColor, f: CloudColor);
    /// Collects the secondaries with a bridge into `p` (live or not).
    fn attached_secondaries_into(&mut self, p: CloudColor, out: &mut BTreeSet<CloudColor>);
    /// Collects the live secondaries whose bridges *all* target `p`: those
    /// whose reverse-index count under `p` equals their attachment count.
    fn wholly_attached_into(&mut self, p: CloudColor, out: &mut BTreeSet<CloudColor>);
    /// Allocates the next color of this store's namespace.
    fn fresh_color(&mut self) -> CloudColor;
    /// Builds a κ-regular expander over `members` with this store's RNG.
    fn build_expander(&mut self, members: &[NodeId])
        -> (MaintainedExpander, Vec<(NodeId, NodeId)>);
    /// Inserts `v` into the expander of live cloud `c` with this store's RNG.
    fn expander_insert(&mut self, c: CloudColor, v: NodeId) -> EdgeDelta;
    /// Declares upcoming [`PlanStore::free_set`] reads (footprint + overlay
    /// priming), so the matching step can hold several sets at once.
    fn prepare_free_reads(&mut self, colors: &[CloudColor]);
    /// The maintained free set of `c` (empty for dead clouds). Only valid
    /// for colors declared via [`PlanStore::prepare_free_reads`].
    fn free_set(&self, c: CloudColor) -> &BTreeSet<NodeId>;
    /// Records a plan action (and its edge-count contributions).
    fn emit(&mut self, action: PlanAction);
    /// Counts one sharing operation.
    fn note_share(&mut self);
    /// Counts one combine operation.
    fn note_combine(&mut self);
    /// Counts one secondary cloud built.
    fn note_secondary_built(&mut self);
}

// ---------------------------------------------------------------------------
// The healing cases, store-generic (ported verbatim from the planner; see
// planner.rs for the paper mapping).
// ---------------------------------------------------------------------------

/// The smallest free node of a cloud — O(log n) off the maintained set.
pub(crate) fn first_free_node_of<S: PlanStore>(store: &mut S, c: CloudColor) -> Option<NodeId> {
    store.prepare_free_reads(std::slice::from_ref(&c));
    store.free_set(c).first().copied()
}

/// Creates a primary cloud over `members` and registers memberships.
pub(crate) fn create_primary_cloud<S: PlanStore>(store: &mut S, members: &[NodeId]) -> CloudColor {
    let color = store.fresh_color();
    create_cloud_with_color(store, color, CloudKind::Primary, members);
    color
}

/// Creates a cloud under a pre-allocated color and registers memberships.
pub(crate) fn create_cloud_with_color<S: PlanStore>(
    store: &mut S,
    color: CloudColor,
    kind: CloudKind,
    members: &[NodeId],
) {
    let (expander, edges) = store.build_expander(members);
    let delta = EdgeDelta {
        added: edges,
        removed: Vec::new(),
    };
    store.insert_cloud(color, Cloud::new(kind, expander));
    store.emit(PlanAction::BuildCloud {
        color,
        kind,
        members: members.to_vec(),
        delta,
    });
    if kind == CloudKind::Primary {
        let mut free: Vec<NodeId> = Vec::with_capacity(members.len());
        for &m in members {
            let st = store.node_mut(m).expect("members are live");
            st.primaries.insert(color);
            if st.is_free() {
                free.push(m);
            }
        }
        store
            .cloud_mut(color)
            .expect("just created")
            .free_members_mut()
            .extend(free);
    }
}

/// Re-files `v` in the free-member sets of all of its primary clouds after
/// its secondary duty changed.
pub(crate) fn set_free_status<S: PlanStore>(store: &mut S, v: NodeId, free: bool) {
    let primaries: Vec<CloudColor> = match store.node_ref(v) {
        Some(st) => st.primaries.iter().copied().collect(),
        None => return,
    };
    for c in primaries {
        if let Some(cloud) = store.cloud_mut(c) {
            if free {
                cloud.free_members_mut().insert(v);
            } else {
                cloud.free_members_mut().remove(&v);
            }
        }
    }
}

/// Adds a live node to a primary cloud (the sharing operation).
pub(crate) fn insert_into_cloud<S: PlanStore>(store: &mut S, color: CloudColor, v: NodeId) {
    {
        let cloud = store.cloud_ref(color).expect("cloud alive");
        debug_assert_eq!(
            cloud.kind(),
            CloudKind::Primary,
            "sharing targets primaries"
        );
        if cloud.expander().contains(v) {
            return;
        }
    }
    let delta = store.expander_insert(color, v);
    store.emit(PlanAction::ExtendCloud {
        color,
        node: v,
        shared: true,
        delta,
    });
    let is_free = {
        let st = store.node_mut(v).expect("live node");
        st.primaries.insert(color);
        st.is_free()
    };
    if is_free {
        store
            .cloud_mut(color)
            .expect("cloud alive")
            .free_members_mut()
            .insert(v);
    }
}

/// Inserts `z` into secondary `f` as the bridge for primary `ci`.
pub(crate) fn insert_bridge<S: PlanStore>(store: &mut S, f: CloudColor, z: NodeId, ci: CloudColor) {
    let delta = store.expander_insert(f, z);
    store.emit(PlanAction::ExtendCloud {
        color: f,
        node: z,
        shared: false,
        delta,
    });
    let replaced = store
        .cloud_mut(f)
        .expect("secondary alive")
        .attachments_mut()
        .insert(z, ci);
    debug_assert!(replaced.is_none(), "bridge {z} already attached in {f}");
    store.attach_inc(ci, f);
    store.node_mut(z).expect("live node").secondary = Some(f);
    set_free_status(store, z, false);
}

/// Deletes a cloud entirely: strips its edges and clears memberships.
pub(crate) fn delete_cloud<S: PlanStore>(store: &mut S, color: CloudColor) {
    let Some(cloud) = store.remove_cloud(color) else {
        return;
    };
    if cloud.kind() == CloudKind::Secondary {
        for &p in cloud.attachments().values() {
            store.attach_dec(p, color);
        }
    }
    store.emit(PlanAction::DissolveCloud {
        color,
        delta: EdgeDelta {
            added: Vec::new(),
            removed: cloud.expander().edges(),
        },
    });
    for &m in cloud.members() {
        let mut freed = false;
        if let Some(st) = store.node_mut(m) {
            match cloud.kind() {
                CloudKind::Primary => {
                    st.primaries.remove(&color);
                }
                CloudKind::Secondary => {
                    if st.secondary == Some(color) {
                        st.secondary = None;
                        freed = true;
                    }
                }
            }
        }
        if freed {
            set_free_status(store, m, true);
        }
    }
}

/// FixSecondary (Algorithm 3.5): replace the deleted bridge of `ci` in `f`
/// with a fresh free node, borrowing or combining as needed. Returns the
/// cloud that anchors the `F`-side component (for the connectivity fix), or
/// `None` if that side dissolved entirely.
pub(crate) fn fix_secondary<S: PlanStore>(
    store: &mut S,
    f: CloudColor,
    ci_alive: Option<CloudColor>,
) -> Option<CloudColor> {
    let f_primaries: BTreeSet<CloudColor> = {
        let cloud = store.cloud_ref(f).expect("caller checked f alive");
        let mut p: BTreeSet<CloudColor> = cloud.attachments().values().copied().collect();
        if let Some(ci) = ci_alive {
            p.insert(ci);
        }
        p
    };

    if let Some(ci) = ci_alive {
        // Prefer a free node of ci itself.
        let mut pick: Option<(NodeId, bool)> = first_free_node_of(store, ci).map(|z| (z, false));
        if pick.is_none() && !store.config().disable_sharing {
            // Borrow from the other primaries of F (PickFreeNode's "ask
            // neighbor clouds").
            for &c in f_primaries.iter().filter(|&&c| c != ci) {
                if let Some(z) = first_free_node_of(store, c) {
                    pick = Some((z, true));
                    break;
                }
            }
        }
        match pick {
            Some((z, shared)) => {
                if shared {
                    // Sharing adds z to ci itself.
                    insert_into_cloud(store, ci, z);
                    store.note_share();
                }
                insert_bridge(store, f, z, ci);
            }
            None => {
                // No free node anywhere among F's primaries: combine them
                // all into one primary cloud (F dissolves inside).
                return combine(store, &f_primaries);
            }
        }
    }

    // Vacuous secondary check: a secondary with <= 1 member connects
    // nothing; dissolve it and report the survivor's primary as anchor.
    let len = store.cloud_ref(f).map(Cloud::len).unwrap_or(0);
    if len <= 1 {
        let survivor_primary = store
            .cloud_ref(f)
            .and_then(|cl| cl.attachments().values().next().copied());
        delete_cloud(store, f);
        return match survivor_primary {
            Some(c) if store.contains_cloud(c) => Some(c),
            _ => None,
        };
    }
    if let Some(c) = ci_alive {
        return Some(c);
    }
    let cand = store
        .cloud_ref(f)
        .and_then(|cl| cl.attachments().values().next().copied());
    match cand {
        Some(c) if store.contains_cloud(c) => Some(c),
        _ => None,
    }
}

/// MakeSecondary (Algorithm 3.4): connect one free node per cloud of `group`
/// into a fresh secondary cloud; combine if there are fewer free nodes than
/// clouds.
pub(crate) fn make_secondary_among<S: PlanStore>(
    store: &mut S,
    group: &[CloudColor],
) -> Option<CloudColor> {
    // Deduplicate and keep only live, non-empty clouds.
    let group: Vec<CloudColor> = {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(group.len());
        for &c in group {
            if store.cloud_ref(c).is_some_and(|cl| !cl.is_empty()) && seen.insert(c) {
                out.push(c);
            }
        }
        out
    };
    if group.len() <= 1 {
        return None;
    }
    if store.config().disable_secondary {
        combine(store, &group.iter().copied().collect());
        return None;
    }

    // Distinct representatives: maximum bipartite matching preferring each
    // cloud's own members (over the incrementally maintained free sets — no
    // membership scans), then sharing for any cloud left over.
    store.prepare_free_reads(&group);
    let mut reps = {
        let adjacency: Vec<&BTreeSet<NodeId>> = group.iter().map(|&c| store.free_set(c)).collect();
        match_representatives(&adjacency)
    };
    let deficit = reps.iter().any(Option::is_none);
    let mut union_free: Vec<NodeId> = Vec::new();
    if deficit {
        // Materialize the free-node union (ascending) only when some cloud
        // went unmatched — the slow path.
        let u: BTreeSet<NodeId> = group
            .iter()
            .flat_map(|&c| store.free_set(c).iter().copied())
            .collect();
        if u.len() < group.len() || store.config().disable_sharing {
            // Fewer free nodes than clouds (or sharing disabled): combine.
            combine(store, &group.iter().copied().collect());
            return None;
        }
        union_free = u.into_iter().collect();
    }
    let mut used: BTreeSet<NodeId> = reps.iter().flatten().copied().collect();
    for (i, rep) in reps.iter_mut().enumerate() {
        if rep.is_none() {
            let z = union_free
                .iter()
                .copied()
                .find(|z| !used.contains(z))
                .expect("union_free.len() >= group.len() guarantees a spare");
            used.insert(z);
            // Sharing: the borrowed node joins the deficient cloud.
            insert_into_cloud(store, group[i], z);
            store.note_share();
            *rep = Some(z);
        }
    }

    let members: Vec<NodeId> = reps.iter().map(|r| r.expect("filled")).collect();
    let f = store.fresh_color();
    create_cloud_with_color(store, f, CloudKind::Secondary, &members);
    for (i, &rep) in members.iter().enumerate() {
        store
            .cloud_mut(f)
            .expect("just created")
            .attachments_mut()
            .insert(rep, group[i]);
        store.attach_inc(group[i], f);
        store.node_mut(rep).expect("members are live").secondary = Some(f);
        set_free_status(store, rep, false);
    }
    store.note_secondary_built();
    Some(f)
}

/// Combines a set of primary clouds into one primary cloud (the paper's
/// expensive amortized operation).
///
/// Two regimes, gated purely on live member counts (deterministic, so every
/// store picks the same one):
///
/// - **Splice** (`|members outside the largest cloud| <= |largest cloud|`):
///   keep the largest input cloud, dissolve the others, and absorb their
///   surviving members one expander-insert at a time. The work is
///   proportional to the dissolved inputs, the absorbed members and the
///   secondaries that change — never to the size of the kept cloud.
/// - **Rebuild** (absorptions that would dominate the target): dissolve
///   everything and build a fresh cloud over the union.
///
/// Either way, secondary clouds all of whose attached primaries lie inside
/// the set are dissolved (their bridges become free again); secondaries that
/// also connect outside clouds have their attachments re-pointed at the
/// surviving cloud.
pub(crate) fn combine<S: PlanStore>(
    store: &mut S,
    colors: &BTreeSet<CloudColor>,
) -> Option<CloudColor> {
    store.note_combine();
    let mut live: Vec<(CloudColor, usize)> = Vec::new();
    for &c in colors {
        if let Some(cl) = store.cloud_ref(c) {
            debug_assert_eq!(cl.kind(), CloudKind::Primary, "combine targets primaries");
            live.push((c, cl.len()));
        }
    }

    // Splice target: the largest live input cloud (ties → smallest color).
    let &(target, target_len) = live
        .iter()
        .max_by_key(|&&(c, len)| (len, std::cmp::Reverse(c)))?;
    if target_len == 0 {
        return None;
    }
    // The members the target lacks, ascending: only the other inputs hold
    // them, so the target's own membership is never walked.
    let mut absorb: Vec<NodeId> = Vec::new();
    for &(c, _) in &live {
        if c != target {
            let cloud = store.cloud_ref(c).expect("listed live");
            absorb.extend(cloud.members().iter().copied());
        }
    }
    absorb.sort_unstable();
    absorb.dedup();
    {
        let kept = store.cloud_ref(target).expect("target is live").expander();
        absorb.retain(|&m| !kept.contains(m));
    }

    if absorb.len() <= target_len {
        // Splice: dissolve only the smaller inputs, keep the target.
        for &(c, _) in &live {
            if c != target {
                delete_cloud(store, c);
            }
        }
        repoint_secondaries(store, colors, target);
        for &m in &absorb {
            insert_into_cloud(store, target, m);
        }
        return Some(target);
    }

    // Rebuild: delete the old primary clouds and build the union fresh.
    let mut members: Vec<NodeId> = {
        let kept = store.cloud_ref(target).expect("target is live");
        kept.members().to_vec()
    };
    members.extend(absorb);
    members.sort_unstable();
    for &(c, _) in &live {
        delete_cloud(store, c);
    }
    let new_color = store.fresh_color();
    repoint_secondaries(store, colors, new_color);
    create_cloud_with_color(store, new_color, CloudKind::Primary, &members);
    Some(new_color)
}

/// Handles secondaries referencing combined primaries (found via the reverse
/// attachment index — no registry scan): dissolve the redundant ones, re-point
/// the rest at `new_color`.
///
/// When `new_color` is itself an input (the splice keeps it), a secondary
/// attached to it and to no other input changes only if all its bridges
/// target it, so only those are visited.
fn repoint_secondaries<S: PlanStore>(
    store: &mut S,
    colors: &BTreeSet<CloudColor>,
    new_color: CloudColor,
) {
    let mut referencing: BTreeSet<CloudColor> = BTreeSet::new();
    for &c in colors {
        if c == new_color {
            store.wholly_attached_into(c, &mut referencing);
        } else {
            store.attached_secondaries_into(c, &mut referencing);
        }
    }
    for fc in referencing {
        let all_inside = match store.cloud_ref(fc) {
            Some(cl) => cl.attachments().values().all(|p| colors.contains(p)),
            None => continue,
        };
        if all_inside {
            // Redundant: the combined cloud connects these directly.
            delete_cloud(store, fc);
        } else {
            let mut old_targets: Vec<CloudColor> = Vec::new();
            {
                let cloud = store.cloud_mut(fc).expect("checked live above");
                for target in cloud.attachments_mut().values_mut() {
                    if colors.contains(target) && *target != new_color {
                        old_targets.push(*target);
                        *target = new_color;
                    }
                }
            }
            for p in old_targets {
                store.attach_dec(p, fc);
                store.attach_inc(new_color, fc);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-component batch healing input + the full component case ladder.
// ---------------------------------------------------------------------------

/// Everything one dead component's healing depends on, captured by the batch
/// planner before phase 2 starts (pure data — safe to share across threads).
#[derive(Clone, Debug)]
pub(crate) struct ComponentInput {
    /// Union of the victims' primary-cloud colors.
    pub primaries: BTreeSet<CloudColor>,
    /// Union of the victims' live black boundaries.
    pub boundary: BTreeSet<NodeId>,
    /// The `(secondary, bridged primary)` pairs of bridges this component's
    /// victims held, in ascending victim order.
    pub bridges: Vec<(CloudColor, Option<CloudColor>)>,
}

impl ComponentInput {
    /// Upper bound on the fresh colors this component's healing can
    /// allocate: one singleton per boundary node, at most one combine per
    /// lost bridge, plus one secondary and one final combine.
    pub fn color_bound(&self) -> u64 {
        (self.boundary.len() + self.bridges.len() + 2) as u64
    }
}

/// Runs the phase-2 healing cases for one dead component (the Case 2.2
/// bridge fixes, boundary singletons, and the closing MakeSecondary).
pub(crate) fn heal_component<S: PlanStore>(store: &mut S, input: &ComponentInput) {
    let alive: Vec<CloudColor> = {
        let mut out = Vec::with_capacity(input.primaries.len());
        for &c in &input.primaries {
            if store.contains_cloud(c) {
                out.push(c);
            }
        }
        out
    };

    // Replace each lost bridge of this component (Case 2.2 fixes),
    // collecting anchors that must join the new secondary group.
    let mut anchors: Vec<CloudColor> = Vec::new();
    for &(f, ci) in &input.bridges {
        let ci_alive = match ci {
            Some(c) if store.contains_cloud(c) => Some(c),
            _ => None,
        };
        if store.contains_cloud(f) {
            if let Some(anchor) = fix_secondary(store, f, ci_alive) {
                anchors.push(anchor);
            }
        } else if let Some(a) = ci_alive {
            anchors.push(a);
        }
    }

    // Boundary nodes become singleton primary clouds; connect everything
    // with one secondary cloud (or combine).
    let mut group: Vec<CloudColor> = alive;
    for &w in &input.boundary {
        group.push(create_primary_cloud(store, &[w]));
    }
    group.extend(anchors);
    make_secondary_among(store, &group);
}

// ---------------------------------------------------------------------------
// CompShard: the copy-on-write overlay store for speculative healing.
// ---------------------------------------------------------------------------

/// A component shard: heals one dead component against a frozen planner
/// snapshot, recording (a) every touched piece of pre-existing state in a
/// conflict footprint and (b) every state change in overlay maps that commit
/// back in one pass.
pub(crate) struct CompShard<'a> {
    base: &'a RepairPlanner,
    /// Cloud overlay: `Some(cloud)` = live (possibly modified), `None` =
    /// deleted. Absent keys fall through to `base`.
    clouds: FxHashMap<CloudColor, Option<Cloud>>,
    nodes: FxHashMap<NodeId, NodeState>,
    /// Attachment-index overlay; empty inner maps mean "no attachments"
    /// (the commit pass erases them).
    attached: FxHashMap<CloudColor, BTreeMap<CloudColor, u32>>,
    /// Pre-existing colors this shard read or wrote (colors below
    /// `color_base`; the shard's own fresh colors are private by
    /// construction).
    touched_colors: BTreeSet<CloudColor>,
    /// Nodes this shard read or wrote (including negative lookups).
    touched_nodes: BTreeSet<NodeId>,
    rng: StdRng,
    next_color: u64,
    color_base: u64,
    color_limit: u64,
    actions: Vec<PlanAction>,
    op_added: usize,
    op_removed: usize,
    op_shares: usize,
    op_combines: usize,
    secondaries_built: usize,
}

impl<'a> CompShard<'a> {
    /// A shard over `base` drawing randomness from `seed` and colors from
    /// `[color_base, color_base + color_bound)`.
    pub fn new(base: &'a RepairPlanner, seed: u64, color_base: u64, color_bound: u64) -> Self {
        CompShard {
            base,
            clouds: FxHashMap::default(),
            nodes: FxHashMap::default(),
            attached: FxHashMap::default(),
            touched_colors: BTreeSet::new(),
            touched_nodes: BTreeSet::new(),
            rng: StdRng::seed_from_u64(seed),
            next_color: color_base,
            color_base,
            color_limit: color_base + color_bound,
            actions: Vec::new(),
            op_added: 0,
            op_removed: 0,
            op_shares: 0,
            op_combines: 0,
            secondaries_built: 0,
        }
    }

    fn touch_color(&mut self, c: CloudColor) {
        // Colors at or above this shard's own base are either the shard's
        // private allocations or unreachable (other shards' windows never
        // leak into a snapshot read); only pre-existing state conflicts.
        if c.as_u64() < self.color_base {
            self.touched_colors.insert(c);
        }
    }

    fn touch_node(&mut self, v: NodeId) {
        self.touched_nodes.insert(v);
    }

    /// Materializes the overlay entry for `c` (copy-on-write).
    fn cloud_entry(&mut self, c: CloudColor) -> &mut Option<Cloud> {
        if !self.clouds.contains_key(&c) {
            self.clouds.insert(c, self.base.cloud(c).cloned());
        }
        self.clouds.get_mut(&c).expect("just inserted")
    }

    /// Consumes the shard into its committable outcome.
    pub fn into_outcome(self) -> CompOutcome {
        debug_assert!(
            self.next_color <= self.color_limit,
            "component overran its color namespace"
        );
        CompOutcome {
            clouds: self.clouds,
            nodes: self.nodes,
            attached: self.attached,
            touched_colors: self.touched_colors,
            touched_nodes: self.touched_nodes,
            actions: self.actions,
            op_added: self.op_added,
            op_removed: self.op_removed,
            op_shares: self.op_shares,
            op_combines: self.op_combines,
            secondaries_built: self.secondaries_built,
        }
    }
}

impl PlanStore for CompShard<'_> {
    fn config(&self) -> &XhealConfig {
        self.base.config()
    }

    fn contains_cloud(&mut self, c: CloudColor) -> bool {
        self.touch_color(c);
        match self.clouds.get(&c) {
            Some(entry) => entry.is_some(),
            None => self.base.cloud(c).is_some(),
        }
    }

    fn cloud_ref(&mut self, c: CloudColor) -> Option<&Cloud> {
        self.touch_color(c);
        if self.clouds.contains_key(&c) {
            return self.clouds.get(&c).expect("just checked").as_ref();
        }
        self.base.cloud(c)
    }

    fn cloud_mut(&mut self, c: CloudColor) -> Option<&mut Cloud> {
        self.touch_color(c);
        self.cloud_entry(c).as_mut()
    }

    fn insert_cloud(&mut self, c: CloudColor, cloud: Cloud) {
        self.touch_color(c);
        debug_assert!(
            !matches!(self.clouds.get(&c), Some(Some(_))),
            "color {c} registered twice"
        );
        self.clouds.insert(c, Some(cloud));
    }

    fn remove_cloud(&mut self, c: CloudColor) -> Option<Cloud> {
        self.touch_color(c);
        self.cloud_entry(c).take()
    }

    fn node_ref(&mut self, v: NodeId) -> Option<&NodeState> {
        self.touch_node(v);
        if self.nodes.contains_key(&v) {
            return self.nodes.get(&v);
        }
        self.base.node_state(v)
    }

    fn node_mut(&mut self, v: NodeId) -> Option<&mut NodeState> {
        self.touch_node(v);
        if !self.nodes.contains_key(&v) {
            match self.base.node_state(v) {
                Some(st) => {
                    self.nodes.insert(v, st.clone());
                }
                None => return None,
            }
        }
        self.nodes.get_mut(&v)
    }

    fn attach_inc(&mut self, p: CloudColor, f: CloudColor) {
        *self.attach_map(p).entry(f).or_insert(0) += 1;
    }

    fn attach_dec(&mut self, p: CloudColor, f: CloudColor) {
        let m = self.attach_map(p);
        match m.get_mut(&f) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                m.remove(&f);
            }
            None => debug_assert!(false, "attachment index missing ({p},{f})"),
        }
    }

    fn attached_secondaries_into(&mut self, p: CloudColor, out: &mut BTreeSet<CloudColor>) {
        self.touch_color(p);
        if let Some(m) = self.attached_view(p) {
            out.extend(m.keys().copied());
        }
    }

    fn wholly_attached_into(&mut self, p: CloudColor, out: &mut BTreeSet<CloudColor>) {
        self.touch_color(p);
        let counts: Vec<(CloudColor, u32)> = self
            .attached_view(p)
            .map(|m| m.iter().map(|(&f, &n)| (f, n)).collect())
            .unwrap_or_default();
        // Read each secondary through `cloud_ref`, so the footprint records
        // it exactly as a full visit would.
        for (f, n) in counts {
            if self
                .cloud_ref(f)
                .is_some_and(|cl| cl.attachments().len() == n as usize)
            {
                out.insert(f);
            }
        }
    }

    fn fresh_color(&mut self) -> CloudColor {
        assert!(
            self.next_color < self.color_limit,
            "component color namespace exhausted (base {}, limit {})",
            self.color_base,
            self.color_limit
        );
        let c = CloudColor::new(self.next_color);
        self.next_color += 1;
        c
    }

    fn build_expander(
        &mut self,
        members: &[NodeId],
    ) -> (MaintainedExpander, Vec<(NodeId, NodeId)>) {
        MaintainedExpander::new(members, self.base.kappa(), &mut self.rng)
    }

    fn expander_insert(&mut self, c: CloudColor, v: NodeId) -> EdgeDelta {
        self.touch_color(c);
        if !self.clouds.contains_key(&c) {
            self.clouds.insert(c, self.base.cloud(c).cloned());
        }
        let cloud = self
            .clouds
            .get_mut(&c)
            .expect("just inserted")
            .as_mut()
            .expect("cloud alive");
        cloud.expander_mut().insert(v, &mut self.rng)
    }

    fn prepare_free_reads(&mut self, colors: &[CloudColor]) {
        for &c in colors {
            self.touch_color(c);
        }
    }

    fn free_set(&self, c: CloudColor) -> &BTreeSet<NodeId> {
        match self.clouds.get(&c) {
            Some(Some(cloud)) => cloud.free_members(),
            Some(None) => &EMPTY_FREE,
            None => self
                .base
                .cloud(c)
                .map(Cloud::free_members)
                .unwrap_or(&EMPTY_FREE),
        }
    }

    fn emit(&mut self, action: PlanAction) {
        let delta = action.delta();
        self.op_added += delta.added.len();
        self.op_removed += delta.removed.len();
        self.actions.push(action);
    }

    fn note_share(&mut self) {
        self.op_shares += 1;
    }

    fn note_combine(&mut self) {
        self.op_combines += 1;
    }

    fn note_secondary_built(&mut self) {
        self.secondaries_built += 1;
    }
}

impl CompShard<'_> {
    /// The reverse-index entry of `p`: the overlay's copy once written,
    /// otherwise the base planner's.
    fn attached_view(&self, p: CloudColor) -> Option<&BTreeMap<CloudColor, u32>> {
        match self.attached.get(&p) {
            Some(m) => Some(m),
            None => self.base.base_attached(p),
        }
    }

    fn attach_map(&mut self, p: CloudColor) -> &mut BTreeMap<CloudColor, u32> {
        self.touch_color(p);
        if !self.attached.contains_key(&p) {
            let m = self.base.base_attached(p).cloned().unwrap_or_default();
            self.attached.insert(p, m);
        }
        self.attached.get_mut(&p).expect("just inserted")
    }
}

/// The committable result of one component's speculative healing.
pub(crate) struct CompOutcome {
    /// Cloud overlay (`None` = deleted).
    pub clouds: FxHashMap<CloudColor, Option<Cloud>>,
    /// Node-state overlay.
    pub nodes: FxHashMap<NodeId, NodeState>,
    /// Attachment-index overlay (empty inner map = no attachments).
    pub attached: FxHashMap<CloudColor, BTreeMap<CloudColor, u32>>,
    /// Pre-existing colors touched (reads and writes, incl. negative reads).
    pub touched_colors: BTreeSet<CloudColor>,
    /// Nodes touched (reads and writes, incl. negative reads).
    pub touched_nodes: BTreeSet<NodeId>,
    /// The component's plan actions, in decision order.
    pub actions: Vec<PlanAction>,
    pub op_added: usize,
    pub op_removed: usize,
    pub op_shares: usize,
    pub op_combines: usize,
    pub secondaries_built: usize,
}

impl CompOutcome {
    /// Does this speculative outcome depend on (or write) any state a
    /// previously committed component touched? If not, its decisions are
    /// exactly what a sequential replay would decide, so it commits verbatim.
    pub fn conflicts_with(
        &self,
        committed_colors: &BTreeSet<CloudColor>,
        committed_nodes: &BTreeSet<NodeId>,
    ) -> bool {
        // Iterate the smaller set of each pair.
        let color_hit = if self.touched_colors.len() <= committed_colors.len() {
            self.touched_colors
                .iter()
                .any(|c| committed_colors.contains(c))
        } else {
            committed_colors
                .iter()
                .any(|c| self.touched_colors.contains(c))
        };
        if color_hit {
            return true;
        }
        if self.touched_nodes.len() <= committed_nodes.len() {
            self.touched_nodes
                .iter()
                .any(|v| committed_nodes.contains(v))
        } else {
            committed_nodes
                .iter()
                .any(|v| self.touched_nodes.contains(v))
        }
    }
}
