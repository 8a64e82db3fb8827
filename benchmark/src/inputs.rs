//! The benchmark's own inputs: a seeded generator, the two topologies, and
//! the four event tapes.
//!
//! Nothing here calls a generator or a random source of the repository, so
//! a library change cannot change a workload: the only library type built
//! is the [`Graph`] handed to the program under test, and every input is
//! folded into a fingerprint that the run prints and checks.

use std::borrow::Cow;

use xheal_core::Event;
use xheal_graph::{Graph, NodeId};

/// SplitMix64: a small, fast, well-mixed generator that the benchmark owns.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of the run's seed, so the streams
    /// of a run are independent of each other and of their draw order.
    pub fn stream(seed: u64, name: &str) -> Rng {
        let mut h = Fold::new(seed);
        for b in name.bytes() {
            h.push(u64::from(b));
        }
        Rng(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-sensitive 64-bit fold: the input fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct Fold(u64);

impl Fold {
    pub fn new(seed: u64) -> Fold {
        Fold(mix(seed ^ 0x5851_F42D_4C95_7F2D))
    }

    pub fn push(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// An undirected simple topology on nodes `0..n`, as the benchmark built it.
#[derive(Clone, Debug)]
pub struct Topology {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
}

impl Topology {
    /// The library graph handed to the program under test.
    pub fn graph(&self) -> Graph {
        let mut g = Graph::with_node_capacity(self.n);
        for v in 0..self.n {
            g.add_node(node(v)).expect("fresh id");
        }
        for &(a, b) in &self.edges {
            g.add_black_edge(node(a as usize), node(b as usize))
                .expect("endpoints are live");
        }
        g
    }

    /// Adjacency arrays `(offsets, targets)` for the benchmark's own walks.
    pub fn adjacency(&self) -> (Vec<u32>, Vec<u32>) {
        let mut deg = vec![0u32; self.n + 1];
        for &(a, b) in &self.edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut offsets = vec![0u32; self.n + 1];
        for v in 0..self.n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; 2 * self.edges.len()];
        for &(a, b) in &self.edges {
            targets[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            targets[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        (offsets, targets)
    }

    fn fold_into(&self, f: &mut Fold) {
        f.push(self.n as u64);
        for &(a, b) in &self.edges {
            f.push((u64::from(a) << 32) | u64::from(b));
        }
    }
}

pub fn node(i: usize) -> NodeId {
    NodeId::new(i as u64)
}

/// A random simple `d`-regular graph: the pairing model, then random
/// two-swaps until no pair is a self-loop or a repeated edge.
pub fn random_regular(n: usize, d: usize, rng: &mut Rng) -> Topology {
    assert!(
        d < n && (n * d) % 2 == 0,
        "no simple {d}-regular graph on {n} nodes"
    );
    let mut stubs: Vec<u32> = (0..n * d).map(|i| (i / d) as u32).collect();
    for i in (1..stubs.len()).rev() {
        stubs.swap(i, rng.below(i + 1));
    }
    let mut pairs: Vec<(u32, u32)> = stubs.chunks_exact(2).map(|c| (c[0], c[1])).collect();
    drop(stubs);

    // Neighbours of each node through the pairs accepted so far.
    let mut adj = vec![0u32; n * d];
    let mut len = vec![0u8; n];
    let has = |adj: &[u32], len: &[u8], a: u32, b: u32| {
        let a = a as usize;
        adj[a * d..a * d + len[a] as usize].contains(&b)
    };
    let link = |adj: &mut [u32], len: &mut [u8], a: u32, b: u32| {
        for (x, y) in [(a, b), (b, a)] {
            let x = x as usize;
            adj[x * d + len[x] as usize] = y;
            len[x] += 1;
        }
    };
    let unlink = |adj: &mut [u32], len: &mut [u8], a: u32, b: u32| {
        for (x, y) in [(a, b), (b, a)] {
            let x = x as usize;
            let row = &mut adj[x * d..x * d + len[x] as usize];
            let at = row.iter().position(|&z| z == y).expect("pair is linked");
            row.swap(at, row.len() - 1);
            len[x] -= 1;
        }
    };

    let mut bad = Vec::new();
    let mut is_bad = vec![false; pairs.len()];
    for (i, &(a, b)) in pairs.iter().enumerate() {
        if a == b || has(&adj, &len, a, b) {
            bad.push(i);
            is_bad[i] = true;
        } else {
            link(&mut adj, &mut len, a, b);
        }
    }
    let mut budget = 1_000 * (bad.len() + 1) * d;
    while let Some(&i) = bad.last() {
        budget = budget.checked_sub(1).expect("pair repair converges");
        let j = rng.below(pairs.len());
        if is_bad[j] {
            continue;
        }
        let ((a, b), (c, e)) = (pairs[i], pairs[j]);
        // Replace {a,b} and {c,e} by {a,e} and {c,b}.
        if a == e || c == b || has(&adj, &len, a, e) || has(&adj, &len, c, b) {
            continue;
        }
        unlink(&mut adj, &mut len, c, e);
        link(&mut adj, &mut len, a, e);
        link(&mut adj, &mut len, c, b);
        pairs[i] = (a, e);
        pairs[j] = (c, b);
        is_bad[i] = false;
        bad.pop();
    }
    Topology { n, edges: pairs }
}

/// A ring `0 — 1 — … — (n-1) — 0` plus, for every node `i` and every power
/// of two `2^k < n/2` (`k ≥ 1`), one chord to `i + 2^k + r` with `r` drawn
/// from `[0, 2^(k-1))`: a chord overlay with randomised fingers on which
/// greedy ring-distance routing still takes O(log n) hops.
pub fn ring_with_chords(n: usize, rng: &mut Rng) -> Topology {
    assert!(n >= 8, "ring too small for chords");
    let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, ((i + 1) % n) as u32)).collect();
    let mut span = 2usize;
    while span < n.div_ceil(2) {
        for i in 0..n {
            let j = (i + span + rng.below(span / 2)) % n;
            edges.push((i as u32, j as u32));
        }
        span *= 2;
    }
    // Random fingers can coincide; keep the first copy of each edge.
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    edges.retain(|&(a, b)| seen.insert((a.min(b), a.max(b))));
    Topology { n, edges }
}

/// The live node ids of a tape being generated (ids are dense: `0..n`,
/// then inserted ids in order), with O(1) uniform draws and removals.
struct LiveSet {
    ids: Vec<u64>,
    /// Position of each id in `ids`, `usize::MAX` once deleted.
    pos: Vec<usize>,
}

impl LiveSet {
    fn new(n: usize) -> LiveSet {
        LiveSet {
            ids: (0..n as u64).collect(),
            pos: (0..n).collect(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn contains(&self, v: u64) -> bool {
        self.pos.get(v as usize).is_some_and(|&p| p != usize::MAX)
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        self.ids[rng.below(self.ids.len())]
    }

    fn insert(&mut self, v: u64) {
        assert_eq!(v as usize, self.pos.len(), "inserted ids are dense");
        self.pos.push(self.ids.len());
        self.ids.push(v);
    }

    fn remove(&mut self, v: u64) {
        let at = std::mem::replace(&mut self.pos[v as usize], usize::MAX);
        assert_ne!(at, usize::MAX, "removed node is live");
        self.ids.swap_remove(at);
        if let Some(&moved) = self.ids.get(at) {
            self.pos[moved as usize] = at;
        }
    }

    /// Draws `k` distinct live nodes and removes them.
    fn take_distinct(&mut self, k: usize, rng: &mut Rng) -> Vec<NodeId> {
        (0..k)
            .map(|_| {
                let v = self.pick(rng);
                self.remove(v);
                NodeId::new(v)
            })
            .collect()
    }
}

/// Draws up to three distinct live contacts for an inserted node.
fn contacts(live: &LiveSet, rng: &mut Rng) -> Vec<NodeId> {
    let wanted = 1 + rng.below(3.min(live.len()));
    let mut out: Vec<NodeId> = Vec::with_capacity(wanted);
    while out.len() < wanted {
        let v = NodeId::new(live.pick(rng));
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// `churn`: half inserts wiring one to three black edges to live nodes,
/// half single deletions of a uniformly chosen live node.
pub fn churn_tape(n: usize, events: usize, rng: &mut Rng) -> Vec<Event> {
    let mut live = LiveSet::new(n);
    let mut next = n as u64;
    (0..events)
        .map(|_| {
            if live.len() < 8 || rng.unit() < 0.5 {
                let neighbors = contacts(&live, rng);
                live.insert(next);
                next += 1;
                Event::Insert {
                    node: NodeId::new(next - 1),
                    neighbors,
                }
            } else {
                let v = live.pick(rng);
                live.remove(v);
                Event::Delete {
                    node: NodeId::new(v),
                }
            }
        })
        .collect()
}

/// `rack-outage`: `batches` simultaneous deletions of `size` victims,
/// alternating a rack (the `size` live nodes nearest a random live centre in
/// the original topology) with `size` scattered live nodes.
pub fn rack_tape(top: &Topology, batches: usize, size: usize, rng: &mut Rng) -> Vec<Event> {
    let (offsets, targets) = top.adjacency();
    let mut live = LiveSet::new(top.n);
    let mut stamp = vec![0u32; top.n];
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    (0..batches)
        .map(|b| {
            let nodes = if b % 2 == 0 {
                // Breadth-first from the centre through dead and live nodes
                // alike: a rack is a physical neighbourhood.
                let centre = live.pick(rng) as u32;
                let epoch = b as u32 / 2 + 1;
                let mut rack = Vec::with_capacity(size);
                queue.clear();
                queue.push_back(centre);
                stamp[centre as usize] = epoch;
                while let Some(v) = queue.pop_front() {
                    if live.contains(u64::from(v)) {
                        live.remove(u64::from(v));
                        rack.push(NodeId::new(u64::from(v)));
                        if rack.len() == size {
                            break;
                        }
                    }
                    for &u in
                        &targets[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
                    {
                        if stamp[u as usize] != epoch {
                            stamp[u as usize] = epoch;
                            queue.push_back(u);
                        }
                    }
                }
                rack
            } else {
                live.take_distinct(size, rng)
            };
            Event::DeleteBatch { nodes }
        })
        .collect()
}

/// `monitored-dist`: the population-stable monitor mix — inserts (6 in 12),
/// single deletions (5 in 12) and two-to-three-victim batches (1 in 12).
pub fn monitored_tape(n: usize, events: usize, rng: &mut Rng) -> Vec<Event> {
    let mut live = LiveSet::new(n);
    let mut next = n as u64;
    (0..events)
        .map(|_| {
            let roll = rng.below(12);
            if live.len() < 16 || roll < 6 {
                let neighbors = contacts(&live, rng);
                live.insert(next);
                next += 1;
                Event::Insert {
                    node: NodeId::new(next - 1),
                    neighbors,
                }
            } else if roll < 11 {
                let v = live.pick(rng);
                live.remove(v);
                Event::Delete {
                    node: NodeId::new(v),
                }
            } else {
                let k = 2 + rng.below(2);
                Event::DeleteBatch {
                    nodes: live.take_distinct(k, rng),
                }
            }
        })
        .collect()
}

/// `routed-traffic`: the nodes deleted mid-flight, and the request pairs,
/// drawn among the nodes that are never deleted.
pub struct RoutedTape {
    pub victims: Vec<NodeId>,
    pub requests: Vec<(NodeId, NodeId)>,
}

/// Victims are pairwise non-adjacent, so no victim sits in an earlier
/// victim's repair cloud: every heal is a fresh primary cloud, and the heal
/// latencies stay one population rather than a seed-dependent mix of cases.
pub fn routed_tape(top: &Topology, deletions: usize, requests: usize, rng: &mut Rng) -> RoutedTape {
    let (offsets, targets) = top.adjacency();
    let mut live = LiveSet::new(top.n);
    let mut blocked = vec![false; top.n];
    let mut victims = Vec::with_capacity(deletions);
    for tries in 0.. {
        if victims.len() == deletions {
            break;
        }
        assert!(tries < 1_000 * deletions, "too few non-adjacent victims");
        let v = live.pick(rng) as usize;
        if blocked[v] {
            continue;
        }
        blocked[v] = true;
        for &u in &targets[offsets[v] as usize..offsets[v + 1] as usize] {
            blocked[u as usize] = true;
        }
        live.remove(v as u64);
        victims.push(node(v));
    }
    let requests = (0..requests)
        .map(|_| {
            let s = live.pick(rng);
            let mut d = live.pick(rng);
            while d == s {
                d = live.pick(rng);
            }
            (NodeId::new(s), NodeId::new(d))
        })
        .collect();
    RoutedTape { victims, requests }
}

/// The input fingerprint: the topology and the tape, in generation order.
pub fn fingerprint(top: &Topology, tape: &[Event], extra: &[(NodeId, NodeId)]) -> u64 {
    let mut f = Fold::new(0);
    top.fold_into(&mut f);
    for event in tape {
        match event {
            Event::Insert { node, neighbors } => {
                f.push(1);
                f.push(node.as_u64());
                neighbors.iter().for_each(|u| f.push(u.as_u64()));
            }
            Event::Delete { node } => {
                f.push(2);
                f.push(node.as_u64());
            }
            Event::DeleteBatch { nodes } => {
                f.push(3);
                nodes.iter().for_each(|u| f.push(u.as_u64()));
            }
        }
    }
    for &(s, d) in extra {
        f.push((s.as_u64() << 32) | d.as_u64());
    }
    f.finish()
}

/// The insertion-only reference graph `G'`: the initial topology plus every
/// inserted node and black edge of the tape (deletions are ignored).
pub fn gprime<'a>(initial: &'a Graph, tape: &[Event]) -> Cow<'a, Graph> {
    if !tape.iter().any(|e| matches!(e, Event::Insert { .. })) {
        return Cow::Borrowed(initial);
    }
    let mut g = initial.clone();
    for event in tape {
        if let Event::Insert { node, neighbors } = event {
            g.add_node(*node).expect("inserted ids are fresh");
            for &u in neighbors {
                g.add_black_edge(*node, u)
                    .expect("contacts were inserted earlier");
            }
        }
    }
    Cow::Owned(g)
}
