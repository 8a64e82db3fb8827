//! The asynchronous engine: a deterministic event queue with per-link
//! latency, message reordering, and optional drop faults.
//!
//! # Scheduling: calendar wheel, not a heap
//!
//! Delivery used to go through a `BinaryHeap<Scheduled>` — an O(log m)
//! sift per send and per pop at m in-flight messages. The heap is gone:
//! deliveries are filed in a **calendar wheel**, a power-of-two ring of
//! per-tick buckets indexed by `due & mask`. Scheduling is an O(1) push;
//! a step drains exactly one bucket. Delays beyond the wheel's horizon
//! (possible only when the configured worst case exceeds [`MAX_WHEEL`])
//! overflow into a far-future `BTreeMap` keyed by due tick, drained as
//! their tick arrives.
//!
//! ## Why delivery order is bit-identical to the heap
//!
//! The heap popped by `(due, seq)` where `seq` was a global send counter.
//! The wheel reproduces that order structurally, so no per-message
//! sequence number is stored at all:
//!
//! - **one due tick per bucket**: every delay satisfies
//!   `1 ≤ delay < horizon`, so at any moment a bucket holds messages for
//!   exactly one future tick — two undelivered messages in the same
//!   bucket would have to differ in due tick by a multiple of `horizon`,
//!   which the delay bound excludes;
//! - **push order is seq order**: within one due tick, messages are
//!   appended to the bucket in send order;
//! - **far-future entries precede the bucket**: an overflow message due
//!   at tick `T` was sent at or before `T − horizon`, while every wheel
//!   message due at `T` was sent strictly after `T − horizon` — so
//!   draining the far map before the bucket is exactly `(due, seq)`
//!   order, and within the far map's per-tick vector push order is again
//!   seq order.
//!
//! The old heap engine survives behind `#[cfg(test)]` as
//! [`heap_oracle::HeapOracle`]; property tests in this module drive both
//! schedulers through identical seeded traffic (latency spreads, jitter,
//! drop faults, mid-flight node removals) and assert bit-identical
//! arrival streams and counters.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xheal_graph::NodeId;
use xheal_trace::{hook, Layer, SharedTracer};

use crate::engine::{Counters, Envelope, NetworkEngine};
use crate::mailbox::Mailboxes;

/// Upper bound on the calendar wheel's bucket count. Worst-case delays
/// beyond this spill into the far-future overflow map — rare traffic pays
/// the `BTreeMap` tax so common traffic stays O(1).
const MAX_WHEEL: u64 = 1024;

/// Delivery model of an [`AsyncNetwork`]: per-link base latency, per-message
/// jitter, and an optional fault rate — all driven by one seed, so every run
/// is reproducible.
///
/// Each directed link `(from, to)` gets a fixed base latency drawn from
/// `[min_latency, max_latency]` by hashing the endpoints with the seed;
/// every message additionally draws jitter from `[0, jitter]` off the
/// engine's RNG. Messages on slow links overtake nothing; messages on fast
/// links overtake in-flight traffic sent earlier — genuine reordering.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AsyncConfig {
    /// Smallest per-link base latency, in rounds (≥ 1: nothing is delivered
    /// in its send round, matching the LOCAL model).
    pub min_latency: u64,
    /// Largest per-link base latency, in rounds.
    pub max_latency: u64,
    /// Extra uniform per-message delay in `[0, jitter]` rounds.
    pub jitter: u64,
    /// Probability a message is silently lost in flight (a drop fault),
    /// decided at send time from the seeded RNG. Lost messages surface in
    /// [`Counters::dropped`] and [`NetworkEngine::drain_dropped_into`] when
    /// their delivery round arrives.
    pub drop_prob: f64,
    /// Seed of the engine's randomness (link latencies, jitter, faults).
    pub seed: u64,
}

impl AsyncConfig {
    /// The synchronous LOCAL model of the paper's Section 2: every message
    /// arrives exactly one round after it was sent, reliably and in send
    /// order, and the RNG is never consumed. This is [`AsyncNetwork`]'s
    /// [`Default`], and the model `xheal-dist`'s `DistXheal::new` runs on.
    pub fn zero_latency() -> Self {
        AsyncConfig {
            min_latency: 1,
            max_latency: 1,
            jitter: 0,
            drop_prob: 0.0,
            seed: 0,
        }
    }

    /// Uniform per-link base latencies in `[min, max]` rounds, no jitter, no
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics if `min` is 0 or `min > max`.
    pub fn uniform(min: u64, max: u64, seed: u64) -> Self {
        assert!(min >= 1, "latency below one round breaks the LOCAL model");
        assert!(min <= max, "empty latency range");
        AsyncConfig {
            min_latency: min,
            max_latency: max,
            jitter: 0,
            drop_prob: 0.0,
            seed,
        }
    }

    /// Adds per-message jitter of up to `jitter` rounds.
    pub fn with_jitter(mut self, jitter: u64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Adds drop faults with the given per-message probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability out of range");
        self.drop_prob = p;
        self
    }

    /// The worst-case delivery delay of any single message under this model.
    pub fn worst_case_delay(&self) -> u64 {
        self.max_latency + self.jitter
    }

    /// Fixed base latency of the directed link `from → to`.
    fn link_latency(&self, from: NodeId, to: NodeId) -> u64 {
        if self.min_latency == self.max_latency {
            return self.min_latency;
        }
        let span = self.max_latency - self.min_latency + 1;
        self.min_latency + mix3(self.seed, from.as_u64(), to.as_u64()) % span
    }
}

/// SplitMix64-style avalanche of three words — the per-link latency hash.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(c);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scheduled delivery in a wheel bucket or far-future batch. Its due
/// tick is implied by where it is filed, and its position in the vector is
/// its send order — no per-message bookkeeping survives (see the module
/// docs for why that still reproduces the heap's `(due, seq)` order).
#[derive(Clone, Debug)]
struct InFlight<M> {
    /// A drop fault already claimed this message; at its due tick it goes
    /// to the dropped log instead of an inbox.
    doomed: bool,
    env: Envelope<M>,
}

/// The asynchronous event-queue engine.
///
/// Rounds still exist (recovery time stays measurable in the paper's unit)
/// but messages take a per-link number of rounds to arrive, can overtake
/// each other, and can be lost to seeded drop faults. With
/// [`AsyncConfig::zero_latency`] (the [`Default`]) every message arrives in
/// the round after its send: lockstep LOCAL-model delivery.
///
/// Scheduling is a calendar wheel (O(1) per send, one bucket drain per
/// step) and membership/inboxes live in the shared flat mailbox arena —
/// steady-state stepping allocates nothing. See the module docs for the
/// structure and the delivery-order argument.
///
/// # Examples
///
/// ```
/// use xheal_graph::NodeId;
/// use xheal_sim::{AsyncConfig, AsyncNetwork, NetworkEngine};
///
/// let mut net: AsyncNetwork<&'static str> =
///     AsyncNetwork::new(AsyncConfig::uniform(1, 3, 42));
/// let (a, b) = (NodeId::new(1), NodeId::new(2));
/// net.add_node(a);
/// net.add_node(b);
/// net.send(a, b, "ping");
/// let mut inbox = Vec::new();
/// while net.has_pending() {
///     net.step();
/// }
/// net.drain_inbox_into(b, &mut inbox);
/// assert_eq!(inbox[0].payload, "ping");
/// assert!(net.counters().rounds >= 1 && net.counters().rounds <= 3);
/// ```
#[derive(Clone, Debug)]
pub struct AsyncNetwork<M> {
    mail: Mailboxes<M>,
    /// The calendar wheel: `wheel.len()` is a power of two (the horizon),
    /// bucket `due & mask` holds the deliveries for tick `due`.
    wheel: Vec<Vec<InFlight<M>>>,
    mask: u64,
    /// Far-future overflow for delays at or beyond the horizon, keyed by
    /// due tick. Empty unless the configured worst case exceeds
    /// [`MAX_WHEEL`].
    far: BTreeMap<u64, Vec<InFlight<M>>>,
    /// Recycled far-future batch buffers.
    far_pool: Vec<Vec<InFlight<M>>>,
    /// Messages currently in flight (wheel + far map).
    pending: usize,
    now: u64,
    rng: StdRng,
    config: AsyncConfig,
    /// Optional transport-span recorder; `None` keeps stepping branch-only.
    tracer: Option<SharedTracer>,
}

impl<M> AsyncNetwork<M> {
    /// Creates an empty network with the given delivery model.
    ///
    /// # Panics
    ///
    /// Panics if `config.min_latency` is 0: same-round delivery breaks the
    /// LOCAL model, and the wheel files a zero-delay message into the
    /// bucket that was already drained this tick. Also panics if
    /// `min_latency > max_latency` (the per-link latency draw would wrap)
    /// or unless `0.0 <= drop_prob < 1.0`.
    pub fn new(config: AsyncConfig) -> Self {
        assert!(
            config.min_latency >= 1,
            "latency below one round breaks the LOCAL model"
        );
        assert!(
            config.min_latency <= config.max_latency,
            "empty latency range"
        );
        assert!(
            (0.0..1.0).contains(&config.drop_prob),
            "drop probability out of range"
        );
        // Strictly larger than the worst delay so every in-wheel delay is
        // `< horizon` — the single-due-tick-per-bucket invariant.
        let horizon = config
            .worst_case_delay()
            .saturating_add(1)
            .next_power_of_two()
            .min(MAX_WHEEL);
        AsyncNetwork {
            mail: Mailboxes::new(),
            wheel: (0..horizon).map(|_| Vec::new()).collect(),
            mask: horizon - 1,
            far: BTreeMap::new(),
            far_pool: Vec::new(),
            pending: 0,
            now: 0,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            tracer: None,
        }
    }

    /// The delivery model in force.
    pub fn config(&self) -> &AsyncConfig {
        &self.config
    }

    /// Number of messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending
    }
}

impl<M> Default for AsyncNetwork<M> {
    fn default() -> Self {
        AsyncNetwork::new(AsyncConfig::zero_latency())
    }
}

impl<M> NetworkEngine<M> for AsyncNetwork<M> {
    fn add_node(&mut self, v: NodeId) {
        self.mail.add(v);
    }

    fn remove_node(&mut self, v: NodeId) {
        self.mail.remove(v);
    }

    fn contains(&self, v: NodeId) -> bool {
        self.mail.contains(v)
    }

    fn len(&self) -> usize {
        self.mail.len()
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
        assert!(self.mail.contains(from), "sender {from} not registered");
        let mut delay = self.config.link_latency(from, to);
        if self.config.jitter > 0 {
            delay += self.rng.random_range(0..=self.config.jitter);
        }
        let doomed = self.config.drop_prob > 0.0 && self.rng.random_bool(self.config.drop_prob);
        self.mail.tally(&payload);
        let due = self.now + delay;
        let rec = InFlight {
            doomed,
            env: Envelope { from, to, payload },
        };
        let horizon = self.wheel.len() as u64;
        if delay < horizon {
            self.wheel[(due & self.mask) as usize].push(rec);
        } else {
            self.far
                .entry(due)
                .or_insert_with(|| self.far_pool.pop().unwrap_or_default())
                .push(rec);
        }
        self.pending += 1;
    }

    fn step(&mut self) -> usize {
        self.now += 1;
        self.mail.count_round();
        let mut delivered = 0;
        // Far-future arrivals first: anything filed in the overflow map for
        // this tick was sent at least a horizon before everything in the
        // wheel bucket, so it strictly precedes the bucket in send order.
        while self
            .far
            .first_key_value()
            .is_some_and(|(&due, _)| due <= self.now)
        {
            let (_, mut batch) = self.far.pop_first().expect("peeked");
            self.pending -= batch.len();
            for rec in batch.drain(..) {
                if self.mail.deliver(rec.env, rec.doomed) {
                    delivered += 1;
                }
            }
            self.far_pool.push(batch);
        }
        let slot = (self.now & self.mask) as usize;
        let mut bucket = std::mem::take(&mut self.wheel[slot]);
        self.pending -= bucket.len();
        for rec in bucket.drain(..) {
            if self.mail.deliver(rec.env, rec.doomed) {
                delivered += 1;
            }
        }
        // The drained (still-warm) buffer goes back into its slot.
        self.wheel[slot] = bucket;
        self.mail.count_delivered(delivered);
        if delivered > 0 {
            hook::instant(
                &self.tracer,
                Layer::Transport,
                "net.step",
                0,
                delivered as u64,
            );
        }
        delivered
    }

    fn has_pending(&self) -> bool {
        self.pending > 0
    }

    fn nodes_with_mail_into(&self, out: &mut Vec<NodeId>) {
        self.mail.nodes_with_mail_into(out);
    }

    fn drain_inbox_into(&mut self, v: NodeId, out: &mut Vec<Envelope<M>>) {
        self.mail.drain_inbox_into(v, out);
    }

    fn drain_dropped_into(&mut self, out: &mut Vec<Envelope<M>>) {
        self.mail.drain_dropped_into(out);
    }

    fn counters(&self) -> Counters {
        self.mail.counters()
    }

    fn set_classifier(&mut self, labels: &'static [&'static str], classify: fn(&M) -> usize) {
        self.mail.set_classifier(labels, classify);
    }

    fn kind_counts(&self) -> (&'static [&'static str], &[u64]) {
        self.mail.kind_counts()
    }

    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.tracer = tracer;
    }
}

/// The pre-calendar-queue scheduler, kept verbatim as a test oracle: a
/// `BinaryHeap` ordered by `(due, seq)` over `BTreeMap` inboxes. The
/// property tests below drive it and [`AsyncNetwork`] through identical
/// seeded traffic and assert bit-identical arrival streams.
#[cfg(test)]
mod heap_oracle {
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use xheal_graph::NodeId;

    use crate::engine::{Counters, Envelope, NetworkEngine};

    use super::AsyncConfig;

    #[derive(Clone, Debug)]
    struct Scheduled<M> {
        due: u64,
        seq: u64,
        doomed: bool,
        env: Envelope<M>,
    }

    impl<M> PartialEq for Scheduled<M> {
        fn eq(&self, other: &Self) -> bool {
            (self.due, self.seq) == (other.due, other.seq)
        }
    }

    impl<M> Eq for Scheduled<M> {}

    impl<M> PartialOrd for Scheduled<M> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<M> Ord for Scheduled<M> {
        /// Reversed so the max-heap pops the *earliest* delivery.
        fn cmp(&self, other: &Self) -> Ordering {
            (other.due, other.seq).cmp(&(self.due, self.seq))
        }
    }

    /// The old heap-scheduled engine (see the module docs).
    pub(crate) struct HeapOracle<M> {
        nodes: BTreeSet<NodeId>,
        queue: BinaryHeap<Scheduled<M>>,
        inboxes: BTreeMap<NodeId, Vec<Envelope<M>>>,
        dropped: Vec<Envelope<M>>,
        now: u64,
        seq: u64,
        rng: StdRng,
        config: AsyncConfig,
        counters: Counters,
    }

    impl<M> HeapOracle<M> {
        pub(crate) fn new(config: AsyncConfig) -> Self {
            HeapOracle {
                nodes: BTreeSet::new(),
                queue: BinaryHeap::new(),
                inboxes: BTreeMap::new(),
                dropped: Vec::new(),
                now: 0,
                seq: 0,
                rng: StdRng::seed_from_u64(config.seed),
                config,
                counters: Counters::default(),
            }
        }
    }

    impl<M> NetworkEngine<M> for HeapOracle<M> {
        fn add_node(&mut self, v: NodeId) {
            self.nodes.insert(v);
        }

        fn remove_node(&mut self, v: NodeId) {
            self.nodes.remove(&v);
            self.inboxes.remove(&v);
        }

        fn contains(&self, v: NodeId) -> bool {
            self.nodes.contains(&v)
        }

        fn len(&self) -> usize {
            self.nodes.len()
        }

        fn send(&mut self, from: NodeId, to: NodeId, payload: M) {
            assert!(self.nodes.contains(&from), "sender {from} not registered");
            let mut delay = self.config.link_latency(from, to);
            if self.config.jitter > 0 {
                delay += self.rng.random_range(0..=self.config.jitter);
            }
            let doomed = self.config.drop_prob > 0.0 && self.rng.random_bool(self.config.drop_prob);
            self.seq += 1;
            self.queue.push(Scheduled {
                due: self.now + delay,
                seq: self.seq,
                doomed,
                env: Envelope { from, to, payload },
            });
        }

        fn step(&mut self) -> usize {
            self.now += 1;
            self.counters.rounds += 1;
            let mut delivered = 0;
            while self.queue.peek().is_some_and(|s| s.due <= self.now) {
                let s = self.queue.pop().expect("peeked");
                if s.doomed || !self.nodes.contains(&s.env.to) {
                    self.counters.dropped += 1;
                    self.dropped.push(s.env);
                } else {
                    self.inboxes.entry(s.env.to).or_default().push(s.env);
                    delivered += 1;
                }
            }
            self.counters.messages += delivered as u64;
            delivered
        }

        fn has_pending(&self) -> bool {
            !self.queue.is_empty()
        }

        fn nodes_with_mail_into(&self, out: &mut Vec<NodeId>) {
            out.clear();
            out.extend(self.inboxes.keys().copied());
        }

        fn drain_inbox_into(&mut self, v: NodeId, out: &mut Vec<Envelope<M>>) {
            out.clear();
            if let Some(mut inbox) = self.inboxes.remove(&v) {
                out.append(&mut inbox);
            }
        }

        fn drain_dropped_into(&mut self, out: &mut Vec<Envelope<M>>) {
            out.clear();
            out.append(&mut self.dropped);
        }

        fn counters(&self) -> Counters {
            self.counters
        }
    }
}

#[cfg(test)]
mod tests {
    use super::heap_oracle::HeapOracle;
    use super::*;
    use proptest::prelude::*;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn mesh<M>(config: AsyncConfig, k: u64) -> AsyncNetwork<M> {
        let mut net = AsyncNetwork::new(config);
        for i in 0..k {
            net.add_node(n(i));
        }
        net
    }

    /// Drives an engine until quiet, returning the flattened
    /// `(to, payload)` stream in arrival order.
    fn drain_all<E: NetworkEngine<u32>>(net: &mut E) -> Vec<(NodeId, u32)> {
        let mut out = Vec::new();
        let mut with_mail = Vec::new();
        let mut mail = Vec::new();
        while net.has_pending() {
            net.step();
            net.nodes_with_mail_into(&mut with_mail);
            for &v in &with_mail {
                net.drain_inbox_into(v, &mut mail);
                for env in mail.drain(..) {
                    out.push((v, env.payload));
                }
            }
        }
        out
    }

    #[test]
    fn delivery_is_next_round() {
        let mut net = mesh(AsyncConfig::zero_latency(), 3);
        let mut inbox = Vec::new();
        net.send(n(0), n(1), 7);
        net.drain_inbox_into(n(1), &mut inbox);
        assert!(inbox.is_empty(), "not delivered yet");
        assert_eq!(net.step(), 1);
        net.drain_inbox_into(n(1), &mut inbox);
        assert_eq!(
            inbox,
            vec![Envelope {
                from: n(0),
                to: n(1),
                payload: 7
            }]
        );
    }

    #[test]
    fn counters_accumulate_and_diff() {
        let mut net = mesh(AsyncConfig::zero_latency(), 3);
        net.send(n(0), n(1), 1);
        net.step();
        let snapshot = net.counters();
        net.send(n(1), n(2), 2);
        net.send(n(1), n(0), 3);
        net.step();
        let delta = net.counters().since(snapshot);
        assert_eq!((delta.rounds, delta.messages, delta.dropped), (1, 2, 0));
    }

    #[test]
    fn inbox_drain_clears() {
        let mut net = mesh(AsyncConfig::zero_latency(), 3);
        let (mut with_mail, mut mail) = (Vec::new(), Vec::new());
        net.send(n(0), n(1), 1);
        net.step();
        net.nodes_with_mail_into(&mut with_mail);
        assert_eq!(with_mail, vec![n(1)]);
        net.drain_inbox_into(n(1), &mut mail);
        assert_eq!(mail.len(), 1);
        net.drain_inbox_into(n(1), &mut mail);
        assert!(mail.is_empty());
        net.nodes_with_mail_into(&mut with_mail);
        assert!(with_mail.is_empty());
    }

    #[test]
    fn nodes_with_mail_into_reuses_buffer() {
        let mut net = mesh(AsyncConfig::zero_latency(), 3);
        net.send(n(0), n(1), 1);
        net.send(n(0), n(2), 2);
        net.step();
        let mut buf = vec![n(99)]; // stale content must be cleared
        net.nodes_with_mail_into(&mut buf);
        assert_eq!(buf, vec![n(1), n(2)]);
    }

    #[test]
    fn removed_node_inbox_discarded() {
        let mut net = mesh(AsyncConfig::zero_latency(), 3);
        net.send(n(0), n(1), 1);
        net.step();
        net.remove_node(n(1));
        net.add_node(n(1));
        let mut mail = Vec::new();
        net.drain_inbox_into(n(1), &mut mail);
        assert!(mail.is_empty());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut net = mesh(AsyncConfig::uniform(1, 5, 7).with_jitter(2), 6);
            for i in 0..30u32 {
                net.send(n(u64::from(i) % 6), n(u64::from(i + 1) % 6), i);
            }
            drain_all(&mut net)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_reorders_messages_across_links() {
        // With heterogeneous link latencies, some pair of messages sent in
        // one order arrives in the other order.
        let mut net = mesh(AsyncConfig::uniform(1, 6, 3), 8);
        for i in 0..8u32 {
            net.send(n(0), n(1 + u64::from(i) % 7), i);
        }
        let arrivals = drain_all(&mut net);
        assert_eq!(arrivals.len(), 8, "everything still arrives");
        let payload_order: Vec<u32> = arrivals.iter().map(|&(_, p)| p).collect();
        let mut sorted = payload_order.clone();
        sorted.sort_unstable();
        assert_ne!(payload_order, sorted, "send order survived — no reordering");
    }

    #[test]
    fn same_link_fifo_without_jitter() {
        // A fixed per-link latency cannot reorder same-link traffic.
        let mut net = mesh(AsyncConfig::uniform(1, 6, 11), 2);
        for i in 0..10u32 {
            net.send(n(0), n(1), i);
        }
        let arrivals = drain_all(&mut net);
        let payloads: Vec<u32> = arrivals.iter().map(|&(_, p)| p).collect();
        assert_eq!(payloads, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_faults_lose_messages_observably() {
        let mut net = mesh(AsyncConfig::uniform(1, 2, 9).with_drop_prob(0.5), 4);
        for i in 0..40u32 {
            net.send(n(0), n(1 + u64::from(i) % 3), i);
        }
        let arrivals = drain_all(&mut net);
        let c = net.counters();
        assert_eq!(arrivals.len() as u64, c.messages);
        assert!(c.dropped > 0, "p=0.5 over 40 messages");
        assert_eq!(c.messages + c.dropped, 40);
        let mut lost = Vec::new();
        net.drain_dropped_into(&mut lost);
        assert_eq!(lost.len() as u64, c.dropped);
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        let mut net = mesh(AsyncConfig::zero_latency(), 3);
        net.send(n(0), n(2), 1);
        net.remove_node(n(2));
        net.step();
        assert_eq!(net.counters().dropped, 1);
        assert_eq!(net.counters().messages, 0);
        let mut dropped = Vec::new();
        net.drain_dropped_into(&mut dropped);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].to, n(2));
        net.drain_dropped_into(&mut dropped);
        assert!(dropped.is_empty(), "drained once");
    }

    #[test]
    fn dead_recipient_drops_at_delivery_time() {
        let mut net = mesh(AsyncConfig::uniform(3, 3, 1), 3);
        net.send(n(0), n(2), 5);
        net.step();
        net.remove_node(n(2)); // dies while the message is in flight
        net.step();
        net.step();
        assert_eq!(net.counters().dropped, 1);
        assert_eq!(net.counters().messages, 0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_sender_panics() {
        let mut net: AsyncNetwork<u32> = mesh(AsyncConfig::zero_latency(), 1);
        net.send(n(9), n(0), 1);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn removed_sender_panics() {
        // A deleted node leaves the membership and can no longer send.
        let mut net: AsyncNetwork<u32> = mesh(AsyncConfig::zero_latency(), 3);
        net.remove_node(n(2));
        net.send(n(2), n(0), 1);
    }

    #[test]
    #[should_panic(expected = "LOCAL model")]
    fn zero_min_latency_is_rejected() {
        let _ = AsyncNetwork::<u32>::new(AsyncConfig {
            min_latency: 0,
            ..AsyncConfig::zero_latency()
        });
    }

    #[test]
    #[should_panic(expected = "empty latency range")]
    fn inverted_latency_range_is_rejected() {
        // Would wrap the per-link latency draw to ~2^64 ticks and hang the
        // protocol in release builds.
        let _ = AsyncNetwork::<u32>::new(AsyncConfig {
            min_latency: 3,
            max_latency: 1,
            ..AsyncConfig::zero_latency()
        });
    }

    #[test]
    #[should_panic(expected = "drop probability out of range")]
    fn certain_drop_is_rejected() {
        let _ = AsyncNetwork::<u32>::new(AsyncConfig {
            drop_prob: 1.0,
            ..AsyncConfig::zero_latency()
        });
    }

    #[test]
    fn link_latencies_are_stable_and_bounded() {
        let cfg = AsyncConfig::uniform(2, 7, 123);
        for a in 0..10 {
            for b in 0..10 {
                let l = cfg.link_latency(n(a), n(b));
                assert!((2..=7).contains(&l));
                assert_eq!(l, cfg.link_latency(n(a), n(b)), "latency is per-link");
            }
        }
    }

    #[test]
    fn in_flight_tracks_wheel_and_overflow() {
        // Worst-case delay far beyond MAX_WHEEL forces the far-future map.
        let mut net = mesh(AsyncConfig::uniform(1, 3000, 5), 4);
        for i in 0..20u32 {
            net.send(n(u64::from(i) % 4), n(u64::from(i + 1) % 4), i);
        }
        assert_eq!(net.in_flight(), 20);
        let arrivals = drain_all(&mut net);
        assert_eq!(arrivals.len(), 20);
        assert_eq!(net.in_flight(), 0);
        assert!(!net.has_pending());
    }

    /// Drives the calendar engine and the heap oracle through one
    /// identical seeded workload — interleaved sends, steps, and
    /// mid-flight removals — and asserts bit-identical arrival streams,
    /// drop logs, and counters.
    fn assert_matches_oracle(config: AsyncConfig, k: u64, ops: usize, script_seed: u64) {
        let mut new_net: AsyncNetwork<u32> = AsyncNetwork::new(config);
        let mut oracle: HeapOracle<u32> = HeapOracle::new(config);
        let mut live: Vec<u64> = (0..k).collect();
        for &i in &live {
            new_net.add_node(n(i));
            oracle.add_node(n(i));
        }
        let mut script = StdRng::seed_from_u64(script_seed);
        let mut payload = 0u32;
        for _ in 0..ops {
            match script.random_range(0u32..10) {
                // Mostly sends: both engines consume their own (identically
                // seeded) config RNG in the same order.
                0..=6 => {
                    let from = live[script.random_range(0..live.len())];
                    let to = script.random_range(0..k);
                    payload += 1;
                    new_net.send(n(from), n(to), payload);
                    NetworkEngine::send(&mut oracle, n(from), n(to), payload);
                }
                7 | 8 => {
                    new_net.step();
                    oracle.step();
                }
                // Membership churn: remove one node mid-flight (dropping
                // its traffic) and register a fresh id.
                _ => {
                    if live.len() > 1 {
                        let gone = live.swap_remove(script.random_range(0..live.len()));
                        new_net.remove_node(n(gone));
                        oracle.remove_node(n(gone));
                    }
                    let fresh = script.random_range(k..2 * k);
                    if !live.contains(&fresh) {
                        live.push(fresh);
                    }
                    new_net.add_node(n(fresh));
                    oracle.add_node(n(fresh));
                }
            }
        }
        assert_eq!(drain_all(&mut new_net), drain_all(&mut oracle));
        let mut lost_new = Vec::new();
        let mut lost_old = Vec::new();
        new_net.drain_dropped_into(&mut lost_new);
        oracle.drain_dropped_into(&mut lost_old);
        assert_eq!(lost_new, lost_old);
        assert_eq!(new_net.counters(), oracle.counters());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn calendar_queue_matches_heap_oracle(
            seed in any::<u64>(),
            min in 1u64..4,
            span in 0u64..8,
            jitter in 0u64..4,
            drop_centi in 0u64..50,
            k in 2u64..10,
            ops in 20usize..200,
            script_seed in any::<u64>(),
        ) {
            let config = AsyncConfig::uniform(min, min + span, seed)
                .with_jitter(jitter)
                .with_drop_prob(drop_centi as f64 / 100.0);
            assert_matches_oracle(config, k, ops, script_seed);
        }

        #[test]
        fn far_future_overflow_matches_heap_oracle(
            seed in any::<u64>(),
            base in 1_100u64..2_500,
            jitter in 0u64..200,
            k in 2u64..6,
            ops in 10usize..60,
            script_seed in any::<u64>(),
        ) {
            // Worst-case delay beyond MAX_WHEEL: most traffic lands in the
            // far-future overflow map, some in the wheel — the merge order
            // between the two must still reproduce (due, seq).
            let config = AsyncConfig::uniform(1, base, seed).with_jitter(jitter);
            assert_matches_oracle(config, k, ops, script_seed);
        }

        #[test]
        fn zero_latency_matches_oracle_under_churn(
            k in 2u64..12,
            ops in 20usize..200,
            script_seed in any::<u64>(),
        ) {
            assert_matches_oracle(AsyncConfig::zero_latency(), k, ops, script_seed);
        }
    }
}
