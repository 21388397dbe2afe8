//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes, per directed link, the probability that a
//! message is dropped, duplicated, or reordered, plus a bound on random
//! extra delay. The plan is applied inside `Network::send`, *after* cost
//! accounting, so every injected fault is visible in [`crate::NetStats`].
//! All randomness comes from a seeded SplitMix64 stream: the same plan,
//! seed and traffic sequence always produce the same faults, which keeps
//! chaos tests reproducible.
//!
//! Partitions are dynamic rather than part of the plan: `Network::partition`
//! severs a pair of ranks both ways (sends are silently dropped, like
//! pulled cables), and `Network::heal` restores all links.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use crate::message::Message;

/// Fault probabilities and delay bound for one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message is held back and delivered after the next
    /// message on the same link (pairwise reordering).
    pub reorder_p: f64,
    /// Extra wire delay drawn uniformly from `[0, delay_jitter)`.
    pub delay_jitter: Duration,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            delay_jitter: Duration::ZERO,
        }
    }
}

impl LinkFaults {
    /// True when this link injects nothing.
    pub fn is_clean(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.reorder_p == 0.0
            && self.delay_jitter == Duration::ZERO
    }
}

/// A deterministic, seeded description of which faults the fabric injects.
///
/// `default` applies to every directed link unless overridden via
/// [`FaultPlan::link`]. Build with the fluent setters:
///
/// ```
/// use hdsm_net::fault::FaultPlan;
/// let plan = FaultPlan::seeded(42).drop(0.05).duplicate(0.05).reorder(0.05);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// RNG seed; identical seeds replay identical fault sequences.
    pub seed: u64,
    /// Faults applied to links without an override.
    pub default: LinkFaults,
    /// Per-link `(src, dst)` overrides.
    pub links: HashMap<(u32, u32), LinkFaults>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the default drop probability.
    pub fn drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.default.drop_p = p;
        self
    }

    /// Set the default duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup probability out of range");
        self.default.dup_p = p;
        self
    }

    /// Set the default reorder probability.
    pub fn reorder(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder probability out of range");
        self.default.reorder_p = p;
        self
    }

    /// Set the default delay jitter bound.
    pub fn jitter(mut self, bound: Duration) -> Self {
        self.default.delay_jitter = bound;
        self
    }

    /// Override faults for the directed link `src -> dst`.
    pub fn link(mut self, src: u32, dst: u32, faults: LinkFaults) -> Self {
        self.links.insert((src, dst), faults);
        self
    }

    /// Faults in effect for `src -> dst`.
    pub fn faults_for(&self, src: u32, dst: u32) -> LinkFaults {
        self.links.get(&(src, dst)).copied().unwrap_or(self.default)
    }

    /// True when no link ever injects anything (partitions may still be
    /// imposed at runtime).
    pub fn is_clean(&self) -> bool {
        self.default.is_clean() && self.links.values().all(LinkFaults::is_clean)
    }
}

/// What `FaultState::apply` decided for one message.
#[derive(Debug, Default)]
pub(crate) struct Applied {
    /// Copies to actually enqueue (0 = dropped, 2+ = duplicated and/or a
    /// released held-back message).
    pub deliver: Vec<Message>,
    /// Dropped (including partition drops).
    pub dropped: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Messages held back for pairwise reordering.
    pub reordered: u64,
    /// Random extra delay to account (virtual latency on the sim fabric).
    pub extra_delay: Duration,
}

/// Mutable fault-injection state owned by the fabric.
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Severed rank pairs (stored with `a <= b`; severs both directions).
    partitions: HashSet<(u32, u32)>,
    /// At most one held-back message per directed link.
    holdback: HashMap<(u32, u32), Message>,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> FaultState {
        let rng = SplitMix64::new(plan.seed);
        FaultState {
            plan,
            rng,
            partitions: HashSet::new(),
            holdback: HashMap::new(),
        }
    }

    pub fn partition(&mut self, a: u32, b: u32) {
        self.partitions.insert((a.min(b), a.max(b)));
    }

    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    pub fn is_partitioned(&self, a: u32, b: u32) -> bool {
        self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// Run one message through the fault pipeline.
    pub fn apply(&mut self, msg: Message) -> Applied {
        let mut out = Applied::default();
        if self.is_partitioned(msg.src, msg.dst) {
            out.dropped = 1;
            return out;
        }
        let link = (msg.src, msg.dst);
        let faults = self.plan.faults_for(msg.src, msg.dst);
        if faults.delay_jitter > Duration::ZERO {
            out.extra_delay =
                Duration::from_nanos(self.rng.below(faults.delay_jitter.as_nanos().max(1) as u64));
        }
        if self.rng.chance(faults.drop_p) {
            out.dropped = 1;
            // A drop still releases any held-back message: the link saw
            // traffic, and holding forever would turn one reorder into a
            // permanent loss of *two* messages.
            if let Some(held) = self.holdback.remove(&link) {
                out.deliver.push(held);
            }
            return out;
        }
        if self.rng.chance(faults.dup_p) {
            out.duplicated = 1;
            out.deliver.push(msg.clone());
        }
        if self.holdback.contains_key(&link) {
            // Deliver this message first, then the held one — the swap is
            // the reorder.
            out.deliver.push(msg);
            out.deliver.push(self.holdback.remove(&link).unwrap());
        } else if self.rng.chance(faults.reorder_p) {
            out.reordered = 1;
            self.holdback.insert(link, msg);
        } else {
            out.deliver.push(msg);
        }
        out
    }

    /// Release every held-back message (used when the fabric would
    /// otherwise strand them, e.g. on stats reset in tests).
    #[allow(dead_code)]
    pub fn flush(&mut self) -> Vec<Message> {
        self.holdback.drain().map(|(_, m)| m).collect()
    }
}

/// SplitMix64: tiny deterministic generator for fault decisions.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;
    use bytes::Bytes;

    fn msg(src: u32, dst: u32, tag: u8) -> Message {
        Message {
            src,
            dst,
            kind: MsgKind::Other,
            payload: Bytes::copy_from_slice(&[tag]),
            trace: None,
        }
    }

    #[test]
    fn clean_plan_passes_everything_through() {
        let mut st = FaultState::new(FaultPlan::seeded(1));
        for i in 0..50 {
            let a = st.apply(msg(0, 1, i));
            assert_eq!(a.deliver.len(), 1);
            assert_eq!(a.dropped + a.duplicated + a.reordered, 0);
        }
    }

    #[test]
    fn partition_drops_both_directions_until_heal() {
        let mut st = FaultState::new(FaultPlan::seeded(1));
        st.partition(2, 0);
        assert_eq!(st.apply(msg(0, 2, 0)).dropped, 1);
        assert_eq!(st.apply(msg(2, 0, 0)).dropped, 1);
        assert_eq!(st.apply(msg(0, 1, 0)).deliver.len(), 1);
        st.heal();
        assert_eq!(st.apply(msg(0, 2, 0)).deliver.len(), 1);
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed)
                .drop(0.3)
                .duplicate(0.3)
                .reorder(0.3);
            let mut st = FaultState::new(plan);
            (0..200)
                .map(|i| st.apply(msg(0, 1, i as u8)).deliver.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn reorder_swaps_adjacent_messages() {
        // reorder_p = 1.0 holds every arriving message when the slot is
        // free, so the stream 0,1,2,3 delivers as 1,0,3,2.
        let plan = FaultPlan::seeded(1).reorder(1.0);
        let mut st = FaultState::new(plan);
        let mut delivered = Vec::new();
        for i in 0..4 {
            delivered.extend(st.apply(msg(0, 1, i)).deliver.iter().map(|m| m.payload[0]));
        }
        assert_eq!(delivered, vec![1, 0, 3, 2]);
    }

    #[test]
    fn duplication_delivers_twice() {
        let plan = FaultPlan::seeded(1).duplicate(1.0);
        let mut st = FaultState::new(plan);
        let a = st.apply(msg(0, 1, 9));
        assert_eq!(a.duplicated, 1);
        assert_eq!(a.deliver.len(), 2);
        assert!(a.deliver.iter().all(|m| m.payload[0] == 9));
    }

    #[test]
    fn drop_releases_held_message() {
        let plan = FaultPlan::seeded(1).reorder(1.0).drop(0.0);
        let mut st = FaultState::new(plan);
        assert!(st.apply(msg(0, 1, 0)).deliver.is_empty()); // held
                                                            // Force a drop by switching to an always-drop link override.
        let plan2 = FaultPlan::seeded(1).drop(1.0);
        let held = st.holdback.clone();
        let mut st2 = FaultState::new(plan2);
        st2.holdback = held;
        let a = st2.apply(msg(0, 1, 1));
        assert_eq!(a.dropped, 1);
        assert_eq!(a.deliver.len(), 1);
        assert_eq!(a.deliver[0].payload[0], 0);
    }

    #[test]
    fn per_link_overrides_beat_default() {
        let plan = FaultPlan::seeded(1)
            .drop(1.0)
            .link(0, 1, LinkFaults::default());
        let mut st = FaultState::new(plan);
        assert_eq!(st.apply(msg(0, 1, 0)).deliver.len(), 1); // overridden clean
        assert_eq!(st.apply(msg(1, 0, 0)).dropped, 1); // default drops
    }

    #[test]
    fn plan_cleanliness() {
        assert!(FaultPlan::seeded(3).is_clean());
        assert!(!FaultPlan::seeded(3).drop(0.1).is_clean());
        assert!(!FaultPlan::seeded(3)
            .link(
                0,
                1,
                LinkFaults {
                    dup_p: 0.5,
                    ..Default::default()
                }
            )
            .is_clean());
    }
}
