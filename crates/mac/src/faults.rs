//! Deterministic fault injection at the [`crate::medium::Medium`]
//! `start`/`finish` boundary.
//!
//! A [`FaultPlan`] describes *what can go wrong* — transmissions dropped
//! at every receiver, broadcast control frames duplicated or delivered
//! late, incumbent detection stretched per node, the scanner history
//! horizon skewed — and the engine applies it mechanically, so every
//! driver built on [`crate::sim::Simulator`] gets fault coverage for
//! free.
//!
//! # Determinism
//!
//! Faults draw from their own `ChaCha8Rng` family, seeded from
//! `splitmix64(plan.seed ^ sim_seed)` with one stream per node (the
//! node's RNG *stream id*, so pruned and unpruned networks fault
//! identically, DESIGN.md §9–10). Node behaviour RNGs are never
//! touched: the same `(sim seed, plan)` pair always yields the same
//! fault sequence, and a plan with every probability at zero produces
//! exactly the event sequence of running with no plan at all.

use crate::frames::NodeId;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use whitefi_phy::{ChaCha8Rng, SimDuration, SimTime};

/// Salt separating the fault RNG family from the node behaviour family
/// (which is seeded directly from the simulator seed).
const FAULT_SEED_SALT: u64 = 0x57_46_69_46_61_75_6c_74; // "WFiFault"

/// The SplitMix64 finalizer, the workspace's one seed mixer. Here it
/// decorrelates the fault seed from the simulator seed, so the two
/// ChaCha families never share a seed even when a plan reuses it.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A deterministic description of the faults to inject into one run.
///
/// Probabilities are per *transmission* (drop) or per *broadcast
/// transmission* (duplicate, delay); durations bound per-node uniform
/// draws. The all-zero [`FaultPlan::quiet`] plan is behaviourally
/// identical to running with no plan installed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG family (combined with the simulator seed).
    pub seed: u64,
    /// Probability that a transmission is lost at *every* receiver
    /// (ACKs and retries then play out naturally at the sender).
    pub drop_prob: f64,
    /// Probability that a delivered broadcast control frame (beacon,
    /// switch announcement, chirp) is processed twice by each receiver.
    pub dup_prob: f64,
    /// Probability that a delivered broadcast control frame reaches the
    /// receiver's behaviour only after an extra processing delay.
    pub delay_prob: f64,
    /// Upper bound of the uniform delivery-delay draw.
    pub max_delay: SimDuration,
    /// Upper bound of the per-node uniform *extra* incumbent detection
    /// latency (stretches every `IncumbentCheck` of that node).
    pub max_detection_extra: SimDuration,
    /// When set, overrides [`crate::medium::Medium::history_horizon`]
    /// — clock skew on the scanner's look-back window.
    pub history_skew: Option<SimDuration>,
}

impl FaultPlan {
    /// The do-nothing plan: every probability zero, no skew. Running
    /// with this plan is event-for-event identical to running with no
    /// plan (the fault RNGs advance, but no decision ever fires).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: SimDuration::ZERO,
            max_detection_extra: SimDuration::ZERO,
            history_skew: None,
        }
    }
}

/// The faults chosen for one transmission, drawn at `Medium::start`
/// time and applied at `Medium::finish` (delivery) time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultDecision {
    /// Lose the frame at every receiver.
    pub drop: bool,
    /// Dispatch the broadcast payload twice to each receiver.
    pub duplicate: bool,
    /// Defer each receiver's behaviour dispatch by this much.
    pub delay: Option<SimDuration>,
}

impl FaultDecision {
    /// Whether this decision perturbs anything at all.
    pub fn is_noop(&self) -> bool {
        !self.drop && !self.duplicate && self.delay.is_none()
    }
}

/// What a fired fault did — the structured log the oracles consult to
/// *explain* liveness misses (a reassociation slowed by chirp loss is a
/// documented outcome, not a protocol bug).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the faulted transmission started (or the node registered,
    /// for detection stretch).
    pub time: SimTime,
    /// The transmitting (or registered) node.
    pub node: NodeId,
    /// What was injected.
    pub kind: FaultEventKind,
}

/// The kinds of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEventKind {
    /// Transmission lost at every receiver.
    Drop,
    /// Broadcast payload dispatched twice per receiver.
    Duplicate,
    /// Broadcast dispatch deferred by the given amount.
    Delay(SimDuration),
    /// All of the node's incumbent checks run this much later.
    DetectionExtra(SimDuration),
}

/// Monotone counters of fired faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transmissions dropped at every receiver.
    pub drops: u64,
    /// Broadcast frames dispatched twice.
    pub duplicates: u64,
    /// Broadcast dispatches deferred.
    pub delays: u64,
    /// Nodes whose incumbent detection was stretched.
    pub detection_extras: u64,
}

/// Engine-side state of an installed [`FaultPlan`].
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    /// One fault RNG per node, indexed by node id; seeded on the node's
    /// *stream id* so pruning cannot shift another node's faults.
    rngs: Vec<ChaCha8Rng>,
    /// Per-node extra incumbent-detection latency, drawn at
    /// registration.
    extras: Vec<SimDuration>,
    /// Decisions drawn at `start` awaiting their `finish`.
    pending: BTreeMap<u64, FaultDecision>,
    events: Vec<FaultEvent>,
    stats: FaultStats,
    /// Combined fault-family seed (`splitmix64` of plan ⊕ sim seed).
    family_seed: u64,
}

impl FaultState {
    /// Builds the engine state for `plan` under the given simulator
    /// seed.
    pub fn new(plan: FaultPlan, sim_seed: u64) -> Self {
        let family_seed = splitmix64(plan.seed ^ sim_seed ^ FAULT_SEED_SALT);
        Self {
            plan,
            rngs: Vec::new(),
            extras: Vec::new(),
            pending: BTreeMap::new(),
            events: Vec::new(),
            stats: FaultStats::default(),
            family_seed,
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Registers node `id` (must be called in id order) on RNG stream
    /// `stream`; returns the node's extra incumbent-detection latency.
    pub fn register_node(&mut self, id: NodeId, stream: u64, now: SimTime) -> SimDuration {
        debug_assert_eq!(self.rngs.len(), id, "fault registration out of order");
        let mut rng = ChaCha8Rng::seed_from_u64(self.family_seed);
        rng.set_stream(stream); // stream-map: domain=fault-lanes salt=FAULT_SEED_SALT streams=0..=4294967295 role="per-node fault draws (stream = node id)"
        let max = self.plan.max_detection_extra.as_nanos();
        let extra = if max > 0 {
            SimDuration::from_nanos(rng.gen_range(0..=max))
        } else {
            SimDuration::ZERO
        };
        self.rngs.push(rng);
        self.extras.push(extra);
        if extra > SimDuration::ZERO {
            self.stats.detection_extras += 1;
            self.events.push(FaultEvent {
                time: now,
                node: id,
                kind: FaultEventKind::DetectionExtra(extra),
            });
        }
        extra
    }

    /// The extra incumbent-detection latency of node `n` (zero for
    /// nodes added before the plan was installed).
    pub fn detection_extra(&self, n: NodeId) -> SimDuration {
        self.extras.get(n).copied().unwrap_or(SimDuration::ZERO)
    }

    /// Draws the fault decision for transmission `tx_id` just started
    /// by `src`. Exactly three gate draws per call (plus one amount
    /// draw per firing delay), all from `src`'s dedicated fault RNG.
    pub fn decide(&mut self, src: NodeId, now: SimTime, tx_id: u64, broadcast: bool) {
        let Some(rng) = self.rngs.get_mut(src) else {
            return; // node predates the plan: never faulted
        };
        let drop = rng.gen::<f64>() < self.plan.drop_prob;
        let dup_gate = rng.gen::<f64>() < self.plan.dup_prob;
        let delay_gate = rng.gen::<f64>() < self.plan.delay_prob;
        let duplicate = dup_gate && broadcast && !drop;
        let delay = if delay_gate && broadcast && !drop && self.plan.max_delay > SimDuration::ZERO {
            Some(SimDuration::from_nanos(
                rng.gen_range(1..=self.plan.max_delay.as_nanos().max(1)),
            ))
        } else {
            None
        };
        let decision = FaultDecision {
            drop,
            duplicate,
            delay,
        };
        if decision.is_noop() {
            return;
        }
        if drop {
            self.stats.drops += 1;
            self.events.push(FaultEvent {
                time: now,
                node: src,
                kind: FaultEventKind::Drop,
            });
        }
        if duplicate {
            self.stats.duplicates += 1;
            self.events.push(FaultEvent {
                time: now,
                node: src,
                kind: FaultEventKind::Duplicate,
            });
        }
        if let Some(by) = delay {
            self.stats.delays += 1;
            self.events.push(FaultEvent {
                time: now,
                node: src,
                kind: FaultEventKind::Delay(by),
            });
        }
        self.pending.insert(tx_id, decision);
    }

    /// Consumes the decision for transmission `tx_id` (no-op decision
    /// if none was recorded).
    pub fn take(&mut self, tx_id: u64) -> FaultDecision {
        self.pending.remove(&tx_id).unwrap_or_default()
    }

    /// Every fault fired so far, in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Counters of fired faults.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference SplitMix64 outputs: the generator's first two
    /// outputs from state 0 are the finalizer of its first two states.
    #[test]
    fn splitmix64_matches_reference_outputs() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn quiet_plan_never_fires() {
        let mut fs = FaultState::new(FaultPlan::quiet(7), 42);
        for n in 0..4usize {
            let extra = fs.register_node(n, n as u64, SimTime::ZERO);
            assert_eq!(extra, SimDuration::ZERO);
        }
        for id in 0..200u64 {
            fs.decide(
                (id % 4) as NodeId,
                SimTime::from_micros(id),
                id,
                id % 2 == 0,
            );
            assert!(fs.take(id).is_noop());
        }
        assert_eq!(fs.stats(), FaultStats::default());
        assert!(fs.events().is_empty());
    }

    #[test]
    fn decisions_are_reproducible() {
        let plan = FaultPlan {
            drop_prob: 0.3,
            dup_prob: 0.3,
            delay_prob: 0.3,
            max_delay: SimDuration::from_millis(5),
            max_detection_extra: SimDuration::from_millis(100),
            ..FaultPlan::quiet(99)
        };
        let run = |plan: FaultPlan| {
            let mut fs = FaultState::new(plan, 11);
            let mut out = Vec::new();
            for n in 0..3usize {
                out.push(FaultDecision {
                    drop: false,
                    duplicate: false,
                    delay: Some(fs.register_node(n, 10 + n as u64, SimTime::ZERO)),
                });
            }
            for id in 0..64u64 {
                fs.decide((id % 3) as NodeId, SimTime::from_micros(id), id, true);
                out.push(fs.take(id));
            }
            out
        };
        assert_eq!(run(plan.clone()), run(plan));
    }

    #[test]
    fn streams_are_insertion_order_independent() {
        // A node's faults depend on its *stream*, not on which other
        // nodes exist: registering a subset on the same streams yields
        // the same decisions (the pruning contract, DESIGN.md §9).
        let plan = FaultPlan {
            drop_prob: 0.5,
            ..FaultPlan::quiet(5)
        };
        let mut full = FaultState::new(plan.clone(), 3);
        for n in 0..4usize {
            full.register_node(n, n as u64, SimTime::ZERO);
        }
        let mut pruned = FaultState::new(plan, 3);
        pruned.register_node(0, 0, SimTime::ZERO); // keeps stream 0
        pruned.register_node(1, 3, SimTime::ZERO); // keeps stream 3
        let mut fd = Vec::new();
        let mut pd = Vec::new();
        for id in 0..32u64 {
            full.decide(0, SimTime::ZERO, id, false);
            fd.push(full.take(id));
            pruned.decide(0, SimTime::ZERO, id, false);
            pd.push(pruned.take(id));
        }
        for id in 32..64u64 {
            full.decide(3, SimTime::ZERO, id, false);
            fd.push(full.take(id));
            pruned.decide(1, SimTime::ZERO, id, false);
            pd.push(pruned.take(id));
        }
        assert_eq!(fd, pd);
    }

    #[test]
    fn detection_extra_bounded_by_plan() {
        let plan = FaultPlan {
            max_detection_extra: SimDuration::from_millis(250),
            ..FaultPlan::quiet(1)
        };
        let mut fs = FaultState::new(plan, 2);
        for n in 0..16usize {
            let extra = fs.register_node(n, n as u64, SimTime::ZERO);
            assert!(extra <= SimDuration::from_millis(250));
            assert_eq!(extra, fs.detection_extra(n));
        }
        assert_eq!(fs.detection_extra(999), SimDuration::ZERO);
    }
}
