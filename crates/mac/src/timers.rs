//! The CSMA deadline slots: one armed timer per node at most, with a
//! lazily cached minimum per block of nodes and overall.
//!
//! A node's tentative-transmit deadline is live only while the node is
//! `Pending`, and its ACK timeout only while it is `WaitAck`; the two
//! states exclude each other, so one slot per node, tagged with its
//! kind, holds every live CSMA timer. A slot stores its deadline as one
//! packed key `time << 64 | seq` (`EMPTY` when disarmed), so comparing
//! two keys is comparing `(time, seq)`.
//!
//! Nodes are grouped in fixed blocks of [`BLOCK`]. Each block caches its
//! minimum key, and the whole set caches its overall minimum (the top).
//! A cache goes stale only when the entry it names is disarmed or
//! re-armed later; an arm earlier than a fresh cache updates it in
//! place, and any other arm or disarm leaves it alone. So arming and
//! disarming are O(1), and [`DeadlineSlots::peek`] is O(1) while the top
//! is fresh. After the top is popped, removed or delayed, `peek`
//! rescans the stale blocks (16 slots each) and takes the minimum of
//! the block minima.
//!
//! Entries are ordered by `(time, seq)` — the same key the simulator's
//! main event queue uses, drawn from the same sequence counter — so
//! the two queues merge into one total order.

use crate::frames::NodeId;
use whitefi_phy::SimTime;

/// Which CSMA timer a node has armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// The end of a DIFS + backoff deferral (`Pending`).
    Tentative,
    /// The ACK wait after a unicast transmission (`WaitAck`).
    Ack,
}

/// One armed CSMA timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deadline {
    pub time: SimTime,
    pub seq: u64,
    pub node: NodeId,
    pub kind: TimerKind,
}

impl Deadline {
    /// The packed `(time, seq)` key: `time << 64 | seq`.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }
}

/// Nodes per cached-minimum block.
const BLOCK: usize = 16;

/// The key of a disarmed slot; later than every real key, since a real
/// `seq` never reaches `u64::MAX`.
const EMPTY: u128 = u128::MAX;

/// A cached minimum: the smallest key of a block (or of every slot) and
/// the node holding it. `stale` marks a cache that must be rescanned.
#[derive(Debug, Clone, Copy)]
struct MinCache {
    key: u128,
    node: NodeId,
    stale: bool,
}

/// A fresh cache over no armed slot.
impl Default for MinCache {
    fn default() -> Self {
        MinCache {
            key: EMPTY,
            node: 0,
            stale: false,
        }
    }
}

impl MinCache {
    /// Records `node` armed at `key`: a key earlier than the minimum
    /// becomes the minimum, and re-arming the minimum's own node later
    /// leaves the cache stale. (A stale cache only collects garbage
    /// here; the rescan overwrites it.)
    fn on_arm(&mut self, key: u128, node: NodeId) {
        if key < self.key {
            self.key = key;
            self.node = node;
        } else if self.node == node {
            self.stale = true;
        }
    }

    /// Records `node` disarmed: removing the minimum leaves the cache
    /// stale.
    fn on_remove(&mut self, node: NodeId) {
        if self.node == node {
            self.stale = true;
        }
    }
}

/// Per-node CSMA deadline slots with lazily cached block and top minima.
#[derive(Debug, Default)]
pub(crate) struct DeadlineSlots {
    /// `keys[n]`: node `n`'s packed deadline key, or `EMPTY`.
    keys: Vec<u128>,
    /// `kinds[n]`: the kind of node `n`'s timer while `keys[n]` is armed.
    kinds: Vec<TimerKind>,
    /// `blocks[b]`: the minimum over nodes `b * BLOCK .. (b + 1) * BLOCK`.
    blocks: Vec<MinCache>,
    /// The minimum over every slot.
    top: MinCache,
}

impl DeadlineSlots {
    /// Arms `d.node`'s timer at `d`, replacing (re-keying) any timer the
    /// node already has.
    pub fn set(&mut self, d: Deadline) {
        let n = d.node;
        if n >= self.keys.len() {
            self.keys.resize(n + 1, EMPTY);
            self.kinds.resize(n + 1, TimerKind::Tentative);
            self.blocks.resize(n / BLOCK + 1, MinCache::default());
        }
        let key = d.key();
        self.keys[n] = key;
        self.kinds[n] = d.kind;
        self.blocks[n / BLOCK].on_arm(key, n);
        self.top.on_arm(key, n);
    }

    /// Disarms `node`'s timer, returning it (`None` if none was armed).
    pub fn remove(&mut self, node: NodeId) -> Option<Deadline> {
        let key = *self.keys.get(node)?;
        if key == EMPTY {
            return None;
        }
        self.keys[node] = EMPTY;
        self.blocks[node / BLOCK].on_remove(node);
        self.top.on_remove(node);
        Some(self.deadline(key, node))
    }

    /// The earliest armed deadline. Rescans stale caches first, so it
    /// takes `&mut self`.
    pub fn peek(&mut self) -> Option<Deadline> {
        if self.top.stale {
            self.refresh_top();
        }
        (self.top.key != EMPTY).then(|| self.deadline(self.top.key, self.top.node))
    }

    /// Removes and returns the earliest armed deadline.
    pub fn pop(&mut self) -> Option<Deadline> {
        let node = self.peek()?.node;
        self.remove(node)
    }

    /// `node`'s armed timer, if any.
    #[cfg(test)]
    pub fn get(&self, node: NodeId) -> Option<Deadline> {
        let key = *self.keys.get(node)?;
        (key != EMPTY).then(|| self.deadline(key, node))
    }

    /// Unpacks `node`'s deadline from its key.
    #[allow(clippy::cast_possible_truncation)] // the key's two halves
    fn deadline(&self, key: u128, node: NodeId) -> Deadline {
        Deadline {
            time: SimTime::from_nanos((key >> 64) as u64),
            seq: key as u64,
            node,
            kind: self.kinds[node],
        }
    }

    /// Recomputes the top from the block minima, rescanning stale blocks.
    fn refresh_top(&mut self) {
        let mut top = MinCache::default();
        for (b, block) in self.blocks.iter_mut().enumerate() {
            if block.stale {
                *block = scan(&self.keys, b);
            }
            if block.key < top.key {
                top.key = block.key;
                top.node = block.node;
            }
        }
        self.top = top;
    }
}

/// The fresh minimum of block `b`, by scanning its slots.
fn scan(keys: &[u128], b: usize) -> MinCache {
    let start = b * BLOCK;
    let end = keys.len().min(start + BLOCK);
    let mut min = MinCache::default();
    for (n, &key) in keys[start..end].iter().enumerate() {
        if key < min.key {
            min.key = key;
            min.node = start + n;
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    impl DeadlineSlots {
        /// Panics unless every fresh cache holds the minimum of what it
        /// covers: a non-stale block the minimum of its 16 slots, a
        /// non-stale top the minimum of every slot.
        fn check_caches(&self) {
            assert_eq!(self.blocks.len(), self.keys.len().div_ceil(BLOCK));
            for (b, block) in self.blocks.iter().enumerate() {
                if !block.stale {
                    let slots = self.keys.iter().enumerate().skip(b * BLOCK).take(BLOCK);
                    let want = slots.min_by_key(|&(_, &k)| k).map_or(EMPTY, |(_, &k)| k);
                    assert_eq!(block.key, want, "block {b} minimum key");
                    if want != EMPTY {
                        assert_eq!(self.keys[block.node], want, "block {b} minimum node");
                    }
                }
            }
            if !self.top.stale {
                let want = self.keys.iter().copied().min().unwrap_or(EMPTY);
                assert_eq!(self.top.key, want, "top key");
                if want != EMPTY {
                    assert_eq!(self.keys[self.top.node], want, "top node");
                }
            }
        }

        fn stale_blocks(&self) -> usize {
            self.blocks.iter().filter(|b| b.stale).count()
        }
    }

    /// The brute-force reference: a `Vec` of armed deadlines scanned for
    /// its minimum `(time, seq)`.
    #[derive(Default)]
    struct Model(Vec<Deadline>);

    impl Model {
        fn set(&mut self, d: Deadline) {
            self.0.retain(|m| m.node != d.node);
            self.0.push(d);
        }

        fn remove(&mut self, node: NodeId) -> Option<Deadline> {
            let i = self.0.iter().position(|d| d.node == node)?;
            Some(self.0.swap_remove(i))
        }

        fn min(&self) -> Option<Deadline> {
            self.0.iter().copied().min_by_key(Deadline::key)
        }

        fn get(&self, node: NodeId) -> Option<Deadline> {
            self.0.iter().copied().find(|d| d.node == node)
        }
    }

    /// The slots under test beside the model; each operation is applied
    /// to both, and `remove` and `pop` compare their answers.
    struct Pair {
        slots: DeadlineSlots,
        model: Model,
        nodes: usize,
        seq: u64,
    }

    impl Pair {
        fn new(nodes: usize) -> Self {
            Pair {
                slots: DeadlineSlots::default(),
                model: Model::default(),
                nodes,
                seq: 0,
            }
        }

        fn arm(&mut self, node: NodeId, time: u64, kind: TimerKind) {
            let d = Deadline {
                time: SimTime::from_nanos(time),
                seq: self.seq,
                node,
                kind,
            };
            self.seq += 1;
            self.slots.set(d);
            self.model.set(d);
        }

        fn remove(&mut self, node: NodeId, ctx: &str) {
            let want = self.model.remove(node);
            assert_eq!(self.slots.remove(node), want, "{ctx}: remove {node}");
        }

        fn pop(&mut self, ctx: &str) -> Option<Deadline> {
            let want = self.model.min();
            assert_eq!(self.slots.peek(), want, "{ctx}: peek");
            if let Some(d) = want {
                self.model.remove(d.node);
            }
            assert_eq!(self.slots.pop(), want, "{ctx}: pop");
            want
        }

        /// Checks every fresh cache and every node's slot.
        fn check(&self, ctx: &str) {
            self.slots.check_caches();
            for n in 0..self.nodes {
                assert_eq!(self.slots.get(n), self.model.get(n), "{ctx}: node {n}");
            }
        }

        /// Pops everything left, in model order.
        fn drain(&mut self, ctx: &str) {
            while self.pop(ctx).is_some() {
                self.slots.check_caches();
            }
            assert!(self.model.0.is_empty(), "{ctx}: lost entries");
            assert_eq!(self.slots.peek(), None, "{ctx}: drained");
        }
    }

    /// Random arm / re-arm (earlier and later) / remove / pop sequences
    /// agree with the brute-force model on every peek and pop and on
    /// membership, and every fresh cache equals its scan after every
    /// operation. Node counts straddle the block boundaries (15, 16, 17,
    /// 33) and reach 1,000.
    #[test]
    fn deadline_slots_match_brute_force_model() {
        let sizes = [1, 2, 15, 16, 17, 33, 64, 200, 1_000];
        for case in 0..72usize {
            let mut rng = ChaCha8Rng::seed_from_u64(case as u64);
            let nodes = sizes[case % sizes.len()];
            let ops = if nodes == 1_000 { 6_000 } else { 2_000 };
            let mut pair = Pair::new(nodes);
            let mut now = 0u64;
            for op in 0..ops {
                let ctx = format!("case {case} ({nodes} nodes), op {op}");
                let node = rng.gen_range(0..nodes);
                let kind = if rng.gen_bool(0.5) {
                    TimerKind::Tentative
                } else {
                    TimerKind::Ack
                };
                match rng.gen_range(0..4) {
                    // Arm or re-arm. A re-arm moves the node's deadline
                    // earlier or later than its current one, and coarse
                    // times make equal-time ties (broken by seq) common.
                    0 | 1 => {
                        let current = pair.model.get(node).map(|d| d.time.as_nanos());
                        let time = match (current, rng.gen_bool(0.5)) {
                            (Some(t), true) => t.saturating_sub(rng.gen_range(1..20)),
                            (Some(t), false) => t + rng.gen_range(0..20),
                            (None, _) => now + rng.gen_range(0..40),
                        };
                        pair.arm(node, time, kind);
                    }
                    2 => pair.remove(node, &ctx),
                    _ => {
                        if let Some(d) = pair.pop(&ctx) {
                            now = d.time.as_nanos();
                        }
                    }
                }
                // Every fresh cache after every op; every node's slot
                // after every op, or every 100th in the 1,000-node case.
                pair.slots.check_caches();
                assert_eq!(pair.slots.get(node), pair.model.get(node), "{ctx}");
                if nodes <= 200 || op % 100 == 0 {
                    pair.check(&ctx);
                }
            }
            pair.drain(&format!("case {case}: drain"));
        }
    }

    /// Re-arming a block's minimum earlier keeps its cache fresh, and
    /// later leaves it stale; either way the next pop is the model's.
    #[test]
    fn rearming_a_block_minimum_earlier_and_later() {
        for nodes in [15, 16, 17, 33] {
            let mut pair = Pair::new(nodes);
            for n in 0..nodes {
                pair.arm(n, 100 + n as u64, TimerKind::Tentative);
            }
            pair.check("armed");
            // Node 0 holds block 0's minimum and the top.
            pair.arm(0, 50, TimerKind::Ack);
            assert!(!pair.slots.blocks[0].stale, "{nodes}: earlier re-arm");
            assert!(!pair.slots.top.stale, "{nodes}: earlier re-arm of top");
            pair.check("earlier");
            pair.arm(0, 500, TimerKind::Tentative);
            assert!(pair.slots.blocks[0].stale, "{nodes}: later re-arm");
            pair.check("later");
            // The last block's minimum, re-armed later than everything.
            let last = (nodes - 1) / BLOCK * BLOCK;
            pair.arm(last, 900, TimerKind::Ack);
            pair.check("last block later");
            pair.drain(&format!("{nodes} nodes"));
        }
    }

    /// Removing the cached top makes the next peek rescan and return the
    /// runner-up, which may live in another block.
    #[test]
    fn removing_the_cached_top() {
        let mut pair = Pair::new(40);
        for n in 0..40 {
            pair.arm(n, 1_000 - 10 * n as u64, TimerKind::Tentative);
        }
        assert_eq!(pair.slots.peek().map(|d| d.node), Some(39));
        pair.remove(39, "top");
        assert!(pair.slots.top.stale);
        assert_eq!(pair.slots.peek().map(|d| d.node), Some(38));
        pair.remove(38, "top again");
        pair.remove(37, "top again");
        pair.check("after removals");
        pair.drain("removing the top");
    }

    /// A run of removals that leaves several blocks stale is settled by
    /// one peek, which rescans every stale block.
    #[test]
    fn peek_after_removals_across_stale_blocks() {
        let mut pair = Pair::new(100);
        for n in 0..100 {
            pair.arm(n, 10 + (n % 7) as u64, TimerKind::Tentative);
        }
        pair.slots.peek();
        // Disarm every block's minimum (the earliest node of each).
        for b in 0..100usize.div_ceil(BLOCK) {
            let min = scan(&pair.slots.keys, b).node;
            pair.remove(min, "block minimum");
        }
        assert!(pair.slots.stale_blocks() >= 6, "removals left blocks fresh");
        pair.check("stale blocks");
        let want = pair.model.min();
        assert_eq!(pair.slots.peek(), want, "peek over stale blocks");
        assert_eq!(pair.slots.stale_blocks(), 0, "peek left a block stale");
        pair.check("after peek");
        pair.drain("stale blocks");
    }
}
