//! The CSMA deadline heap: an indexed binary min-heap holding at most one
//! timer per node.
//!
//! A node's tentative-transmit deadline is live only while the node is
//! `Pending`, and its ACK timeout only while it is `WaitAck`; the two
//! states exclude each other, so one slot per node, tagged with its
//! kind, holds every live CSMA timer. `pos[n]` is the index of node
//! `n`'s entry in `heap` (or `NONE`), so re-keying and removal are
//! O(log n) and a cancelled deadline leaves nothing behind to pop.
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
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

const NONE: usize = usize::MAX;

/// Indexed min-heap of per-node CSMA deadlines.
#[derive(Debug, Default)]
pub(crate) struct TimerHeap {
    heap: Vec<Deadline>,
    /// `pos[n]`: index of node `n`'s entry in `heap`, or `NONE`.
    pos: Vec<usize>,
}

impl TimerHeap {
    /// Arms `d.node`'s timer at `d`, replacing (re-keying) any timer the
    /// node already has.
    pub fn set(&mut self, d: Deadline) {
        if d.node >= self.pos.len() {
            self.pos.resize(d.node + 1, NONE);
        }
        match self.pos[d.node] {
            NONE => {
                self.heap.push(d);
                self.sift_up(self.heap.len() - 1);
            }
            i => {
                let old = self.heap[i];
                self.heap[i] = d;
                if d.key() < old.key() {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    /// Disarms `node`'s timer, returning it (`None` if none was armed).
    pub fn remove(&mut self, node: NodeId) -> Option<Deadline> {
        let i = *self.pos.get(node)?;
        if i == NONE {
            return None;
        }
        self.pos[node] = NONE;
        let last = self.heap.pop()?;
        if i == self.heap.len() {
            return Some(last);
        }
        let removed = std::mem::replace(&mut self.heap[i], last);
        if last.key() < removed.key() {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
        Some(removed)
    }

    /// The earliest armed deadline.
    pub fn peek(&self) -> Option<&Deadline> {
        self.heap.first()
    }

    /// Removes and returns the earliest armed deadline.
    pub fn pop(&mut self) -> Option<Deadline> {
        let node = self.heap.first()?.node;
        self.remove(node)
    }

    /// `node`'s armed timer, if any.
    #[cfg(test)]
    pub fn get(&self, node: NodeId) -> Option<&Deadline> {
        let i = *self.pos.get(node)?;
        self.heap.get(i)
    }

    /// Moves the entry at `i` towards the root until its parent is not
    /// later, shifting the displaced parents down (hole technique).
    fn sift_up(&mut self, mut i: usize) {
        let d = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= d.key() {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, d);
    }

    /// Moves the entry at `i` towards the leaves until no child is
    /// earlier.
    fn sift_down(&mut self, mut i: usize) {
        let d = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].key() < self.heap[left].key() {
                right
            } else {
                left
            };
            if d.key() <= self.heap[child].key() {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, d);
    }

    fn place(&mut self, i: usize, d: Deadline) {
        self.heap[i] = d;
        self.pos[d.node] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    impl TimerHeap {
        /// Panics unless the heap property holds and `pos` indexes
        /// exactly the entries of `heap`.
        fn check_index(&self) {
            for (i, d) in self.heap.iter().enumerate() {
                assert_eq!(self.pos[d.node], i, "pos of node {} is stale", d.node);
                if i > 0 {
                    assert!(self.heap[(i - 1) / 2].key() <= d.key(), "heap order at {i}");
                }
            }
            let indexed = self.pos.iter().filter(|&&p| p != NONE).count();
            assert_eq!(indexed, self.heap.len(), "pos indexes a missing entry");
        }
    }

    /// Random arm / re-arm (earlier and later) / remove / pop sequences
    /// over up to 200 nodes agree with a brute-force model — a `Vec`
    /// scanned for its minimum `(time, seq)` — on every pop, on
    /// membership, and keep the index consistent after every operation.
    #[test]
    fn timer_heap_matches_brute_force_model() {
        for case in 0..64u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(case);
            let nodes = rng.gen_range(1..=200usize);
            let mut heap = TimerHeap::default();
            let mut model: Vec<Deadline> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for op in 0..2_000 {
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
                        let current = model.iter().find(|d| d.node == node).map(|d| d.time);
                        let time = match (current, rng.gen_bool(0.5)) {
                            (Some(t), true) => t.as_nanos().saturating_sub(rng.gen_range(1..20)),
                            (Some(t), false) => t.as_nanos() + rng.gen_range(0..20),
                            (None, _) => now + rng.gen_range(0..40),
                        };
                        let d = Deadline {
                            time: SimTime::from_nanos(time),
                            seq,
                            node,
                            kind,
                        };
                        seq += 1;
                        heap.set(d);
                        model.retain(|m| m.node != node);
                        model.push(d);
                    }
                    2 => {
                        let want = model.iter().position(|d| d.node == node);
                        let want = want.map(|i| model.swap_remove(i));
                        assert_eq!(heap.remove(node), want, "{ctx}: remove {node}");
                    }
                    _ => {
                        let min = (0..model.len()).min_by_key(|&i| model[i].key());
                        let want = min.map(|i| model.swap_remove(i));
                        assert_eq!(heap.peek().copied(), want, "{ctx}: peek");
                        assert_eq!(heap.pop(), want, "{ctx}: pop");
                        if let Some(d) = want {
                            now = d.time.as_nanos();
                        }
                    }
                }
                heap.check_index();
                assert_eq!(heap.heap.len(), model.len(), "{ctx}: size");
                for n in 0..nodes {
                    let want = model.iter().find(|d| d.node == n);
                    assert_eq!(heap.get(n), want, "{ctx}: membership of node {n}");
                }
            }
            // Drain: the remaining entries pop in model order.
            while let Some(d) = heap.pop() {
                let i = (0..model.len()).min_by_key(|&i| model[i].key());
                assert_eq!(
                    i.map(|i| model.swap_remove(i)),
                    Some(d),
                    "case {case}: drain"
                );
                heap.check_index();
            }
            assert!(model.is_empty(), "case {case}: heap lost entries");
        }
    }
}
