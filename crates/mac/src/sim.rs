//! The discrete-event simulation engine: CSMA/CA nodes over a shared
//! medium, with pluggable per-node behaviours.
//!
//! # Model
//!
//! * Time is integer nanoseconds ([`SimTime`]); events at equal times fire
//!   in scheduling order, so runs are exactly reproducible under a seed.
//!   Randomness is per node: every node owns a `ChaCha8Rng` seeded from
//!   the simulator seed with a distinct stream id (by default its node
//!   id, overridable via [`NodeConfig::rng_stream`]), so a node's draws
//!   are a pure function of `(seed, stream, its own draw count)` —
//!   independent of which other nodes exist (DESIGN.md §9).
//! * Each node is tuned to one `(F, W)` channel at a time (the prototype
//!   has a single transceiver; §4, "we design our system … with one
//!   transceiver and one scanner"). The scanner is modelled by the
//!   windowed queries on [`Medium`].
//! * DCF: a node with pending frames waits until no carrier is sensed on
//!   *any* UHF channel its `(F, W)` spans, then defers DIFS plus a uniform
//!   backoff drawn from `[0, CW)` slots, all width-scaled. Collisions
//!   double `CW` up to `CW_MAX`; the retry limit drops the frame.
//!   (Backoff is redrawn when a deferral is interrupted — a documented
//!   simplification that preserves binary exponential backoff on losses.)
//! * A frame is delivered only to nodes tuned to the *exact same* `(F,W)`
//!   since before it started (the width/centre mismatch drop rule; a
//!   receiver locks onto the preamble) that are in range, not themselves
//!   transmitting, and see no interfering transmission overlapping the
//!   frame in time and spectrum.
//! * Unicast data elicits an ACK one SIFS later; beacons elicit a
//!   CTS-to-self one SIFS later (the SIFT discovery signature, §4.2.1).
//!   Both are sent without carrier sensing, as in 802.11.

use crate::faults::{FaultEvent, FaultPlan, FaultState};
use crate::frames::{Frame, FrameKind, NodeId};
use crate::interference::within_range;
use crate::medium::{Medium, Transmission};
use crate::stats::NodeStats;
use crate::timers::{Deadline, DeadlineSlots, TimerKind};
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use whitefi_phy::{ChaCha8Rng, PhyTiming, SimDuration, SimTime};
use whitefi_spectrum::{IncumbentSet, SpectrumMap, UhfChannel, WfChannel, Width};

/// Scanner sensitivity used for incumbent detection, dBm. The KNOWS
/// scanner detects TV at −114 dBm and mics at −110 dBm (§3).
pub const SCANNER_SENSITIVITY_DBM: f64 = -114.0;

/// Cheap per-class event-loop counters.
///
/// `scheduled` counts logical schedules, CSMA timer arms included;
/// `handled` counts events popped and dispatched. A timer disarmed
/// before its deadline (a deferral interrupted by a busy medium, an
/// ACK that arrived, a retune) is scheduled but never handled. Counters
/// never influence simulation behaviour.
///
/// `stale_tentative`, `stale_ack_timeout` and `lazy_elided` are zero by
/// construction: CSMA timers live in per-node deadline slots, and
/// disarming one empties its slot (DESIGN.md §8), so no timer pop is
/// ever stale and no arm is ever elided. The fields remain for
/// readers of the counter record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Events scheduled (logical; includes CSMA timer arms).
    pub scheduled: u64,
    /// Events popped from the queues and handled.
    pub handled: u64,
    /// Stale tentative-transmit timer pops; always 0.
    pub stale_tentative: u64,
    /// Stale ACK-timeout pops; always 0.
    pub stale_ack_timeout: u64,
    /// Elided timer arms; always 0.
    pub lazy_elided: u64,
}

impl EventCounters {
    /// Counter-wise difference `self - earlier`, for attributing a
    /// workload between two snapshots of the same monotone counters.
    pub fn delta_since(&self, earlier: EventCounters) -> EventCounters {
        EventCounters {
            scheduled: self.scheduled.wrapping_sub(earlier.scheduled),
            handled: self.handled.wrapping_sub(earlier.handled),
            stale_tentative: self.stale_tentative.wrapping_sub(earlier.stale_tentative),
            stale_ack_timeout: self
                .stale_ack_timeout
                .wrapping_sub(earlier.stale_ack_timeout),
            lazy_elided: self.lazy_elided.wrapping_sub(earlier.lazy_elided),
        }
    }
}

/// Counter-wise sum, for totalling the counters of several simulators.
impl std::ops::AddAssign for EventCounters {
    fn add_assign(&mut self, other: EventCounters) {
        self.scheduled += other.scheduled;
        self.handled += other.handled;
        self.stale_tentative += other.stale_tentative;
        self.stale_ack_timeout += other.stale_ack_timeout;
        self.lazy_elided += other.lazy_elided;
    }
}

static GLOBAL_SCHEDULED: AtomicU64 = AtomicU64::new(0);
static GLOBAL_HANDLED: AtomicU64 = AtomicU64::new(0);

/// Process-wide totals of every [`Simulator`]'s event counters, flushed
/// when each simulator is dropped. Monotone: snapshot before and after
/// a workload and use [`EventCounters::delta_since`] to attribute it.
/// When simulations run concurrently the attribution is approximate —
/// the totals are shared by all threads.
pub fn global_event_totals() -> EventCounters {
    EventCounters {
        scheduled: GLOBAL_SCHEDULED.load(Ordering::Relaxed),
        handled: GLOBAL_HANDLED.load(Ordering::Relaxed),
        ..EventCounters::default()
    }
}

/// Initial DCF contention window, slots.
pub(crate) const CW_MIN: u32 = 16;
/// Maximum DCF contention window, slots.
pub(crate) const CW_MAX: u32 = 1024;
/// Retransmissions before a frame is dropped.
const RETRY_LIMIT: u32 = 7;

/// Lag between an incumbent transition and a node noticing it.
pub const DETECTION_DELAY: SimDuration = SimDuration::from_millis(50);

/// The timing used for DIFS/slot contention: the narrowest width's, at
/// every width. PLL scaling stretches all PHY timing, but a
/// wide-channel node contending with 4x-shorter DIFS/slots would all but
/// starve overlapping narrow channels — against WhiteFi's §6
/// coexistence goal. Uniform contention timing restores cross-width
/// fairness; PHY SIFS and frame durations remain width-scaled (SIFT's
/// signatures are untouched).
pub(crate) fn contention_timing() -> PhyTiming {
    PhyTiming::for_width(Width::W5)
}

/// Static configuration of a node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Initial `(F, W)` channel.
    pub channel: WfChannel,
    /// Whether the node is an access point (feeds the `B_c` estimate).
    pub is_ap: bool,
    /// Position in metres (for range checks).
    pub pos: (f64, f64),
    /// Transmission/carrier-sense range in metres.
    pub range: f64,
    /// The primary users audible at this node.
    pub incumbents: IncumbentSet,
    /// The network (SSID) the node belongs to, if any. Scanner queries
    /// from [`Ctx`] exclude the node's own SSID, because Equation 1's
    /// airtime and AP counts measure *other* networks.
    pub ssid: Option<u32>,
    /// RNG stream id for this node's private `ChaCha8Rng` (seeded from
    /// the simulator seed, `set_stream(rng_stream)`). Defaults to the
    /// node's insertion id. Drivers that prune provably non-interacting
    /// nodes set it explicitly so surviving nodes keep the stream ids
    /// they had in the unpruned network (DESIGN.md §9).
    pub rng_stream: Option<u64>,
}

impl NodeConfig {
    /// A default configuration on the given channel: co-located nodes in a
    /// single collision domain, no incumbents.
    pub fn on_channel(channel: WfChannel) -> Self {
        Self {
            channel,
            is_ap: false,
            pos: (0.0, 0.0),
            range: 1.0e6,
            incumbents: IncumbentSet::default(),
            ssid: None,
            rng_stream: None,
        }
    }

    /// Assigns the node to a network (SSID).
    pub fn in_ssid(mut self, ssid: u32) -> Self {
        self.ssid = Some(ssid);
        self
    }

    /// Marks the node as an AP.
    pub fn ap(mut self) -> Self {
        self.is_ap = true;
        self
    }

    /// Sets the position.
    pub fn at(mut self, x: f64, y: f64) -> Self {
        self.pos = (x, y);
        self
    }

    /// Sets the incumbent environment.
    pub fn with_incumbents(mut self, inc: IncumbentSet) -> Self {
        self.incumbents = inc;
        self
    }

    /// Pins the node's RNG stream id (defaults to the insertion id).
    pub fn rng_stream(mut self, stream: u64) -> Self {
        self.rng_stream = Some(stream);
        self
    }
}

/// Callbacks a node's logic receives from the engine.
///
/// Implementations act through the [`Ctx`] handle. Callbacks never recurse
/// into other behaviours: everything a behaviour does is mediated by
/// future events.
pub trait Behavior {
    /// Called once when the simulation starts (or the node is added to a
    /// running simulation).
    fn on_start(&mut self, ctx: &mut Ctx);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, key: u64, ctx: &mut Ctx) {
        let _ = (key, ctx);
    }

    /// A frame addressed to this node (or broadcast) was delivered.
    fn on_frame(&mut self, frame: &Frame, ctx: &mut Ctx) {
        let _ = (frame, ctx);
    }

    /// A queued unicast frame completed: acknowledged (`success`) or
    /// dropped after the retry limit. Broadcast frames always report
    /// success once sent.
    fn on_send_result(&mut self, frame: &Frame, success: bool, ctx: &mut Ctx) {
        let _ = (frame, success, ctx);
    }

    /// The node's observed spectrum map changed (an incumbent appeared or
    /// left, after the detection delay).
    fn on_incumbent_change(&mut self, map: SpectrumMap, ctx: &mut Ctx) {
        let _ = (map, ctx);
    }
}

/// Passive taps on the engine's state transitions, for invariant
/// oracles and trace collectors.
///
/// Observers see every transmission (start and finish), every retune,
/// and every observed-map update, *after* the engine has applied them.
/// They cannot influence the simulation: the engine hands out only
/// shared references, calls arrive at deterministic points of the event
/// loop, and an installed observer never changes scheduling — a run
/// with an observer is event-for-event identical to one without.
pub trait SimObserver {
    /// A transmission was just placed on the medium.
    fn on_tx_start(&mut self, now: SimTime, tx: &Transmission) {
        let _ = (now, tx);
    }

    /// A transmission just left the medium. `faulted_drop` is true when
    /// the installed [`FaultPlan`] lost it at every receiver.
    fn on_tx_end(&mut self, now: SimTime, tx: &Transmission, faulted_drop: bool) {
        let _ = (now, tx, faulted_drop);
    }

    /// Node `node` retuned from `old` to `new` (`old != new`).
    fn on_retune(&mut self, now: SimTime, node: NodeId, old: WfChannel, new: WfChannel) {
        let _ = (now, node, old, new);
    }

    /// Node `node`'s observed spectrum map changed (post detection
    /// delay, including any faulted extra).
    fn on_observed_map(&mut self, now: SimTime, node: NodeId, map: &SpectrumMap) {
        let _ = (now, node, map);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CsmaState {
    Idle,
    Pending,
    Transmitting,
    WaitAck,
}

#[derive(Debug)]
struct Node {
    cfg: NodeConfig,
    channel: WfChannel,
    queue: VecDeque<Frame>,
    state: CsmaState,
    cw: u32,
    retries: u32,
    current_tx: Option<u64>,
    observed_map: SpectrumMap,
    stats: NodeStats,
    /// Frozen backoff slots carried across deferral interruptions (real
    /// DCF decrements its counter only during idle slots and *freezes*
    /// it when the medium goes busy; without this, slow-slot narrow
    /// channels are systematically starved by fast-slot wide ones).
    slots_left: Option<u64>,
    /// When the current deferral was scheduled (to compute consumed
    /// slots on interruption).
    pending_since: SimTime,
    /// Slots of the current deferral.
    pending_slots: u64,
    /// This node's transmissions currently on the air (mirrors the
    /// medium's active list, so half-duplex checks are O(1)).
    active_tx: u32,
    /// Other nodes' active transmissions that reach this node on an
    /// overlapping channel: it senses carrier iff nonzero (DESIGN.md §8).
    sensed: usize,
    /// The latest end among the carriers that reached this node on its
    /// current channel, its own included (recomputed on a retune and by
    /// `add_node`): the carrier bookkeeping behind [`Core::interfered`].
    latest_end: SimTime,
    /// The medium's next transmission id at this node's last retune or
    /// `add_node`: only transmissions from that id on can reach it as
    /// receptions (DESIGN.md §8, "Per-receiver interference verdicts").
    tuned_at: u64,
    /// The latest transmission on this node's exact channel that
    /// reaches it, and whether it has been interfered with here so far
    /// (stale after a retune, and then never read: see `tuned_at`).
    watch: Option<Watch>,
    /// The last watch a later start replaced at exactly its frame's end,
    /// ahead of that frame's `TxEnd`, with its final verdict.
    settled: Option<Watch>,
    /// The node's private deterministic RNG: `ChaCha8Rng` seeded from
    /// the simulator seed on this node's stream. Backoff draws and
    /// behaviour draws ([`Ctx::rng`]) both come from here, so a node's
    /// draw sequence is independent of every other node's.
    rng: ChaCha8Rng,
}

/// A transmission a delivery candidate watches: one on the node's exact
/// channel that reaches it. `hit` records whether another transmission
/// overlapping it in time and spectrum has reached the node so far
/// ([`Core::interfered`]).
#[derive(Debug, Clone, Copy)]
struct Watch {
    /// The watched transmission.
    id: u64,
    /// When the watched transmission ends.
    end: SimTime,
    /// Whether an interferer has reached the node.
    hit: bool,
}

impl Node {
    /// Counts a transmission starting `now` and ending at `end` that
    /// reaches this node on an overlapping channel: an interferer of the
    /// watched transmission if that is still on the air. Returns whether
    /// an earlier such carrier is still on the air (one whose `TxEnd` is
    /// due at `now` has left it).
    fn hit(&mut self, now: SimTime, end: SimTime) -> bool {
        let busy = self.latest_end > now;
        self.latest_end = self.latest_end.max(end);
        if let Some(w) = self.watch.as_mut() {
            w.hit |= now < w.end;
        }
        busy
    }
}

#[derive(Debug, Clone)]
enum Ev {
    Start { node: NodeId },
    TxEnd { id: u64 },
    // An engine-sent control frame (ACK, CTS-to-self) from `frame.src`.
    ForcedTx { frame: Frame },
    Timer { node: NodeId, key: u64 },
    IncumbentCheck { node: NodeId },
    // A broadcast delivery the fault plan deferred: the frame already
    // hit the receiver's stats at TxEnd, only the behaviour dispatch
    // runs late. Boxed: fault-only, and a second inline `Frame` would
    // widen every heap entry.
    FaultDeliver { node: NodeId, frame: Box<Frame> },
}

struct Queued {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Everything the engine owns except the behaviours (split so behaviours
/// can be called with a mutable handle to the rest).
pub struct Core {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Queued>,
    /// Every live CSMA timer: at most one per node, a `Tentative`
    /// deadline while the node is `Pending` and an `Ack` deadline while
    /// it is `WaitAck` (DESIGN.md §8).
    timers: DeadlineSlots,
    nodes: Vec<Node>,
    /// The shared medium (public for scanner-style queries).
    pub medium: Medium,
    /// Master seed; each node derives its own `ChaCha8Rng` from it on a
    /// distinct stream (see [`NodeConfig::rng_stream`]).
    seed: u64,
    counters: EventCounters,
    /// `hears[n]`: the nodes that hear `n` — every `j` with `n`'s
    /// transmissions reaching `j` — ascending, so per-transmission work
    /// visits a sender's neighbourhood instead of every node. Positions
    /// and ranges never change after `add_node`, so the float range
    /// predicate is evaluated once per ordered pair (`within_range`
    /// itself — no `d² ≤ r²` rewrite that could flip at rounding
    /// boundaries).
    hears: Vec<Vec<NodeId>>,
    /// `heard_by[n]`: the nodes `n` hears — every `i` whose transmissions
    /// reach `n` — ascending: `hears` transposed. The heard-source list
    /// of `n`'s scanner queries.
    heard_by: Vec<Vec<NodeId>>,
    /// Reusable scratch buffer for the per-transmission delivery pass.
    delivery_buf: Vec<NodeId>,
    /// Installed fault plan, if any (`None` ⇒ the fault paths are
    /// strict no-ops and the event sequence is the historical one).
    faults: Option<FaultState>,
    /// Installed passive observer, if any (never affects scheduling).
    observer: Option<Box<dyn SimObserver>>,
}

impl Core {
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.counters.scheduled += 1;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued { time: at, seq, ev });
    }

    /// Arms node `n`'s CSMA timer in its deadline slot. It takes the
    /// next global `seq`, exactly like [`Core::schedule`], so the
    /// deadline slots and the event queue share one `(time, seq)` order.
    fn arm(&mut self, n: NodeId, at: SimTime, kind: TimerKind) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.counters.scheduled += 1;
        let seq = self.seq;
        self.seq += 1;
        self.timers.set(Deadline {
            time: at,
            seq,
            node: n,
            kind,
        });
    }

    /// Extends the neighbour lists with a freshly added node. It has the
    /// largest id, so appending keeps every list ascending.
    fn register_node(&mut self, id: NodeId) {
        debug_assert_eq!(self.hears.len(), id);
        self.hears.push(Vec::new());
        self.heard_by.push(Vec::new());
        for i in 0..id {
            if self.in_range_geom(i, id) {
                self.hears[i].push(id);
                self.heard_by[id].push(i);
            }
        }
        for j in 0..=id {
            if self.in_range_geom(id, j) {
                self.hears[id].push(j);
                self.heard_by[j].push(id);
            }
        }
    }

    /// Retunes node `n`: recounts its carrier sense and restarts its
    /// interference bookkeeping on the new channel.
    fn retune(&mut self, n: NodeId, new: WfChannel) {
        if self.nodes[n].channel != new {
            self.nodes[n].channel = new;
            self.nodes[n].sensed = self.count_sensed(n);
            self.nodes[n].latest_end = self.latest_carrier_end(n);
            self.nodes[n].tuned_at = self.medium.next_id();
        }
    }

    /// Whether `from`'s transmissions reach `to`, read from the
    /// neighbour lists (on a retune or `add_node`, and in debug checks).
    fn in_range(&self, from: NodeId, to: NodeId) -> bool {
        let hit = self.hears[from].binary_search(&to).is_ok();
        debug_assert_eq!(hit, self.heard_by[to].binary_search(&from).is_ok());
        hit
    }

    /// The underlying float range predicate, evaluated once per node
    /// pair at `add_node` time to fill the neighbour lists.
    fn in_range_geom(&self, from: NodeId, to: NodeId) -> bool {
        let from = &self.nodes[from].cfg;
        within_range(from.pos, self.nodes[to].cfg.pos, from.range)
    }

    fn is_transmitting(&self, n: NodeId) -> bool {
        self.nodes[n].active_tx > 0
    }

    /// What `Node::sensed` counts, by a scan of the whole active list
    /// (on retune and `add_node`, and to check every carrier sense).
    fn count_sensed(&self, n: NodeId) -> usize {
        let c = self.nodes[n].channel;
        let hit = |t: &Transmission| {
            let src = t.frame.src;
            src != n && t.channel.overlaps(c) && self.in_range(src, n)
        };
        self.medium.active().iter().filter(|t| hit(t)).count()
    }

    /// The latest end among the active transmissions that reach node
    /// `n` on a channel overlapping its own, its own included (time zero
    /// when there is none): `Node::latest_end` after a retune or
    /// `add_node`. Carriers that already left the medium ended at or
    /// before now, so they cannot change what it is read for.
    fn latest_carrier_end(&self, n: NodeId) -> SimTime {
        let c = self.nodes[n].channel;
        self.medium
            .active()
            .iter()
            .filter(|t| t.channel.overlaps(c) && self.in_range(t.frame.src, n))
            .map(|t| t.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Whether node `n` may not start a deferral now: it senses a carrier
    /// or is itself on the air.
    fn blocked(&self, n: NodeId) -> bool {
        debug_assert_eq!(self.nodes[n].sensed, self.count_sensed(n));
        self.nodes[n].sensed > 0 || self.is_transmitting(n)
    }

    /// Whether a transmission other than `tx` that overlaps it in time
    /// and spectrum reached node `m`, a delivery candidate of `tx` (in
    /// range of `tx.frame.src`, and tuned to exactly `tx.channel` since
    /// before `tx` started), read from `m`'s carrier bookkeeping in O(1)
    /// (DESIGN.md §8, "Per-receiver interference verdicts").
    ///
    /// `m` watches `tx` from its start until the next watched start.
    /// While it does, `m` sits on `tx.channel`, so "overlaps
    /// `tx.channel`" is "overlaps `m`'s channel", the test `Node::hit`
    /// applies. An interferer then either reached `m` before `tx`
    /// started and was still on the air (`latest_end` after `tx.start`,
    /// which sets `hit` when the watch begins), or started later but
    /// before `tx.end` (a hit while watched). A watch replaced at
    /// exactly `tx.end`, ahead of its `TxEnd`, is final, and `settled`
    /// keeps it. A watch replaced earlier was replaced by a start on
    /// `tx.channel` while `tx` was on the air: a hit.
    fn interfered(&self, m: NodeId, tx: &Transmission) -> bool {
        let node = &self.nodes[m];
        [node.watch, node.settled]
            .into_iter()
            .flatten()
            .find(|w| w.id == tx.id)
            .is_none_or(|w| w.hit)
    }

    /// Filters `tx`'s delivery candidates in place down to its
    /// receivers: not transmitting (half duplex), and not reached by
    /// another transmission overlapping `tx` in time and spectrum
    /// (interference, counted as a collision). Verdicts come from
    /// [`Core::interfered`]; debug builds check each one against the
    /// history scan ([`Medium::interferer_sources_into`]), the
    /// reference implementation.
    fn keep_receivers(&mut self, tx: &Transmission, candidates: &mut Vec<NodeId>) {
        #[cfg(debug_assertions)]
        let interferers = {
            assert!(
                tx.end.since(tx.start) <= self.medium.history_horizon,
                "the history horizon must cover every frame"
            );
            let mut out = Vec::new();
            self.medium
                .interferer_sources_into(tx.channel, tx.start, tx.end, tx.id, &mut out);
            out
        };
        candidates.retain(|&m| {
            if self.is_transmitting(m) {
                return false;
            }
            let hit = self.interfered(m, tx);
            #[cfg(debug_assertions)]
            assert_eq!(
                hit,
                interferers.iter().any(|&s| self.in_range(s, m)),
                "node {m}: interference verdict on transmission {} at {:?} disagrees with the scan",
                tx.id,
                tx.end
            );
            if hit {
                self.nodes[m].stats.rx_collisions += 1;
            }
            !hit
        });
    }

    /// The first Idle node with a queued frame that is not [`blocked`]
    /// (`None` when there is none). Between events there never is one —
    /// every path that leaves a node Idle with a backlog either plans
    /// it or has just put a transmission it hears on the air — and that
    /// is the proof obligation behind the narrowed re-plan sweep at the
    /// end of `Simulator::tx_end`.
    ///
    /// [`blocked`]: Core::blocked
    fn unblocked_idle_backlog(&self) -> Option<NodeId> {
        (0..self.nodes.len()).find(|&m| {
            let node = &self.nodes[m];
            node.state == CsmaState::Idle && !node.queue.is_empty() && !self.blocked(m)
        })
    }

    /// Plans node `m` if it is Idle with frames to send.
    fn replan_idle(&mut self, m: NodeId) {
        if !self.nodes[m].queue.is_empty() && self.nodes[m].state == CsmaState::Idle {
            self.plan(m);
        }
    }

    /// (Re-)evaluates whether node `n` should schedule a transmission.
    fn plan(&mut self, n: NodeId) {
        if self.nodes[n].queue.is_empty() {
            if self.nodes[n].state == CsmaState::Pending {
                self.timers.remove(n);
                self.nodes[n].state = CsmaState::Idle;
            }
            return;
        }
        if self.nodes[n].state != CsmaState::Idle {
            return;
        }
        if self.blocked(n) {
            return; // re-planned when a transmission ends
        }
        let slots = {
            let node = &mut self.nodes[n];
            match node.slots_left.take() {
                Some(s) => s,
                None => node.rng.gen_range(0..node.cw) as u64,
            }
        };
        let node = &mut self.nodes[n];
        let timing = contention_timing();
        let at = self.now + timing.difs() + timing.slot() * slots;
        node.state = CsmaState::Pending;
        node.pending_since = self.now;
        node.pending_slots = slots;
        self.arm(n, at, TimerKind::Tentative);
    }

    /// Puts `frame` on the air from its sender, `frame.src`.
    fn start_transmission(&mut self, frame: Frame, from_queue: bool) {
        let n = frame.src;
        let node = &self.nodes[n];
        let channel = node.channel;
        let timing = PhyTiming::for_width(channel.width());
        let duration = timing.frame_duration(frame.bytes());
        let end = self.now + duration;

        // Incumbent-violation accounting: did the node transmit over a
        // primary user it has *already detected*? (During the detection
        // lag after a mic switches on, a few in-flight frames are
        // physically unavoidable — the paper §2.3 discusses exactly this
        // onset interference; the compliance meter starts once the node
        // knows.)
        let observed = self.nodes[n].observed_map;
        let violates = !observed.admits(channel);
        let broadcast = frame.dst.is_none();

        let id = self.medium.start(channel, self.now, end, frame);
        let node = &mut self.nodes[n];
        node.stats.tx_attempts += 1;
        node.active_tx += 1;
        if violates {
            node.stats.incumbent_violations += 1;
        }
        if from_queue {
            node.state = CsmaState::Transmitting;
            node.current_tx = Some(id);
        }
        if let Some(fs) = self.faults.as_mut() {
            fs.decide(n, self.now, id, broadcast);
        }
        if let Some(obs) = self.observer.as_mut() {
            // The transmission just started is the newest active entry.
            // lint:allow(unwrap, Medium::start pushed this entry immediately above; active cannot be empty here)
            let tx = self.medium.active().last().expect("just-started tx");
            obs.on_tx_start(self.now, tx);
        }
        self.schedule(end, Ev::TxEnd { id });

        // Overlapping in-range nodes, the sender included, count the
        // start for their interference verdicts, and those tuned to
        // exactly `channel` watch this transmission. The others count
        // the carrier, and their deferrals are invalidated: each freezes
        // its remaining backoff slots (DCF decrements only during idle
        // time). Only nodes that hear `n` can be affected, and each
        // one's update reads and writes its own state alone, so visiting
        // order is immaterial.
        let now = self.now;
        for k in 0..self.hears[n].len() {
            let m = self.hears[n][k];
            let node = &mut self.nodes[m];
            if !node.channel.overlaps(channel) {
                continue;
            }
            let busy = node.hit(now, end);
            if m == n {
                continue;
            }
            if node.channel == channel {
                let hit = busy;
                // A watch whose frame ended earlier was read at its
                // `TxEnd`, and one whose frame is still on the air is hit.
                let done = node.watch.replace(Watch { id, end, hit });
                if let Some(done) = done.filter(|w| w.end == now) {
                    node.settled = Some(done);
                }
            }
            node.sensed += 1;
            if node.state == CsmaState::Pending {
                let timing = contention_timing();
                let elapsed = now.saturating_since(node.pending_since);
                let idle_after_difs = elapsed.as_nanos().saturating_sub(timing.difs().as_nanos());
                let consumed = idle_after_difs / timing.slot().as_nanos().max(1);
                node.slots_left = Some(node.pending_slots.saturating_sub(consumed));
                node.state = CsmaState::Idle;
                self.timers.remove(m);
            }
        }
    }
}

/// The handle through which behaviours act on the simulation.
pub struct Ctx<'a> {
    core: &'a mut Core,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The channel the node is currently tuned to.
    pub fn channel(&self) -> WfChannel {
        self.core.nodes[self.node].channel
    }

    /// Whether this node is configured as an AP.
    pub fn is_ap(&self) -> bool {
        self.core.nodes[self.node].cfg.is_ap
    }

    /// The node's current observed spectrum map (incumbents only, after
    /// detection delay).
    pub fn spectrum_map(&self) -> SpectrumMap {
        self.core.nodes[self.node].observed_map
    }

    /// Number of frames waiting in the transmit queue.
    pub fn queue_len(&self) -> usize {
        self.core.nodes[self.node].queue.len()
    }

    /// Enqueues a frame for CSMA transmission. The frame's `src` is forced
    /// to this node.
    pub fn send(&mut self, mut frame: Frame) {
        frame.src = self.node;
        self.core.nodes[self.node].queue.push_back(frame);
        self.core.plan(self.node);
    }

    /// Enqueues a frame at the *front* of the queue (for urgent control
    /// traffic such as switch announcements).
    pub fn send_front(&mut self, mut frame: Frame) {
        frame.src = self.node;
        self.core.nodes[self.node].queue.push_front(frame);
        self.core.plan(self.node);
    }

    /// Drops all queued frames (e.g. when vacating a channel) and resets
    /// the CSMA state: any pending deferral or ACK wait refers to a frame
    /// that no longer exists.
    pub fn clear_queue(&mut self) {
        let node = &mut self.core.nodes[self.node];
        node.queue.clear();
        node.slots_left = None;
        // Disown any in-flight transmission: its completion must not pop
        // (and report) a frame enqueued after this clear.
        node.current_tx = None;
        if !matches!(node.state, CsmaState::Idle) {
            node.state = CsmaState::Idle;
        }
        self.core.timers.remove(self.node);
        self.core.plan(self.node);
    }

    /// Fires `on_timer(key)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, key: u64) {
        let at = self.core.now + delay;
        self.core.schedule(
            at,
            Ev::Timer {
                node: self.node,
                key,
            },
        );
    }

    /// Retunes the radio to `channel`. Pending deferrals are invalidated
    /// and the queue re-planned on the new channel; an in-flight ACK wait
    /// will time out naturally (the ACK arrives on the old channel).
    pub fn set_channel(&mut self, channel: WfChannel) {
        let old = self.core.nodes[self.node].channel;
        self.core.retune(self.node, channel);
        if old != channel {
            if let Some(obs) = self.core.observer.as_mut() {
                obs.on_retune(self.core.now, self.node, old, channel);
            }
        }
        let node = &mut self.core.nodes[self.node];
        node.slots_left = None;
        if matches!(node.state, CsmaState::Pending | CsmaState::WaitAck) {
            node.state = CsmaState::Idle;
        }
        self.core.timers.remove(self.node);
        self.core.plan(self.node);
    }

    /// Busy airtime fraction of UHF channel `ch` over the trailing
    /// `window` (the scanning radio's measurement; §5.4.2 uses 1 s per
    /// channel). Only transmitters whose signal reaches this node
    /// contribute: the scanner hears what the MAC hears, so a scan is
    /// independent of out-of-range traffic (DESIGN.md §13).
    pub fn airtime(&self, ch: UhfChannel, window: SimDuration) -> f64 {
        let from = self.window_start(window);
        if from == self.core.now {
            return 0.0;
        }
        let core = &*self.core;
        let ssid = core.nodes[self.node].cfg.ssid;
        let heard = Some(&core.heard_by[self.node][..]);
        core.medium
            .airtime_in_window(ch, from, core.now, ssid, heard)
    }

    /// Distinct interfering APs seen on `ch` over the trailing `window`
    /// (in-range transmitters only, like [`Ctx::airtime`]).
    pub fn ap_count(&self, ch: UhfChannel, window: SimDuration) -> u32 {
        let from = self.window_start(window);
        let core = &*self.core;
        let ssid = core.nodes[self.node].cfg.ssid;
        let heard = Some(&core.heard_by[self.node][..]);
        core.medium
            .ap_count_in_window(ch, from, core.now, ssid, heard)
    }

    /// The bursts `keep(channel, start, end)` accepts of all the scanning
    /// radio saw over the trailing `window`, in-range transmitters only
    /// (like [`Ctx::airtime`]): input for time-domain SIFT analysis such
    /// as chirp detection. Rejected bursts are never sorted or built.
    pub fn visible_bursts(
        &self,
        window: SimDuration,
        keep: impl Fn(WfChannel, SimTime, SimTime) -> bool,
    ) -> Vec<whitefi_phy::VisibleBurst> {
        let from = self.window_start(window);
        let core = &*self.core;
        let heard = Some(&core.heard_by[self.node][..]);
        core.medium.visible_bursts(from, core.now, heard, keep)
    }

    /// Start of the trailing `window` that ends now, clamped at time
    /// zero.
    fn window_start(&self, window: SimDuration) -> SimTime {
        SimTime::ZERO + self.core.now.saturating_since(SimTime::ZERO + window)
    }

    /// This node's private deterministic RNG stream. Draws here advance
    /// only this node's sequence — never another node's — so adding or
    /// removing unrelated nodes cannot shift the values a behaviour sees.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.core.nodes[self.node].rng
    }
}

/// The simulator: engine core plus per-node behaviours.
pub struct Simulator {
    core: Core,
    behaviors: Vec<Option<Box<dyn Behavior>>>,
}

impl Simulator {
    /// A new simulator seeded for deterministic runs.
    pub fn new(seed: u64) -> Self {
        Self {
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                timers: DeadlineSlots::default(),
                nodes: Vec::new(),
                medium: Medium::new(),
                seed,
                counters: EventCounters::default(),
                hears: Vec::new(),
                heard_by: Vec::new(),
                delivery_buf: Vec::new(),
                faults: None,
                observer: None,
            },
            behaviors: Vec::new(),
        }
    }

    /// Installs a fault plan. Must be called before nodes are added so
    /// every node gets a fault RNG on its own stream; the plan's
    /// `history_skew` (if any) is applied to the medium immediately.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.core.nodes.is_empty(),
            "install the fault plan before adding nodes"
        );
        if let Some(skew) = plan.history_skew {
            self.core.medium.history_horizon = skew;
        }
        let seed = self.core.seed;
        self.core.faults = Some(FaultState::new(plan, seed));
    }

    /// Installs a passive observer (invariant oracle, trace collector).
    /// Observers never influence the simulation.
    pub fn set_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.core.observer = Some(observer);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.core.faults.as_ref().map(|fs| fs.plan())
    }

    /// Every fault fired so far, in firing order.
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.core.faults.as_ref().map_or(&[], |fs| fs.events())
    }

    /// The extra incumbent-detection latency the fault plan assigned to
    /// node `n` (zero without a plan).
    pub fn fault_detection_extra(&self, n: NodeId) -> SimDuration {
        self.core
            .faults
            .as_ref()
            .map_or(SimDuration::ZERO, |fs| fs.detection_extra(n))
    }

    /// Adds a node; its behaviour's `on_start` runs when the simulation
    /// reaches the current time.
    pub fn add_node(&mut self, cfg: NodeConfig, behavior: Box<dyn Behavior>) -> NodeId {
        let id = self.core.nodes.len();
        let observed_map = cfg
            .incumbents
            .map_at(self.core.now.as_nanos(), SCANNER_SENSITIVITY_DBM);
        let first_change = cfg.incumbents.next_change(self.core.now.as_nanos());
        let stream = cfg.rng_stream.unwrap_or(id as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(self.core.seed);
        rng.set_stream(stream); // stream-map: domain=sim-nodes salt=scenario-seed streams=0..=4294967295 role="node MAC/traffic draws (stream = NodeConfig::rng_stream or node id)"
        let src = self.core.medium.add_source(cfg.is_ap, cfg.ssid);
        debug_assert_eq!(src, id, "node ids are medium registration order");
        self.core.nodes.push(Node {
            channel: cfg.channel,
            cw: CW_MIN,
            cfg,
            queue: VecDeque::new(),
            state: CsmaState::Idle,
            retries: 0,
            current_tx: None,
            observed_map,
            stats: NodeStats::default(),
            slots_left: None,
            pending_since: SimTime::ZERO,
            pending_slots: 0,
            active_tx: 0,
            sensed: 0,
            latest_end: SimTime::ZERO,
            tuned_at: self.core.medium.next_id(),
            watch: None,
            settled: None,
            rng,
        });
        self.core.register_node(id);
        self.core.nodes[id].sensed = self.core.count_sensed(id);
        self.core.nodes[id].latest_end = self.core.latest_carrier_end(id);
        self.behaviors.push(Some(behavior));
        let now = self.core.now;
        let extra = match self.core.faults.as_mut() {
            Some(fs) => fs.register_node(id, stream, now),
            None => SimDuration::ZERO,
        };
        self.core.schedule(now, Ev::Start { node: id });
        if let Some(t) = first_change {
            self.core.schedule(
                SimTime::from_nanos(t) + DETECTION_DELAY + extra,
                Ev::IncumbentCheck { node: id },
            );
        }
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Read access to the medium (for scanner-style drivers).
    pub fn medium(&self) -> &Medium {
        &self.core.medium
    }

    /// Mutable access to the medium, so drivers can configure retention
    /// (e.g. tightening [`Medium::history_horizon`] for runs that never
    /// issue scanner queries) before events start flowing.
    pub fn medium_mut(&mut self) -> &mut Medium {
        &mut self.core.medium
    }

    /// Event-loop counters accumulated by this simulator so far.
    pub fn event_counters(&self) -> EventCounters {
        self.core.counters
    }

    /// The kind of node `n`'s armed CSMA timer, if any.
    #[cfg(test)]
    fn armed_timer(&self, n: NodeId) -> Option<TimerKind> {
        self.core.timers.get(n).map(|d| d.kind)
    }

    /// Node `n`'s carrier-sense counter.
    #[cfg(test)]
    fn sensed(&self, n: NodeId) -> usize {
        self.core.nodes[n].sensed
    }

    /// Whether `from`'s transmissions reach `to`, answered from the
    /// neighbour lists the hot paths use (debug builds check that both
    /// lists agree).
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.core.in_range(from, to)
    }

    /// The same reachability predicate recomputed from node positions —
    /// the brute-force reference for verifying the neighbour lists.
    pub fn reaches_geometric(&self, from: NodeId, to: NodeId) -> bool {
        self.core.in_range_geom(from, to)
    }

    /// Stats of node `n`.
    pub fn stats(&self, n: NodeId) -> NodeStats {
        self.core.nodes[n].stats
    }

    /// Resets all node stats (to measure a steady-state window).
    pub fn reset_stats(&mut self) {
        for node in &mut self.core.nodes {
            node.stats = NodeStats::default();
        }
    }

    /// The channel node `n` is tuned to.
    pub fn node_channel(&self, n: NodeId) -> WfChannel {
        self.core.nodes[n].channel
    }

    /// The spectrum map node `n` currently observes.
    pub fn observed_map(&self, n: NodeId) -> SpectrumMap {
        self.core.nodes[n].observed_map
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// Runs the simulation until `end` (inclusive of events at `end`).
    pub fn run_until(&mut self, end: SimTime) {
        while self.step(end) {}
        self.core.now = end;
    }

    /// Handles the next event if it is due at or before `end`; returns
    /// whether there was one.
    ///
    /// The next event is whichever of the event queue's head and the
    /// earliest armed deadline slot has the smaller `(time, seq)`; both
    /// draw `seq` from one counter, so there are no ties.
    fn step(&mut self, end: SimTime) -> bool {
        let next_event = self.core.queue.peek().map(|q| (q.time, q.seq));
        let next_timer = self.core.timers.peek().map(|d| (d.time, d.seq));
        let timer_first = next_timer.is_some_and(|t| next_event.is_none_or(|e| t < e));
        let Some((time, _)) = (if timer_first { next_timer } else { next_event }) else {
            return false;
        };
        if time > end {
            return false;
        }
        self.core.now = time;
        self.core.counters.handled += 1;
        if timer_first {
            if let Some(d) = self.core.timers.pop() {
                match d.kind {
                    TimerKind::Tentative => self.tentative_tx(d.node),
                    TimerKind::Ack => self.ack_timeout(d.node),
                }
            }
        } else if let Some(q) = self.core.queue.pop() {
            self.handle(q.ev);
        }
        true
    }

    fn dispatch<F: FnOnce(&mut dyn Behavior, &mut Ctx)>(&mut self, node: NodeId, f: F) {
        // lint:allow(unwrap, the slot is only empty while its own dispatch runs; re-entrancy is a documented panic)
        let mut b = self.behaviors[node].take().expect("behaviour re-entrancy");
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        f(b.as_mut(), &mut ctx);
        self.behaviors[node] = Some(b);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Start { node } => {
                self.dispatch(node, |b, ctx| b.on_start(ctx));
            }
            Ev::Timer { node, key } => {
                self.dispatch(node, |b, ctx| b.on_timer(key, ctx));
            }
            Ev::IncumbentCheck { node } => {
                let now_ns = self.core.now.as_nanos();
                let map = self.core.nodes[node]
                    .cfg
                    .incumbents
                    .map_at(now_ns, SCANNER_SENSITIVITY_DBM);
                let next = self.core.nodes[node].cfg.incumbents.next_change(now_ns);
                if let Some(t) = next {
                    let extra = self
                        .core
                        .faults
                        .as_ref()
                        .map_or(SimDuration::ZERO, |fs| fs.detection_extra(node));
                    self.core.schedule(
                        SimTime::from_nanos(t) + DETECTION_DELAY + extra,
                        Ev::IncumbentCheck { node },
                    );
                }
                if map != self.core.nodes[node].observed_map {
                    self.core.nodes[node].observed_map = map;
                    if let Some(obs) = self.core.observer.as_mut() {
                        obs.on_observed_map(self.core.now, node, &map);
                    }
                    self.dispatch(node, |b, ctx| b.on_incumbent_change(map, ctx));
                }
            }
            Ev::ForcedTx { frame } => {
                if self.core.is_transmitting(frame.src) {
                    return; // half-duplex: cannot send the control frame
                }
                self.core.start_transmission(frame, false);
            }
            Ev::TxEnd { id } => self.tx_end(id),
            Ev::FaultDeliver { node, frame } => {
                self.dispatch(node, |b, ctx| b.on_frame(&frame, ctx));
            }
        }
    }

    /// Node `node`'s deferral ran out: transmit the head of its queue
    /// unless the medium went busy again.
    fn tentative_tx(&mut self, node: NodeId) {
        debug_assert_eq!(self.core.nodes[node].state, CsmaState::Pending);
        if self.core.blocked(node) {
            // Busy again: the counter effectively reached zero;
            // transmit at the first post-DIFS opportunity.
            self.core.nodes[node].slots_left = Some(0);
            self.core.nodes[node].state = CsmaState::Idle;
            return;
        }
        // The queue keeps its copy until the frame is acked or
        // dropped; the medium gets its own.
        let frame = self.core.nodes[node]
            .queue
            .front()
            // lint:allow(unwrap, a node only enters Pending with a queued frame and dequeues on TxEnd; documented panic)
            .expect("pending tx with empty queue")
            .clone();
        self.core.start_transmission(frame, true);
    }

    /// Node `node`'s ACK wait expired: retry with a doubled window, or
    /// drop the frame at the retry limit.
    fn ack_timeout(&mut self, node: NodeId) {
        debug_assert_eq!(self.core.nodes[node].state, CsmaState::WaitAck);
        let n = &mut self.core.nodes[node];
        n.retries += 1;
        if n.retries > RETRY_LIMIT {
            let Some(frame) = n.queue.pop_front() else {
                n.retries = 0;
                n.state = CsmaState::Idle;
                return;
            };
            n.retries = 0;
            n.cw = CW_MIN;
            n.state = CsmaState::Idle;
            n.stats.tx_failures += 1;
            self.core.plan(node);
            self.dispatch(node, |b, ctx| b.on_send_result(&frame, false, ctx));
        } else {
            n.cw = (n.cw * 2).min(CW_MAX);
            n.slots_left = None; // redraw from the doubled window
            n.state = CsmaState::Idle;
            self.core.plan(node);
        }
    }

    fn tx_end(&mut self, id: u64) {
        let now = self.core.now;
        let tx = self.core.medium.finish(id, now);
        let src = tx.frame.src;
        self.core.nodes[src].active_tx -= 1;
        // The carrier is gone for every node that counted it. This runs
        // before anything below can `plan`.
        let Core { hears, nodes, .. } = &mut self.core;
        for &m in &hears[src] {
            if m != src && nodes[m].channel.overlaps(tx.channel) {
                nodes[m].sensed -= 1;
            }
        }
        let fault = self
            .core
            .faults
            .as_mut()
            .map(|fs| fs.take(id))
            .unwrap_or_default();
        if let Some(obs) = self.core.observer.as_mut() {
            obs.on_tx_end(now, &tx, fault.drop);
        }

        // --- Receiver side ---------------------------------------------
        // Candidates are the nodes in range of `src` and tuned to exactly
        // `tx.channel` (the width/centre match) since before `tx` started
        // (ids follow start order), ascending by id: the same set and
        // order a full scan would produce, read off `hears[src]`.
        let mut deliveries = std::mem::take(&mut self.core.delivery_buf);
        deliveries.clear();
        // A faulted drop loses the frame at *every* receiver: delivery
        // is skipped wholesale, and the sender's ACK wait (if any)
        // times out naturally — retries and backoff emerge from the
        // normal CSMA paths.
        if !fault.drop {
            let core = &self.core;
            deliveries.extend(core.hears[src].iter().filter(|&&m| {
                let node = &core.nodes[m];
                m != src && node.channel == tx.channel && node.tuned_at <= tx.id
            }));
        }
        self.core.keep_receivers(&tx, &mut deliveries);

        // Beacon ⇒ CTS-to-self one SIFS later, regardless of receivers.
        if matches!(tx.frame.kind, FrameKind::Beacon { .. }) {
            let timing = PhyTiming::for_width(tx.channel.width());
            let cts = Frame {
                src,
                dst: None,
                kind: FrameKind::Cts,
            };
            self.core
                .schedule(now + timing.sifs(), Ev::ForcedTx { frame: cts });
        }

        for &m in &deliveries {
            match (tx.frame.dst, &tx.frame.kind) {
                (Some(dst), FrameKind::Ack)
                    if dst == m
                    // ACK consumed by the engine.
                    && self.core.nodes[m].state == CsmaState::WaitAck =>
                {
                    self.core.timers.remove(m);
                    let node = &mut self.core.nodes[m];
                    // The queue can only be empty if the behaviour
                    // cleared it between TX and ACK; treat the ACK as
                    // spurious then.
                    let Some(frame) = node.queue.pop_front() else {
                        node.state = CsmaState::Idle;
                        continue;
                    };
                    node.stats.tx_acked_bytes += frame.bytes() as u64;
                    node.stats.tx_acked_frames += 1;
                    node.retries = 0;
                    node.cw = CW_MIN;
                    node.state = CsmaState::Idle;
                    self.core.plan(m);
                    self.dispatch(m, |b, ctx| b.on_send_result(&frame, true, ctx));
                }
                (_, FrameKind::Cts) => { /* occupies air only */ }
                (Some(dst), _) if dst == m => {
                    // Unicast data/report: ACK one SIFS later, then deliver.
                    if tx.frame.needs_ack() {
                        let node = &mut self.core.nodes[m];
                        node.stats.rx_data_bytes += tx.frame.bytes() as u64;
                        node.stats.rx_data_frames += 1;
                        let timing = PhyTiming::for_width(tx.channel.width());
                        let ack = Frame {
                            src: m,
                            dst: Some(src),
                            kind: FrameKind::Ack,
                        };
                        self.core
                            .schedule(now + timing.sifs(), Ev::ForcedTx { frame: ack });
                    }
                    self.dispatch(m, |b, ctx| b.on_frame(&tx.frame, ctx));
                }
                (None, _) => {
                    self.core.nodes[m].stats.rx_broadcast_frames += 1;
                    if let Some(by) = fault.delay {
                        // Deferred processing: stats above already
                        // counted the reception at the true time.
                        let frame = Box::new(tx.frame.clone());
                        self.core
                            .schedule(now + by, Ev::FaultDeliver { node: m, frame });
                    } else {
                        self.dispatch(m, |b, ctx| b.on_frame(&tx.frame, ctx));
                        if fault.duplicate {
                            self.dispatch(m, |b, ctx| b.on_frame(&tx.frame, ctx));
                        }
                    }
                }
                _ => { /* overheard unicast for someone else */ }
            }
        }
        self.core.delivery_buf = deliveries;

        // --- Sender side -------------------------------------------------
        if self.core.nodes[src].current_tx == Some(id) {
            self.core.nodes[src].current_tx = None;
            if tx.frame.needs_ack() {
                self.core.nodes[src].state = CsmaState::WaitAck;
                let timing = PhyTiming::for_width(tx.channel.width());
                let deadline = now + timing.sifs() + timing.ack_duration() + timing.slot();
                self.core.arm(src, deadline, TimerKind::Ack);
            } else {
                // Broadcast: done on first transmission. The queue is
                // empty only if the behaviour cleared it while the frame
                // was on the air — nothing left to report then.
                let node = &mut self.core.nodes[src];
                let frame = node.queue.pop_front();
                node.state = CsmaState::Idle;
                self.core.plan(src);
                if let Some(frame) = frame {
                    self.dispatch(src, |b, ctx| b.on_send_result(&frame, true, ctx));
                }
            }
        }

        // --- Medium possibly idle: re-plan waiting nodes -----------------
        // Only `src` and the nodes that hear it can have been unblocked:
        // before this event every Idle node with a backlog was blocked
        // (`Core::unblocked_idle_backlog`), and the only blocking that
        // just ended is this transmission — carrier at the nodes it
        // reached, half-duplex at `src`. Every other Idle node with a
        // backlog is still blocked by a transmission still on the air,
        // and `plan` on a blocked node has no side effects, so visiting
        // `src ∪ hears[src]` in ascending id schedules exactly what a
        // sweep over all nodes would, with the same sequence numbers.
        let hears = std::mem::take(&mut self.core.hears[src]);
        let split = hears.partition_point(|&m| m < src);
        for &m in &hears[..split] {
            self.core.replan_idle(m);
        }
        self.core.replan_idle(src);
        for &m in &hears[split..] {
            if m != src {
                self.core.replan_idle(m);
            }
        }
        self.core.hears[src] = hears;
        debug_assert_eq!(
            self.core.unblocked_idle_backlog(),
            None,
            "an Idle node with queued frames is neither blocked nor re-planned"
        );
    }
}

impl Drop for Simulator {
    fn drop(&mut self) {
        let c = self.core.counters;
        GLOBAL_SCHEDULED.fetch_add(c.scheduled, Ordering::Relaxed);
        GLOBAL_HANDLED.fetch_add(c.handled, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whitefi_spectrum::Width;

    /// Sends `count` data frames to `dst` back-to-back.
    struct Blaster {
        dst: NodeId,
        bytes: usize,
        remaining: usize,
    }

    impl Behavior for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let n = self.remaining.min(2);
            for _ in 0..n {
                self.remaining -= 1;
                ctx.send(Frame::data(ctx.id(), self.dst, self.bytes));
            }
        }
        fn on_send_result(&mut self, _f: &Frame, _ok: bool, ctx: &mut Ctx) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(Frame::data(ctx.id(), self.dst, self.bytes));
            }
        }
    }

    /// Layout pin: frames are copied on every heap push/pop, queue
    /// enqueue and history append, so each must stay a few words.
    #[test]
    fn frames_and_events_stay_compact() {
        use std::mem::size_of;
        let why =
            "payloads larger than a cache line travel out of line (DESIGN.md §8, Compact frames)";
        assert!(
            size_of::<Frame>() <= 48,
            "Frame is {} B; {why}",
            size_of::<Frame>()
        );
        assert!(
            size_of::<Transmission>() <= 72,
            "Transmission is {} B; {why}",
            size_of::<Transmission>()
        );
        assert!(
            size_of::<Queued>() <= 64,
            "Queued is {} B; {why}",
            size_of::<Queued>()
        );
    }

    /// Does nothing (a pure receiver).
    struct Sink;
    impl Behavior for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
    }

    fn ch(center: usize, w: Width) -> WfChannel {
        WfChannel::from_parts(center, w)
    }

    #[test]
    fn single_flow_delivers_all_frames() {
        let mut sim = Simulator::new(1);
        let c = ch(10, Width::W20);
        let rx = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
        let _tx = sim.add_node(
            NodeConfig::on_channel(c),
            Box::new(Blaster {
                dst: 0,
                bytes: 1000,
                remaining: 50,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        let s = sim.stats(rx);
        assert_eq!(s.rx_data_frames, 50);
        assert_eq!(s.rx_data_bytes, 50_000);
        assert_eq!(sim.stats(1).tx_acked_frames, 50);
        assert_eq!(sim.stats(1).tx_failures, 0);
    }

    #[test]
    fn width_mismatch_drops_everything() {
        // Receiver tuned to a different width on the same centre: the
        // paper's "explicitly drop packets that were sent at a different
        // channel width".
        let mut sim = Simulator::new(1);
        let rx = sim.add_node(NodeConfig::on_channel(ch(10, Width::W10)), Box::new(Sink));
        let tx = sim.add_node(
            NodeConfig::on_channel(ch(10, Width::W20)),
            Box::new(Blaster {
                dst: 0,
                bytes: 500,
                remaining: 5,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.stats(rx).rx_data_frames, 0);
        // Sender exhausts retries on every frame.
        assert_eq!(sim.stats(tx).tx_acked_frames, 0);
        assert_eq!(sim.stats(tx).tx_failures, 5);
    }

    #[test]
    fn center_mismatch_drops_everything() {
        let mut sim = Simulator::new(1);
        let rx = sim.add_node(NodeConfig::on_channel(ch(11, Width::W20)), Box::new(Sink));
        let _tx = sim.add_node(
            NodeConfig::on_channel(ch(10, Width::W20)),
            Box::new(Blaster {
                dst: 0,
                bytes: 500,
                remaining: 5,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats(rx).rx_data_frames, 0);
    }

    #[test]
    fn out_of_range_not_delivered() {
        let mut sim = Simulator::new(1);
        let c = ch(10, Width::W20);
        let mut far = NodeConfig::on_channel(c);
        far.pos = (5000.0, 0.0);
        far.range = 100.0;
        let rx = sim.add_node(far, Box::new(Sink));
        let mut near = NodeConfig::on_channel(c);
        near.range = 100.0;
        let _tx = sim.add_node(
            near,
            Box::new(Blaster {
                dst: 0,
                bytes: 500,
                remaining: 5,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats(rx).rx_data_frames, 0);
    }

    #[test]
    fn two_flows_share_a_channel() {
        // Two saturating flows on one channel: CSMA shares the medium and
        // both make progress with roughly equal goodput.
        let mut sim = Simulator::new(7);
        let c = ch(10, Width::W20);
        let rx0 = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
        let rx1 = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
        let _t0 = sim.add_node(
            NodeConfig::on_channel(c),
            Box::new(Blaster {
                dst: rx0,
                bytes: 1000,
                remaining: 100_000,
            }),
        );
        let _t1 = sim.add_node(
            NodeConfig::on_channel(c),
            Box::new(Blaster {
                dst: rx1,
                bytes: 1000,
                remaining: 100_000,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        let g0 = sim.stats(rx0).rx_data_bytes as f64;
        let g1 = sim.stats(rx1).rx_data_bytes as f64;
        assert!(g0 > 0.0 && g1 > 0.0);
        let ratio = g0.max(g1) / g0.min(g1);
        assert!(ratio < 1.5, "unfair split: {g0} vs {g1}");
        // Combined goodput below channel capacity but well above half.
        let total_mbps = (g0 + g1) * 8.0 / 2.0 / 1e6;
        assert!(total_mbps > 3.0 && total_mbps < 6.0, "total {total_mbps}");
    }

    #[test]
    fn saturated_20mhz_goodput_near_rate() {
        let mut sim = Simulator::new(3);
        let c = ch(10, Width::W20);
        let rx = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
        let _tx = sim.add_node(
            NodeConfig::on_channel(c),
            Box::new(Blaster {
                dst: rx,
                bytes: 1400,
                remaining: 1_000_000,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        let mbps = sim.stats(rx).rx_goodput_mbps(SimDuration::from_secs(2));
        // 6 Mbps PHY minus DIFS/backoff/ACK overhead: expect ~4.5–5.5.
        assert!(mbps > 4.0 && mbps < 6.0, "goodput {mbps}");
    }

    #[test]
    fn goodput_scales_with_width() {
        let run = |w: Width| {
            let mut sim = Simulator::new(3);
            let c = ch(10, w);
            let rx = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
            let _tx = sim.add_node(
                NodeConfig::on_channel(c),
                Box::new(Blaster {
                    dst: rx,
                    bytes: 1400,
                    remaining: 1_000_000,
                }),
            );
            sim.run_until(SimTime::from_secs(2));
            sim.stats(rx).rx_goodput_mbps(SimDuration::from_secs(2))
        };
        let g20 = run(Width::W20);
        let g10 = run(Width::W10);
        let g5 = run(Width::W5);
        assert!(g20 > 1.8 * g10 && g20 < 2.2 * g10, "g20 {g20} g10 {g10}");
        assert!(g10 > 1.8 * g5 && g10 < 2.2 * g5, "g10 {g10} g5 {g5}");
    }

    #[test]
    fn cross_width_contention_shares_overlapping_spectrum() {
        // A 20 MHz flow spanning channels 8..=12 and a 5 MHz flow on
        // channel 12 contend (carrier sense across widths): both make
        // progress, neither gets its isolated-channel goodput.
        let solo5 = {
            let mut sim = Simulator::new(5);
            let c5 = ch(12, Width::W5);
            let rx = sim.add_node(NodeConfig::on_channel(c5), Box::new(Sink));
            sim.add_node(
                NodeConfig::on_channel(c5),
                Box::new(Blaster {
                    dst: rx,
                    bytes: 1000,
                    remaining: 1_000_000,
                }),
            );
            sim.run_until(SimTime::from_secs(2));
            sim.stats(rx).rx_data_bytes
        };
        let mut sim = Simulator::new(5);
        let c20 = ch(10, Width::W20);
        let c5 = ch(12, Width::W5);
        let rx20 = sim.add_node(NodeConfig::on_channel(c20), Box::new(Sink));
        let rx5 = sim.add_node(NodeConfig::on_channel(c5), Box::new(Sink));
        sim.add_node(
            NodeConfig::on_channel(c20),
            Box::new(Blaster {
                dst: rx20,
                bytes: 1000,
                remaining: 1_000_000,
            }),
        );
        sim.add_node(
            NodeConfig::on_channel(c5),
            Box::new(Blaster {
                dst: rx5,
                bytes: 1000,
                remaining: 1_000_000,
            }),
        );
        sim.run_until(SimTime::from_secs(2));
        let b20 = sim.stats(rx20).rx_data_bytes;
        let b5 = sim.stats(rx5).rx_data_bytes;
        assert!(b20 > 0 && b5 > 0, "both flows must progress: {b20} {b5}");
        // Bounded deviation test: the exact discount depends on how the
        // backoff draws interleave (uniform W5-slot contention), and has
        // measured between ~0.65 and ~0.81 of solo across RNG backends.
        // The invariant pinned here is two-sided: cross-width carrier
        // sense must cost the narrow flow real airtime, but must not
        // starve it (see the known-failure triage note in ROADMAP.md).
        assert!(
            (b5 as f64) < 0.85 * solo5 as f64,
            "5 MHz flow must lose goodput to contention: {b5} vs solo {solo5}"
        );
        assert!(
            (b5 as f64) > 0.4 * solo5 as f64,
            "5 MHz flow must not be starved by contention: {b5} vs solo {solo5}"
        );
    }

    #[test]
    fn non_overlapping_channels_do_not_contend() {
        let mut sim = Simulator::new(9);
        let a = ch(2, Width::W5);
        let b = ch(20, Width::W5);
        let rxa = sim.add_node(NodeConfig::on_channel(a), Box::new(Sink));
        let rxb = sim.add_node(NodeConfig::on_channel(b), Box::new(Sink));
        sim.add_node(
            NodeConfig::on_channel(a),
            Box::new(Blaster {
                dst: rxa,
                bytes: 1000,
                remaining: 1_000_000,
            }),
        );
        sim.add_node(
            NodeConfig::on_channel(b),
            Box::new(Blaster {
                dst: rxb,
                bytes: 1000,
                remaining: 1_000_000,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        let ga = sim.stats(rxa).rx_data_bytes as f64;
        let gb = sim.stats(rxb).rx_data_bytes as f64;
        // Both get full single-flow goodput (within 10% of each other).
        assert!((ga / gb - 1.0).abs() < 0.1, "{ga} vs {gb}");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(seed);
            let c = ch(10, Width::W20);
            let rx = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
            sim.add_node(
                NodeConfig::on_channel(c),
                Box::new(Blaster {
                    dst: rx,
                    bytes: 777,
                    remaining: 1_000,
                }),
            );
            sim.run_until(SimTime::from_millis(700));
            sim.stats(rx)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).rx_data_frames, 0);
    }

    #[test]
    fn incumbent_change_callback_fires() {
        use whitefi_spectrum::{MicActivity, MicSchedule, WirelessMic};

        struct Watcher {
            changes: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, bool)>>>,
        }
        impl Behavior for Watcher {
            fn on_start(&mut self, _ctx: &mut Ctx) {}
            fn on_incumbent_change(&mut self, map: SpectrumMap, ctx: &mut Ctx) {
                self.changes
                    .borrow_mut()
                    .push((ctx.now(), map.is_occupied(UhfChannel::from_index(9))));
            }
        }

        let changes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut inc = IncumbentSet::default();
        inc.mics.push(WirelessMic::new(
            UhfChannel::from_index(9),
            MicSchedule::scripted(vec![MicActivity {
                start: SimTime::from_secs(1).as_nanos(),
                end: SimTime::from_secs(2).as_nanos(),
            }]),
        ));
        let mut sim = Simulator::new(1);
        let cfg = NodeConfig::on_channel(ch(9, Width::W5)).with_incumbents(inc);
        sim.add_node(
            cfg,
            Box::new(Watcher {
                changes: changes.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(3));
        let log = changes.borrow();
        assert_eq!(log.len(), 2, "{log:?}");
        // Mic on at 1 s, detected 50 ms later.
        assert_eq!(log[0].0, SimTime::from_millis(1050));
        assert!(log[0].1);
        assert_eq!(log[1].0, SimTime::from_millis(2050));
        assert!(!log[1].1);
    }

    #[test]
    fn incumbent_violation_counted() {
        use whitefi_spectrum::{MicActivity, MicSchedule, WirelessMic};
        // A node that ignores the mic and keeps transmitting over it.
        let mut inc = IncumbentSet::default();
        inc.mics.push(WirelessMic::new(
            UhfChannel::from_index(10),
            MicSchedule::scripted(vec![MicActivity {
                start: 0,
                end: SimTime::from_secs(10).as_nanos(),
            }]),
        ));
        let mut sim = Simulator::new(1);
        let c = ch(10, Width::W20);
        let rx = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
        let tx = sim.add_node(
            NodeConfig::on_channel(c).with_incumbents(inc),
            Box::new(Blaster {
                dst: rx,
                bytes: 500,
                remaining: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.stats(tx).incumbent_violations > 0);
        // The oblivious receiver transmitted ACKs but has no mic nearby,
        // so it records no violations.
        assert_eq!(sim.stats(rx).incumbent_violations, 0);
    }

    #[test]
    fn timer_and_channel_switch() {
        struct Hopper {
            target: WfChannel,
        }
        impl Behavior for Hopper {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(5), 1);
            }
            fn on_timer(&mut self, key: u64, ctx: &mut Ctx) {
                assert_eq!(key, 1);
                ctx.set_channel(self.target);
            }
        }
        let mut sim = Simulator::new(1);
        let c0 = ch(5, Width::W5);
        let c1 = ch(20, Width::W10);
        let n = sim.add_node(NodeConfig::on_channel(c0), Box::new(Hopper { target: c1 }));
        sim.run_until(SimTime::from_millis(4));
        assert_eq!(sim.node_channel(n), c0);
        sim.run_until(SimTime::from_millis(6));
        assert_eq!(sim.node_channel(n), c1);
    }

    /// Contended traffic — three saturating senders on overlapping
    /// widths, unicast with ACKs, one mid-run retune — interrupts
    /// deferrals and disarms ACK timeouts all the time, yet no pop is
    /// ever stale: disarming a timer empties its deadline slot, so it is
    /// scheduled and never handled.
    #[test]
    fn event_counters_track_traffic() {
        /// Blasts data at `dst`, retuning to `hop` after 20 ms.
        struct Retuner {
            dst: NodeId,
            hop: WfChannel,
        }
        impl Behavior for Retuner {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(20), 0);
                ctx.send(Frame::data(ctx.id(), self.dst, 800));
            }
            fn on_timer(&mut self, _key: u64, ctx: &mut Ctx) {
                ctx.set_channel(self.hop);
            }
            fn on_send_result(&mut self, _f: &Frame, _ok: bool, ctx: &mut Ctx) {
                ctx.send(Frame::data(ctx.id(), self.dst, 800));
            }
        }
        let w20 = ch(10, Width::W20);
        let w10 = ch(10, Width::W10);
        let w5 = ch(12, Width::W5);
        let mut sim = Simulator::new(1);
        let rx20 = sim.add_node(NodeConfig::on_channel(w20), Box::new(Sink));
        let rx5 = sim.add_node(NodeConfig::on_channel(w5), Box::new(Sink));
        let blast = |dst| Blaster {
            dst,
            bytes: 1000,
            remaining: 1_000_000,
        };
        sim.add_node(NodeConfig::on_channel(w20), Box::new(blast(rx20)));
        sim.add_node(NodeConfig::on_channel(w5), Box::new(blast(rx5)));
        let hopper = sim.add_node(
            NodeConfig::on_channel(w10),
            Box::new(Retuner {
                dst: rx20,
                hop: w20,
            }),
        );
        sim.run_until(SimTime::from_millis(300));
        assert_eq!(sim.node_channel(hopper), w20, "retune missing");
        assert!(sim.stats(rx20).rx_data_frames > 0 && sim.stats(rx5).rx_data_frames > 0);
        assert!(sim.stats(hopper).tx_acked_frames > 0);
        let ev = sim.event_counters();
        assert!(ev.handled > 0);
        // Disarmed timers are scheduled but never popped.
        assert!(ev.handled < ev.scheduled, "{ev:?}");
        assert_eq!(ev.stale_tentative, 0, "{ev:?}");
        assert_eq!(ev.stale_ack_timeout, 0, "{ev:?}");
        assert_eq!(ev.lazy_elided, 0, "{ev:?}");
        // Summing is counter-wise and undone by `delta_since`.
        let mut twice = ev;
        twice += ev;
        assert_eq!(twice.handled, 2 * ev.handled);
        assert_eq!(twice.scheduled, 2 * ev.scheduled);
        assert_eq!(twice.delta_since(ev), ev);
    }

    /// The proof obligation behind the narrowed `tx_end` re-plan sweep,
    /// checked after every single event: each Idle node with a queued
    /// frame senses a carrier or is itself transmitting. The topology has
    /// mixed widths (W20 spanning a W5 and a W10 channel), two clusters
    /// far out of each other's range on the same channels (so a sweep of
    /// one sender's neighbourhood skips the other cluster's backlogged
    /// nodes), unicast data answered by ACK `ForcedTx`, and mid-run
    /// retunes.
    ///
    /// After every event, every node's carrier-sense counter also equals
    /// a brute-force count over the medium's active list. Beside the
    /// clusters sit a node that keeps retuning between W20 and W5 (so it
    /// retunes while transmissions it hears are on the air) and a pair
    /// out of each other's range, whose sender out-reaches the cluster
    /// nodes that cannot reach it back.
    #[test]
    fn idle_backlogged_nodes_stay_blocked_after_every_event() {
        /// Blasts data at `dst`, retuning to `hop` after 30 ms.
        struct HopBlaster {
            dst: NodeId,
            hop: WfChannel,
        }
        impl Behavior for HopBlaster {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(30), 0);
                for _ in 0..3 {
                    ctx.send(Frame::data(ctx.id(), self.dst, 600));
                }
            }
            fn on_timer(&mut self, _key: u64, ctx: &mut Ctx) {
                ctx.set_channel(self.hop);
            }
            fn on_send_result(&mut self, _f: &Frame, _ok: bool, ctx: &mut Ctx) {
                ctx.send(Frame::data(ctx.id(), self.dst, 600));
            }
        }
        /// Blasts data at `dst`, flipping between two channels every
        /// 1.3 ms.
        struct Flipper {
            dst: NodeId,
            chans: [WfChannel; 2],
        }
        impl Behavior for Flipper {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_micros(1300), 0);
                ctx.send(Frame::data(ctx.id(), self.dst, 300));
            }
            fn on_timer(&mut self, _key: u64, ctx: &mut Ctx) {
                let next = if ctx.channel() == self.chans[0] {
                    self.chans[1]
                } else {
                    self.chans[0]
                };
                ctx.set_channel(next);
                ctx.set_timer(SimDuration::from_micros(1300), 0);
            }
            fn on_send_result(&mut self, _f: &Frame, _ok: bool, ctx: &mut Ctx) {
                ctx.send(Frame::data(ctx.id(), self.dst, 300));
            }
        }
        let w20 = ch(10, Width::W20);
        let w10 = ch(10, Width::W10);
        let w5 = ch(12, Width::W5);
        let mut sim = Simulator::new(11);
        let node = |c: WfChannel, x: f64| {
            let mut cfg = NodeConfig::on_channel(c).at(x, 0.0);
            cfg.range = 100.0;
            cfg
        };
        for x in [0.0, 5000.0] {
            let base = sim.node_count();
            sim.add_node(node(w20, x), Box::new(Sink));
            sim.add_node(node(w5, x + 10.0), Box::new(Sink));
            let blast = |dst| Blaster {
                dst,
                bytes: 900,
                remaining: 1_000_000,
            };
            sim.add_node(node(w20, x + 20.0), Box::new(blast(base)));
            sim.add_node(node(w5, x + 30.0), Box::new(blast(base + 1)));
            sim.add_node(
                node(w10, x + 40.0),
                Box::new(HopBlaster {
                    dst: base,
                    hop: w20,
                }),
            );
        }
        let flipper = sim.add_node(
            node(w20, 15.0),
            Box::new(Flipper {
                dst: 0,
                chans: [w20, w5],
            }),
        );
        // The pair: `far` reaches the cluster nodes at x >= 20 (150 m
        // range) but not `lost`, and only those three reach `far` back.
        let lost = sim.add_node(node(w20, 300.0), Box::new(Sink));
        let mut far_cfg = node(w20, 120.0);
        far_cfg.range = 150.0;
        let far = sim.add_node(
            far_cfg,
            Box::new(Blaster {
                dst: lost,
                bytes: 700,
                remaining: 1_000_000,
            }),
        );
        assert!(!sim.reaches(0, 5) && !sim.reaches(5, 0));
        assert!(!sim.reaches(far, lost) && !sim.reaches(lost, far));
        assert!(sim.reaches(far, 0) && !sim.reaches(0, far) && sim.reaches(2, far));
        let end = SimTime::from_millis(400);
        let mut events = 0u64;
        let mut flipper_channel = sim.node_channel(flipper);
        let (mut retunes_under_carrier, mut far_sensed) = (0, 0);
        while sim.step(end) {
            events += 1;
            for n in 0..sim.node_count() {
                let brute = sim
                    .medium()
                    .active()
                    .iter()
                    .filter(|t| {
                        t.frame.src != n
                            && t.channel.overlaps(sim.node_channel(n))
                            && sim.reaches_geometric(t.frame.src, n)
                    })
                    .count();
                assert_eq!(
                    sim.sensed(n),
                    brute,
                    "node {n} carrier count after event {events} at {:?}",
                    sim.now()
                );
            }
            if sim.node_channel(flipper) != flipper_channel {
                flipper_channel = sim.node_channel(flipper);
                if sim.sensed(flipper) > 0 {
                    retunes_under_carrier += 1;
                }
            }
            if sim.sensed(far) > 0 {
                far_sensed += 1;
            }
            assert_eq!(
                sim.core.unblocked_idle_backlog(),
                None,
                "after event {events} at {:?}",
                sim.now()
            );
            // A node has an armed CSMA timer iff it is Pending (a
            // tentative deadline) or WaitAck (an ACK deadline).
            for n in 0..sim.node_count() {
                let want = match sim.core.nodes[n].state {
                    CsmaState::Pending => Some(TimerKind::Tentative),
                    CsmaState::WaitAck => Some(TimerKind::Ack),
                    CsmaState::Idle | CsmaState::Transmitting => None,
                };
                assert_eq!(
                    sim.armed_timer(n),
                    want,
                    "node {n} after event {events} at {:?}",
                    sim.now()
                );
            }
        }
        // The floor is on live work, not pops: 400 ms of this topology
        // makes 632 transmission attempts (data frames and ACKs).
        let attempts: u64 = (0..sim.node_count())
            .map(|n| sim.stats(n).tx_attempts)
            .sum();
        assert!(attempts > 300, "only {attempts} transmission attempts");
        assert!(
            retunes_under_carrier > 10,
            "only {retunes_under_carrier} retunes while a heard transmission was on the air"
        );
        assert!(far_sensed > 0, "the pair's sender never sensed the cluster");
        assert_eq!(sim.stats(lost).rx_data_frames, 0);
        assert!(sim.stats(far).tx_failures > 0);
        for base in [0, 5] {
            assert_eq!(sim.node_channel(base + 4), w20, "retune missing");
            assert!(sim.stats(base).rx_data_frames > 0);
            assert!(sim.stats(base + 1).rx_data_frames > 0);
            // ACKs came back through ForcedTx.
            assert!(sim.stats(base + 2).tx_acked_frames > 0);
            assert!(sim.stats(base + 4).tx_acked_frames > 0);
        }
    }

    /// Frames a [`Probe`] was handed: delivery time and sender.
    type Log = std::rc::Rc<std::cell::RefCell<Vec<(SimTime, NodeId)>>>;

    /// A receiver that logs every frame it is handed and retunes to
    /// each listed channel at its time (listed in time order).
    struct Probe {
        log: Log,
        hops: Vec<(SimTime, WfChannel)>,
    }
    impl Behavior for Probe {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for &(at, _) in &self.hops {
                ctx.set_timer(at.since(ctx.now()), 0);
            }
        }
        fn on_timer(&mut self, _key: u64, ctx: &mut Ctx) {
            let (_, channel) = self.hops.remove(0);
            ctx.set_channel(channel);
        }
        fn on_frame(&mut self, f: &Frame, ctx: &mut Ctx) {
            self.log.borrow_mut().push((ctx.now(), f.src));
        }
    }

    /// A probe that never retunes, and its log.
    fn probe() -> (Box<Probe>, Log) {
        let log = Log::default();
        let hops = Vec::new();
        (
            Box::new(Probe {
                log: log.clone(),
                hops,
            }),
            log,
        )
    }

    /// Puts `frame` on the air from `frame.src` at `at` without carrier
    /// sense, the way the engine sends ACKs. A frame forced before the
    /// run starts ahead of every `TxEnd` due at the same instant (it
    /// holds the smaller sequence number); one forced after the run
    /// reached a transmission's start, behind that transmission's end.
    fn force_at(sim: &mut Simulator, at: SimTime, frame: Frame) {
        sim.core.schedule(at, Ev::ForcedTx { frame });
    }

    /// A broadcast data frame: it elicits no ACK, so it occupies the air
    /// only for its own duration.
    fn bcast(src: NodeId, bytes: usize) -> Frame {
        Frame {
            src,
            dst: None,
            kind: FrameKind::Data { bytes },
        }
    }

    fn airtime(c: WfChannel, bytes: usize) -> SimDuration {
        PhyTiming::for_width(c.width()).frame_duration(bytes)
    }

    /// The watched frames go out on `WIDE`; carriers go out on `NARROW`,
    /// which overlaps it, so they reach the receiver's carrier sense
    /// without being delivery candidates (no node is tuned to `NARROW`)
    /// and without ACKs.
    const WIDE: (usize, Width) = (10, Width::W20);
    const NARROW: (usize, Width) = (10, Width::W5);

    fn wide() -> WfChannel {
        ch(WIDE.0, WIDE.1)
    }

    fn narrow() -> WfChannel {
        ch(NARROW.0, NARROW.1)
    }

    /// Two same-channel senders starting at one instant collide at the
    /// receiver, and each sender, once off the air, is a candidate of the
    /// other's frame hit by its own transmission. In debug builds every
    /// verdict below is also checked against the history scan.
    #[test]
    fn simultaneous_starts_collide() {
        let mut sim = Simulator::new(1);
        let (p, log) = probe();
        let rx = sim.add_node(NodeConfig::on_channel(wide()), p);
        let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let b = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let t0 = SimTime::from_millis(1);
        let t1 = SimTime::from_millis(10);
        force_at(&mut sim, t0, Frame::data(a, rx, 1000));
        force_at(&mut sim, t0, Frame::data(b, rx, 1000));
        force_at(&mut sim, t1, Frame::data(a, rx, 1000));
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.stats(rx).rx_collisions, 2);
        assert_eq!(sim.stats(rx).rx_data_frames, 1);
        assert_eq!(*log.borrow(), [(t1 + airtime(wide(), 1000), a)]);
        // Both frames end together: `a`'s end comes first, so `a` is off
        // the air at `b`'s end and its own frame hit it there, while `b`
        // is still transmitting at `a`'s end (half duplex, no verdict).
        assert_eq!(sim.stats(a).rx_collisions, 1);
        assert_eq!(sim.stats(b).rx_collisions, 0);
    }

    /// A carrier whose end is due at the instant the watched frame
    /// starts does not overlap it, whether its `TxEnd` is still pending
    /// at that start or has already run.
    #[test]
    fn carrier_ending_at_the_start_does_not_interfere() {
        let mut sim = Simulator::new(1);
        let (p, log) = probe();
        let rx = sim.add_node(NodeConfig::on_channel(wide()), p);
        let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let c = sim.add_node(NodeConfig::on_channel(narrow()), Box::new(Sink));
        let (dn, d) = (airtime(narrow(), 200), airtime(wide(), 1000));
        // Pending: the watched start is forced ahead of the carrier's end.
        let t0 = SimTime::from_millis(1);
        force_at(&mut sim, t0, bcast(c, 200));
        force_at(&mut sim, t0 + dn, Frame::data(a, rx, 1000));
        // Already run: the watched start is forced once the carrier is
        // on the air, behind its end.
        let t1 = SimTime::from_millis(10);
        force_at(&mut sim, t1, bcast(c, 200));
        sim.run_until(t1);
        force_at(&mut sim, t1 + dn, Frame::data(a, rx, 1000));
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.stats(rx).rx_collisions, 0);
        assert_eq!(sim.stats(rx).rx_data_frames, 2);
        assert_eq!(*log.borrow(), [(t0 + dn + d, a), (t1 + dn + d, a)]);
    }

    /// A carrier starting exactly at the watched frame's end does not
    /// overlap it, whether it starts before or after that end's `TxEnd`.
    /// Started before, it reaches the receiver while the frame is still
    /// watched, at `tx.end` itself, which is not before `tx.end`.
    #[test]
    fn carrier_starting_at_the_end_does_not_interfere() {
        let mut sim = Simulator::new(1);
        let (p, log) = probe();
        let rx = sim.add_node(NodeConfig::on_channel(wide()), p);
        let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let c = sim.add_node(NodeConfig::on_channel(narrow()), Box::new(Sink));
        let d = airtime(wide(), 1000);
        let t0 = SimTime::from_millis(1);
        force_at(&mut sim, t0, Frame::data(a, rx, 1000));
        force_at(&mut sim, t0 + d, bcast(c, 200));
        let t1 = SimTime::from_millis(10);
        force_at(&mut sim, t1, Frame::data(a, rx, 1000));
        sim.run_until(t1);
        force_at(&mut sim, t1 + d, bcast(c, 200));
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(sim.stats(rx).rx_collisions, 0);
        assert_eq!(sim.stats(rx).rx_data_frames, 2);
        assert_eq!(*log.borrow(), [(t0 + d, a), (t1 + d, a)]);
    }

    /// A receiver that retunes onto the frame's channel mid-frame, or
    /// away and back, missed the frame's start: it neither receives the
    /// frame nor counts it as a collision, whether or not a carrier
    /// overlapped the frame, while it was away or not. Once it stays on
    /// the channel, the next frame is received.
    #[test]
    fn retune_mid_frame_neither_receives_nor_collides() {
        let off = ch(20, Width::W5);
        let (dn, d) = (airtime(narrow(), 100), airtime(wide(), 1500));
        assert!(d / 4 + dn < d * 3 / 4);
        let t = [1, 10, 20, 30, 40].map(SimTime::from_millis);
        let mut sim = Simulator::new(1);
        let log = Log::default();
        let hops = vec![
            // Onto the frame's channel after the carrier left the air.
            (t[0] + dn + (d - dn) / 2, wide()),
            // Away and back around a carrier on the frame's spectrum.
            (t[1] + d / 8, off),
            (t[1] + d * 3 / 4, wide()),
            // Onto the frame's channel during a clean frame.
            (t[2] - SimDuration::from_millis(1), off),
            (t[2] + d / 2, wide()),
            // Away and back during a clean frame.
            (t[3] + d / 4, off),
            (t[3] + d / 2, wide()),
        ];
        let p = Probe {
            log: log.clone(),
            hops,
        };
        let rx = sim.add_node(NodeConfig::on_channel(off), Box::new(p));
        let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let c = sim.add_node(NodeConfig::on_channel(narrow()), Box::new(Sink));
        force_at(&mut sim, t[0], bcast(c, 100));
        force_at(&mut sim, t[1] + d / 4, bcast(c, 100));
        for at in t {
            force_at(&mut sim, at, Frame::data(a, rx, 1500));
        }
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.node_channel(rx), wide());
        assert_eq!(sim.stats(rx).rx_collisions, 0);
        assert_eq!(sim.stats(rx).rx_data_frames, 1);
        assert_eq!(*log.borrow(), [(t[4] + d, a)]);
    }

    /// The rule's tie: a receiver that tunes onto the frame's channel
    /// at the frame's start watched it from its start only if the retune
    /// ran first in event order. Tuned in time, it receives a clean
    /// frame and counts a frame hit by a carrier as a collision; tuned
    /// late, it does neither.
    #[test]
    fn retune_at_the_start_is_decided_by_event_order() {
        let off = ch(20, Width::W5);
        let d = airtime(wide(), 1000);
        let t0 = SimTime::from_millis(1);
        let us = SimDuration::from_micros(1);
        // (rx_data_frames, rx_collisions) after one frame at `t0`, with
        // the receiver retuning onto its channel at `hop`, and a carrier
        // mid-frame if `carrier`.
        let run = |hop: SimTime, hop_first: bool, carrier: bool| {
            let mut sim = Simulator::new(1);
            let p = Probe {
                log: Log::default(),
                hops: vec![(hop, wide())],
            };
            let rx = sim.add_node(NodeConfig::on_channel(off), Box::new(p));
            let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
            let c = sim.add_node(NodeConfig::on_channel(narrow()), Box::new(Sink));
            // The probe arms its hop when it starts, at time zero: a
            // frame forced before that runs ahead of the hop at `t0`, one
            // forced after it behind.
            if !hop_first {
                force_at(&mut sim, t0, Frame::data(a, rx, 1000));
            }
            sim.run_until(SimTime::ZERO);
            if hop_first {
                force_at(&mut sim, t0, Frame::data(a, rx, 1000));
            }
            if carrier {
                force_at(&mut sim, t0 + d / 2, bcast(c, 100));
            }
            sim.run_until(SimTime::from_millis(10));
            (sim.stats(rx).rx_data_frames, sim.stats(rx).rx_collisions)
        };
        for (hop, hop_first, watched) in [
            (t0 - us, false, true),
            (t0, true, true),
            (t0, false, false),
            (t0 + us, true, false),
        ] {
            let (clean, hit) = if watched {
                ((1, 0), (0, 1))
            } else {
                ((0, 0), (0, 0))
            };
            let case = format!("hop at {hop:?}, hop first: {hop_first}");
            assert_eq!(run(hop, hop_first, false), clean, "{case}, clean");
            assert_eq!(run(hop, hop_first, true), hit, "{case}, carrier");
        }
    }

    /// One receiver watching overlapping same-channel frames. The second
    /// start replaces the watch on the first while it is on the air,
    /// which makes the first a hit, and both collide. A second frame
    /// starting exactly at the first's end (ahead of its `TxEnd`) also
    /// replaces the watch, yet does not overlap it: the first is settled
    /// clean and delivered, and the second is then hit by the receiver's
    /// own ACK. Three staggered frames replace the first one's watch
    /// twice before it ends, and all three collide, read from the
    /// bookkeeping alone like every other verdict.
    #[test]
    fn overlapping_watched_frames() {
        let mut sim = Simulator::new(1);
        let (p, log) = probe();
        let rx = sim.add_node(NodeConfig::on_channel(wide()), p);
        let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let b = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let c = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let d = airtime(wide(), 1000);
        let t0 = SimTime::from_millis(1);
        force_at(&mut sim, t0, Frame::data(a, rx, 1000));
        force_at(&mut sim, t0 + d / 2, Frame::data(b, rx, 1000));
        let t1 = SimTime::from_millis(10);
        force_at(&mut sim, t1, Frame::data(a, rx, 1000));
        force_at(&mut sim, t1 + d, Frame::data(b, rx, 1000));
        let t2 = SimTime::from_millis(20);
        force_at(&mut sim, t2, Frame::data(a, rx, 1000));
        force_at(&mut sim, t2 + d / 3, Frame::data(b, rx, 1000));
        force_at(&mut sim, t2 + d * 2 / 3, Frame::data(c, rx, 1000));
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(sim.stats(rx).rx_collisions, 6);
        assert_eq!(sim.stats(rx).rx_data_frames, 1);
        assert_eq!(*log.borrow(), [(t1 + d, a)]);
    }

    /// The receiver's own transmission during the frame hits it; if it
    /// is still on the air at the frame's end, the receiver is half
    /// duplex and gets no verdict at all.
    #[test]
    fn own_transmission_mid_frame() {
        let mut sim = Simulator::new(1);
        let (p, log) = probe();
        let rx = sim.add_node(NodeConfig::on_channel(wide()), p);
        let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let (d, own) = (airtime(wide(), 1500), airtime(wide(), 100));
        assert!(own < d / 2);
        let t0 = SimTime::from_millis(1);
        force_at(&mut sim, t0, Frame::data(a, rx, 1500));
        force_at(&mut sim, t0 + d / 4, bcast(rx, 100));
        let t1 = SimTime::from_millis(10);
        force_at(&mut sim, t1, Frame::data(a, rx, 1500));
        force_at(&mut sim, t1 + d - own / 2, bcast(rx, 100));
        let t2 = SimTime::from_millis(20);
        force_at(&mut sim, t2, Frame::data(a, rx, 1500));
        sim.run_until(SimTime::from_millis(30));
        assert_eq!(sim.stats(rx).rx_collisions, 1);
        assert_eq!(sim.stats(rx).rx_data_frames, 1);
        assert_eq!(*log.borrow(), [(t2 + d, a)]);
        // `a` was on the air through both broadcasts.
        assert_eq!(sim.stats(a).rx_broadcast_frames, 0);
    }

    /// A node added mid-run starts its carrier bookkeeping from the
    /// carriers already on the air: a frame that starts after it joined,
    /// while a carrier from before is still on the air, collides there,
    /// and a frame that started before it joined is neither received
    /// nor counted as a collision.
    #[test]
    fn node_added_mid_run_counts_carriers_on_the_air() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(NodeConfig::on_channel(wide()), Box::new(Sink));
        let c = sim.add_node(NodeConfig::on_channel(narrow()), Box::new(Sink));
        let (dn, d) = (airtime(narrow(), 1500), airtime(wide(), 200));
        assert!(d * 4 < dn);
        let t0 = SimTime::from_millis(1);
        force_at(&mut sim, t0, bcast(c, 1500));
        force_at(&mut sim, t0 + d, bcast(a, 200));
        sim.run_until(t0 + d + d / 2);
        let (p, log) = probe();
        let rx = sim.add_node(NodeConfig::on_channel(wide()), p);
        let t1 = sim.now() + d;
        force_at(&mut sim, t1, Frame::data(a, rx, 200));
        let t2 = t0 + dn + SimDuration::from_millis(1);
        force_at(&mut sim, t2, Frame::data(a, rx, 200));
        sim.run_until(t2 + SimDuration::from_millis(10));
        assert_eq!(sim.stats(rx).rx_collisions, 1);
        assert_eq!(sim.stats(rx).rx_data_frames, 1);
        assert_eq!(sim.stats(rx).rx_broadcast_frames, 0);
        assert_eq!(*log.borrow(), [(t2 + d, a)]);
    }

    #[test]
    fn broadcast_reaches_all_same_channel_nodes() {
        struct OneShotBroadcast;
        impl Behavior for OneShotBroadcast {
            fn on_start(&mut self, ctx: &mut Ctx) {
                let src = ctx.id();
                ctx.send(Frame {
                    src,
                    dst: None,
                    kind: FrameKind::Beacon { backup: None },
                });
            }
        }
        let mut sim = Simulator::new(1);
        let c = ch(10, Width::W20);
        let r0 = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
        let r1 = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
        let r2 = sim.add_node(NodeConfig::on_channel(ch(3, Width::W5)), Box::new(Sink));
        sim.add_node(NodeConfig::on_channel(c).ap(), Box::new(OneShotBroadcast));
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.stats(r0).rx_broadcast_frames, 1);
        assert_eq!(sim.stats(r1).rx_broadcast_frames, 1);
        assert_eq!(sim.stats(r2).rx_broadcast_frames, 0);
        // The beacon also produced a CTS-to-self on the medium: the AP made
        // two transmission attempts.
        assert_eq!(sim.stats(3).tx_attempts, 2);
    }
}
