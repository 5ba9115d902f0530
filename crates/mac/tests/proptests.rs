//! Seeded property tests for the discrete-event MAC simulator: case `c`
//! of each property draws its inputs from `ChaCha8Rng::seed_from_u64(c)`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::RefCell;
use std::rc::Rc;
use whitefi_mac::traffic::Sink;
use whitefi_mac::{
    potential_influences, shard_components, Behavior, CbrSender, Ctx, FaultPlan, Frame, NodeConfig,
    NodeId, SaturatingSender, ShardSite, SimObserver, Simulator, Transmission,
};
use whitefi_phy::{PhyTiming, SimDuration, SimTime};
use whitefi_spectrum::{UhfChannel, WfChannel, Width};

const CASES: u64 = 24;

fn arb_width(rng: &mut impl Rng) -> Width {
    [Width::W5, Width::W10, Width::W20][rng.gen_range(0..3)]
}

/// A random position and radio range.
fn arb_place(rng: &mut impl Rng) -> (f64, f64, f64) {
    let (x, y) = (rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0));
    (x, y, rng.gen_range(10.0..800.0))
}

fn channel_for(center: usize, w: Width) -> WfChannel {
    let h = w.half_span();
    let c = center.clamp(h, 29 - h);
    WfChannel::from_parts(c, w)
}

/// Adds a node on channel `c` running `behavior`.
fn node(sim: &mut Simulator, c: WfChannel, behavior: impl Behavior + 'static) -> NodeId {
    sim.add_node(NodeConfig::on_channel(c), Box::new(behavior))
}

/// Adds a sink and a saturating sender to it on `c`; returns the sink.
fn saturated_flow(sim: &mut Simulator, c: WfChannel) -> NodeId {
    let rx = node(sim, c, Sink);
    node(sim, c, SaturatingSender::new(rx));
    rx
}

/// Conservation: every byte received was sent; acked bytes never
/// exceed received bytes (an ACK implies delivery).
#[test]
fn byte_conservation() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (seed, w) = (rng.gen_range(0..1000), arb_width(&mut rng));
        let center = rng.gen_range(0..30);
        let bytes = rng.gen_range(100..1400);
        let n_flows = rng.gen_range(1..4);
        let ctx =
            format!("case {case}: seed {seed} {w:?} center {center} {bytes} B {n_flows} flows");
        let c = channel_for(center, w);
        let mut sim = Simulator::new(seed);
        let mut pairs = Vec::new();
        for _ in 0..n_flows {
            let rx = node(&mut sim, c, Sink);
            let mut sender = SaturatingSender::new(rx);
            (sender.bytes, sender.pipeline) = (bytes, 2);
            pairs.push((node(&mut sim, c, sender), rx));
        }
        sim.run_until(SimTime::from_millis(500));
        for (tx, rx) in pairs {
            let sent = sim.stats(tx).tx_acked_bytes;
            let recv = sim.stats(rx).rx_data_bytes;
            // Acked ⇒ delivered, so acked ≤ received; received may exceed
            // acked when an ACK is lost and the frame retransmitted.
            assert!(sent <= recv, "{ctx}: acked {sent} > received {recv}");
            assert!(recv > 0, "{ctx}: flow starved entirely");
        }
    }
}

/// Channel capacity: aggregate goodput never exceeds the width's PHY
/// rate, regardless of flow count.
#[test]
fn goodput_bounded_by_phy_rate() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (seed, w, n_flows) = (
            rng.gen_range(0..1000),
            arb_width(&mut rng),
            rng.gen_range(1..5),
        );
        let c = channel_for(15, w);
        let mut sim = Simulator::new(seed);
        let rxs: Vec<NodeId> = (0..n_flows).map(|_| saturated_flow(&mut sim, c)).collect();
        let span = SimDuration::from_secs(1);
        sim.run_until(SimTime::ZERO + span);
        let total: f64 = rxs
            .iter()
            .map(|&r| sim.stats(r).rx_goodput_mbps(span))
            .sum();
        let rate = PhyTiming::for_width(w).data_rate_mbps();
        let ctx = format!("case {case}: seed {seed} {w:?} flows {n_flows}: goodput {total}");
        assert!(total <= rate, "{ctx} exceeds PHY rate {rate}");
        assert!(total > 0.3 * rate, "{ctx} implausibly low vs {rate}");
    }
}

/// Medium airtime accounting: the busy fraction of a saturated
/// channel is high; an untouched channel is exactly idle.
#[test]
fn airtime_accounting() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (seed, w) = (rng.gen_range(0..1000), arb_width(&mut rng));
        let c = channel_for(10, w);
        let mut sim = Simulator::new(seed);
        saturated_flow(&mut sim, c);
        sim.run_until(SimTime::from_secs(1));
        let (from, to) = (SimTime::from_millis(100), SimTime::from_secs(1));
        let busy_in = |ch: usize| {
            sim.medium()
                .airtime_in_window(UhfChannel::from_index(ch), from, to, None, None)
        };
        let busy = busy_in(c.center().index());
        assert!(
            busy > 0.5,
            "case {case}: seed {seed} {w:?}: saturated channel busy only {busy}"
        );
        // A channel outside the span is idle.
        let outside = if c.high_index() < 29 { 29 } else { 0 };
        assert_eq!(busy_in(outside), 0.0, "case {case}: seed {seed} {w:?}");
    }
}

/// Determinism: identical seeds and topologies give identical stats.
#[test]
fn deterministic() {
    for case in 0..CASES {
        let seed = ChaCha8Rng::seed_from_u64(case).gen_range(0..100);
        let run = || {
            let c = channel_for(12, Width::W10);
            let mut sim = Simulator::new(seed);
            let rx = node(&mut sim, c, Sink);
            node(&mut sim, c, CbrSender::new(rx, SimDuration::from_millis(7)));
            node(&mut sim, c, SaturatingSender::new(rx));
            sim.run_until(SimTime::from_millis(400));
            (sim.stats(rx), sim.stats(1), sim.stats(2))
        };
        assert_eq!(run(), run(), "case {case}: seed {seed}");
    }
}

/// No incumbent violations when no incumbents exist.
#[test]
fn no_spurious_violations() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (seed, w) = (rng.gen_range(0..100), arb_width(&mut rng));
        let mut sim = Simulator::new(seed);
        saturated_flow(&mut sim, channel_for(8, w));
        sim.run_until(SimTime::from_millis(300));
        for n in 0..sim.node_count() {
            let violations = sim.stats(n).incumbent_violations;
            assert_eq!(violations, 0, "case {case}: seed {seed} {w:?} node {n}");
        }
    }
}

/// Shard partitions are truly influence-closed: across random
/// footprints, positions and ranges, `shard_components` labels two
/// sites alike exactly when a brute-force O(n²) fixpoint over the
/// symmetrized potential-influence edge relation connects them —
/// so no possible retune can ever create a cross-shard edge.
#[test]
fn shard_components_match_bruteforce_reachability() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let n_nodes = rng.gen_range(1..24);
        let sites: Vec<ShardSite> = (0..n_nodes)
            .map(|_| {
                let footprint = rng.gen_range(0u32..(1 << 30));
                let (x, y, range) = arb_place(&mut rng);
                let mut s = ShardSite::new((x, y), range);
                s.footprint = footprint;
                s
            })
            .collect();
        let ctx = format!("case {case}: sites {sites:?}");
        let n = sites.len();
        // Brute-force edge relation from first principles: footprints
        // share a UHF bit AND either endpoint's range covers the pair.
        let edge = |u: usize, v: usize| -> bool {
            let dx = sites[u].pos.0 - sites[v].pos.0;
            let dy = sites[u].pos.1 - sites[v].pos.1;
            let d = (dx * dx + dy * dy).sqrt();
            sites[u].footprint & sites[v].footprint != 0
                && (d <= sites[u].range || d <= sites[v].range)
        };
        for u in 0..n {
            for v in 0..n {
                let (a, b) = (&sites[u], &sites[v]);
                assert_eq!(
                    potential_influences(a, b),
                    edge(u, v),
                    "{ctx}: edge ({u}, {v})"
                );
            }
        }
        // Fixpoint transitive closure of the (symmetric) edge relation.
        let mut reach: Vec<Vec<bool>> = (0..n)
            .map(|u| (0..n).map(|v| u == v || edge(u, v)).collect())
            .collect();
        loop {
            let mut changed = false;
            for w in 0..n {
                for u in 0..n {
                    for v in 0..n {
                        if !reach[u][v] && reach[u][w] && reach[w][v] {
                            reach[u][v] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let labels = shard_components(&sites);
        assert_eq!(labels.len(), n, "{ctx}");
        for u in 0..n {
            for v in 0..n {
                let same = labels[u] == labels[v];
                assert_eq!(
                    same, reach[u][v],
                    "{ctx}: labels vs reachability ({u}, {v})"
                );
            }
        }
        // Labels are dense and in first-appearance order.
        let mut next = 0;
        for &l in &labels {
            assert!(l <= next, "{ctx}: label {l} skipped ahead of {next}");
            if l == next {
                next += 1;
            }
        }
    }
}

/// The engine's neighbour lists agree with the brute-force geometric
/// range predicate for every ordered pair, across random topologies
/// (positions and per-node ranges): `reaches` reads `hears[from]`, and
/// in debug builds (the test profile) asserts that `heard_by[to]`
/// agrees, so both lists are checked.
#[test]
fn reachability_sets_match_bruteforce() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let n_nodes = rng.gen_range(2..40);
        let places: Vec<_> = (0..n_nodes).map(|_| arb_place(&mut rng)).collect();
        let mut sim = Simulator::new(1);
        for &(x, y, range) in &places {
            let mut cfg = NodeConfig::on_channel(channel_for(15, Width::W10)).at(x, y);
            cfg.range = range;
            sim.add_node(cfg, Box::new(Sink));
        }
        let ctx = format!("case {case}: nodes {places:?}");
        for a in 0..sim.node_count() {
            for b in 0..sim.node_count() {
                let geometric = sim.reaches_geometric(a, b);
                assert_eq!(sim.reaches(a, b), geometric, "{ctx}: pair ({a}, {b})");
            }
        }
    }
}

/// Exact range boundary: both neighbour lists (read as in
/// `reachability_sets_match_bruteforce`) must preserve the original
/// `sqrt(d²) <= range` comparison, including the equality case.
#[test]
fn reachability_exact_boundary() {
    let c = channel_for(15, Width::W10);
    let mut sim = Simulator::new(1);
    for &(x, range) in &[(0.0f64, 100.0f64), (100.0, 100.0), (201.0, 100.0)] {
        let mut cfg = NodeConfig::on_channel(c).at(x, 0.0);
        cfg.range = range;
        sim.add_node(cfg, Box::new(Sink));
    }
    // d(0,1) == 100 == range: reachable on the exact boundary.
    assert!(sim.reaches(0, 1));
    assert!(sim.reaches(1, 0));
    // d(1,2) == 101 > range: just outside.
    assert!(!sim.reaches(1, 2));
    assert!(!sim.reaches(2, 1));
    assert_eq!(sim.reaches(0, 2), sim.reaches_geometric(0, 2));
}

/// What a [`Recorder`] saw, in event-loop order (plus the test's own
/// `Added` marks between runs).
enum Seen {
    Added(NodeId, WfChannel),
    Start(Transmission),
    End(Transmission, bool),
    Retune(NodeId, WfChannel),
}

type SeenLog = Rc<RefCell<Vec<Seen>>>;

struct Recorder(SeenLog);

impl SimObserver for Recorder {
    fn on_tx_start(&mut self, _now: SimTime, tx: &Transmission) {
        self.0.borrow_mut().push(Seen::Start(tx.clone()));
    }
    fn on_tx_end(&mut self, _now: SimTime, tx: &Transmission, faulted_drop: bool) {
        self.0
            .borrow_mut()
            .push(Seen::End(tx.clone(), faulted_drop));
    }
    fn on_retune(&mut self, _now: SimTime, node: NodeId, _old: WfChannel, new: WfChannel) {
        self.0.borrow_mut().push(Seen::Retune(node, new));
    }
}

/// Sends unicast data to `dst` back to back (if it has one), and hops
/// to a random one of `channels` after each random dwell of up to
/// `dwell_us` (never, if `channels` is empty).
struct Roamer {
    dst: Option<NodeId>,
    bytes: usize,
    channels: Vec<WfChannel>,
    dwell_us: u64,
}

impl Roamer {
    fn send(&self, ctx: &mut Ctx) {
        if let Some(dst) = self.dst {
            ctx.send(Frame::data(ctx.id(), dst, self.bytes));
        }
    }

    fn rearm(&self, ctx: &mut Ctx) {
        if !self.channels.is_empty() {
            let us = ctx.rng().gen_range(100..self.dwell_us);
            ctx.set_timer(SimDuration::from_micros(us), 0);
        }
    }
}

impl Behavior for Roamer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send(ctx);
        self.send(ctx);
        self.rearm(ctx);
    }
    fn on_timer(&mut self, _key: u64, ctx: &mut Ctx) {
        let i = ctx.rng().gen_range(0..self.channels.len());
        ctx.set_channel(self.channels[i]);
        self.rearm(ctx);
    }
    fn on_send_result(&mut self, _f: &Frame, _ok: bool, ctx: &mut Ctx) {
        self.send(ctx);
    }
}

/// One node's verdicts by the brute-force rule.
#[derive(Clone, Default)]
struct Recount {
    collisions: u64,
    /// Data frames addressed to the node, and broadcasts, that it
    /// received (what `rx_data_frames` and `rx_broadcast_frames` count).
    received: u64,
    /// Frames on the node's channel at their end that it tuned to after
    /// they started: neither received nor counted as collisions.
    late: u64,
}

/// Verdicts per node, recounted from the recorded events by the
/// brute-force rule: at each end of an undropped transmission `tx`, every
/// node other than its sender that `tx.frame.src` reaches, tuned to exactly
/// `tx.channel` since before `tx` started (its last `Added` or `Retune`
/// entry precedes `tx`'s `Start` in the log) and not on the air, collides
/// if any other transmission overlapping `tx` in time and spectrum
/// reaches it, and receives `tx` otherwise.
fn brute_force_verdicts(log: &[Seen], sim: &Simulator) -> Vec<Recount> {
    // Longer than any frame: an older start cannot overlap `tx`.
    let longest = SimDuration::from_millis(20);
    let n = sim.node_count();
    // Each node's channel, and the log position where it tuned to it.
    let mut tuned: Vec<Option<(WfChannel, usize)>> = vec![None; n];
    let mut on_air = vec![0u32; n];
    let mut started: Vec<(usize, &Transmission)> = Vec::new();
    let mut out = vec![Recount::default(); n];
    for (pos, seen) in log.iter().enumerate() {
        match seen {
            Seen::Added(m, c) | Seen::Retune(m, c) => tuned[*m] = Some((*c, pos)),
            Seen::Start(t) => {
                on_air[t.frame.src] += 1;
                started.push((pos, t));
            }
            Seen::End(tx, dropped) => {
                on_air[tx.frame.src] -= 1;
                if *dropped {
                    continue;
                }
                let (begun, _) = started
                    .iter()
                    .rev()
                    .find(|(_, t)| t.id == tx.id)
                    .expect("every ended transmission started");
                for (m, verdict) in out.iter_mut().enumerate() {
                    let Some((channel, since)) = tuned[m] else {
                        continue;
                    };
                    if m == tx.frame.src
                        || channel != tx.channel
                        || !sim.reaches(tx.frame.src, m)
                        || on_air[m] > 0
                    {
                        continue;
                    }
                    if since > *begun {
                        verdict.late += 1;
                        continue;
                    }
                    let hit = started
                        .iter()
                        .rev()
                        .take_while(|(_, t)| t.start + longest > tx.start)
                        .any(|(_, t)| {
                            t.id != tx.id
                                && t.channel.overlaps(tx.channel)
                                && t.start < tx.end
                                && t.end > tx.start
                                && sim.reaches(t.frame.src, m)
                        });
                    if hit {
                        verdict.collisions += 1;
                    } else if tx.frame.dst.is_none_or(|d| d == m && tx.frame.needs_ack()) {
                        verdict.received += 1;
                    }
                }
            }
        }
    }
    out
}

/// Interference verdicts on random topologies with partial reach, mixed
/// overlapping widths, nodes hopping channels every few hundred
/// microseconds, simultaneous starts (equal backoff draws), nodes added
/// mid-run while carriers are on the air, and faulted drops: every
/// node's collision and reception counts equal a brute-force recount
/// from the recorded events, so no node receives a frame, or collides on
/// one, that it was not tuned to for the frame's whole duration. In
/// debug builds the engine also checks each verdict it reads from its
/// carrier bookkeeping against its own history scan.
#[test]
fn interference_verdicts_match_bruteforce() {
    let channels = [
        channel_for(10, Width::W20),
        channel_for(10, Width::W10),
        channel_for(12, Width::W10),
        channel_for(8, Width::W5),
        channel_for(10, Width::W5),
        channel_for(12, Width::W5),
    ];
    let (mut simultaneous, mut retunes) = (0, 0);
    let mut total = Recount::default();
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let seed = rng.gen_range(0..1000);
        let log = SeenLog::default();
        let mut sim = Simulator::new(seed);
        if case % 3 == 0 {
            let mut plan = FaultPlan::quiet(seed);
            plan.drop_prob = 0.1;
            sim.set_fault_plan(plan);
        }
        sim.set_observer(Box::new(Recorder(log.clone())));
        let add = |sim: &mut Simulator, rng: &mut ChaCha8Rng| {
            let c = channels[rng.gen_range(0..3)];
            let (x, y) = (rng.gen_range(0.0..150.0), rng.gen_range(0.0..150.0));
            let mut cfg = NodeConfig::on_channel(c).at(x, y);
            cfg.range = rng.gen_range(80.0..250.0);
            // A peer that started on the same channel, if there is one.
            let peers: Vec<NodeId> = (0..sim.node_count())
                .filter(|&m| sim.node_channel(m) == c)
                .collect();
            let dst = (!peers.is_empty() && rng.gen_bool(0.8))
                .then(|| peers[rng.gen_range(0..peers.len())]);
            let hops = if rng.gen_bool(0.4) {
                channels.to_vec()
            } else {
                Vec::new()
            };
            let roamer = Roamer {
                dst,
                bytes: rng.gen_range(50..1500),
                channels: hops,
                dwell_us: rng.gen_range(1000..20000),
            };
            let id = sim.add_node(cfg, Box::new(roamer));
            log.borrow_mut().push(Seen::Added(id, c));
        };
        for _ in 0..rng.gen_range(4..12) {
            add(&mut sim, &mut rng);
        }
        sim.run_until(SimTime::from_millis(150));
        for _ in 0..rng.gen_range(1..4) {
            add(&mut sim, &mut rng);
        }
        sim.run_until(SimTime::from_millis(400));
        let log = log.borrow();
        for (m, want) in brute_force_verdicts(&log, &sim).iter().enumerate() {
            let stats = sim.stats(m);
            let received = stats.rx_data_frames + stats.rx_broadcast_frames;
            let case = format!("case {case}: seed {seed}: node {m}");
            assert_eq!(stats.rx_collisions, want.collisions, "{case} collisions");
            assert_eq!(received, want.received, "{case} received frames");
            total.collisions += want.collisions;
            total.received += want.received;
            total.late += want.late;
        }
        let starts: Vec<SimTime> = log
            .iter()
            .filter_map(|s| match s {
                Seen::Start(t) => Some(t.start),
                _ => None,
            })
            .collect();
        simultaneous += starts.windows(2).filter(|w| w[0] == w[1]).count();
        retunes += log.iter().filter(|s| matches!(s, Seen::Retune(..))).count();
    }
    assert!(simultaneous > 0, "no two transmissions started together");
    let Recount {
        collisions,
        received,
        late,
    } = total;
    assert!(
        retunes > 0 && collisions > 0 && received > 0 && late > 0,
        "{retunes} retunes, {collisions} collisions, {received} received, {late} late"
    );
}
