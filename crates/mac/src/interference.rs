//! The spectral interference graph: which nodes can ever couple.
//!
//! A [`ShardSite`] is a node's static footprint — position, range, and
//! the bitmask of UHF channels it could ever span. Two sites are joined
//! ([`potential_influences`]) iff their footprints share a UHF channel
//! and either one's range covers the distance between them. This is the
//! union of every inter-node coupling in the engine: delivery, carrier
//! sense, deferral invalidation and interference all test channel-span
//! overlap plus the same range predicate, which the simulator's
//! reachability table evaluates through the one function below.
//!
//! [`shard_components`] labels the connected components of that graph.
//! Nodes in different components can never deliver to, defer or corrupt
//! frames at each other, so each component can be simulated on its own
//! and exactly. The city shards its cells this way (DESIGN.md §13.1);
//! a fixed-channel driver run simulates only its foreground's component
//! (DESIGN.md §9).

use whitefi_spectrum::WfChannel;

/// Does a node at `from` with radio range `range` reach a node at `to`?
/// The engine's one range predicate, evaluated exactly as written
/// (`d².sqrt() <= range`, no algebraic rewrite that could flip at a
/// rounding boundary); `d == range` counts as in range.
pub(crate) fn within_range(from: (f64, f64), to: (f64, f64), range: f64) -> bool {
    let d2 = (from.0 - to.0).powi(2) + (from.1 - to.1).powi(2);
    d2.sqrt() <= range
}

/// A node's *potential* spectral/geometric footprint.
///
/// The footprint is the set of UHF channels the node could ever span
/// across *all* its admissible retunes, as a bitmask over
/// `NUM_UHF_CHANNELS` (a fixed-channel node's is its channel's span).
/// Two sites whose footprints share no UHF channel can never couple
/// through the engine — on any channel either of them is allowed to
/// occupy, now or after any sequence of retunes — so a partition into
/// footprint-disjoint (or out-of-range) groups stays influence-closed
/// for the whole run, not just the initial placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSite {
    /// Bitmask of potentially spanned UHF channels (bit `i` = UHF `i`).
    pub footprint: u32,
    /// Position in metres.
    pub pos: (f64, f64),
    /// Transmission/carrier-sense range in metres.
    pub range: f64,
}

impl ShardSite {
    /// An empty-footprint site at the given geometry.
    pub fn new(pos: (f64, f64), range: f64) -> Self {
        Self {
            footprint: 0,
            pos,
            range,
        }
    }

    /// Adds every UHF channel spanned by `channel` to the footprint.
    pub fn add_channel(mut self, channel: WfChannel) -> Self {
        self.footprint |= channel.footprint();
        self
    }

    /// A site whose footprint is the union of the given channels' spans.
    pub fn from_channels(
        pos: (f64, f64),
        range: f64,
        channels: impl IntoIterator<Item = WfChannel>,
    ) -> Self {
        channels
            .into_iter()
            .fold(Self::new(pos, range), Self::add_channel)
    }
}

/// Can `a` and `b` ever couple, on any admissible channel of either?
/// True iff their potential footprints share a UHF channel *and* either
/// lies within the other's range (the symmetrized influence predicate —
/// an edge in either direction keeps the pair in one component).
pub fn potential_influences(a: &ShardSite, b: &ShardSite) -> bool {
    a.footprint & b.footprint != 0
        && (within_range(a.pos, b.pos, a.range) || within_range(b.pos, a.pos, b.range))
}

/// Connected components of the symmetrized potential-influence graph:
/// returns one component label per site, with labels assigned in first-
/// appearance order (site 0's component is 0, the next unseen site's is
/// 1, …) so the output is a pure function of the input order.
///
/// Because components are closed under [`potential_influences`], and
/// every directed engine coupling implies a symmetric edge here, nodes
/// in different components can never deliver to, defer, or interfere
/// with each other — on their current channels or after any retune
/// within their footprints. Simulating each component in its own engine
/// is therefore exact, not approximate (DESIGN.md §13's sharding key).
///
/// O(n²) pairwise scan with union-find; sites are static per scenario.
pub fn shard_components(sites: &[ShardSite]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..sites.len()).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]]; // path halving
            v = parent[v];
        }
        v
    }
    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            if potential_influences(&sites[i], &sites[j]) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    // Union toward the lower root: roots stay the
                    // smallest index of their component, making the
                    // relabeling below order-stable.
                    let (lo, hi) = if ri < rj { (ri, rj) } else { (rj, ri) };
                    parent[hi] = lo;
                }
            }
        }
    }
    let mut label = vec![usize::MAX; sites.len()];
    let mut next = 0;
    let mut out = Vec::with_capacity(sites.len());
    for i in 0..sites.len() {
        let r = find(&mut parent, i);
        if label[r] == usize::MAX {
            label[r] = next;
            next += 1;
        }
        out.push(label[r]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Sink;
    use crate::{NodeConfig, Simulator};
    use whitefi_spectrum::Width;

    fn ch(center: usize, w: Width) -> WfChannel {
        WfChannel::from_parts(center, w)
    }

    /// A simulator holding one sink per `(x, range)` on the x axis, all
    /// on `channel`, so `reaches` answers from the engine's neighbour lists.
    fn sim_with(channel: WfChannel, nodes: &[(f64, f64)]) -> Simulator {
        let mut sim = Simulator::new(1);
        for &(x, range) in nodes {
            let mut cfg = NodeConfig::on_channel(channel).at(x, 0.0);
            cfg.range = range;
            sim.add_node(cfg, Box::new(Sink));
        }
        sim
    }

    #[test]
    fn disjoint_channels_never_influence() {
        let a = ShardSite::from_channels((0.0, 0.0), 1e6, [ch(3, Width::W5)]);
        let b = ShardSite::from_channels((0.0, 0.0), 1e6, [ch(9, Width::W5)]);
        assert!(!potential_influences(&a, &b));
        assert!(!potential_influences(&b, &a));
    }

    #[test]
    fn overlapping_spans_influence_when_in_range() {
        // A W20 at 10 spans 8..=12; a W5 at 11 sits inside it.
        let a = ShardSite::from_channels((0.0, 0.0), 1e6, [ch(10, Width::W20)]);
        let b = ShardSite::from_channels((0.0, 0.0), 1e6, [ch(11, Width::W5)]);
        assert!(potential_influences(&a, &b));
        assert!(potential_influences(&b, &a));
    }

    /// The range predicate is directed — the engine's neighbour lists say
    /// only the long-range node reaches the other — while
    /// `potential_influences` joins the pair both ways.
    #[test]
    fn range_is_directional() {
        let c = ch(5, Width::W5);
        assert!(within_range((150.0, 0.0), (0.0, 0.0), 1000.0));
        assert!(!within_range((0.0, 0.0), (150.0, 0.0), 100.0));
        let sim = sim_with(c, &[(0.0, 100.0), (150.0, 1000.0)]);
        assert!(sim.reaches(1, 0), "far reaches near");
        assert!(!sim.reaches(0, 1), "near does not reach far");
        let near = ShardSite::from_channels((0.0, 0.0), 100.0, [c]);
        let far = ShardSite::from_channels((150.0, 0.0), 1000.0, [c]);
        assert!(potential_influences(&near, &far));
        assert!(potential_influences(&far, &near));
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let c = ch(5, Width::W5);
        assert!(within_range((0.0, 0.0), (100.0, 0.0), 100.0));
        // Both nodes' range is exactly their distance: d == range.
        let sim = sim_with(c, &[(0.0, 100.0), (100.0, 100.0)]);
        assert!(
            sim.reaches(0, 1) && sim.reaches(1, 0),
            "d == range must reach"
        );
        let a = ShardSite::from_channels((0.0, 0.0), 100.0, [c]);
        let b = ShardSite::from_channels((100.0, 0.0), 100.0, [c]);
        assert!(
            potential_influences(&a, &b),
            "d == range must count as in range"
        );
        // One ulp further and neither direction reaches.
        let beyond = f64::from_bits(100.0f64.to_bits() + 1);
        let sim = sim_with(c, &[(0.0, 100.0), (beyond, 100.0)]);
        assert!(!sim.reaches(0, 1) && !sim.reaches(1, 0));
        let b = ShardSite::from_channels((beyond, 0.0), 100.0, [c]);
        assert!(!potential_influences(&a, &b));
    }

    #[test]
    fn shard_site_footprint_unions_spans() {
        let s = ShardSite::from_channels(
            (0.0, 0.0),
            100.0,
            [ch(10, Width::W20), ch(20, Width::W5)], // spans 8..=12, 20
        );
        let expected: u32 = (8..=12).chain(std::iter::once(20)).map(|i| 1 << i).sum();
        assert_eq!(s.footprint, expected);
        assert_eq!(
            ShardSite::new((0.0, 0.0), 7.0).add_channel(ch(20, Width::W5)),
            ShardSite::from_channels((0.0, 0.0), 7.0, [ch(20, Width::W5)])
        );
    }

    #[test]
    fn potential_influence_is_symmetric_in_range() {
        let a = ShardSite::from_channels((0.0, 0.0), 100.0, [ch(5, Width::W5)]);
        let b = ShardSite::from_channels((150.0, 0.0), 1000.0, [ch(5, Width::W5)]);
        // Only b reaches a, but the symmetrized predicate keeps the pair
        // coupled both ways (a directed edge in either direction forbids
        // separating them).
        assert!(potential_influences(&a, &b));
        assert!(potential_influences(&b, &a));
        let far = ShardSite::from_channels((2000.0, 0.0), 100.0, [ch(5, Width::W5)]);
        assert!(!potential_influences(&a, &far));
        let disjoint = ShardSite::from_channels((0.0, 0.0), 1e6, [ch(20, Width::W5)]);
        assert!(!potential_influences(&a, &disjoint));
    }

    #[test]
    fn components_group_transitive_chains() {
        let c = ch(5, Width::W5);
        let mk = |x: f64| ShardSite::from_channels((x, 0.0), 120.0, [c]);
        // 0—1—2 form a chain (each hop 100 m, so 2 reaches 0 only
        // through 1); 3 is 500 m away (own component); 4 is co-located
        // with 3 but spectrally disjoint.
        let sites = vec![
            mk(0.0),
            mk(100.0),
            mk(200.0),
            mk(700.0),
            ShardSite::from_channels((700.0, 0.0), 120.0, [ch(20, Width::W5)]),
        ];
        assert_eq!(shard_components(&sites), vec![0, 0, 0, 1, 2]);
    }

    /// Components are closed under the engine's own directed coupling:
    /// wherever the simulator's neighbour lists say `u` reaches `v` and
    /// their channel spans overlap, both sit in one component.
    #[test]
    fn components_are_influence_closed() {
        let c5 = ch(5, Width::W5);
        let c20 = ch(20, Width::W10);
        let nodes = [
            (c5, 0.0, 120.0),
            (c5, 100.0, 120.0),
            (c20, 100.0, 120.0),
            (c20, 900.0, 120.0),
            (c5, 950.0, 120.0),
            (c5, 1300.0, 400.0),
        ];
        let mut sim = Simulator::new(1);
        for &(c, x, range) in &nodes {
            let mut cfg = NodeConfig::on_channel(c).at(x, 0.0);
            cfg.range = range;
            sim.add_node(cfg, Box::new(Sink));
        }
        let sites: Vec<ShardSite> = nodes
            .iter()
            .map(|&(c, x, range)| ShardSite::from_channels((x, 0.0), range, [c]))
            .collect();
        let comp = shard_components(&sites);
        assert_eq!(comp, vec![0, 0, 1, 2, 3, 3]);
        for (u, &(cu, ..)) in nodes.iter().enumerate() {
            for (v, &(cv, ..)) in nodes.iter().enumerate() {
                if sim.reaches(u, v) && cu.overlaps(cv) {
                    assert_eq!(comp[u], comp[v], "{u} reaches {v} across components");
                }
            }
        }
    }

    #[test]
    fn component_labels_are_first_appearance_order() {
        let c = ch(5, Width::W5);
        let a = ShardSite::from_channels((0.0, 0.0), 10.0, [c]);
        let b = ShardSite::from_channels((1000.0, 0.0), 10.0, [c]);
        // Interleaved placement: labels follow site order, not geometry.
        let sites = vec![b, a, b, a];
        assert_eq!(shard_components(&sites), vec![0, 1, 0, 1]);
    }
}
