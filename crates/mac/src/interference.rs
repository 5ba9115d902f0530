//! Spectral interference graph over static node sites, for pruning
//! provably non-interacting nodes from fixed-channel runs.
//!
//! A directed edge `u → v` means "a transmission by `u` can influence
//! `v`": their `(F, W)` channels share at least one UHF channel *and*
//! `v` lies within `u`'s transmission/carrier-sense range. This is the
//! union of every inter-node coupling in the engine — delivery,
//! carrier sense, deferral invalidation, and interference all test
//! channel-span overlap plus the same range predicate (`sim.rs`
//! `in_range_geom`), so a node with no edge into a set `S` can neither
//! deliver to, defer, nor corrupt frames at any node of `S`.
//!
//! [`influence_closure`] computes which nodes can influence a root set
//! transitively (reverse reachability): node `u` is kept iff some path
//! `u → … → r` of influence edges reaches a root `r`. Dropping every
//! non-kept node from a simulation cannot change what the roots
//! observe — provided nodes hold their channels and make no draws that
//! route through other nodes' RNGs, which fixed-mode driver runs
//! guarantee (scanners disabled, per-node RNG streams; DESIGN.md §9).

use whitefi_spectrum::WfChannel;

/// A node's static spectral/geometric footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSite {
    /// The `(F, W)` channel the node is tuned to (fixed for the run).
    pub channel: WfChannel,
    /// Position in metres.
    pub pos: (f64, f64),
    /// Transmission/carrier-sense range in metres.
    pub range: f64,
}

impl NodeSite {
    /// A co-located site with the engine's default geometry (matches
    /// [`crate::NodeConfig::on_channel`]: pos `(0,0)`, range 1e6 m).
    pub fn on_channel(channel: WfChannel) -> Self {
        Self {
            channel,
            pos: (0.0, 0.0),
            range: 1.0e6,
        }
    }

    /// Sets the position.
    pub fn at(mut self, x: f64, y: f64) -> Self {
        self.pos = (x, y);
        self
    }

    /// Sets the range.
    pub fn with_range(mut self, range: f64) -> Self {
        self.range = range;
        self
    }
}

/// Can a transmission by `a` influence `b`? Channel spans must overlap
/// and `b` must be within `a`'s range — the exact float predicate the
/// engine evaluates (`d².sqrt() <= range`, no algebraic rewrite that
/// could flip at rounding boundaries).
pub fn influences(a: &NodeSite, b: &NodeSite) -> bool {
    if !a.channel.overlaps(b.channel) {
        return false;
    }
    let d2 = (a.pos.0 - b.pos.0).powi(2) + (a.pos.1 - b.pos.1).powi(2);
    d2.sqrt() <= a.range
}

/// Reverse reachability to `roots` over the influence graph: `keep[i]`
/// is true iff node `i` is a root or can influence a kept node —
/// i.e. there is a directed path of [`influences`] edges from `i` to
/// some root. Everything with `keep[i] == false` is spectrally sliced
/// away from the roots and can be omitted from the simulation without
/// changing anything the roots observe.
///
/// O(n²) worklist; sites are static so this runs once per scenario.
pub fn influence_closure(sites: &[NodeSite], roots: &[usize]) -> Vec<bool> {
    let mut keep = vec![false; sites.len()];
    let mut work: Vec<usize> = Vec::with_capacity(sites.len());
    for &r in roots {
        assert!(r < sites.len(), "root {r} out of bounds");
        if !keep[r] {
            keep[r] = true;
            work.push(r);
        }
    }
    while let Some(v) = work.pop() {
        for u in 0..sites.len() {
            if !keep[u] && influences(&sites[u], &sites[v]) {
                keep[u] = true;
                work.push(u);
            }
        }
    }
    keep
}

/// A node's *potential* spectral/geometric footprint, for sharding
/// adaptive multi-network simulations (DESIGN.md §13).
///
/// Where [`NodeSite`] pins one `(F, W)` channel (valid for fixed-channel
/// runs), a `ShardSite` carries the set of UHF channels the node could
/// ever span across *all* its admissible retunes, as a bitmask over
/// `NUM_UHF_CHANNELS`. Two sites whose footprints share no UHF channel
/// can never couple through the engine — on any channel either of them
/// is allowed to occupy, now or after any sequence of retunes — so a
/// partition into footprint-disjoint (or out-of-range) groups stays
/// influence-closed for the whole run, not just the initial placement.
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

    /// The single-channel footprint of a fixed [`NodeSite`].
    pub fn from_site(site: &NodeSite) -> Self {
        Self::new(site.pos, site.range).add_channel(site.channel)
    }
}

/// Can `a` and `b` ever couple, on any admissible channel of either?
/// True iff their potential footprints share a UHF channel *and* either
/// lies within the other's range (the symmetrized influence predicate —
/// an edge in either direction keeps the pair in one shard). Uses the
/// same exact float predicate as [`influences`].
pub fn potential_influences(a: &ShardSite, b: &ShardSite) -> bool {
    if a.footprint & b.footprint == 0 {
        return false;
    }
    let d2 = (a.pos.0 - b.pos.0).powi(2) + (a.pos.1 - b.pos.1).powi(2);
    let d = d2.sqrt();
    d <= a.range || d <= b.range
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
    use whitefi_spectrum::Width;

    fn ch(center: usize, w: Width) -> WfChannel {
        WfChannel::from_parts(center, w)
    }

    #[test]
    fn disjoint_channels_never_influence() {
        let a = NodeSite::on_channel(ch(3, Width::W5));
        let b = NodeSite::on_channel(ch(9, Width::W5));
        assert!(!influences(&a, &b));
        assert!(!influences(&b, &a));
    }

    #[test]
    fn overlapping_spans_influence_when_in_range() {
        // A W20 at 10 spans 8..=12; a W5 at 11 sits inside it.
        let a = NodeSite::on_channel(ch(10, Width::W20));
        let b = NodeSite::on_channel(ch(11, Width::W5));
        assert!(influences(&a, &b));
        assert!(influences(&b, &a));
    }

    #[test]
    fn range_is_directional() {
        let c = ch(5, Width::W5);
        let near = NodeSite::on_channel(c).with_range(100.0);
        let far = NodeSite::on_channel(c).at(150.0, 0.0).with_range(1000.0);
        // far reaches near, near does not reach far.
        assert!(influences(&far, &near));
        assert!(!influences(&near, &far));
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let c = ch(5, Width::W5);
        let a = NodeSite::on_channel(c).with_range(100.0);
        let b = NodeSite::on_channel(c).at(100.0, 0.0);
        assert!(influences(&a, &b), "d == range must count as in range");
    }

    #[test]
    fn closure_keeps_transitive_influencers() {
        let c = ch(5, Width::W5);
        // Chain: 2 → 1 → 0(root), each hop 100 m with 120 m range, so
        // 2 cannot reach 0 directly but influences it through 1.
        let sites = vec![
            NodeSite::on_channel(c).with_range(120.0),
            NodeSite::on_channel(c).at(100.0, 0.0).with_range(120.0),
            NodeSite::on_channel(c).at(200.0, 0.0).with_range(120.0),
            // 3: same geometry, disjoint channel — pruned.
            NodeSite::on_channel(ch(20, Width::W5)).with_range(120.0),
        ];
        let keep = influence_closure(&sites, &[0]);
        assert_eq!(keep, vec![true, true, true, false]);
    }

    #[test]
    fn closure_without_roots_keeps_nothing() {
        let sites = vec![NodeSite::on_channel(ch(5, Width::W5))];
        assert_eq!(influence_closure(&sites, &[]), vec![false]);
    }

    #[test]
    fn closure_handles_duplicate_roots() {
        let sites = vec![
            NodeSite::on_channel(ch(5, Width::W5)),
            NodeSite::on_channel(ch(5, Width::W5)),
        ];
        let keep = influence_closure(&sites, &[0, 0]);
        assert_eq!(keep, vec![true, true]);
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
            ShardSite::from_site(&NodeSite::on_channel(ch(20, Width::W5)).with_range(7.0)),
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
        // 0—1—2 form a chain (each hop 100 m); 3 is 500 m away (own
        // component); 4 is co-located with 3 but spectrally disjoint.
        let sites = vec![
            mk(0.0),
            mk(100.0),
            mk(200.0),
            mk(700.0),
            ShardSite::from_channels((700.0, 0.0), 120.0, [ch(20, Width::W5)]),
        ];
        assert_eq!(shard_components(&sites), vec![0, 0, 0, 1, 2]);
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

    /// Components agree with [`influence_closure`] over single-channel
    /// sites: the closure of any root never escapes the root's
    /// component (closedness), and every same-component pair is
    /// connected through the symmetrized closure (minimality is not
    /// required for soundness, but this guards against over-merging
    /// bugs like an always-true predicate).
    #[test]
    fn components_are_influence_closed() {
        let c5 = ch(5, Width::W5);
        let c20 = ch(20, Width::W10);
        let sites: Vec<NodeSite> = vec![
            NodeSite::on_channel(c5).with_range(120.0),
            NodeSite::on_channel(c5).at(100.0, 0.0).with_range(120.0),
            NodeSite::on_channel(c20).at(100.0, 0.0).with_range(120.0),
            NodeSite::on_channel(c20).at(900.0, 0.0).with_range(120.0),
            NodeSite::on_channel(c5).at(950.0, 0.0).with_range(120.0),
        ];
        let shard_sites: Vec<ShardSite> = sites.iter().map(ShardSite::from_site).collect();
        let comp = shard_components(&shard_sites);
        for r in 0..sites.len() {
            let keep = influence_closure(&sites, &[r]);
            for (i, &k) in keep.iter().enumerate() {
                if k {
                    assert_eq!(
                        comp[i], comp[r],
                        "site {i} influences root {r} across a component boundary"
                    );
                }
            }
        }
    }
}
