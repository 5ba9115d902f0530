//! City-scale multi-AP simulation with an influence-sharded parallel
//! event core (DESIGN.md §13).
//!
//! A [`CityScenario`] lays WhiteFi cells — one AP plus its clients —
//! over a shared spectrum map of the city: a grid of sites, each with a
//! locale-dependent incumbent map (urban, suburban, rural). Cells are
//! partitioned into **influence-closed shards**: connected components
//! of the *potential* influence graph
//! ([`whitefi_mac::potential_influences`]), whose edges require both
//! geometric reach and overlap of the cells' channel *footprints* (the
//! union of every channel a cell's map could ever admit). Because every
//! engine coupling — delivery, carrier sense, deferral invalidation,
//! interference, and every scanner query a behaviour can issue — is
//! gated by reach and channel overlap, and because no node ever tunes
//! or listens outside its cell's footprint (asserted at every round of
//! the schedule below), two cells in different components
//! cannot affect each other through *any* path, no matter how the
//! protocol retunes. Simulating each component group in its own
//! [`Simulator`] therefore reproduces the single-simulator run **byte
//! for byte**: `run_city(city, 1)` and `run_city(city, S)` return equal
//! [`CityOutcome`]s, oracle reports and fault events included. The
//! differential tests and the random-topology property test enforce this.
//! Components are never split: a city whose footprints chain into one
//! component runs as one group (DESIGN.md §14 records why).
//!
//! Determinism rests on three invariants:
//!
//! 1. **Stable RNG streams** — every node's `rng_stream` (and thereby
//!    its fault stream) is its *global* city node id, in the sharded
//!    and unsharded builds alike, so each node draws the exact same
//!    random sequence regardless of which simulator hosts it.
//! 2. **Stable oracle identities** — each cell has its own
//!    [`OracleBank`](crate::OracleBank), registered with
//!    [`add_member_as`](crate::OracleBank::add_member_as) under global
//!    node ids, so digests and violation details are invariant under
//!    sim-local renumbering.
//! 3. **Order-independent merge** — [`merge_city`] sorts cells by
//!    global index and fault events by `(time, global node)`, so any
//!    completion order of the shard groups (sequential or parallel)
//!    reduces to the same outcome.
//!
//! Each cell is one basic service set, built and measured by the same
//! code as the single-AP driver's network ([`crate::driver`] runs the
//! one-cell case). Every group follows the same warmup/tick schedule:
//! one round at the end of warmup, then one per sampling tick. At every
//! round each node's channel must lie inside its cell's footprint, and
//! [`GroupOutcome::sync_rounds`] counts the rounds. Splitting
//! `run_until` calls is equivalent to one long call — the event loop is
//! time-ordered — so the rounds cannot perturb the simulation.

use crate::bss::{add_bss, measure, rounds, BssSpec};
use crate::driver::ScenarioOutcome;
use crate::mcham::NodeReport;
use crate::oracles::OracleSet;
use whitefi_mac::{
    shard_components, splitmix64, EventCounters, FaultEvent, FaultPlan, NodeId, ShardSite,
    Simulator,
};
use whitefi_phy::SimDuration;
use whitefi_spectrum::{
    AirtimeVector, IncumbentSet, LocaleClass, SpectrumMap, UhfChannel, WfChannel,
};

/// The static spectrum map of a city cell in a locale of class `class`
/// (§5.1 of the paper characterizes urban, suburban and rural
/// white-space availability): urban keeps a couple of narrow free
/// fragments, suburban two mid-sized ones, rural nearly the whole band.
/// Urban and suburban fragments are disjoint on purpose, so in-range
/// cells of those classes can still land in different shards (their
/// footprints never overlap).
pub fn locale_map(class: LocaleClass) -> SpectrumMap {
    match class {
        LocaleClass::Urban => SpectrumMap::from_free([12, 13, 14, 26]),
        LocaleClass::Suburban => SpectrumMap::from_free([2, 3, 4, 5, 6, 17, 18, 19]),
        LocaleClass::Rural => occupied_map(&[0, 15]),
    }
}

fn occupied_map(occupied: &[usize]) -> SpectrumMap {
    let mut map = SpectrumMap::all_free();
    for &i in occupied {
        map.set_occupied(UhfChannel::from_index(i));
    }
    map
}

/// One WhiteFi cell: an AP and its clients, co-located at a site.
#[derive(Debug, Clone, PartialEq)]
pub struct CityCell {
    /// Site position in metres.
    pub pos: (f64, f64),
    /// Transmission/carrier-sense range of every node in the cell.
    pub range: f64,
    /// The cell's static incumbent map (locale-dependent).
    pub map: SpectrumMap,
    /// Number of clients attached to the AP.
    pub n_clients: usize,
    /// Extra incumbents beyond the static map (e.g. mic schedules),
    /// audible at every node of the cell.
    pub extra_incumbents: Option<IncumbentSet>,
}

impl CityCell {
    /// The channel the cell's AP boots on: the assignment algorithm's
    /// clean-spectrum choice over the cell map (same rule as
    /// [`crate::driver::run_whitefi`]).
    pub fn initial_channel(&self) -> WfChannel {
        let report = NodeReport {
            map: self.map,
            airtime: AirtimeVector::idle(),
        };
        crate::mcham::select_channel(&report, &[])
            .map(|(c, _)| c)
            // lint:allow(unwrap, a cell whose map admits no channel cannot host a network; documented precondition)
            .expect("city cell map admits no channel")
    }

    /// The cell's shard site: position, range, and the footprint of
    /// every channel its nodes could ever tune to or scan — all
    /// admissible channels of the static map plus the bootstrap
    /// channel. Detected incumbents only *shrink* the observed map, so
    /// the static footprint is an upper bound for the whole run.
    pub fn shard_site(&self) -> ShardSite {
        ShardSite::from_channels(self.pos, self.range, self.map.available_channels())
            .add_channel(self.initial_channel())
    }
}

/// A city of WhiteFi cells sharing one band.
#[derive(Debug, Clone, PartialEq)]
pub struct CityScenario {
    /// RNG seed (every per-node stream derives from it).
    pub seed: u64,
    /// The cells, in global order. Global node ids are assigned
    /// cell-by-cell in this order: cell `c`'s AP is
    /// [`CityScenario::node_base`]`(c)`, its clients follow.
    pub cells: Vec<CityCell>,
    /// Downlink payload bytes (backlogged).
    pub downlink_bytes: usize,
    /// Uplink payload bytes (backlogged); `None` disables uplink.
    pub uplink_bytes: Option<usize>,
    /// Measurement duration (after warmup).
    pub duration: SimDuration,
    /// Warmup before stats are reset.
    pub warmup: SimDuration,
    /// Timeline sampling period.
    pub sample_interval: SimDuration,
    /// Deterministic fault plan, installed identically in every shard
    /// simulator (fault streams key on the global node id).
    pub faults: Option<FaultPlan>,
}

impl CityScenario {
    /// A square grid of `n_aps` cells, `spacing_m` apart, every node
    /// with range `range_m`, each cell's locale drawn deterministically
    /// from the seed (≈30 % urban, 40 % suburban, 30 % rural). With
    /// `range_m < spacing_m` every cell is its own shard; with
    /// `spacing_m ≤ range_m` neighbouring cells whose footprints
    /// overlap merge into larger components.
    pub fn grid(
        seed: u64,
        n_aps: usize,
        clients_per_ap: usize,
        spacing_m: f64,
        range_m: f64,
    ) -> Self {
        // Integer ceil-sqrt: smallest side with side * side >= n_aps.
        let mut side = 1usize;
        while side * side < n_aps {
            side += 1;
        }
        let mut cells = Vec::with_capacity(n_aps);
        for i in 0..n_aps {
            let (col, row) = (i % side.max(1), i / side.max(1));
            let class = match splitmix64(seed ^ (i as u64)) % 10 {
                0..=2 => LocaleClass::Urban,
                3..=6 => LocaleClass::Suburban,
                _ => LocaleClass::Rural,
            };
            cells.push(CityCell {
                pos: (col as f64 * spacing_m, row as f64 * spacing_m),
                range: range_m,
                map: locale_map(class),
                n_clients: clients_per_ap,
                extra_incumbents: None,
            });
        }
        Self {
            seed,
            cells,
            downlink_bytes: 1000,
            uplink_bytes: Some(500),
            duration: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(1),
            sample_interval: SimDuration::from_millis(100),
            faults: None,
        }
    }

    /// A checkerboard grid whose influence graph is **one** component,
    /// so the component planner ([`shard_plan`]) cannot split it and the
    /// whole city runs as a single group.
    ///
    /// Cells sit 100 m apart with 105 m range (4-neighbours in reach;
    /// diagonals at ~141 m are not, and the grid is bipartite, so
    /// same-parity cells never hear each other). Even-parity cells get
    /// free fragments `{6,7,8, 10,11,12, 26}`, odd-parity cells
    /// `{2,3,4, 17,18,19, 26}`: the shared W5-only channel 26 chains
    /// every in-reach (hence opposite-parity) pair's footprints into a
    /// single component, while the widest-clean assignment rule parks
    /// every AP inside its parity's private interior fragments.
    pub fn checkerboard(seed: u64, n_aps: usize, clients_per_ap: usize) -> Self {
        let mut city = Self::grid(seed, n_aps, clients_per_ap, 100.0, 105.0);
        let mut side = 1usize;
        while side * side < n_aps {
            side += 1;
        }
        for (i, cell) in city.cells.iter_mut().enumerate() {
            let (col, row) = (i % side.max(1), i / side.max(1));
            let free: &[usize] = if (col + row) % 2 == 0 {
                &[6, 7, 8, 10, 11, 12, 26]
            } else {
                &[2, 3, 4, 17, 18, 19, 26]
            };
            cell.map = SpectrumMap::from_free(free.iter().copied());
        }
        city
    }

    /// First global node id of cell `c` (the AP; clients follow).
    pub fn node_base(&self, c: usize) -> usize {
        self.cells[..c].iter().map(|cell| 1 + cell.n_clients).sum()
    }

    /// Total node count across all cells.
    pub fn total_nodes(&self) -> usize {
        self.node_base(self.cells.len())
    }
}

/// The shard partition of a city: groups of cell indices, each group a
/// union of influence-closed components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Cell indices per group, each list ascending; groups cover every
    /// cell exactly once.
    pub groups: Vec<Vec<usize>>,
    /// Number of influence-closed components found (≥ `groups.len()`).
    pub components: usize,
}

/// Partitions the city's cells into at most `shards` influence-closed
/// groups. Components are balanced across groups by node weight with a
/// deterministic longest-processing-time greedy (ties break toward the
/// lower component label, then the lower group index), so the plan is a
/// pure function of the scenario.
pub fn shard_plan(city: &CityScenario, shards: usize) -> ShardPlan {
    let sites: Vec<ShardSite> = city.cells.iter().map(CityCell::shard_site).collect();
    let labels = shard_components(&sites);
    let components = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut comp_cells: Vec<Vec<usize>> = vec![Vec::new(); components];
    for (i, &l) in labels.iter().enumerate() {
        comp_cells[l].push(i);
    }
    let n_groups = shards.max(1).min(components.max(1));
    let mut order: Vec<usize> = (0..components).collect();
    order.sort_by(|&a, &b| {
        groups_weight(city, &comp_cells[b])
            .cmp(&groups_weight(city, &comp_cells[a]))
            .then(a.cmp(&b))
    });
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    let mut loads = vec![0usize; n_groups];
    for l in order {
        let mut g = 0;
        for (k, &load) in loads.iter().enumerate() {
            if load < loads[g] {
                g = k;
            }
        }
        groups[g].extend_from_slice(&comp_cells[l]);
        loads[g] += groups_weight(city, &comp_cells[l]);
    }
    for group in &mut groups {
        group.sort_unstable();
    }
    groups.retain(|g| !g.is_empty());
    ShardPlan { groups, components }
}

fn cell_weight(city: &CityScenario, c: usize) -> usize {
    1 + city.cells[c].n_clients
}

fn groups_weight(city: &CityScenario, cells: &[usize]) -> usize {
    cells.iter().map(|&c| cell_weight(city, c)).sum()
}

/// Weight of the heaviest influence component over the total node
/// weight — 1.0 means the whole city is one component and the component
/// planner ([`shard_plan`]) has no parallelism at all to exploit.
pub fn largest_component_fraction(city: &CityScenario) -> f64 {
    let sites: Vec<ShardSite> = city.cells.iter().map(CityCell::shard_site).collect();
    let labels = shard_components(&sites);
    let components = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut weights = vec![0usize; components];
    for (i, &l) in labels.iter().enumerate() {
        weights[l] += cell_weight(city, i);
    }
    let total = city.total_nodes();
    if total == 0 {
        return 0.0;
    }
    // Node counts are far below 2^53, so the casts are exact.
    #[allow(clippy::cast_precision_loss)]
    {
        weights.iter().copied().max().unwrap_or(0) as f64 / total as f64
    }
}

/// Per-shard load imbalance of a grouping against the *requested*
/// parallelism: the heaviest group's node weight over the ideal share
/// (total weight / `shards`). 1.0 is a perfect balance across all
/// requested shards; a one-component city under the component plan
/// reports ≈ `shards` — all the weight on one of the requested shards.
pub fn load_imbalance(city: &CityScenario, groups: &[Vec<usize>], shards: usize) -> f64 {
    let total = city.total_nodes();
    if total == 0 || groups.is_empty() {
        return 1.0;
    }
    let max = groups
        .iter()
        .map(|g| groups_weight(city, g))
        .max()
        .unwrap_or(0);
    // Node counts are far below 2^53, so the casts are exact.
    #[allow(clippy::cast_precision_loss)]
    {
        max as f64 * shards.max(1) as f64 / total as f64
    }
}

/// The result of simulating one shard group — plain data, safe to send
/// back from a worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupOutcome {
    /// `(global cell index, outcome)` per hosted cell.
    pub cells: Vec<(usize, ScenarioOutcome)>,
    /// Fault events with node ids remapped to global city ids.
    pub fault_events: Vec<FaultEvent>,
    /// Schedule rounds executed: the end of warmup plus one per
    /// sampling tick.
    pub sync_rounds: u64,
    /// Event-loop counters of the group's simulator.
    pub events: EventCounters,
}

/// The merged, order-independent city outcome. `PartialEq` is exact on
/// purpose: the sharding differential tests assert `run_city(city, 1)`
/// and `run_city(city, S)` agree *byte for byte* — per-cell goodput,
/// samples, oracle reports (violations, digests) and fault events all
/// included. Scheduling metadata (event counters, sync rounds) lives in
/// [`CityRunStats`], outside the compared value.
#[derive(Debug, Clone, PartialEq)]
pub struct CityOutcome {
    /// Per-cell outcomes in global cell order.
    pub cells: Vec<ScenarioOutcome>,
    /// Sum of the per-cell aggregate goodputs (Mbps), accumulated in
    /// global cell order.
    pub aggregate_mbps: f64,
    /// All fault events, node ids global, sorted by `(time, node)`.
    pub fault_events: Vec<FaultEvent>,
}

impl CityOutcome {
    /// Total protocol-level incumbent violations across all cells.
    pub fn violations(&self) -> u64 {
        self.cells.iter().map(|c| c.violations).sum()
    }

    /// Total oracle violations across all cells' reports.
    pub fn oracle_violations(&self) -> usize {
        self.cells.iter().map(|c| c.oracle.violations.len()).sum()
    }
}

/// Scheduling metadata of one [`run_city`] call — deliberately *not*
/// part of [`CityOutcome`], because counters legitimately differ
/// between shardings while the outcome may not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityRunStats {
    /// Shard groups actually run.
    pub groups: usize,
    /// Influence-closed components found.
    pub components: usize,
    /// Total schedule rounds across all groups.
    pub sync_rounds: u64,
    /// Summed event-loop counters across all groups.
    pub events: EventCounters,
    /// Weight share of the heaviest influence component
    /// ([`largest_component_fraction`]); 1.0 means the whole city is one
    /// component and the component planner has nothing to split.
    pub largest_component_fraction: f64,
    /// Heaviest group weight over the ideal share
    /// ([`load_imbalance`]) of the groups actually run.
    pub load_imbalance: f64,
}

/// Simulates one shard group — the cells with the given global indices
/// (ascending) — start to finish in a private [`Simulator`], and
/// returns plain data. Pure function of `(city, cells)`: callers may
/// run groups sequentially, or fan them out across worker threads and
/// reduce with [`merge_city`].
pub fn run_city_group(city: &CityScenario, cells: &[usize]) -> GroupOutcome {
    let mut sim = Simulator::new(city.seed);
    // The fault plan must precede every add_node (fault streams are
    // drawn at registration, keyed on the node's global stream id).
    if let Some(plan) = &city.faults {
        sim.set_fault_plan(plan.clone());
    }
    // One observer for the whole group: it routes each member hook to
    // the owning cell's bank and keeps one airtime ledger for the medium.
    let oracles = OracleSet::new();
    let mut bsss = Vec::with_capacity(cells.len());
    let mut local_to_global: Vec<NodeId> = Vec::new();
    for &c in cells {
        let cell = &city.cells[c];
        let base = city.node_base(c);
        let env = (cell.map, cell.extra_incumbents.as_ref());
        bsss.push(add_bss(
            &mut sim,
            &oracles,
            BssSpec {
                downlink_bytes: city.downlink_bytes,
                uplink_bytes: city.uplink_bytes,
                ap_env: env,
                client_envs: vec![env; cell.n_clients],
                base,
                ssid: u32::try_from(c + 1).unwrap_or(u32::MAX),
                initial: cell.initial_channel(),
                site: cell.shard_site(),
                adaptive: true,
            },
        ));
        // `add_bss` adds the AP and then its clients, in role order.
        local_to_global.extend(base..=base + cell.n_clients);
    }
    sim.set_observer(oracles.observer());

    let rounds = rounds(city.warmup, city.duration, city.sample_interval);
    let outcomes = measure(&mut sim, &bsss, &rounds, city.duration);
    let fault_events = sim
        .fault_events()
        .iter()
        .map(|e| FaultEvent {
            time: e.time,
            node: local_to_global[e.node],
            kind: e.kind,
        })
        .collect();
    GroupOutcome {
        cells: cells.iter().copied().zip(outcomes).collect(),
        fault_events,
        sync_rounds: rounds.len() as u64,
        events: sim.event_counters(),
    }
}

/// Reduces the shard groups' outcomes — in *any* order — into the
/// canonical [`CityOutcome`]: cells sorted by global index (and checked
/// to cover the city exactly once), fault events stably sorted by
/// `(time, global node)`. Returns the merged scheduling counters
/// alongside.
pub fn merge_city(
    city: &CityScenario,
    groups: Vec<GroupOutcome>,
) -> (CityOutcome, u64, EventCounters) {
    let mut sync_rounds = 0u64;
    let mut events = EventCounters::default();
    let mut cells: Vec<(usize, ScenarioOutcome)> = Vec::with_capacity(city.cells.len());
    let mut fault_events: Vec<FaultEvent> = Vec::new();
    for g in groups {
        sync_rounds += g.sync_rounds;
        events += g.events;
        cells.extend(g.cells);
        fault_events.extend(g.fault_events);
    }
    cells.sort_by_key(|c| c.0);
    assert_eq!(
        cells.len(),
        city.cells.len(),
        "shard groups must cover every cell exactly once"
    );
    for (k, (idx, _)) in cells.iter().enumerate() {
        assert_eq!(*idx, k, "shard groups must cover every cell exactly once");
    }
    // Remaining (time, node) ties originate within one simulator (node
    // ids are disjoint across groups), so a stable sort reproduces the
    // single-simulator event order regardless of group arrival order.
    fault_events.sort_by_key(|e| (e.time.as_nanos(), e.node));
    let aggregate_mbps = cells.iter().map(|(_, o)| o.aggregate_mbps).sum();
    (
        CityOutcome {
            cells: cells.into_iter().map(|(_, o)| o).collect(),
            aggregate_mbps,
            fault_events,
        },
        sync_rounds,
        events,
    )
}

/// Runs the whole city at the given shard count, sequentially, and
/// merges. `shards == 1` *is* the unsharded reference: one simulator
/// hosting every cell. Parallel execution lives in the bench harness
/// (its worker pool calls [`run_city_group`] per group and reduces with
/// [`merge_city`]); outcomes are identical by construction either way.
pub fn run_city(city: &CityScenario, shards: usize) -> (CityOutcome, CityRunStats) {
    let plan = shard_plan(city, shards);
    let groups: Vec<GroupOutcome> = plan
        .groups
        .iter()
        .map(|g| run_city_group(city, g))
        .collect();
    let (outcome, sync_rounds, events) = merge_city(city, groups);
    (
        outcome,
        CityRunStats {
            groups: plan.groups.len(),
            components: plan.components,
            sync_rounds,
            events,
            largest_component_fraction: largest_component_fraction(city),
            load_imbalance: load_imbalance(city, &plan.groups, shards),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_whitefi, Scenario};
    use whitefi_mac::potential_influences;

    fn quick_city(seed: u64, n_aps: usize, spacing: f64, range: f64) -> CityScenario {
        let mut city = CityScenario::grid(seed, n_aps, 1, spacing, range);
        city.warmup = SimDuration::from_millis(400);
        city.duration = SimDuration::from_millis(800);
        city.sample_interval = SimDuration::from_millis(200);
        city
    }

    #[test]
    fn shard_plan_covers_every_cell_once() {
        let city = quick_city(7, 9, 100.0, 120.0);
        for shards in [1, 2, 4, 9, 100] {
            let plan = shard_plan(&city, shards);
            let mut seen: Vec<usize> = plan.groups.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..9).collect::<Vec<_>>(), "shards {shards}");
            assert!(plan.groups.len() <= shards.max(1));
        }
    }

    #[test]
    fn cross_group_cells_never_potentially_influence() {
        let city = quick_city(3, 12, 100.0, 150.0);
        let sites: Vec<ShardSite> = city.cells.iter().map(CityCell::shard_site).collect();
        let plan = shard_plan(&city, 4);
        for (ga, a_cells) in plan.groups.iter().enumerate() {
            for (gb, b_cells) in plan.groups.iter().enumerate() {
                if ga == gb {
                    continue;
                }
                for &a in a_cells {
                    for &b in b_cells {
                        assert!(
                            !potential_influences(&sites[a], &sites[b]),
                            "cells {a} and {b} influence across groups {ga}/{gb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_equals_unsharded_small_city() {
        // Spacing below range: some neighbouring cells couple, so the
        // plan has real multi-cell components *and* singleton ones.
        let city = quick_city(11, 6, 100.0, 110.0);
        let (base, base_stats) = run_city(&city, 1);
        assert_eq!(base_stats.groups, 1);
        assert!(base.cells.iter().all(|c| c.oracle.checked_tx > 0));
        for shards in [2, 4] {
            let (out, stats) = run_city(&city, shards);
            assert_eq!(base, out, "shards {shards} diverged from unsharded");
            assert!(stats.sync_rounds > 0);
        }
    }

    #[test]
    fn sharded_equals_unsharded_with_faults() {
        let mut city = quick_city(13, 4, 100.0, 90.0);
        city.faults = Some(FaultPlan {
            seed: 5,
            drop_prob: 0.05,
            dup_prob: 0.05,
            delay_prob: 0.05,
            max_delay: SimDuration::from_micros(800),
            max_detection_extra: SimDuration::from_millis(20),
            history_skew: None,
        });
        let (base, _) = run_city(&city, 1);
        let (out, stats) = run_city(&city, 3);
        assert!(stats.groups > 1, "faulted city did not actually shard");
        assert_eq!(base, out);
        assert!(
            !base.fault_events.is_empty(),
            "fault plan injected nothing — test exercises no fault merging"
        );
    }

    #[test]
    fn merge_is_group_order_independent() {
        let city = quick_city(17, 4, 100.0, 90.0);
        let plan = shard_plan(&city, 4);
        assert!(plan.groups.len() > 1);
        let groups: Vec<GroupOutcome> = plan
            .groups
            .iter()
            .map(|g| run_city_group(&city, g))
            .collect();
        let (fwd, fwd_rounds, fwd_events) = merge_city(&city, groups.clone());
        let mut rev = groups;
        rev.reverse();
        let (bwd, bwd_rounds, bwd_events) = merge_city(&city, rev);
        assert_eq!(fwd, bwd);
        assert_eq!(fwd_rounds, bwd_rounds);
        assert_eq!(fwd_events, bwd_events);
    }

    #[test]
    fn checkerboard_is_one_component() {
        let city = CityScenario::checkerboard(21, 9, 1);
        let plan = shard_plan(&city, 4);
        assert_eq!(plan.components, 1);
        assert_eq!(plan.groups, vec![(0..9).collect::<Vec<_>>()]);
        assert!((largest_component_fraction(&city) - 1.0).abs() < 1e-12);
    }

    /// One round ends warmup (and resets stats); one per sampling tick
    /// follows, the last clamped to the end of the run. A city group and
    /// the single-AP driver both follow it: the group runs exactly its
    /// rounds, both sample at exactly its tick rounds, and a zero warmup
    /// has no reset round.
    #[test]
    fn city_rounds_follow_the_tick_schedule() {
        let mut city = quick_city(3, 1, 150.0, 60.0);
        city.duration = SimDuration::from_millis(450);
        city.sample_interval = SimDuration::from_millis(200);
        let ms = |d: SimDuration| d.as_nanos() / 1_000_000;
        for (warmup, expected) in [
            (
                500,
                vec![(500, true), (700, false), (900, false), (950, false)],
            ),
            (0, vec![(200, false), (400, false), (450, false)]),
        ] {
            city.warmup = SimDuration::from_millis(warmup);
            let schedule = rounds(city.warmup, city.duration, city.sample_interval);
            let targets: Vec<(u64, bool)> = schedule.iter().map(|r| (ms(r.to), r.reset)).collect();
            assert_eq!(targets, expected, "warmup {warmup} ms");
            let ticks: Vec<u64> = schedule
                .iter()
                .filter(|r| !r.reset)
                .map(|r| ms(r.to))
                .collect();
            let sample_ticks = |out: &ScenarioOutcome| -> Vec<u64> {
                out.samples
                    .iter()
                    .map(|x| x.t.as_nanos() / 1_000_000)
                    .collect()
            };

            let group = run_city_group(&city, &[0]);
            assert_eq!(
                group.sync_rounds,
                schedule.len() as u64,
                "warmup {warmup} ms"
            );
            assert_eq!(sample_ticks(&group.cells[0].1), ticks, "warmup {warmup} ms");

            let cell = &city.cells[0];
            let mut s = Scenario::new(city.seed, cell.map, cell.n_clients);
            (s.warmup, s.duration, s.sample_interval) =
                (city.warmup, city.duration, city.sample_interval);
            assert_eq!(
                sample_ticks(&run_whitefi(&s, None)),
                ticks,
                "warmup {warmup} ms"
            );
        }
    }

    #[test]
    fn grid_is_deterministic_and_mixed() {
        let a = CityScenario::grid(42, 64, 2, 100.0, 80.0);
        let b = CityScenario::grid(42, 64, 2, 100.0, 80.0);
        for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
            assert_eq!(ca.map, cb.map);
            assert_eq!(ca.pos, cb.pos);
        }
        let mut maps: Vec<SpectrumMap> = a.cells.iter().map(|c| c.map).collect();
        maps.dedup();
        assert!(maps.len() > 1, "locale mix collapsed to one map");
    }
}
