//! Sharding differential suite (DESIGN.md §13).
//!
//! The city layer's contract is byte-identity: partitioning a city into
//! influence-closed shards and simulating each shard in its own event
//! core must reproduce the single-simulator run exactly — per-cell
//! goodput vectors, timeline samples, oracle reports (violations,
//! checked counts, trace digests) and fault events all `==`. These
//! tests pin that contract on a structured grid city and on fully
//! random topologies (random positions, ranges, locales and fault
//! plans), at several shard counts each.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use whitefi::{merge_city, run_city, run_city_group, shard_plan, CityScenario, Locale};
use whitefi_mac::FaultPlan;
use whitefi_phy::SimDuration;

fn quick(mut city: CityScenario) -> CityScenario {
    city.warmup = SimDuration::from_millis(300);
    city.duration = SimDuration::from_millis(700);
    city.sample_interval = SimDuration::from_millis(175);
    city
}

fn torture_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_prob: 0.08,
        dup_prob: 0.05,
        delay_prob: 0.05,
        max_delay: SimDuration::from_micros(900),
        max_detection_extra: SimDuration::from_millis(30),
        history_skew: None,
    }
}

/// A 16-AP grid with range just above the spacing, so the plan mixes
/// multi-cell components with singletons, run at 1/2/4/8 shards with
/// faults and oracles on. Every sharding must agree with the first.
#[test]
fn grid_city_byte_identical_across_shard_counts() {
    let mut city = quick(CityScenario::grid(31, 16, 2, 100.0, 105.0));
    city.faults = Some(torture_plan(9));
    let plan = shard_plan(&city, 8);
    assert!(
        plan.components > 1,
        "grid produced a single component — differential exercises nothing"
    );
    let (base, base_stats) = run_city(&city, 1);
    assert_eq!(base_stats.groups, 1);
    assert!(base.cells.iter().all(|c| c.oracle.checked_tx > 0));
    for shards in [2usize, 4, 8] {
        let (out, stats) = run_city(&city, shards);
        assert!(stats.groups <= shards);
        assert_eq!(
            base, out,
            "{shards}-shard run diverged from the unsharded reference"
        );
    }
}

/// Group-at-a-time execution (the parallel harness's code path:
/// `run_city_group` per group, then `merge_city`) agrees with
/// `run_city`, in any completion order.
#[test]
fn group_fanout_equals_run_city() {
    let mut city = quick(CityScenario::grid(47, 9, 1, 100.0, 110.0));
    city.faults = Some(torture_plan(21));
    let plan = shard_plan(&city, 4);
    let mut groups: Vec<_> = plan
        .groups
        .iter()
        .map(|g| run_city_group(&city, g))
        .collect();
    groups.rotate_left(1); // simulate out-of-order completion
    let (merged, _, _) = merge_city(&city, groups);
    let (reference, _) = run_city(&city, 1);
    assert_eq!(merged, reference);
}

/// Random topologies: random cell positions, ranges, locales, client
/// counts and (half the time) a randomized fault plan. The sharded
/// outcome equals the unsharded outcome byte for byte. 8 cases, case `c`
/// drawing its inputs from `ChaCha8Rng::seed_from_u64(c)`.
#[test]
fn random_topology_sharded_equals_unsharded() {
    for case in 0..8 {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (seed, n_cells) = (rng.gen_range(0..10_000), rng.gen_range(2..6));
        let mut cell = || {
            let (x, y) = (rng.gen_range(0.0..400.0), rng.gen_range(0.0..400.0));
            let range = rng.gen_range(30.0..220.0);
            (x, y, range, rng.gen_range(0..3), rng.gen_range(1..3))
        };
        let cells: Vec<(f64, f64, f64, usize, usize)> = (0..n_cells).map(|_| cell()).collect();
        let (shards, with_faults) = (rng.gen_range(2..5), rng.gen::<bool>());
        let mut city = quick(CityScenario::grid(seed, cells.len(), 1, 100.0, 50.0));
        for (cell, &(x, y, range, locale, n_clients)) in city.cells.iter_mut().zip(cells.iter()) {
            let locale = match locale {
                0 => Locale::Urban,
                1 => Locale::Suburban,
                _ => Locale::Rural,
            };
            cell.pos = (x, y);
            cell.range = range;
            cell.locale = locale;
            cell.map = locale.map();
            cell.n_clients = n_clients;
        }
        if with_faults {
            city.faults = Some(torture_plan(seed ^ 0xFA01));
        }
        let ctx = format!("case {case}: seed {seed} cells {cells:?} faults {with_faults}");
        assert_eq!(
            run_city(&city, 1).0,
            run_city(&city, shards).0,
            "{ctx} shards {shards}"
        );
    }
}
