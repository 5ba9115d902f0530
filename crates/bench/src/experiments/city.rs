//! Scale: city-wide multi-AP simulation on the influence-sharded
//! parallel event core (DESIGN.md §13).
//!
//! The bench city is a grid of WhiteFi cells spaced beyond radio range,
//! so the influence graph decomposes into one component per cell: the
//! regime the paper's deployment model (disjoint home networks, §5.1)
//! corresponds to.
//!
//! Each row runs one city once on its component plan — one group per
//! influence component, fanned across the harness pool and merged — and
//! reports its outcome: size, component structure, aggregate goodput and
//! the oracle verdict. Every run must stay oracle-clean (the experiments
//! binary additionally gates on the process-wide adaptive-violation
//! totals). Every column is a pure function of the scenario, so the
//! report is byte-identical at any `--jobs`; timing lives in
//! `layerbench/`.

use crate::json;
use crate::report::{round4, ExperimentReport};
use crate::runner::RunCtx;
use whitefi::{
    largest_component_fraction, merge_city, run_city_group, shard_plan, CityOutcome, CityScenario,
};
use whitefi_phy::SimDuration;

/// The bench city: `n_aps` cells on a grid spaced beyond radio range
/// (150 m spacing, 60 m range), locale mix drawn from the seed.
pub fn bench_city(
    seed: u64,
    n_aps: usize,
    clients_per_ap: usize,
    duration: SimDuration,
) -> CityScenario {
    let mut city = CityScenario::grid(seed, n_aps, clients_per_ap, 150.0, 60.0);
    city.warmup = SimDuration::from_millis(300);
    city.duration = duration;
    city.sample_interval = SimDuration::from_millis(100);
    city
}

/// Runs `city` on its component plan (one group per influence
/// component) across the harness pool and merges. Returns the outcome
/// and the component count; both are pure functions of `city`.
fn run_on_components(ctx: &RunCtx, city: &CityScenario) -> (CityOutcome, usize) {
    let plan = shard_plan(city, city.cells.len());
    let groups = ctx.map(plan.groups.len(), |g| run_city_group(city, &plan.groups[g]));
    let (outcome, _, _) = merge_city(city, groups);
    (outcome, plan.components)
}

/// Runs one city, asserts it clean and reports its outcome row.
fn city_row(ctx: &RunCtx, report: &mut ExperimentReport, city: &CityScenario) {
    let n_aps = city.cells.len();
    let (outcome, components) = run_on_components(ctx, city);
    assert_eq!(outcome.violations(), 0, "{n_aps} APs: incumbent violations");
    assert_eq!(
        outcome.oracle_violations(),
        0,
        "{n_aps} APs: oracle violations"
    );
    let checked_tx: u64 = outcome.cells.iter().map(|c| c.oracle.checked_tx).sum();
    report.push_row(&[
        ("aps", json!(n_aps)),
        ("nodes", json!(city.total_nodes())),
        ("components", json!(components)),
        (
            "largest_component_fraction",
            round4(largest_component_fraction(city)),
        ),
        ("aggregate_mbps", round4(outcome.aggregate_mbps)),
        ("violations", json!(outcome.violations())),
        ("oracle_violations", json!(outcome.oracle_violations())),
        ("checked_tx", json!(checked_tx)),
    ]);
}

/// Runs the bench cities: 16 APs in quick mode; 64 and 1000 APs in full
/// mode.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "city",
        "City-scale simulation on the component plan: outcome per city",
        &[
            "aps",
            "nodes",
            "components",
            "largest_component_fraction",
            "aggregate_mbps",
            "violations",
            "oracle_violations",
            "checked_tx",
        ],
    );
    if ctx.quick() {
        let city = bench_city(ctx.seed(9_100), 16, 1, SimDuration::from_millis(500));
        city_row(ctx, &mut report, &city);
    } else {
        let city = bench_city(ctx.seed(9_100), 64, 2, SimDuration::from_millis(1_500));
        city_row(ctx, &mut report, &city);
        // The headline city scale: 1000 APs, 2000 nodes, a short
        // measurement window under the full per-cell oracle banks.
        let big = bench_city(ctx.seed(9_200), 1_000, 1, SimDuration::from_millis(400));
        city_row(ctx, &mut report, &big);
    }
    report.note("every city completed oracle-clean with zero incumbent violations");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_city_decomposes_per_cell_and_shards_exactly() {
        let city = bench_city(5, 6, 1, SimDuration::from_millis(300));
        let (reference, stats) = whitefi::run_city(&city, 1);
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.components, 6, "bench grid cells must decouple");
        for jobs in [1, 3] {
            let (out, components) = run_on_components(&RunCtx::new(true, jobs, 0), &city);
            assert_eq!(components, 6);
            assert_eq!(reference, out, "pooled run diverged at {jobs} jobs");
        }
        assert_eq!(reference.violations(), 0);
        assert_eq!(reference.oracle_violations(), 0);
    }

    #[test]
    fn quick_report_has_expected_shape() {
        let report = run(&RunCtx::sequential(true));
        assert_eq!(report.rows.len(), 1);
        assert!(report.validate().is_ok());
        // One component per cell.
        let row = &report.rows[0];
        assert_eq!(row["aps"].as_f64(), Some(16.0));
        assert_eq!(row["components"].as_f64(), Some(16.0));
        assert_eq!(row["oracle_violations"].as_f64(), Some(0.0));
        assert!(row["checked_tx"].as_f64().is_some_and(|n| n > 0.0));
    }
}
