//! Shared fan-out for the driver-heavy sweeps (Figures 11–13).
//!
//! A sweep trial is one adaptive WhiteFi run plus a [`StaticBaselines`]
//! sweep over its candidate channels (at most the 26 admissible channels
//! of the campus map, 84 on an all-free map; channels no background pair
//! touches collapse to one per width) — historically one sequential work
//! unit, which made the longest trial the wall-clock floor no matter
//! how many workers were free. Every candidate's fixed run is
//! independent of the others (and of the WhiteFi run), so
//! [`measure_all`] flattens *all* scenarios' runs into a single
//! [`RunCtx::map`] fan-out — one unit per WhiteFi run, one per
//! candidate — and reduces each scenario's candidate results with the
//! order-independent [`StaticBaselines::from_runs`]. Results are
//! reassembled in unit-index order, so output is byte-identical across
//! `--jobs` settings, exactly like every other fan-out in the harness.

use crate::runner::RunCtx;
use whitefi::driver::{run_fixed, run_whitefi, Scenario, StaticBaselines};
use whitefi_spectrum::WfChannel;

/// The measurements of one scenario in a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepOutcome {
    /// Aggregate WhiteFi goodput (Mbps); 0 when the scenario has no
    /// admissible channel at all (fully blocked spectrum).
    pub whitefi_aggregate_mbps: f64,
    /// The four static baselines (all zero when fully blocked).
    pub baselines: StaticBaselines,
}

/// Runs every scenario's WhiteFi trial and OPT candidate sweep as flat,
/// independent work units on the pool; returns one outcome per scenario
/// in input order. Scenarios whose combined map admits no channel get
/// all-zero outcomes and contribute no units (matching the sequential
/// early-return the fig12 sweep has always had).
pub fn measure_all(ctx: &RunCtx, scenarios: &[Scenario]) -> Vec<SweepOutcome> {
    // Per-unit descriptors: (scenario index, None = WhiteFi run,
    // Some(candidate) = fixed run).
    let candidates: Vec<Vec<WfChannel>> =
        scenarios.iter().map(StaticBaselines::candidates).collect();
    let mut units: Vec<(usize, Option<WfChannel>)> = Vec::new();
    for (si, cands) in candidates.iter().enumerate() {
        if cands.is_empty() {
            continue;
        }
        units.push((si, None));
        units.extend(cands.iter().map(|&c| (si, Some(c))));
    }

    let results = ctx.map(units.len(), |k| {
        let (si, cand) = units[k];
        match cand {
            None => run_whitefi(&scenarios[si], None).aggregate_mbps,
            Some(c) => run_fixed(&scenarios[si], c).aggregate_mbps,
        }
    });

    let mut outcomes = vec![
        SweepOutcome {
            whitefi_aggregate_mbps: 0.0,
            baselines: StaticBaselines::from_runs([]),
        };
        scenarios.len()
    ];
    // Walk the flat results back into per-scenario outcomes: the
    // WhiteFi unit leads, its candidates follow.
    let mut cursor = 0;
    for (si, cands) in candidates.iter().enumerate() {
        if cands.is_empty() {
            continue;
        }
        outcomes[si].whitefi_aggregate_mbps = results[cursor];
        cursor += 1;
        let slice = &results[cursor..cursor + cands.len()];
        outcomes[si].baselines =
            StaticBaselines::from_runs(cands.iter().copied().zip(slice.iter().copied()));
        cursor += cands.len();
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use whitefi_phy::SimDuration;
    use whitefi_spectrum::SpectrumMap;

    fn tiny(seed: u64) -> Scenario {
        let mut s = Scenario::new(seed, SpectrumMap::all_free(), 1);
        s.warmup = SimDuration::from_millis(500);
        s.duration = SimDuration::from_secs(1);
        s
    }

    #[test]
    fn matches_sequential_measurement() {
        let scenarios = vec![tiny(41), tiny(42)];
        let fanned = measure_all(&RunCtx::new(true, 2, 0), &scenarios);
        for (s, got) in scenarios.iter().zip(&fanned) {
            let wf = run_whitefi(s, None);
            let base = StaticBaselines::measure(s);
            assert_eq!(got.whitefi_aggregate_mbps, wf.aggregate_mbps);
            assert_eq!(got.baselines, base);
        }
    }

    #[test]
    fn blocked_scenario_yields_zeros() {
        let mut blocked = tiny(43);
        blocked.ap_map = SpectrumMap::all_occupied();
        blocked.client_maps = vec![SpectrumMap::all_occupied()];
        let out = measure_all(&RunCtx::sequential(true), &[blocked]);
        assert_eq!(out[0].whitefi_aggregate_mbps, 0.0);
        assert_eq!(out[0].baselines.opt, 0.0);
    }
}
