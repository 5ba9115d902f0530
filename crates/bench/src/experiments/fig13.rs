//! Figure 13: impact of churn on throughput.
//!
//! "There are a total of 34 background AP/client-pairs, two per free UHF
//! channel. In order to model churn, we model background nodes using a
//! simple discrete Markov chain with two states (A=active, P=passive). A
//! background node in the active state transmits CBR traffic with 60 ms
//! inter-packet delay. … The extreme cases are (i) all nodes are always
//! in state P, (ii) nodes are in each state with equal likelihood and
//! they remain in their current state for an average of 30 seconds, and
//! (iii) all nodes are always in state A. … For high churn … always
//! picking the widest channel (OPT 20 MHz) becomes the worst performing
//! algorithm. Instead, WhiteFi is better than any static channel width
//! choice. In fact, WhiteFi even outperforms OPT \[because\] OPT is the
//! optimal *static* channel selection throughout the entire execution …
//! WhiteFi is adaptive and can adjust to the current values of
//! background traffic."

use crate::json;
use crate::report::{mean, round4, ExperimentReport};
use crate::runner::RunCtx;
use whitefi::driver::{BackgroundPair, BackgroundTraffic, Scenario};
use whitefi_phy::SimDuration;
use whitefi_repro::campus_sim_map;
use whitefi_spectrum::{WfChannel, Width};

/// A churn sweep point: mean dwell in each state (zero mean = never in
/// that state).
#[derive(Debug, Clone, Copy)]
pub struct ChurnPoint {
    /// Label for the report.
    pub label: &'static str,
    /// Mean active dwell (s); 0 = never active.
    pub active_s: u64,
    /// Mean passive dwell (s); 0 = never passive.
    pub passive_s: u64,
}

/// The sweep, from all-passive to all-active (the paper's x-axis).
pub const SWEEP: [ChurnPoint; 6] = [
    ChurnPoint {
        label: "all-passive",
        active_s: 0,
        passive_s: 3600,
    },
    ChurnPoint {
        label: "1/3 active, 45s",
        active_s: 30,
        passive_s: 60,
    },
    ChurnPoint {
        label: "1/2 active, 30s",
        active_s: 30,
        passive_s: 30,
    },
    ChurnPoint {
        label: "1/2 active, 10s",
        active_s: 10,
        passive_s: 10,
    },
    ChurnPoint {
        label: "2/3 active, 45s",
        active_s: 60,
        passive_s: 30,
    },
    ChurnPoint {
        label: "all-active",
        active_s: 3600,
        passive_s: 0,
    },
];

/// Builds the Figure 13 scenario.
pub fn scenario(pt: ChurnPoint, seed: u64, quick: bool) -> Scenario {
    let map = campus_sim_map();
    let mut s = Scenario::new(seed, map, 4);
    s.warmup = SimDuration::from_secs(2);
    s.duration = if quick {
        SimDuration::from_secs(20)
    } else {
        SimDuration::from_secs(40)
    };
    // Two pairs per free channel = 34 pairs on the 17-channel map.
    for ch in map.free_channels() {
        for _ in 0..2 {
            s.background.push(BackgroundPair {
                channel: WfChannel::from_parts(ch.index(), Width::W5),
                traffic: BackgroundTraffic::Markov {
                    interval: SimDuration::from_millis(60),
                    mean_active: SimDuration::from_secs(pt.active_s),
                    mean_passive: SimDuration::from_secs(pt.passive_s),
                },
            });
        }
    }
    s
}

/// Per-client throughputs `(whitefi, opt, opt20, opt5)` in Mbps of each
/// scenario, measured through the sweep fan-out.
fn per_client(ctx: &RunCtx, scenarios: &[Scenario]) -> Vec<(f64, f64, f64, f64)> {
    super::sweep::measure_all(ctx, scenarios)
        .iter()
        .zip(scenarios)
        .map(|(out, s)| {
            let n = s.client_maps.len() as f64;
            (
                out.whitefi_aggregate_mbps / n,
                out.baselines.opt / n,
                out.baselines.opt20 / n,
                out.baselines.opt5 / n,
            )
        })
        .collect()
}

fn mean_runs(runs: &[(f64, f64, f64, f64)]) -> (f64, f64, f64, f64) {
    let col = |f: fn(&(f64, f64, f64, f64)) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    (col(|r| r.0), col(|r| r.1), col(|r| r.2), col(|r| r.3))
}

/// Runs the churn sweep.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let quick = ctx.quick();
    let seeds: Vec<u64> = if quick {
        vec![ctx.seed(8000)]
    } else {
        (0..2).map(|i| ctx.seed(8000 + i)).collect()
    };
    let sweep: &[ChurnPoint] = if quick {
        &[SWEEP[0], SWEEP[2], SWEEP[5]]
    } else {
        &SWEEP
    };
    let mut report = ExperimentReport::new(
        "fig13",
        "Per-client throughput (Mbps) vs background churn",
        &["churn", "whitefi", "opt", "opt20", "opt5", "wf_over_opt"],
    );
    // Sweep fan-out: one work unit per WhiteFi run and per OPT
    // candidate's fixed run, across all (point, seed) trials at once.
    let scenarios: Vec<Scenario> = (0..sweep.len() * seeds.len())
        .map(|k| scenario(sweep[k / seeds.len()], seeds[k % seeds.len()], quick))
        .collect();
    let runs = per_client(ctx, &scenarios);
    for (pi, pt) in sweep.iter().enumerate() {
        let (w, o, o20, o5) = mean_runs(&runs[pi * seeds.len()..(pi + 1) * seeds.len()]);
        report.push_row(&[
            ("churn", json!(pt.label)),
            ("whitefi", round4(w)),
            ("opt", round4(o)),
            ("opt20", round4(o20)),
            ("opt5", round4(o5)),
            ("wf_over_opt", round4(if o > 0.0 { w / o } else { 1.0 })),
        ]);
    }
    report.note("under churn, WhiteFi adapts mid-run while OPT is the best *static* pick — WhiteFi can beat OPT (as in the paper)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential measurement of one quick trial.
    fn trial(pt: ChurnPoint, seed: u64) -> (f64, f64, f64, f64) {
        per_client(&RunCtx::sequential(true), &[scenario(pt, seed, true)])[0]
    }

    #[test]
    fn all_passive_equals_clean_spectrum() {
        let (w, _, o20, _) = trial(SWEEP[0], 8100);
        // With silent background, WhiteFi rides the widest channel.
        assert!(w > 0.8 * o20, "whitefi {w} vs opt20 {o20}");
        // Per-client share of a clean ~5 Mbps 20 MHz channel across 4
        // clients is ~1.2 Mbps.
        assert!(
            w > 1.0,
            "whitefi {w}/client too low for a clean 20 MHz channel"
        );
    }

    #[test]
    fn whitefi_competitive_under_churn() {
        let (w, o, ..) = trial(SWEEP[3], 8101);
        assert!(w > 0.75 * o, "whitefi {w} vs opt {o}");
    }

    #[test]
    fn all_active_reduces_everyones_throughput() {
        let (w_quiet, ..) = trial(SWEEP[0], 8102);
        let (w_busy, ..) = trial(SWEEP[5], 8102);
        assert!(w_busy < w_quiet, "{w_busy} !< {w_quiet}");
    }
}
