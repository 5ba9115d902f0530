//! Figure 11: impact of background traffic on throughput.
//!
//! "There are X background AP/client-pairs in the system, each being
//! randomly assigned to one of the free UHF channels, and each sending
//! at a packet interval delay of 30 ms. … WhiteFi achieves close to
//! optimal performance for varying degree of background traffic. With
//! little or no background traffic, WhiteFi performs as well as picking
//! the widest available channel (OPT 20 MHz) … As the traffic increases
//! … OPT 10 MHz becomes better (at about 10 background AP/client-pairs).
//! Even at this point WhiteFi performs near-optimally … WhiteFi is
//! always within 14% of the optimal value throughput OPT."

use crate::json;
use crate::report::{mean, round4, ExperimentReport};
use crate::runner::RunCtx;
use rand::Rng;
use whitefi::driver::{BackgroundPair, BackgroundTraffic, Scenario};
use whitefi_phy::SimDuration;
use whitefi_repro::campus_sim_map;
use whitefi_spectrum::{WfChannel, Width};

/// Builds the Figure 11 scenario for `pairs` background pairs.
pub fn scenario(pairs: usize, seed: u64, quick: bool) -> Scenario {
    let map = campus_sim_map();
    let mut s = Scenario::new(seed, map, 4);
    s.warmup = SimDuration::from_secs(2);
    s.duration = if quick {
        SimDuration::from_secs(3)
    } else {
        SimDuration::from_secs(6)
    };
    let free: Vec<usize> = map.free_channels().map(|c| c.index()).collect();
    let mut rng = super::rng(seed ^ 0xbac0);
    for _ in 0..pairs {
        let ch = free[rng.gen_range(0..free.len())];
        s.background.push(BackgroundPair {
            channel: WfChannel::from_parts(ch, Width::W5),
            traffic: BackgroundTraffic::Cbr {
                interval: SimDuration::from_millis(30),
            },
        });
    }
    s
}

/// Per-client throughputs `(whitefi, opt5, opt10, opt20, opt)` in Mbps
/// of each scenario, measured through the sweep fan-out.
fn per_client(ctx: &RunCtx, scenarios: &[Scenario]) -> Vec<(f64, f64, f64, f64, f64)> {
    super::sweep::measure_all(ctx, scenarios)
        .iter()
        .zip(scenarios)
        .map(|(out, s)| {
            let n = s.client_maps.len() as f64;
            let b = out.baselines;
            (
                out.whitefi_aggregate_mbps / n,
                b.opt5 / n,
                b.opt10 / n,
                b.opt20 / n,
                b.opt / n,
            )
        })
        .collect()
}

fn mean_runs(runs: &[(f64, f64, f64, f64, f64)]) -> (f64, f64, f64, f64, f64) {
    let col =
        |f: fn(&(f64, f64, f64, f64, f64)) -> f64| mean(&runs.iter().map(f).collect::<Vec<_>>());
    (
        col(|r| r.0),
        col(|r| r.1),
        col(|r| r.2),
        col(|r| r.3),
        col(|r| r.4),
    )
}

/// Runs the background-traffic sweep.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let quick = ctx.quick();
    let (points, seeds): (&[usize], Vec<u64>) = if quick {
        (&[0, 8, 17], vec![ctx.seed(5000)])
    } else {
        (
            &[0, 2, 5, 8, 10, 13, 17],
            (0..5).map(|i| ctx.seed(5000 + i)).collect(),
        )
    };
    let mut report = ExperimentReport::new(
        "fig11",
        "Per-client throughput (Mbps) vs number of background pairs",
        &[
            "pairs",
            "whitefi",
            "opt5",
            "opt10",
            "opt20",
            "opt",
            "wf_over_opt",
        ],
    );
    // Fan every (point, seed) trial's WhiteFi run *and* every OPT
    // candidate's fixed run out as independent work units (the sweep
    // fan-out), then average per point in seed order.
    let scenarios: Vec<Scenario> = (0..points.len() * seeds.len())
        .map(|k| scenario(points[k / seeds.len()], seeds[k % seeds.len()], quick))
        .collect();
    let runs = per_client(ctx, &scenarios);
    let mut worst_frac: f64 = 1.0;
    for (pi, &pairs) in points.iter().enumerate() {
        let (w, o5, o10, o20, o) = mean_runs(&runs[pi * seeds.len()..(pi + 1) * seeds.len()]);
        let frac = if o > 0.0 { w / o } else { 1.0 };
        worst_frac = worst_frac.min(frac);
        report.push_row(&[
            ("pairs", json!(pairs)),
            ("whitefi", round4(w)),
            ("opt5", round4(o5)),
            ("opt10", round4(o10)),
            ("opt20", round4(o20)),
            ("opt", round4(o)),
            ("wf_over_opt", round4(frac)),
        ]);
    }
    report.note(format!(
        "worst WhiteFi/OPT fraction {worst_frac:.3} (paper: always within 14% of OPT)"
    ));
    report.note(
        "OPT-20 degrades as pairs increase; narrower static widths catch up — no single best width",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use whitefi::driver::StaticBaselines;

    /// The sequential measurement of one quick trial.
    fn trial(pairs: usize, seed: u64) -> (f64, f64, f64, f64, f64) {
        per_client(&RunCtx::sequential(true), &[scenario(pairs, seed, true)])[0]
    }

    #[test]
    fn fig11_trial_candidate_count_is_pinned() {
        // 26 admissible channels on the campus map; the ones no
        // background pair touches collapse to one run per width.
        let s = scenario(4, 9000, true);
        assert_eq!(s.combined_map().available_channels().len(), 26);
        assert_eq!(StaticBaselines::candidates(&s).len(), 14);
        assert_eq!(
            StaticBaselines::candidates(&scenario(0, 9000, true)).len(),
            3
        );
    }

    #[test]
    fn no_background_whitefi_matches_opt20() {
        let (w, _o5, _o10, o20, o) = trial(0, 9000);
        assert!(w > 0.8 * o20, "whitefi {w} vs opt20 {o20}");
        assert!(w > 0.8 * o, "whitefi {w} vs opt {o}");
    }

    #[test]
    fn heavy_background_still_near_opt() {
        let (w, _, _, o20, o) = trial(14, 9100);
        assert!(w > 0.7 * o, "whitefi {w} vs opt {o}");
        // And the widest static choice is no longer clearly dominant.
        assert!(o20 < 1.3 * o, "opt20 {o20} opt {o}");
    }
}
