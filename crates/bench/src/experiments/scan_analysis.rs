//! Section 4.2.2: analytic expected scan counts, checked by Monte Carlo.
//!
//! "The expected number of iterations until an AP is discovered is NC/2
//! [for L-SIFT] … While the worst-case discovery time of J-SIFT is the
//! same as for L-SIFT (NC), the expected discovery time can be shown to
//! be (NC + 2^(NW−1) + (NW−1)/2)/NW … we expect J-SIFT to outperform
//! L-SIFT when NC is greater than about 10 UHF channels."

use crate::json;
use crate::report::{mean, round4, rounded4, ExperimentReport};
use crate::runner::RunCtx;
use rand::Rng;
use whitefi::{
    expected_scans_baseline, expected_scans_j_sift, expected_scans_l_sift, j_sift_discovery,
    l_sift_discovery, SyntheticOracle,
};
use whitefi_spectrum::{SpectrumMap, UhfChannel};

/// Monte-Carlo mean scans `(l_sift, j_sift)` for a contiguous band of
/// `nc` channels.
pub fn monte_carlo(nc: usize, trials: usize, seed: u64) -> (f64, f64) {
    let mut map = SpectrumMap::all_occupied();
    for i in 0..nc {
        map.set_free(UhfChannel::from_index(i));
    }
    let placements = map.available_channels();
    let mut rng = super::rng(seed);
    let mut l = Vec::new();
    let mut j = Vec::new();
    for _ in 0..trials {
        let ap = placements[rng.gen_range(0..placements.len())];
        let mut o = SyntheticOracle::new(ap, super::rng(rng.gen()));
        // lint:allow(unwrap, the map has `nc` free channels, so discovery always succeeds; None is a harness bug)
        l.push(l_sift_discovery(&mut o, map).expect("discovery").scans as f64);
        let mut o = SyntheticOracle::new(ap, super::rng(rng.gen()));
        // lint:allow(unwrap, the map has `nc` free channels, so discovery always succeeds; None is a harness bug)
        j.push(j_sift_discovery(&mut o, map).expect("discovery").scans as f64);
    }
    (mean(&l), mean(&j))
}

/// Runs the closed-form vs Monte-Carlo comparison.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let trials = if ctx.quick() { 100 } else { 500 };
    let mut report = ExperimentReport::new(
        "scan_analysis",
        "Expected scans: closed form vs Monte Carlo (NW = 3)",
        &[
            "nc",
            "l_theory",
            "l_measured",
            "j_theory",
            "j_measured",
            "baseline_theory",
        ],
    );
    let ncs = [2usize, 5, 8, 10, 12, 15, 20, 25, 30];
    let measured = ctx.map(ncs.len(), |i| {
        monte_carlo(ncs[i], trials, ctx.seed(1300 + ncs[i] as u64))
    });
    // Measured minus closed form per row, at the printed precision.
    let (mut l_gaps, mut j_gaps, mut j_ahead_from) = (Vec::new(), Vec::new(), None);
    for (i, &nc) in ncs.iter().enumerate() {
        let (l, j) = (rounded4(measured[i].0), rounded4(measured[i].1));
        let (lt, jt) = (
            rounded4(expected_scans_l_sift(nc)),
            rounded4(expected_scans_j_sift(nc, 3)),
        );
        report.push_row(&[
            ("nc", json!(nc)),
            ("l_theory", json!(lt)),
            ("l_measured", json!(l)),
            ("j_theory", json!(jt)),
            ("j_measured", json!(j)),
            ("baseline_theory", round4(expected_scans_baseline(nc, 3))),
        ]);
        l_gaps.push(rounded4(l - lt));
        j_gaps.push(rounded4(j - jt));
        if j < l && j_ahead_from.is_none() {
            j_ahead_from = Some(nc);
        }
    }
    let range = |gaps: &[f64]| {
        let lo = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        format!("{lo:+.4} to {hi:+.4}")
    };
    let ahead = j_ahead_from.map_or_else(|| "at no NC".to_string(), |nc| format!("at NC = {nc}"));
    report.note("theory crossover: L-SIFT = J-SIFT at NC = 10 exactly");
    report.note(format!(
        "measured minus closed form (measured counts include the decode endgame): L-SIFT {}, \
         J-SIFT {}; measured J-SIFT first beats measured L-SIFT {ahead}",
        range(&l_gaps),
        range(&j_gaps)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monte_carlo_tracks_theory() {
        let (l, j) = monte_carlo(30, 400, 1);
        // L-SIFT: NC/2 = 15 plus one decode.
        assert!((l - (expected_scans_l_sift(30) + 1.0)).abs() < 1.5, "l {l}");
        // J-SIFT: theory ≈ 11.67 plus an endgame of a few decodes.
        let jt = expected_scans_j_sift(30, 3);
        assert!(j >= jt - 1.0 && j <= jt + 4.0, "j {j} theory {jt}");
    }

    #[test]
    fn theory_crossover_at_ten() {
        assert!(expected_scans_l_sift(9) < expected_scans_j_sift(9, 3));
        assert!((expected_scans_l_sift(10) - expected_scans_j_sift(10, 3)).abs() < 1e-12);
        assert!(expected_scans_l_sift(11) > expected_scans_j_sift(11, 3));
    }
}
