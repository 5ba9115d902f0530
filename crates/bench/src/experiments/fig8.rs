//! Figure 8: reduction in AP discovery time using L-SIFT and J-SIFT,
//! versus the non-SIFT baseline, as a function of the width of the single
//! available spectrum fragment.
//!
//! "In this experiment, we set the spectrum map to have only one
//! available fragment. We varied the number of UHF channels in the
//! fragment from 1 to 30 … When there is only one available UHF channel,
//! the time taken by all the algorithms is the same. However, when we
//! increase the width of the available fragment, L-SIFT and J-SIFT
//! perform much better than the baseline. As expected, L-SIFT outperforms
//! J-SIFT initially (for narrow white-spaces) … J-SIFT becomes more
//! efficient for white spaces spanning more than 10 UHF channels."

use crate::json;
use crate::report::{mean, round4, ExperimentReport};
use crate::runner::RunCtx;
use rand::Rng;
use whitefi::{baseline_discovery, j_sift_discovery, l_sift_discovery, SyntheticOracle};
use whitefi_spectrum::{SpectrumMap, UhfChannel, NUM_UHF_CHANNELS};

/// Mean scan counts `(baseline, l_sift, j_sift)` over random admissible
/// AP placements within a single fragment of `width` channels.
pub fn mean_scans(width: usize, trials: usize, seed: u64) -> (f64, f64, f64) {
    let mut map = SpectrumMap::all_occupied();
    for i in 0..width {
        map.set_free(UhfChannel::from_index(i));
    }
    let placements = map.available_channels();
    let mut rng = super::rng(seed);
    let mut b = Vec::new();
    let mut l = Vec::new();
    let mut j = Vec::new();
    for _ in 0..trials {
        let ap = placements[rng.gen_range(0..placements.len())];
        let mk = |seed| SyntheticOracle::new(ap, super::rng(seed));
        b.push(
            baseline_discovery(&mut mk(rng.gen()), map)
                // lint:allow(unwrap, every map here has `width` free channels, so discovery always succeeds; None is a harness bug)
                .expect("discovery")
                .scans as f64,
        );
        l.push(
            l_sift_discovery(&mut mk(rng.gen()), map)
                // lint:allow(unwrap, every map here has `width` free channels, so discovery always succeeds; None is a harness bug)
                .expect("discovery")
                .scans as f64,
        );
        j.push(
            j_sift_discovery(&mut mk(rng.gen()), map)
                // lint:allow(unwrap, every map here has `width` free channels, so discovery always succeeds; None is a harness bug)
                .expect("discovery")
                .scans as f64,
        );
    }
    (mean(&b), mean(&l), mean(&j))
}

/// Runs the fragment-width sweep.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let trials = if ctx.quick() { 60 } else { 300 };
    let mut report = ExperimentReport::new(
        "fig8",
        "Discovery time as a fraction of the non-SIFT baseline vs fragment width",
        &[
            "fragment_width",
            "baseline_scans",
            "l_sift_frac",
            "j_sift_frac",
        ],
    );
    // Trials within one width share an RNG (placements feed oracle
    // seeds), so the parallel unit is the width, not the trial.
    let per_width = ctx.map(NUM_UHF_CHANNELS, |wi| {
        let width = wi + 1;
        mean_scans(width, trials, ctx.seed(900 + width as u64))
    });
    let mut last_l_win = 0usize;
    for width in 1..=NUM_UHF_CHANNELS {
        let (b, l, j) = per_width[width - 1];
        report.push_row(&[
            ("fragment_width", json!(width)),
            ("baseline_scans", round4(b)),
            ("l_sift_frac", round4(l / b)),
            ("j_sift_frac", round4(j / b)),
        ]);
        // L "wins" a width when it beats J by more than sampling noise.
        if l < j * 0.99 {
            last_l_win = width;
        }
    }
    report.note(format!(
        "L-SIFT last decisively ahead at fragment width {last_l_win}; J-SIFT ahead beyond \
         (paper: crossover ~10 — our J-SIFT prunes its centre-frequency endgame with the \
         spectrum map, which pulls the crossover earlier on narrow fragments)"
    ));
    let (b1, l1, j1) = per_width[0];
    report.note(format!(
        "width 1: baseline {b1}, L-SIFT {l1}, J-SIFT {j1} mean scans (a SIFT dwell, \
         then a decode scan of the one channel; paper: all algorithms take the same time)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At width 1 the baseline decodes the one channel in one scan,
    /// while L-SIFT and J-SIFT take a SIFT dwell and then that decode
    /// scan: two each, in every trial (the paper has all three equal).
    #[test]
    fn width_one_baseline_one_scan_sift_two() {
        let (b, l, j) = mean_scans(1, 20, 1);
        assert_eq!((b, l, j), (1.0, 2.0, 2.0));
    }

    #[test]
    fn both_sift_variants_beat_baseline_on_wide_fragments() {
        let (b, l, j) = mean_scans(24, 80, 2);
        assert!(l < 0.6 * b, "l {l} vs baseline {b}");
        assert!(j < 0.45 * b, "j {j} vs baseline {b}");
    }

    #[test]
    fn j_sift_improvement_exceeds_70_percent_on_open_band() {
        // §5.2: "J-SIFT improves the time to discover APs by more than
        // 75% compared to non-SIFT based techniques." Our J-SIFT pays a
        // slightly larger centre-frequency endgame (it decode-scans each
        // admissible F ± W/2 candidate), landing at ~73% improvement.
        let (b, _, j) = mean_scans(30, 150, 3);
        assert!(j < 0.30 * b, "j {j} vs baseline {b}");
    }

    /// Characterization of the known L/J crossover deviation: our
    /// J-SIFT prunes its centre-frequency endgame with the spectrum
    /// map, pulling the crossover *earlier* than the paper's ~10
    /// channels (DESIGN.md §7, EXPERIMENTS.md). The test pins that
    /// shape — it fails loudly if the deviation silently changes.
    #[test]
    fn crossover_in_expected_region() {
        // Below the crossover L-SIFT holds its own.
        let (_, l_narrow, j_narrow) = mean_scans(4, 150, 4);
        assert!(
            l_narrow <= j_narrow + 0.5,
            "narrow: l {l_narrow} j {j_narrow}"
        );
        // The deviation itself: by 8 channels J-SIFT has caught up to
        // within noise of L-SIFT — two channels before the paper's
        // crossover — and under the streaming-SIFT numerics (PR 6) it
        // oscillates within ~1-2% of parity at this width. Pin the
        // *region*, not a strict ordering: if J-SIFT falls clearly
        // behind here the early crossover has moved — re-document it.
        let (_, l_mid, j_mid) = mean_scans(8, 150, 6);
        assert!(
            j_mid <= l_mid * 1.05,
            "early crossover gone: width 8 l {l_mid} j {j_mid}"
        );
        // Far above the crossover J-SIFT wins decisively.
        let (_, l_wide, j_wide) = mean_scans(20, 150, 5);
        assert!(j_wide < l_wide, "wide: l {l_wide} j {j_wide}");
    }
}
