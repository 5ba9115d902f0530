//! Figure 6: accuracy of airtime utilization measurement using SIFT.
//!
//! Same workload as Table 1 (110 × 1000 B packets per run). The paper's
//! observation: "The total time occupied by the packets doubles on
//! halving the channel width … Since we send the same number of packets
//! at a given width, the total airtime is constant, even when we change
//! the rate of injected packets" (error bars within 2% of the mean).
//!
//! We report the SIFT-measured *busy time* (seconds) per width × rate
//! cell, its ground truth, and the relative error.

use crate::experiments::table1::{cbr_schedule, PACKET_BYTES, RATES_KBPS};
use crate::json;
use crate::report::{mean, round4, ExperimentReport};
use crate::runner::RunCtx;
use whitefi_phy::synth::SAMPLE_NS;
use whitefi_phy::{PhyTiming, Synthesizer};
use whitefi_spectrum::Width;

/// SIFT-measured total busy seconds for one run.
pub fn measured_busy_secs(width: Width, rate_kbps: u64, count: usize, seed: u64) -> f64 {
    busy_samples(width, rate_kbps, count, seed, super::stream_sift) as f64 * SAMPLE_NS as f64 / 1e9
}

/// SIFT-measured busy samples for one run, on the given capture path.
fn busy_samples(
    width: Width,
    rate_kbps: u64,
    count: usize,
    seed: u64,
    capture: super::Capture,
) -> u64 {
    let (bursts, window) = cbr_schedule(width, rate_kbps, count);
    let mut rng = super::rng(seed);
    capture(&Synthesizer::new(), &bursts, window, &mut rng).1
}

/// Ground-truth busy seconds of the same workload.
pub fn true_busy_secs(width: Width, count: usize) -> f64 {
    let t = PhyTiming::for_width(width);
    let on = t.frame_duration(PACKET_BYTES) + t.ack_duration();
    on.as_secs_f64() * count as f64
}

/// Runs the airtime-accuracy grid.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let count = if ctx.quick() { 40 } else { 110 };
    let mut report = ExperimentReport::new(
        "fig6",
        "SIFT-measured total airtime (s) per width x offered load",
        &["width_mhz", "truth_s"],
    );
    let widths = [Width::W5, Width::W10, Width::W20];
    let measured = ctx.map(widths.len() * RATES_KBPS.len(), |k| {
        let wi = k / RATES_KBPS.len();
        let rate = RATES_KBPS[k % RATES_KBPS.len()];
        measured_busy_secs(
            widths[wi],
            rate,
            count,
            ctx.seed(600 + wi as u64 * 17 + rate),
        )
    });
    let mut per_width_means = Vec::new();
    let mut max_spread: f64 = 0.0;
    for (wi, width) in widths.iter().enumerate() {
        let truth = true_busy_secs(*width, count);
        let mut pairs: Vec<(String, json::Value)> = vec![
            ("width_mhz".to_string(), json!(width.mhz())),
            ("truth_s".to_string(), round4(truth)),
        ];
        let mut cells = Vec::new();
        for (ri, rate) in RATES_KBPS.iter().enumerate() {
            let m = measured[wi * RATES_KBPS.len() + ri];
            cells.push(m);
            pairs.push((format!("{:.3}M", *rate as f64 / 1000.0), round4(m)));
        }
        let spread = (cells.iter().cloned().fold(f64::MIN, f64::max)
            - cells.iter().cloned().fold(f64::MAX, f64::min))
            / mean(&cells);
        pairs.push(("spread_frac".to_string(), round4(spread)));
        max_spread = max_spread.max(spread);
        per_width_means.push(mean(&cells));
        report.push_row_owned(pairs);
    }
    report.note(format!(
        "mean busy time per width: {:.4}/{:.4}/{:.4} s — halving width multiplies airtime by {:.3} (20→10 MHz) and {:.3} (10→5 MHz)",
        per_width_means[2],
        per_width_means[1],
        per_width_means[0],
        per_width_means[1] / per_width_means[2],
        per_width_means[0] / per_width_means[1]
    ));
    report.note(format!(
        "largest spread across offered loads at a fixed width {max_spread:.4}, {} 0.02 (paper: error bars within 2%)",
        if max_spread <= 0.02 { "within" } else { "above" }
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_constant_across_rates() {
        let cells: Vec<f64> = RATES_KBPS
            .iter()
            .map(|&r| measured_busy_secs(Width::W10, r, 60, r))
            .collect();
        let m = mean(&cells);
        for c in &cells {
            assert!((c / m - 1.0).abs() < 0.02, "cell {c} vs mean {m}");
        }
    }

    /// Busy time is not a count of independent trials, so the law test
    /// compares per-run means: over 24 seeds of 40 packets at each width
    /// (500 kbps), the sparse and dense paths' mean busy samples differ
    /// by at most five standard errors of the difference, taken from the
    /// runs' own spread (DESIGN.md §7 records the means).
    #[test]
    fn sparse_capture_matches_dense_in_law() {
        const SEEDS: u64 = 24;
        for width in [Width::W5, Width::W10, Width::W20] {
            let runs = |capture| -> Vec<f64> {
                (0..SEEDS)
                    .map(|seed| busy_samples(width, 500, 40, seed, capture) as f64)
                    .collect()
            };
            let (sparse, dense) = (
                runs(crate::experiments::stream_sift),
                runs(crate::experiments::dense_sift),
            );
            let var = |xs: &[f64]| {
                let m = mean(xs);
                xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
            };
            let se = ((var(&sparse) + var(&dense)) / SEEDS as f64).sqrt();
            let (ms, md) = (mean(&sparse), mean(&dense));
            assert!(
                (ms - md).abs() <= 5.0 * se,
                "{width:?}: sparse {ms} vs dense {md} busy samples, 5·se = {}",
                5.0 * se
            );
        }
    }

    #[test]
    fn airtime_doubles_as_width_halves() {
        let w20 = measured_busy_secs(Width::W20, 500, 60, 1);
        let w10 = measured_busy_secs(Width::W10, 500, 60, 2);
        let w5 = measured_busy_secs(Width::W5, 500, 60, 3);
        assert!((w10 / w20 - 2.0).abs() < 0.1, "{w20} {w10}");
        assert!((w5 / w10 - 2.0).abs() < 0.12, "{w10} {w5}");
    }

    #[test]
    fn measurement_tracks_truth() {
        let m = measured_busy_secs(Width::W20, 1000, 60, 4);
        let t = true_busy_secs(Width::W20, 60);
        assert!((m / t - 1.0).abs() < 0.02, "measured {m} truth {t}");
    }
}
