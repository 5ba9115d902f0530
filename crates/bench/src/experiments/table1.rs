//! Table 1: SIFT's packet detection rate.
//!
//! "We started an iperf session from one KNOWS device, and measured the
//! number of packets received at a second device using a packet sniffer.
//! Simultaneously, we used the scanner of the second device to count the
//! number of packets detected by SIFT. We repeated this experiment for 5,
//! 10 and 20 MHz channel widths, and for each width, we varied the
//! traffic intensity [125 kbps to 1 Mbps]. All reported numbers are over
//! 10 runs. In every run, we sent 110 packets of size 1000 bytes each."
//!
//! A packet counts as *detected* when SIFT reports a data/ACK exchange of
//! the right width whose measured data length matches the transmitted one
//! (±5%) — the criterion that makes the 5 MHz low-amplitude packet head
//! occasionally fail, reproducing the table's slightly lower 5 MHz rates.

use crate::json;
use crate::report::{median, round4, ExperimentReport};
use crate::runner::RunCtx;
use whitefi_phy::synth::{data_ack_exchange, duration_to_samples, Burst};
use whitefi_phy::{DetectionKind, PhyTiming, SimDuration, SimTime, Synthesizer};
use whitefi_spectrum::Width;

/// Offered loads of the paper's sweep, in kbps.
pub const RATES_KBPS: [u64; 5] = [125, 250, 500, 750, 1000];

/// Payload size per packet.
pub const PACKET_BYTES: usize = 1000;

/// Builds the burst schedule of an iperf-like CBR session: `count`
/// packets of [`PACKET_BYTES`] at `rate_kbps`, each a data/ACK exchange.
pub fn cbr_schedule(width: Width, rate_kbps: u64, count: usize) -> (Vec<Burst>, SimDuration) {
    let gap = SimDuration::from_nanos(PACKET_BYTES as u64 * 8 * 1_000_000 / rate_kbps);
    let mut bursts = Vec::with_capacity(count * 2);
    let mut t = SimTime::from_millis(1);
    for _ in 0..count {
        let ex = data_ack_exchange(t, width, PACKET_BYTES, 1000.0);
        bursts.extend(ex);
        t = t + gap.max(ex[1].start.since(t) + ex[1].duration + SimDuration::from_micros(200));
    }
    let window = t + SimDuration::from_millis(2);
    (bursts, SimDuration::from_nanos(window.as_nanos()))
}

/// Fraction of the `count` sent packets that SIFT detects with the right
/// width and a length-matched data burst.
pub fn detection_rate(width: Width, rate_kbps: u64, count: usize, seed: u64) -> f64 {
    packets_detected(width, rate_kbps, count, seed, super::stream_sift) as f64 / count as f64
}

/// How many of the `count` packets [`detection_rate`] counts, on the
/// given capture path.
fn packets_detected(
    width: Width,
    rate_kbps: u64,
    count: usize,
    seed: u64,
    capture: super::Capture,
) -> usize {
    let (bursts, window) = cbr_schedule(width, rate_kbps, count);
    let mut rng = super::rng(seed);
    let expected_len =
        duration_to_samples(PhyTiming::for_width(width).frame_duration(PACKET_BYTES));
    let (detections, _) = capture(&Synthesizer::new(), &bursts, window, &mut rng);
    let detected = detections
        .into_iter()
        .filter(|d| {
            d.width == width
                && d.kind == DetectionKind::DataAck
                && (d.first_len as f64 - expected_len).abs() <= expected_len * 0.05
        })
        .count();
    detected.min(count)
}

/// Runs the full Table 1 grid.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let (runs, count) = if ctx.quick() { (3u64, 40) } else { (10, 110) };
    let mut report = ExperimentReport::new(
        "table1",
        "SIFT packet detection rate (median over runs)",
        &["width_mhz"],
    );
    let widths = [Width::W5, Width::W10, Width::W20];
    // One parallel work unit per (width, rate) cell; each cell's trial
    // seeds depend only on its grid position, never on scheduling.
    let cells = ctx.map(widths.len() * RATES_KBPS.len(), |k| {
        let width = widths[k / RATES_KBPS.len()];
        let ri = k % RATES_KBPS.len();
        let rates: Vec<f64> = (0..runs)
            .map(|r| {
                detection_rate(
                    width,
                    RATES_KBPS[ri],
                    count,
                    ctx.seed(1000 + r * 31 + ri as u64),
                )
            })
            .collect();
        median(&rates)
    });
    let mut min_rate: f64 = 1.0;
    let mut w5_mean = 0.0;
    let mut wide_mean = 0.0;
    for (wi, width) in widths.iter().enumerate() {
        let mut pairs: Vec<(String, json::Value)> = Vec::new();
        let label = format!("{}", width.mhz());
        pairs.push(("width_mhz".to_string(), json!(label)));
        for (ri, rate) in RATES_KBPS.iter().enumerate() {
            let med = cells[wi * RATES_KBPS.len() + ri];
            min_rate = min_rate.min(med);
            if *width == Width::W5 {
                w5_mean += med / RATES_KBPS.len() as f64;
            } else {
                wide_mean += med / (2.0 * RATES_KBPS.len() as f64);
            }
            pairs.push((format!("{:.3}M", *rate as f64 / 1000.0), round4(med)));
        }
        report.push_row_owned(pairs);
    }
    report.note(format!(
        "worst-case median detection rate {:.3} (paper: 0.97; worst loss 2–3%)",
        min_rate
    ));
    let relation = if w5_mean < wide_mean {
        format!("{:.3} below", wide_mean - w5_mean)
    } else {
        "not below".to_string()
    };
    report.note(format!(
        "5 MHz mean {w5_mean:.3} is {relation} the 10/20 MHz mean {wide_mean:.3} (paper: the 5 MHz low-amplitude head costs a little)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_rates_match_paper_shape() {
        // Abbreviated grid: every cell ≥ 0.95, wide widths ≥ 5 MHz cell.
        let w5 = detection_rate(Width::W5, 500, 60, 7);
        let w20 = detection_rate(Width::W20, 500, 60, 7);
        assert!(w5 >= 0.90, "5 MHz rate {w5}");
        assert!(w20 >= 0.97, "20 MHz rate {w20}");
        assert!(w20 >= w5 - 0.02);
    }

    /// The 5 MHz cells, where the low-amplitude head makes detection
    /// depend on the noise: over 10 seeds × 5 loads × 40 packets, the
    /// sparse capture path detects within five binomial standard errors
    /// of the dense one (DESIGN.md §7 records the rates).
    #[test]
    fn sparse_capture_matches_dense_in_law_at_5mhz() {
        const SEEDS: u64 = 10;
        let (mut sparse, mut dense, mut sent) = (0, 0, 0);
        for seed in 0..SEEDS {
            for rate in RATES_KBPS {
                let cell = |capture| packets_detected(Width::W5, rate, 40, seed, capture);
                sparse += cell(crate::experiments::stream_sift);
                dense += cell(crate::experiments::dense_sift);
                sent += 40;
            }
        }
        crate::experiments::assert_same_rate("table1 5 MHz, sparse vs dense", sparse, dense, sent);
    }

    #[test]
    fn schedule_respects_offered_load() {
        let (bursts, window) = cbr_schedule(Width::W20, 1000, 50);
        assert_eq!(bursts.len(), 100);
        // 50 packets at 1 Mbps of 8 kbit each → ≈ 0.4 s.
        let secs = window.as_secs_f64();
        assert!((secs - 0.4).abs() < 0.05, "window {secs}");
    }

    #[test]
    fn quick_report_has_three_width_rows() {
        let r = run(&RunCtx::sequential(true));
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.columns.len(), 6);
    }
}
