//! Figure 7: discovery of packets with signal attenuation — SIFT vs a
//! packet sniffer.
//!
//! "We evaluated the accuracy of SIFT at low signal strengths by
//! connecting two KNOWS devices through a tunable RF attenuator … At low
//! attenuation, both SIFT and the packet sniffer perform very well.
//! However, SIFT outperforms the packet sniffer, as it is even able to
//! detect corrupted packets. At higher attenuation, SIFT continues to
//! detect more packets than the sniffer until 96 dB attenuation … Beyond
//! 96 dB we see a very sharp drop … the reception ratio of the packet
//! sniffer falls off more smoothly, and performs better than SIFT beyond
//! 98 dB attenuation. However, at this attenuation the capture ratio is
//! extremely low at around 35%."

use crate::json;
use crate::report::{round4, ExperimentReport};
use crate::runner::RunCtx;
use whitefi_phy::attenuation::{amplitude_after, NoiseModel, TX_REFERENCE_AMPLITUDE};
use whitefi_phy::synth::{data_ack_exchange, SAMPLE_NS};
use whitefi_phy::{DetectionKind, SimDuration, SimTime, Sniffer, Synthesizer};
use whitefi_spectrum::Width;

/// SIFT detection fraction at the given attenuation: the share of the
/// sent packets that at least one 20 MHz data/ACK detection overlaps.
/// Past the cliff SIFT sees a data frame only as fragments and can pair
/// two of them more than once inside one frame, so detections are
/// matched to packets rather than counted.
pub fn sift_fraction(attenuation_db: f64, packets: usize, seed: u64) -> f64 {
    packets_detected(attenuation_db, packets, seed, super::stream_sift) as f64 / packets as f64
}

/// How many of `packets` sent packets [`sift_fraction`] counts, on the
/// given capture path.
fn packets_detected(
    attenuation_db: f64,
    packets: usize,
    seed: u64,
    capture: super::Capture,
) -> usize {
    let amplitude = amplitude_after(TX_REFERENCE_AMPLITUDE, attenuation_db);
    let mut bursts = Vec::with_capacity(packets * 2);
    let mut spans = Vec::with_capacity(packets);
    let mut t = SimTime::from_millis(1);
    for _ in 0..packets {
        let ex = data_ack_exchange(t, Width::W20, 1000, amplitude);
        let end = ex[1].start + ex[1].duration;
        spans.push((sample_index(t), sample_index(end)));
        t = end + SimDuration::from_millis(1);
        bursts.extend(ex);
    }
    let window = SimDuration::from_nanos(t.as_nanos() + 1_000_000);
    let mut rng = super::rng(seed);
    let (detections, _) = capture(&Synthesizer::new(), &bursts, window, &mut rng);
    let extents = detections
        .iter()
        .filter(|d| d.kind == DetectionKind::DataAck && d.width == Width::W20)
        .map(|d| {
            (
                d.first_start,
                d.first_start + d.first_len + d.gap + d.second_len,
            )
        });
    packets_hit(&spans, extents)
}

/// The sample at or before `t`.
fn sample_index(t: SimTime) -> usize {
    (t.as_nanos() / SAMPLE_NS) as usize
}

/// How many of the sorted, disjoint sample ranges `spans` overlap at
/// least one of the ranges `extents` (all half-open).
fn packets_hit(spans: &[(usize, usize)], extents: impl Iterator<Item = (usize, usize)>) -> usize {
    let mut hit = vec![false; spans.len()];
    for (start, end) in extents {
        let mut k = spans.partition_point(|&(_, span_end)| span_end <= start);
        while k < spans.len() && spans[k].0 < end {
            hit[k] = true;
            k += 1;
        }
    }
    hit.into_iter().filter(|&h| h).count()
}

/// Sniffer decode fraction (Monte Carlo over the decode model).
pub fn sniffer_fraction(attenuation_db: f64, packets: usize, seed: u64) -> f64 {
    let amplitude = amplitude_after(TX_REFERENCE_AMPLITUDE, attenuation_db);
    let noise = NoiseModel::default_model();
    let sniffer = Sniffer::default();
    let snr = noise.snr_db(amplitude);
    let mut rng = super::rng(seed);
    let ok = (0..packets)
        .filter(|_| sniffer.decodes(snr, &mut rng))
        .count();
    ok as f64 / packets as f64
}

/// Runs the attenuation sweep.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let packets = if ctx.quick() { 60 } else { 200 };
    let mut report = ExperimentReport::new(
        "fig7",
        "Packet detection fraction vs attenuation (20 MHz, 1000 B)",
        &["attenuation_db", "sift", "sniffer"],
    );
    let dbs: Vec<u64> = (80..=106).step_by(2).collect();
    let fractions = ctx.map(dbs.len(), |i| {
        let db2 = dbs[i];
        (
            sift_fraction(db2 as f64, packets, ctx.seed(700 + db2)),
            sniffer_fraction(db2 as f64, packets * 5, ctx.seed(800 + db2)),
        )
    });
    // Cliff/crossover detection needs the previous point, so the scan
    // over the collected results stays sequential.
    let mut cliff_db = None;
    let mut crossover_db = None;
    let mut prev = (1.0f64, 1.0f64);
    for (i, &db2) in dbs.iter().enumerate() {
        let db = db2 as f64;
        let (s, p) = fractions[i];
        report.push_row(&[
            ("attenuation_db", json!(db)),
            ("sift", round4(s)),
            ("sniffer", round4(p)),
        ]);
        if cliff_db.is_none() && prev.0 > 0.9 && s < 0.5 {
            cliff_db = Some(db);
        }
        if crossover_db.is_none() && prev.1 <= prev.0 && p > s {
            crossover_db = Some(db);
        }
        prev = (s, p);
    }
    if let Some(c) = cliff_db {
        report.note(format!(
            "SIFT cliff between {} and {} dB (paper: sharp drop beyond 96 dB)",
            c - 2.0,
            c
        ));
    }
    if let Some(c) = crossover_db {
        report.note(format!(
            "sniffer overtakes SIFT at ~{c} dB (paper: beyond 98 dB, at ~35% capture)"
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_hit_counts_each_packet_once() {
        let spans = [(10, 20), (30, 40), (50, 60)];
        // Two detections inside the first packet, one straddling the
        // second and third, one in the idle gap after the last.
        let extents = [(11, 13), (15, 19), (38, 52), (60, 70)];
        assert_eq!(packets_hit(&spans, extents.into_iter()), 3);
        assert_eq!(packets_hit(&spans, [(12, 14), (16, 18)].into_iter()), 1);
        assert_eq!(packets_hit(&spans, [(0, 10), (20, 30)].into_iter()), 0);
    }

    #[test]
    fn both_near_perfect_at_low_attenuation() {
        assert!(sift_fraction(80.0, 40, 1) > 0.97);
        assert!(sniffer_fraction(80.0, 400, 1) > 0.97);
    }

    /// The sparse capture path detects what the dense one does, in law:
    /// over 40 seeds of 60 packets, the packets detected at 96, 98 and
    /// 100 dB agree within five binomial standard errors (DESIGN.md §7
    /// records the rates).
    #[test]
    fn sparse_capture_matches_dense_in_law() {
        const SEEDS: u64 = 40;
        for db in [96.0, 98.0, 100.0] {
            let (mut sparse, mut dense, mut sent) = (0, 0, 0);
            for seed in 0..SEEDS {
                sparse += packets_detected(db, 60, seed, crate::experiments::stream_sift);
                dense += packets_detected(db, 60, seed, crate::experiments::dense_sift);
                sent += 60;
            }
            let what = format!("fig7 SIFT at {db} dB, sparse vs dense");
            crate::experiments::assert_same_rate(&what, sparse, dense, sent);
        }
    }

    #[test]
    fn sift_beats_sniffer_in_the_mid_range() {
        // 90–96 dB: the sniffer is already lossy, SIFT still near-perfect.
        for db in [90.0, 92.0, 94.0] {
            let s = sift_fraction(db, 60, 2);
            let p = sniffer_fraction(db, 600, 2);
            assert!(s > p, "at {db} dB: sift {s} <= sniffer {p}");
            assert!(s > 0.9, "sift degraded early at {db} dB: {s}");
        }
    }

    /// The cliff and the crossover over seeds 0..40. On those seeds
    /// SIFT's 96 dB rate and the sniffer's 98 dB rate hold their bounds
    /// on every seed, and the sniffer leads at 102 dB on every seed. At
    /// 100 dB the two are a coin flip between noise realizations, and
    /// SIFT's rate there exceeds 0.25 on a few seeds, so that bound is
    /// on the mean (DESIGN.md §7).
    #[test]
    fn sift_cliff_after_96db_sniffer_smooth() {
        const SEEDS: u64 = 40;
        let mut s100 = 0.0;
        for seed in 0..SEEDS {
            let s96 = sift_fraction(96.0, 60, seed);
            assert!(s96 > 0.85, "seed {seed}: 96 dB {s96}");
            s100 += sift_fraction(100.0, 60, seed) / SEEDS as f64;
            // Sniffer decays smoothly and wins beyond the cliff.
            let p98 = sniffer_fraction(98.0, 2000, seed);
            assert!(
                (0.2..0.5).contains(&p98),
                "seed {seed}: 98 dB sniffer {p98} (paper ~0.35)"
            );
            let s102 = sift_fraction(102.0, 60, seed);
            let p102 = sniffer_fraction(102.0, 600, seed);
            assert!(
                p102 > s102,
                "seed {seed}: sniffer {p102} vs sift {s102} at 102 dB"
            );
        }
        assert!(s100 < 0.25, "mean 100 dB {s100}");
    }
}
