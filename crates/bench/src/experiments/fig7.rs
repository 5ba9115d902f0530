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
    let (detections, _) = super::stream_sift(&Synthesizer::new(), &bursts, window, &mut rng);
    let extents = detections
        .iter()
        .filter(|d| d.kind == DetectionKind::DataAck && d.width == Width::W20)
        .map(|d| {
            (
                d.first_start,
                d.first_start + d.first_len + d.gap + d.second_len,
            )
        });
    packets_hit(&spans, extents) as f64 / packets as f64
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

    #[test]
    fn sift_cliff_after_96db_sniffer_smooth() {
        let s96 = sift_fraction(96.0, 60, 3);
        let s100 = sift_fraction(100.0, 60, 3);
        assert!(s96 > 0.85, "96 dB {s96}");
        assert!(s100 < 0.25, "100 dB {s100}");
        // Sniffer decays smoothly and wins beyond the cliff.
        let p100 = sniffer_fraction(100.0, 600, 3);
        assert!(p100 > s100, "sniffer {p100} vs sift {s100} at 100 dB");
        let p98 = sniffer_fraction(98.0, 2000, 3);
        assert!(
            (0.2..0.5).contains(&p98),
            "98 dB sniffer {p98} (paper ~0.35)"
        );
    }
}
