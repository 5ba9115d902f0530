//! Analytic saturation-throughput models for the simulated DCF.
//!
//! Two closed forms cross-validate the event simulator:
//!
//! * [`single_flow_goodput_mbps`] — the deterministic cycle of one
//!   saturated sender: `DIFS + E[backoff] + T_data + SIFS + T_ack`, all
//!   width-scaled; the simulator must land within a few percent.
//! * [`bianchi_saturation_goodput_mbps`] — Bianchi's classic fixed-point
//!   model (Bianchi 2000) for `n` saturated contenders with binary
//!   exponential backoff, adapted to this MAC's constants. The simulator
//!   freezes backoff counters across interruptions as Bianchi assumes;
//!   residual differences (per-attempt DIFS accounting, no slot
//!   synchronization) leave a modest gap that the tests bound.

use crate::sim::{contention_timing, CW_MAX, CW_MIN};
use whitefi_phy::PhyTiming;
use whitefi_spectrum::Width;

/// Goodput of a single saturated sender on a clean channel, Mbps.
pub fn single_flow_goodput_mbps(width: Width, bytes: usize) -> f64 {
    let t = PhyTiming::for_width(width);
    let ct = contention_timing();
    let mean_backoff_slots = (CW_MIN as f64 - 1.0) / 2.0;
    let cycle_ns = ct.difs().as_nanos() as f64
        + mean_backoff_slots * ct.slot().as_nanos() as f64
        + t.frame_duration(bytes).as_nanos() as f64
        + t.sifs().as_nanos() as f64
        + t.ack_duration().as_nanos() as f64;
    bytes as f64 * 8.0 / (cycle_ns / 1e9) / 1e6
}

/// Solves Bianchi's fixed point for the per-slot transmission probability
/// `τ` of `n` saturated stations with `CW_min = w`, `m` backoff stages.
// `powi(n as i32)` over station counts: networks are a handful of nodes,
// so the usize→i32 casts are exact.
#[allow(clippy::cast_possible_truncation)]
pub fn bianchi_tau(n: usize, w: u32, m: u32) -> f64 {
    assert!(n >= 1);
    let w = w as f64;
    let mut tau = 0.1f64;
    for _ in 0..10_000 {
        let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);
        let new_tau = if p <= 0.0 {
            2.0 / (w + 1.0)
        } else {
            let two_p = 2.0 * p;
            2.0 * (1.0 - two_p) / ((1.0 - two_p) * (w + 1.0) + p * w * (1.0 - two_p.powi(m as i32)))
        };
        // Guard against the 2p → 1 singularity.
        let new_tau = if new_tau.is_finite() && new_tau > 0.0 {
            new_tau.min(1.0)
        } else {
            tau / 2.0
        };
        if (new_tau - tau).abs() < 1e-12 {
            return new_tau;
        }
        tau = 0.5 * tau + 0.5 * new_tau;
    }
    tau
}

/// Bianchi saturation goodput for `n` contenders sending `bytes`-byte
/// frames at `width`, Mbps (aggregate across all flows).
// As in `bianchi_tau`, the usize→i32 station-count casts are exact; the
// backoff-stage count is a small nonnegative integer by construction, so
// rounding it into a u32 is exact too.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn bianchi_saturation_goodput_mbps(n: usize, width: Width, bytes: usize) -> f64 {
    let t = PhyTiming::for_width(width);
    let ct = contention_timing();
    let m = (CW_MAX as f64 / CW_MIN as f64).log2().round() as u32;
    let tau = bianchi_tau(n, CW_MIN, m);
    let p_tr = 1.0 - (1.0 - tau).powi(n as i32); // some transmission
    let p_s = if p_tr > 0.0 {
        n as f64 * tau * (1.0 - tau).powi(n as i32 - 1) / p_tr
    } else {
        0.0
    };
    let sigma = ct.slot().as_nanos() as f64;
    let ts = t.frame_duration(bytes).as_nanos() as f64
        + t.sifs().as_nanos() as f64
        + t.ack_duration().as_nanos() as f64
        + ct.difs().as_nanos() as f64;
    // Collision: data goes out, no ACK; the sender waits its ACK timeout.
    let tc = t.frame_duration(bytes).as_nanos() as f64
        + t.sifs().as_nanos() as f64
        + t.ack_duration().as_nanos() as f64
        + ct.slot().as_nanos() as f64
        + ct.difs().as_nanos() as f64;
    let payload_bits = bytes as f64 * 8.0;
    let num = p_s * p_tr * payload_bits;
    let den = (1.0 - p_tr) * sigma + p_tr * p_s * ts + p_tr * (1.0 - p_s) * tc;
    num / (den / 1e9) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{NodeConfig, Simulator};
    use crate::traffic::{SaturatingSender, Sink};
    use whitefi_phy::{SimDuration, SimTime};
    use whitefi_spectrum::WfChannel;

    fn simulate(n: usize, width: Width, bytes: usize, seed: u64) -> f64 {
        let c = WfChannel::from_parts(15, width);
        let mut sim = Simulator::new(seed);
        let mut rxs = Vec::new();
        for _ in 0..n {
            let rx = sim.add_node(NodeConfig::on_channel(c), Box::new(Sink));
            sim.add_node(
                NodeConfig::on_channel(c),
                Box::new(SaturatingSender {
                    dst: rx,
                    bytes,
                    pipeline: 2,
                }),
            );
            rxs.push(rx);
        }
        let span = SimDuration::from_secs(2);
        sim.run_until(SimTime::ZERO + span);
        rxs.iter()
            .map(|&r| sim.stats(r).rx_goodput_mbps(span))
            .sum()
    }

    #[test]
    fn single_flow_matches_deterministic_cycle() {
        for width in [Width::W5, Width::W10, Width::W20] {
            let analytic = single_flow_goodput_mbps(width, 1000);
            let simulated = simulate(1, width, 1000, 11);
            let err = (simulated / analytic - 1.0).abs();
            assert!(
                err < 0.05,
                "{width:?}: analytic {analytic:.3} vs simulated {simulated:.3}"
            );
        }
    }

    #[test]
    fn single_flow_width_ratio_near_two() {
        // With uniform contention timing the DIFS+backoff overhead is a
        // fixed cost per frame, so doubling the width slightly less than
        // doubles goodput.
        let g20 = single_flow_goodput_mbps(Width::W20, 1000);
        let g10 = single_flow_goodput_mbps(Width::W10, 1000);
        assert!(g20 / g10 > 1.6 && g20 / g10 < 2.0, "ratio {}", g20 / g10);
    }

    #[test]
    fn bianchi_tau_sanity() {
        // n = 1 never collides: τ = 2/(W+1).
        let t1 = bianchi_tau(1, 16, 6);
        assert!((t1 - 2.0 / 17.0).abs() < 1e-9, "τ₁ {t1}");
        // τ decreases with contention.
        let t2 = bianchi_tau(2, 16, 6);
        let t8 = bianchi_tau(8, 16, 6);
        assert!(t2 > t8, "τ₂ {t2} τ₈ {t8}");
        assert!(t8 > 0.0 && t8 < t1);
    }

    #[test]
    fn bianchi_reduces_to_single_flow_at_n1() {
        let b = bianchi_saturation_goodput_mbps(1, Width::W20, 1000);
        let s = single_flow_goodput_mbps(Width::W20, 1000);
        assert!((b / s - 1.0).abs() < 0.02, "bianchi {b} single {s}");
    }

    #[test]
    fn simulator_tracks_bianchi_under_contention() {
        for n in [2usize, 4] {
            let analytic = bianchi_saturation_goodput_mbps(n, Width::W20, 1000);
            let simulated = simulate(n, Width::W20, 1000, 13 + n as u64);
            let err = (simulated / analytic - 1.0).abs();
            // Bianchi's slotted model and our unslotted simulator differ
            // in DIFS accounting; allow a generous envelope.
            assert!(
                err < 0.25,
                "n={n}: analytic {analytic:.3} vs simulated {simulated:.3}"
            );
        }
    }

    #[test]
    fn aggregate_goodput_declines_gently_with_contention() {
        let g1 = bianchi_saturation_goodput_mbps(1, Width::W20, 1000);
        let g8 = bianchi_saturation_goodput_mbps(8, Width::W20, 1000);
        assert!(g8 < g1, "{g8} !< {g1}");
        assert!(g8 > 0.6 * g1, "collapse too steep: {g8} vs {g1}");
    }
}
