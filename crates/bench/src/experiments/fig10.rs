//! Figure 10: the MCham microbenchmark.
//!
//! "We simulate a spectrum fragment of 5 adjacent UHF channels (26–30),
//! each having one background client/AP-pair. There is one AP with one
//! associated client, transmitting a link-saturating UDP flow. We vary
//! the traffic intensity of the background nodes (from 0 to 50 ms
//! inter-packet delay) and measure the effect on the MCham metric and
//! client throughput when transmitting on the 5, 10, and 20 MHz channels
//! centered at channel 28. … The MCham metric accurately predicts which
//! channel achieves the highest throughput for any given background
//! intensity."
//!
//! Shape targets: the MCham argmax matches the measured-throughput argmax
//! across the sweep, and the preferred width walks 20 → 10 → 5 MHz as
//! background traffic intensifies. (The paper's prose cites ~18 ms and
//! ~24 ms crossovers; in our substrate, as in the uniform-load analysis,
//! the three crossovers cluster in that same region — see
//! `EXPERIMENTS.md`.)

use crate::json;
use crate::report::{round4, ExperimentReport};
use crate::runner::RunCtx;
use whitefi::driver::{measure_airtime, run_fixed, BackgroundPair, BackgroundTraffic, Scenario};
use whitefi::mcham;
use whitefi_phy::SimDuration;
use whitefi_spectrum::{AirtimeVector, SpectrumMap, WfChannel, Width};

/// The three candidate channels, centred at TV channel 28 (index 7).
pub fn candidates() -> [WfChannel; 3] {
    [
        WfChannel::from_parts(7, Width::W5),
        WfChannel::from_parts(7, Width::W10),
        WfChannel::from_parts(7, Width::W20),
    ]
}

/// The 5-channel fragment map (TV 26–30 free, indices 5..=9).
fn fragment_map() -> SpectrumMap {
    SpectrumMap::from_free([5, 6, 7, 8, 9])
}

fn scenario(delay_ms: u64, seed: u64, quick: bool) -> Scenario {
    let mut s = Scenario::new(seed, fragment_map(), 1);
    s.uplink_bytes = None; // one saturating downlink flow, as in the paper
    s.warmup = SimDuration::from_secs(1);
    s.duration = if quick {
        SimDuration::from_secs(2)
    } else {
        SimDuration::from_secs(4)
    };
    for i in 5..=9usize {
        s.background.push(BackgroundPair {
            channel: WfChannel::from_parts(i, Width::W5),
            traffic: BackgroundTraffic::Cbr {
                interval: SimDuration::from_millis(delay_ms),
            },
        });
    }
    s
}

/// One sweep point's measurement: the background's airtime vector and
/// the throughput (Mbps) on each of the [`candidates`], indexed
/// 5/10/20 MHz. The combiner ablation scores the same measurement.
pub fn measure_point(delay_ms: u64, seed: u64, quick: bool) -> (AirtimeVector, [f64; 3]) {
    let s = scenario(delay_ms, seed, quick);
    let airtime = measure_airtime(&s, SimDuration::from_secs(2));
    let tput = candidates().map(|c| run_fixed(&s, c).aggregate_mbps);
    (airtime, tput)
}

/// One sweep point: `(mcham[3], throughput_mbps[3])` indexed 5/10/20 MHz.
pub fn sweep_point(delay_ms: u64, seed: u64, quick: bool) -> ([f64; 3], [f64; 3]) {
    let (airtime, tput) = measure_point(delay_ms, seed, quick);
    (candidates().map(|c| mcham(&airtime, c)), tput)
}

/// Index of the largest of three scores; the first of tied maxima.
pub fn argmax(xs: &[f64; 3]) -> usize {
    let mut best = 0;
    for i in 1..3 {
        if xs[i] > xs[best] {
            best = i;
        }
    }
    best
}

/// The background-intensity sweep grid (inter-frame delays, ms). Shared
/// with `diag` so its spot checks reproduce the exact sweep points.
pub fn delays(quick: bool) -> &'static [u64] {
    if quick {
        &[4, 14, 30]
    } else {
        &[2, 6, 10, 14, 18, 22, 26, 30, 40, 50]
    }
}

/// Runs the Figure 10 sweep.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let quick = ctx.quick();
    let delays: &[u64] = delays(quick);
    let mut report = ExperimentReport::new(
        "fig10",
        "MCham and throughput of 5/10/20 MHz channels vs background intensity",
        &[
            "delay_ms",
            "mcham5",
            "mcham10",
            "mcham20",
            "tput5",
            "tput10",
            "tput20",
            "mcham_pick",
            "tput_pick",
        ],
    );
    let widths = ["5", "10", "20"];
    let points = ctx.map(delays.len(), |i| {
        sweep_point(delays[i], ctx.seed(4000 + i as u64), quick)
    });
    let mut agree = 0usize;
    let mut near_agree = 0usize;
    let mut heavy_pick = 2usize;
    let mut light_pick = 0usize;
    for (i, &delay) in delays.iter().enumerate() {
        let (m, t) = points[i];
        let mp = argmax(&m);
        let tp = argmax(&t);
        if mp == tp {
            agree += 1;
        }
        // "Near agreement": MCham's pick achieves ≥ 90% of the best
        // measured throughput (ties near crossovers are expected).
        if t[mp] >= 0.9 * t[tp] {
            near_agree += 1;
        }
        if i == 0 {
            heavy_pick = tp;
        }
        if i + 1 == delays.len() {
            light_pick = tp;
        }
        report.push_row(&[
            ("delay_ms", json!(delay)),
            ("mcham5", round4(m[0])),
            ("mcham10", round4(m[1])),
            ("mcham20", round4(m[2])),
            ("tput5", round4(t[0])),
            ("tput10", round4(t[1])),
            ("tput20", round4(t[2])),
            ("mcham_pick", json!(widths[mp])),
            ("tput_pick", json!(widths[tp])),
        ]);
    }
    report.note(format!(
        "MCham argmax equals throughput argmax at {agree}/{} points; within 10% of best at {near_agree}/{}",
        delays.len(),
        delays.len()
    ));
    report.note(format!(
        "heaviest background picks {} MHz, lightest picks {} MHz (narrow wins under load, wide when clear)",
        widths[heavy_pick], widths[light_pick]
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_background_prefers_wide_heavy_prefers_narrow() {
        let (m_light, t_light) = sweep_point(50, 90, true);
        let (m_heavy, t_heavy) = sweep_point(3, 2, true);
        // Light: 20 MHz wins both metric and measurement.
        assert_eq!(argmax(&m_light), 2, "mcham light {m_light:?}");
        assert_eq!(argmax(&t_light), 2, "tput light {t_light:?}");
        // Heavy: the narrow channel wins (5 or at worst 10 MHz) — with
        // all five underlying channels saturated the wide channel rarely
        // finds the whole span idle and all but starves.
        assert!(argmax(&m_heavy) < 2, "mcham heavy {m_heavy:?}");
        assert!(argmax(&t_heavy) < 2, "tput heavy {t_heavy:?}");
    }

    /// Characterization of the known Figure 10 mid-sweep deviation:
    /// near 14 ms MCham's narrow pick undershoots the DCF's
    /// width-scaled contention advantage (DESIGN.md §7). The bounds pin
    /// the shape from *both* sides — the lower bounds fail if the
    /// metric degrades further, the upper bound fails if the deviation
    /// silently disappears (re-document it then).
    #[test]
    fn mcham_pick_is_reasonable_throughout() {
        // "The MCham metric yields a reasonably accurate prediction":
        // across the sweep, the channel MCham picks must achieve a solid
        // fraction of the best measured throughput. Near the crossover
        // region the metric and the DCF dynamics disagree mildly (the
        // product model under-credits the wide channel's burstiness), so
        // the bound is 60% there and tighter at the extremes.
        // Mid-sweep (delay 14 ms) the disagreement is largest: our DCF
        // gives the wide channel a width-scaled slot/DIFS advantage in
        // contention races that Equation 1's share model does not
        // capture, so MCham's narrow pick undershoots (see
        // EXPERIMENTS.md).
        for (delay, bound) in [(4u64, 0.60), (14, 0.25), (30, 0.60)] {
            let (m, t) = sweep_point(delay, 10 + delay, true);
            let mp = argmax(&m);
            let tp = argmax(&t);
            assert!(
                t[mp] >= bound * t[tp],
                "delay {delay}: MCham pick {mp} gets {:.2} vs best {:.2}",
                t[mp],
                t[tp]
            );
            // The deviation's signature: mid-sweep the pick ratio stays
            // visibly below perfect agreement.
            if delay == 14 {
                assert!(
                    t[mp] <= 0.90 * t[tp],
                    "mid-sweep deviation gone: pick {mp} gets {:.2} vs best {:.2}",
                    t[mp],
                    t[tp]
                );
            }
        }
    }
}
