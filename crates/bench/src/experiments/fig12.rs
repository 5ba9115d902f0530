//! Figure 12: impact of spatial variation on throughput.
//!
//! "There are 10 clients connected to the AP, and one background
//! client/AP-pair per UHF channel, transmitting at CBR with 30 ms
//! inter-packet delay. Spatial variation is modeled as follows. Each
//! client and the AP start with a common spectrum map. Then, for each
//! client (and AP) and for each UHF channel i, we randomly flip the
//! entry u_i with probability P [0 … 0.14]. … Because the AP needs to
//! select a channel that is free at all clients, no contiguous free
//! spectrum parts remain available for P > 0.1, and hence, the aggregate
//! throughput reduces to the throughput of a single UHF channel (5 MHz).
//! … no single channel width achieves close-to-optimal throughput in all
//! cases. On the other hand, WhiteFi is near-optimal in all cases."

use crate::json;
use crate::report::{mean_columns, round4, rounded4, ExperimentReport};
use crate::runner::RunCtx;
use whitefi::driver::{BackgroundPair, BackgroundTraffic, Scenario};
use whitefi_phy::SimDuration;
use whitefi_repro::campus_sim_map;
use whitefi_spectrum::{flip_map, WfChannel, Width};

/// Builds the Figure 12 scenario for flip probability `p`.
pub fn scenario(p: f64, seed: u64, quick: bool) -> Scenario {
    let base = campus_sim_map();
    let n_clients = if quick { 4 } else { 10 };
    let mut rng = super::rng(seed ^ 0x5a71);
    let mut s = Scenario::new(seed, base, n_clients);
    s.ap_map = flip_map(base, p, &mut rng);
    for m in s.client_maps.iter_mut() {
        *m = flip_map(base, p, &mut rng);
    }
    s.warmup = SimDuration::from_secs(2);
    s.duration = if quick {
        SimDuration::from_secs(3)
    } else {
        SimDuration::from_secs(6)
    };
    // One background pair per free (baseline) UHF channel at 30 ms CBR.
    for ch in base.free_channels() {
        s.background.push(BackgroundPair {
            channel: WfChannel::from_parts(ch.index(), Width::W5),
            traffic: BackgroundTraffic::Cbr {
                interval: SimDuration::from_millis(30),
            },
        });
    }
    s
}

/// Per-client throughputs `[whitefi, opt, opt20]` in Mbps plus the
/// widest remaining fragment of each scenario, measured through the
/// sweep fan-out. A fully blocked trial contributes no units and comes
/// back as zeros for everyone.
fn per_client(ctx: &RunCtx, scenarios: &[Scenario]) -> Vec<[f64; 4]> {
    super::sweep::measure_all(ctx, scenarios)
        .iter()
        .zip(scenarios)
        .map(|(out, s)| {
            let combined = s.combined_map();
            if combined.available_channels().is_empty() {
                return [0.0; 4];
            }
            let n = s.client_maps.len() as f64;
            [
                out.whitefi_aggregate_mbps / n,
                out.baselines.opt / n,
                out.baselines.opt20 / n,
                combined.widest_fragment() as f64,
            ]
        })
        .collect()
}

/// Runs the spatial-variation sweep.
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let quick = ctx.quick();
    let (ps, seeds): (&[f64], Vec<u64>) = if quick {
        (&[0.0, 0.05, 0.12], vec![ctx.seed(6000)])
    } else {
        (
            &[0.0, 0.01, 0.03, 0.05, 0.08, 0.11, 0.14],
            (0..5).map(|i| ctx.seed(6000 + i)).collect(),
        )
    };
    let mut report = ExperimentReport::new(
        "fig12",
        "Per-client throughput (Mbps) vs spatial flip probability P",
        &["p", "whitefi", "opt", "opt20", "widest_fragment"],
    );
    // Sweep fan-out: each trial's WhiteFi run and each OPT candidate's
    // fixed run is its own work unit.
    let scenarios: Vec<Scenario> = (0..ps.len() * seeds.len())
        .map(|k| scenario(ps[k / seeds.len()], seeds[k % seeds.len()], quick))
        .collect();
    let runs = per_client(ctx, &scenarios);
    // The notes read the printed rows: `(p, whitefi, opt, opt20)`.
    let mut rows = Vec::new();
    for (pi, &p) in ps.iter().enumerate() {
        let [w, o, o20, widest] = mean_columns(&runs[pi * seeds.len()..(pi + 1) * seeds.len()]);
        let (w, o, o20) = (rounded4(w), rounded4(o), rounded4(o20));
        rows.push((p, w, o, o20));
        report.push_row(&[
            ("p", json!(p)),
            ("whitefi", json!(w)),
            ("opt", json!(o)),
            ("opt20", json!(o20)),
            ("widest_fragment", round4(widest)),
        ]);
    }
    if let (Some(&(_, f, ..)), Some(&(_, l, ..))) = (rows.first(), rows.last()) {
        let trend = if l < f {
            format!("falls from {f:.2} to {l:.2}")
        } else if l > f {
            format!("rises from {f:.2} to {l:.2}")
        } else {
            format!("stays at {f:.2}")
        };
        report.note(format!(
            "throughput {trend} Mbps/client as P grows (paper: it falls, as spatial variation destroys contiguous common spectrum)"
        ));
    }
    let (worst, worst_p) = rows
        .iter()
        .map(|&(p, w, o, _)| (if o > 0.0 { w / o } else { 1.0 }, p))
        .fold((f64::INFINITY, 0.0), |a, b| if b.0 < a.0 { b } else { a });
    let opt20_gone = match rows.iter().find(|r| r.3 == 0.0) {
        Some((p, ..)) => format!("OPT-20 first reads 0 at P = {p}"),
        None => "OPT-20 never reads 0".to_string(),
    };
    report.note(format!(
        "worst WhiteFi/OPT {worst:.3} at P = {worst_p}; {opt20_gone} (paper: WhiteFi is near-optimal in all cases and no single width is)"
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential measurement of one quick trial.
    fn trial(p: f64, seed: u64) -> [f64; 4] {
        per_client(&RunCtx::sequential(true), &[scenario(p, seed, true)])[0]
    }

    #[test]
    fn throughput_decreases_with_spatial_variation() {
        let [w0, ..] = trial(0.0, 7000);
        let [w14, ..] = trial(0.14, 7000);
        assert!(
            w14 < 0.75 * w0,
            "P=0.14 ({w14}) should be well below P=0 ({w0})"
        );
    }

    #[test]
    fn whitefi_near_opt_at_moderate_variation() {
        let [w, o, ..] = trial(0.05, 7001);
        assert!(w > 0.7 * o, "whitefi {w} vs opt {o}");
    }

    #[test]
    fn high_variation_shrinks_common_fragments() {
        let [.., widest0] = trial(0.0, 7002);
        let [.., widest14] = trial(0.14, 7002);
        assert!(
            widest14 < widest0,
            "widest fragment should shrink: {widest0} -> {widest14}"
        );
    }
}
