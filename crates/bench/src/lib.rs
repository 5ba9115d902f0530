//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each experiment module exposes `run(&RunCtx) -> ExperimentReport`; the
//! `experiments` binary executes them by id, prints the rows the paper
//! reports, and writes machine-readable JSON under `results/`. The
//! [`runner::RunCtx`] carries the quick/full switch plus a deterministic
//! work pool, so trials fan out across cores (`--jobs N`) while the
//! output stays byte-identical to a sequential run.
//!
//! Reproduction targets are *shapes*, not absolute numbers: who wins, by
//! roughly what factor, and where crossovers fall (see `EXPERIMENTS.md`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod report;
pub mod runner;

pub use report::ExperimentReport;
pub use runner::{RunCtx, Runner};

/// One registry entry: `(id, description, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn(&RunCtx) -> ExperimentReport);

/// Registry of all experiments.
pub fn registry() -> Vec<ExperimentEntry> {
    use experiments::*;
    vec![
        (
            "table1",
            "Table 1: SIFT packet detection rate across widths and rates",
            table1::run,
        ),
        (
            "fig2",
            "Figure 2: spectrum fragmentation by locale class",
            fig2::run,
        ),
        (
            "fig5",
            "Figure 5: time-domain view of data-ACK exchanges per width",
            fig5::run,
        ),
        (
            "fig6",
            "Figure 6: airtime utilization measurement accuracy",
            fig6::run,
        ),
        (
            "fig7",
            "Figure 7: detection vs attenuation, SIFT vs packet sniffer",
            fig7::run,
        ),
        (
            "fig8",
            "Figure 8: discovery time vs contiguous fragment width",
            fig8::run,
        ),
        (
            "fig9",
            "Figure 9: discovery time in metro/suburban/rural settings",
            fig9::run,
        ),
        (
            "disconnection",
            "Section 5.3: reconnection lag after a wireless-mic event",
            disconnection::run,
        ),
        (
            "fig10",
            "Figure 10: MCham vs throughput microbenchmark",
            fig10::run,
        ),
        (
            "fig11",
            "Figure 11: impact of background traffic",
            fig11::run,
        ),
        (
            "fig12",
            "Figure 12: impact of spatial variation",
            fig12::run,
        ),
        ("fig13", "Figure 13: impact of churn", fig13::run),
        ("fig14", "Figure 14: prototype adaptation trace", fig14::run),
        (
            "hamming",
            "Section 2.1: pairwise Hamming distance across buildings",
            hamming::run,
        ),
        (
            "mos",
            "Section 2.3: wireless-mic audio degradation (MOS model)",
            mos::run,
        ),
        (
            "ablation",
            "Ablations: MCham combiner (product vs min/max); J-SIFT pass order",
            ablation::run,
        ),
        (
            "scan_analysis",
            "Section 4.2.2: expected scan counts, closed form vs Monte Carlo",
            scan_analysis::run,
        ),
        (
            "city",
            "Scale: influence-sharded city simulation, outcome per city",
            city::run,
        ),
        (
            "fuzz",
            "Generative scenario corpus under the oracle bank",
            fuzz::run,
        ),
    ]
}
