//! WhiteFi — the paper's primary contribution, reproduced as a library.
//!
//! WhiteFi is "the first Wi-Fi like system constructed on top of UHF white
//! spaces" (SIGCOMM 2009). This crate implements its three innovations on
//! top of the `whitefi-spectrum` band model, the `whitefi-phy` signal
//! substrate, and the `whitefi-mac` discrete-event simulator:
//!
//! * [`mcham`](mod@mcham) — the **multichannel airtime metric** (Equations 1–2) and
//!   the client-aware channel-selection objective
//!   `N·MCham_AP + Σ_n MCham_n`;
//! * [`assignment`] — the adaptive **spectrum assignment** algorithm:
//!   candidate enumeration over the combined spectrum map, MCham scoring,
//!   hysteresis, and voluntary/involuntary switch triggers (§4.1);
//! * [`discovery`] — **AP discovery**: the non-SIFT baseline, the linear
//!   L-SIFT scan, and the staggered J-SIFT scan with its centre-frequency
//!   endgame (Algorithm 1), plus the closed-form expected scan counts
//!   (§4.2.2);
//! * [`chirp`] — the **chirping disconnection protocol**: backup-channel
//!   signalling that never transmits over an incumbent (§4.3);
//! * [`ap`] / [`client`] — the AP and client state machines as
//!   [`whitefi_mac::Behavior`] implementations;
//! * [`driver`] — scenario construction and measurement used by the
//!   paper's evaluation (Figures 10–14, §5.3), including the OPT /
//!   OPT-5/10/20 baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ap;
pub mod assignment;
mod bss;
pub mod chirp;
pub mod city;
pub mod client;
pub mod discovery;
pub mod driver;
pub mod mcham;
pub mod oracles;
pub mod scenario_file;
pub mod scenario_fuzz;

pub use ap::{ApBehavior, ApConfig};
pub use assignment::Assigner;
pub use chirp::{backup_candidates, choose_backup, choose_secondary_backup, ChirpDetector};
pub use city::{
    largest_component_fraction, load_imbalance, merge_city, run_city, run_city_group, shard_plan,
    CityCell, CityOutcome, CityRunStats, CityScenario, GroupOutcome, Locale, ShardPlan,
};
pub use client::{ClientBehavior, ClientConfig, ClientStart};
pub use discovery::{
    baseline_discovery, expected_scans_baseline, expected_scans_j_sift, expected_scans_l_sift,
    j_sift_discovery, l_sift_discovery, sift_match_bursts, DiscoveryOutcome, JSiftMachine,
    ScanOracle, ScanStep, SyntheticOracle,
};
pub use driver::{
    run_fixed, run_whitefi, BackgroundTraffic, Scenario, ScenarioOutcome, StaticBaselines,
};
pub use oracles::{
    global_oracle_totals, OracleBank, OracleKind, OracleReport, OracleSet, OracleTotals, Violation,
};
pub use scenario_file::{
    load, parse_str, CaseOutcome, CompiledCase, CompiledCity, CompiledSingleAp, LoadError,
    ScenarioDoc, SchemaError,
};
pub use scenario_fuzz::{generate_doc, generate_file, sample_fault_plan};

pub use mcham::{
    evaluate_all, mcham, mcham_with, objective_score, select_channel, select_channel_with,
    Combiner, NodeReport, Objective, RhoTable,
};
