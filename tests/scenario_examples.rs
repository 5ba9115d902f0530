//! Scenario-loader fidelity suite (DESIGN.md §15).
//!
//! Three runnable examples (quickstart, mic_storm, campus_day) were
//! ported from hand-coded constructors to thin loads of
//! `scenarios/*.ron`. This suite keeps the retired
//! constructors alive verbatim and asserts the loader compiles each
//! file to the *same* engine input — field for field via the engine
//! types' `PartialEq` — and that running both produces byte-identical
//! outcomes. Any drift between the DSL compile layer and the original
//! examples fails here, not silently in a demo.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use whitefi::driver::{run_whitefi, BackgroundPair, BackgroundTraffic, Scenario};
use whitefi::scenario_file::{self, CompiledCase, CompiledSingleAp, ScenarioDoc};
use whitefi_phy::{SimDuration, SimTime};
use whitefi_repro::{building5_map, campus_sim_map, scripted_mic};
use whitefi_spectrum::{IncumbentSet, MicSchedule, WfChannel, Width, WirelessMic};

fn load(name: &str) -> ScenarioDoc {
    let path = format!("{}/scenarios/{name}.ron", env!("CARGO_MANIFEST_DIR"));
    scenario_file::load(&path).unwrap_or_else(|e| panic!("{e}"))
}

fn compile_single(doc: &ScenarioDoc) -> CompiledSingleAp {
    match doc.compile() {
        CompiledCase::SingleAp(case) => *case,
        CompiledCase::City(_) => panic!("expected a single-AP simulation document"),
    }
}

/// The retired `examples/quickstart.rs` constructor: Building 5 map,
/// two clients, one mic near client 0 at t = 6 s.
#[test]
fn quickstart_file_is_byte_identical_to_the_retired_constructor() {
    let mut legacy = Scenario::new(7, building5_map(), 2);
    legacy.warmup = SimDuration::from_secs(1);
    legacy.duration = SimDuration::from_secs(14);
    legacy.sample_interval = SimDuration::from_millis(500);
    let mut inc = IncumbentSet::default();
    inc.mics.push(scripted_mic(
        7,
        SimTime::from_secs(6),
        SimTime::from_secs(60),
    ));
    legacy.client_extra_incumbents[0] = Some(inc);

    let case = compile_single(&load("quickstart"));
    assert_eq!(case.scenario, legacy, "compiled scenario drifted");
    assert_eq!(case.initial, None);
    assert_eq!(case.run(), run_whitefi(&legacy, None), "outcome drifted");
}

/// The retired `examples/mic_storm.rs` constructor: three mics chase
/// the network across the band, starting from the 20 MHz fragment.
#[test]
fn mic_storm_file_is_byte_identical_to_the_retired_constructor() {
    let mut inc = IncumbentSet::default();
    for (ch, on) in [(7usize, 4u64), (13, 8), (17, 12)] {
        inc.mics.push(scripted_mic(
            ch,
            SimTime::from_secs(on),
            SimTime::from_secs(30),
        ));
    }
    let mut legacy = Scenario::new(13, building5_map(), 2);
    legacy.warmup = SimDuration::from_secs(1);
    legacy.duration = SimDuration::from_secs(39);
    legacy.sample_interval = SimDuration::from_millis(500);
    legacy.ap_extra_incumbents = Some(inc.clone());
    for c in legacy.client_extra_incumbents.iter_mut() {
        *c = Some(inc.clone());
    }
    let initial = WfChannel::from_parts(7, Width::W20);

    let case = compile_single(&load("mic_storm"));
    assert_eq!(case.scenario, legacy, "compiled scenario drifted");
    assert_eq!(case.initial, Some(initial));
    assert_eq!(
        case.run(),
        run_whitefi(&legacy, Some(initial)),
        "outcome drifted"
    );
}

/// The retired `examples/campus_day.rs` constructor, including its
/// sampled mic storm: one ChaCha8 stream draws a coin and a schedule
/// per free channel, then the same incumbents land on the AP and every
/// client. The `MicStorm(seed: Scenario)` compile must replay those
/// draws exactly.
#[test]
fn campus_day_file_is_byte_identical_to_the_retired_constructor() {
    let map = campus_sim_map();
    let horizon_s = 120u64;
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let mut incumbents = IncumbentSet::default();
    for ch in map.free_channels() {
        if rng.gen_bool(0.5) {
            let schedule = MicSchedule::sample(&mut rng, horizon_s * 1_000_000_000, 40.0, 10.0);
            incumbents.mics.push(WirelessMic::new(ch, schedule));
        }
    }
    let mut legacy = Scenario::new(2026, map, 3);
    legacy.warmup = SimDuration::from_secs(2);
    legacy.duration = SimDuration::from_secs(horizon_s - 2);
    legacy.sample_interval = SimDuration::from_secs(1);
    legacy.ap_extra_incumbents = Some(incumbents.clone());
    for c in legacy.client_extra_incumbents.iter_mut() {
        *c = Some(incumbents.clone());
    }
    for ch in [10usize, 16] {
        legacy.background.push(BackgroundPair {
            channel: WfChannel::from_parts(ch, Width::W5),
            traffic: BackgroundTraffic::Cbr {
                interval: SimDuration::from_millis(20),
            },
        });
    }

    let case = compile_single(&load("campus_day"));
    assert_eq!(case.scenario, legacy, "compiled scenario drifted");
    assert_eq!(
        case.contrast_fixed,
        Some(WfChannel::from_parts(4, Width::W20))
    );
    assert_eq!(case.run(), run_whitefi(&legacy, None), "outcome drifted");
}
