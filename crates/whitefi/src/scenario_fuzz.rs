//! Seeded generative fuzzer over the [`crate::scenario_file`] schema:
//! mass-produces *valid* scenario documents for the torture and oracle
//! suites (DESIGN.md §15).
//!
//! Determinism contract (the PR 3 placement-independence rule): every
//! field family draws from its **own** ChaCha8 stream of one seed-keyed
//! RNG family, so adding draws to one family (say, a richer background
//! generator) never shifts the values another family produces for the
//! same seed. `generate_file(seed)` is therefore a pure function of the
//! seed, byte for byte, across code growth within a family-preserving
//! change.
//!
//! Every generated document survives [`crate::scenario_file::parse_str`]
//! validation by construction: strikes land on distinct free channels
//! inside the run horizon, background pairs use admitted channels, and
//! fault probabilities stay inside the `sim_torture` bounds.

use crate::scenario_file::{
    BgSpec, CellOverride, CityDoc, GridSpec, MicAt, MicStorm, MicStrike, ScenarioDoc, SeedSource,
    SingleApDoc, TrafficSpec,
};
use rand::{Rng, SeedableRng};
use whitefi_mac::{splitmix64, FaultPlan};
use whitefi_phy::{ChaCha8Rng, SimDuration, SimTime};
use whitefi_spectrum::{SpectrumMap, UhfChannel, NUM_UHF_CHANNELS};

/// Salt mixed into every fuzz seed so fuzzer streams never collide with
/// simulator node streams derived from the same integer.
const FUZZ_SALT: u64 = 0x5CE0_F022_0001_u64;

/// Stream id: document kind selection.
const STREAM_KIND: u64 = 0;
/// Stream id: topology (client population, grid shape).
const STREAM_TOPOLOGY: u64 = 1;
/// Stream id: spectrum map fragments.
const STREAM_MAP: u64 = 2;
/// Stream id: timing (warmup, duration, sampling).
const STREAM_TIMING: u64 = 3;
/// Stream id: mic strike schedules and storms.
const STREAM_MICS: u64 = 4;
/// Stream id: background traffic mixes.
const STREAM_BACKGROUND: u64 = 5;
/// Stream id: fault plans.
const STREAM_FAULTS: u64 = 6;
/// Stream id: the run's initial channel.
const STREAM_RUN: u64 = 7;

/// One per-family RNG of the fuzz seed's stream family.
fn stream(seed: u64, id: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ FUZZ_SALT));
    rng.set_stream(id); // stream-map: domain=fuzz-fields salt=FUZZ_SALT streams=0..=7 role="per-field fuzz draws (STREAM_* lanes)"
    rng
}

/// Milliseconds → schema seconds with an exact decimal representation.
#[allow(clippy::cast_precision_loss)] // fuzzer times are < 1e6 ms
fn ms_dur(ms: u64) -> SimDuration {
    SimDuration::from_millis(ms)
}

/// Samples the free UHF indices of 2–3 disjoint fragments (width 1–4)
/// spread over the band — the fragmentation regimes of Figure 2.
fn sample_map(seed: u64) -> Vec<usize> {
    let mut rng = stream(seed, STREAM_MAP);
    let fragments = rng.gen_range(2..=3usize);
    let mut free: Vec<usize> = Vec::new();
    let mut cursor = rng.gen_range(0..3usize);
    for _ in 0..fragments {
        let width = rng.gen_range(1..=4usize);
        if cursor + width > NUM_UHF_CHANNELS {
            break;
        }
        free.extend(cursor..cursor + width);
        // Skip at least one occupied channel so fragments stay disjoint.
        cursor += width + rng.gen_range(1..=6usize);
    }
    if free.is_empty() {
        // Unreachable with the ranges above, but keep the generator
        // total: fall back to a single mid-band channel.
        free.push(10);
    }
    free
}

/// Samples a `sim_torture`-bounded fault plan: drop ≤ 0.25, dup ≤ 0.2,
/// delay ≤ 0.2, delivery delays 1–4 ms, detection stretch ≤ 100 ms,
/// and a 1-in-4 chance of 1–5 s history skew.
pub fn sample_fault_plan(seed: u64) -> FaultPlan {
    let mut rng = stream(seed, STREAM_FAULTS);
    let quarter = |rng: &mut ChaCha8Rng, max: f64| {
        #[allow(clippy::cast_precision_loss)] // percent grid is tiny
        let pct = rng.gen_range(0..=100u32) as f64 / 100.0;
        // Two-decimal grid keeps the serialized plan byte-stable.
        (pct * max * 100.0).round() / 100.0
    };
    let drop_prob = quarter(&mut rng, 0.25);
    let dup_prob = quarter(&mut rng, 0.2);
    let delay_prob = quarter(&mut rng, 0.2);
    let max_delay = ms_dur(rng.gen_range(1..=4u64));
    let max_detection_extra = ms_dur(rng.gen_range(0..=100u64));
    let history_skew = if rng.gen_range(0..4u32) == 0 {
        Some(SimDuration::from_secs(rng.gen_range(1..=5u64)))
    } else {
        None
    };
    FaultPlan {
        seed: rng.gen(),
        drop_prob,
        dup_prob,
        delay_prob,
        max_delay,
        max_detection_extra,
        history_skew,
    }
}

fn sample_traffic(rng: &mut ChaCha8Rng) -> TrafficSpec {
    let interval = ms_dur(rng.gen_range(10..=50u64));
    match rng.gen_range(0..3u32) {
        0 => TrafficSpec::Cbr { interval },
        1 => TrafficSpec::Markov {
            interval,
            mean_active: ms_dur(rng.gen_range(200..=800u64)),
            mean_passive: ms_dur(rng.gen_range(200..=800u64)),
        },
        _ => TrafficSpec::Diurnal {
            interval,
            on: ms_dur(rng.gen_range(300..=900u64)),
            off: ms_dur(rng.gen_range(100..=600u64)),
            phase: ms_dur(rng.gen_range(0..=400u64)),
        },
    }
}

/// Samples a single-AP document.
pub fn generate_single_ap(seed: u64) -> SingleApDoc {
    let free_idx = sample_map(seed);
    let built = SpectrumMap::from_free(free_idx.iter().copied());
    let free: Vec<UhfChannel> = built.free_channels().collect();
    let admitted = built.available_channels();

    let mut topo = stream(seed, STREAM_TOPOLOGY);
    let clients = topo.gen_range(1..=3usize);

    let mut timing = stream(seed, STREAM_TIMING);
    let warmup_ms = 500 * timing.gen_range(1..=2u64);
    let duration_ms = 500 * timing.gen_range(4..=8u64);
    let sample_ms = 100 * timing.gen_range(1..=5u64);
    let horizon_ms = warmup_ms + duration_ms;

    let mut micr = stream(seed, STREAM_MICS);
    let n_strikes = micr.gen_range(0..=2usize).min(free.len());
    // Distinct channels by construction, so strikes can never overlap.
    let mut channels = free.clone();
    let mut mics = Vec::new();
    for _ in 0..n_strikes {
        let ch = channels.remove(micr.gen_range(0..channels.len()));
        let on_ms = micr.gen_range(0..horizon_ms.saturating_sub(200).max(1));
        let off_ms = (on_ms + micr.gen_range(100..=1000u64)).min(horizon_ms);
        let at = match micr.gen_range(0..4u32) {
            0 => MicAt::Ap,
            1 => MicAt::Client(micr.gen_range(0..clients)),
            _ => MicAt::Everyone,
        };
        mics.push(MicStrike {
            channel: ch,
            on: SimTime::ZERO + ms_dur(on_ms),
            off: SimTime::ZERO + ms_dur(off_ms),
            at,
        });
    }
    let mic_storm = if micr.gen_range(0..4u32) == 0 {
        #[allow(clippy::cast_precision_loss)] // one-decimal grids
        Some(MicStorm {
            prob: f64::from(micr.gen_range(2..=5u32)) / 10.0,
            mean_off_s: f64::from(micr.gen_range(20..=60u32)),
            mean_on_s: f64::from(micr.gen_range(5..=15u32)),
            horizon: ms_dur(horizon_ms),
            seed: SeedSource::Fixed(micr.gen()),
        })
    } else {
        None
    };

    let mut bgr = stream(seed, STREAM_BACKGROUND);
    let n_bg = bgr.gen_range(0..=2usize).min(admitted.len());
    let mut bg_channels = admitted.clone();
    let mut background = Vec::new();
    for _ in 0..n_bg {
        let channel = bg_channels.remove(bgr.gen_range(0..bg_channels.len()));
        background.push(BgSpec {
            channel,
            traffic: sample_traffic(&mut bgr),
        });
    }

    let mut faultr = stream(seed, STREAM_FAULTS);
    let faults = faultr.gen_bool(0.5).then(|| sample_fault_plan(seed ^ 1));

    let mut runr = stream(seed, STREAM_RUN);
    let initial = if runr.gen_bool(0.5) && !admitted.is_empty() {
        Some(admitted[runr.gen_range(0..admitted.len())])
    } else {
        None
    };

    SingleApDoc {
        seed: splitmix64(seed),
        free: free_idx,
        clients,
        warmup: ms_dur(warmup_ms),
        duration: ms_dur(duration_ms),
        sample_interval: ms_dur(sample_ms),
        downlink_bytes: 1000,
        uplink_bytes: Some(500),
        mics,
        mic_storm,
        background,
        faults,
        initial,
        contrast_fixed: None,
    }
}

/// Samples a city document (ms-scale durations keep a 32-case smoke
/// sweep fast).
pub fn generate_city(seed: u64) -> CityDoc {
    let city_seed = splitmix64(seed);
    let mut topo = stream(seed, STREAM_TOPOLOGY);
    let grid = if topo.gen_range(0..4u32) == 0 {
        GridSpec::Checkerboard {
            aps: topo.gen_range(2..=4usize),
            clients_per_ap: topo.gen_range(1..=2usize),
        }
    } else {
        GridSpec::Grid {
            aps: topo.gen_range(2..=5usize),
            clients_per_ap: topo.gen_range(1..=2usize),
            spacing_m: f64::from(topo.gen_range(90..=140u32)),
            range_m: f64::from(topo.gen_range(100..=150u32)),
        }
    };

    let mut timing = stream(seed, STREAM_TIMING);
    let warmup = ms_dur(100 * timing.gen_range(1..=3u64));
    let duration = ms_dur(100 * timing.gen_range(2..=5u64));
    let sample_interval = ms_dur(50 * timing.gen_range(1..=2u64));

    // The base city decides which channels a cell strike may use.
    let base = grid.build(city_seed);
    let mut micr = stream(seed, STREAM_MICS);
    let mut overrides = Vec::new();
    if micr.gen_bool(0.5) {
        let cell = micr.gen_range(0..base.cells.len());
        let free: Vec<UhfChannel> = base.cells[cell].map.free_channels().collect();
        if !free.is_empty() {
            let ch = free[micr.gen_range(0..free.len())];
            let horizon_ms = (warmup + duration).as_nanos() / 1_000_000;
            let on_ms = micr.gen_range(0..horizon_ms.max(1));
            let off_ms = (on_ms + micr.gen_range(50..=300u64)).min(horizon_ms.max(on_ms + 1));
            overrides.push(CellOverride {
                cell,
                mics: vec![MicStrike {
                    channel: ch,
                    on: SimTime::ZERO + ms_dur(on_ms),
                    off: SimTime::ZERO + ms_dur(off_ms),
                    at: MicAt::Everyone,
                }],
            });
        }
    }

    let mut faultr = stream(seed, STREAM_FAULTS);
    let faults = faultr.gen_bool(0.5).then(|| sample_fault_plan(seed ^ 1));

    CityDoc {
        seed: city_seed,
        grid,
        warmup,
        duration,
        sample_interval,
        downlink_bytes: 1000,
        uplink_bytes: Some(500),
        overrides,
        faults,
    }
}

/// Samples a scenario document: 3-in-10 city, otherwise single-AP.
pub fn generate_doc(seed: u64) -> ScenarioDoc {
    let mut kind = stream(seed, STREAM_KIND);
    if kind.gen_range(0..10u32) < 3 {
        ScenarioDoc::City(generate_city(seed))
    } else {
        ScenarioDoc::SingleAp(generate_single_ap(seed))
    }
}

/// Samples a scenario document as canonical `.ron` bytes — a pure
/// function of the seed.
pub fn generate_file(seed: u64) -> String {
    generate_doc(seed).to_ron()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_file::parse_str;

    #[test]
    fn generated_files_are_valid_and_round_trip() {
        for seed in 0..48u64 {
            let ron = generate_file(seed);
            let doc = match parse_str(&ron) {
                Ok(d) => d,
                Err(e) => panic!("seed {seed}: generated file is invalid at {e}\n{ron}"),
            };
            assert_eq!(doc, generate_doc(seed), "seed {seed}");
            assert_eq!(doc.to_ron(), ron, "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(generate_file(seed), generate_file(seed));
        }
    }

    #[test]
    fn fault_plans_respect_torture_bounds() {
        for seed in 0..64u64 {
            let p = sample_fault_plan(seed);
            assert!(p.drop_prob <= 0.25, "seed {seed}");
            assert!(p.dup_prob <= 0.2, "seed {seed}");
            assert!(p.delay_prob <= 0.2, "seed {seed}");
            assert!(p.max_delay <= SimDuration::from_millis(4));
            assert!(p.max_detection_extra <= SimDuration::from_millis(100));
            if let Some(skew) = p.history_skew {
                assert!(skew <= SimDuration::from_secs(5));
            }
        }
    }
}
