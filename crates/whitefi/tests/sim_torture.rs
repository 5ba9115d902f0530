//! Fault-injection torture suite (DESIGN.md §10).
//!
//! Fans randomized [`FaultPlan`]s — message drops, duplicates, delays,
//! stretched detection latency, skewed scanner history — over full
//! `run_whitefi` scenarios with adversarially timed wireless-mic
//! strikes, and asserts the always-on oracles stay silent: the protocol
//! must never transmit over a detected incumbent, must reassociate
//! within the liveness bound (or have the miss explained by an injected
//! fault), must keep the SSID on one channel outside transitions, and
//! must conserve airtime, *no matter which messages the fault layer
//! eats*.
//!
//! Case count: `SIM_TORTURE_CASES` (default 24, so the default test run
//! stays bounded; `scripts/check.sh` runs 256). Half the cases (odd
//! indices) are drawn from the `scenario_fuzz` generator instead of the
//! hand-rolled mix, so the declarative schema's whole envelope runs
//! under the same oracle bank.

// Case-mix arithmetic narrows small `Mix::below` draws into indices; the
// values are single digits, the casts exact.
#![allow(clippy::cast_possible_truncation)]

use whitefi::driver::{run_whitefi, BackgroundPair, BackgroundTraffic, Scenario};
use whitefi::{run_city, CityScenario};
use whitefi_mac::{splitmix64, FaultPlan};
use whitefi_phy::{SimDuration, SimTime};
use whitefi_spectrum::{
    IncumbentSet, MicActivity, MicSchedule, SpectrumMap, UhfChannel, WfChannel, Width, WirelessMic,
};

/// The SplitMix64 sequence — a tiny parameter PRNG so the generator
/// needs no dev-dependencies and every case is a pure function of its
/// index.
struct Mix(u64);

impl Mix {
    /// The next word: [`splitmix64`] of the state, which then advances
    /// by the same golden-ratio step `splitmix64` adds.
    fn next(&mut self) -> u64 {
        let word = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        word
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A fragmented band that always keeps at least two free fragments
/// (one wide, one narrow) so a backup channel exists even after the
/// torture mic strikes the main fragment: free UHF channels are
/// 5..=9, 12..=14, 17 and 26, everything else carries a TV station.
fn fragmented_map() -> SpectrumMap {
    let free = [5usize, 6, 7, 8, 9, 12, 13, 14, 17, 26];
    let mut map = SpectrumMap::all_free();
    for i in 0..whitefi_spectrum::NUM_UHF_CHANNELS {
        if !free.contains(&i) {
            map.set_occupied(UhfChannel::from_index(i));
        }
    }
    map
}

fn mic_on(channel: UhfChannel, on: SimTime, off: SimTime) -> WirelessMic {
    WirelessMic::new(
        channel,
        MicSchedule::scripted(vec![MicActivity {
            start: on.as_nanos(),
            end: off.as_nanos(),
        }]),
    )
}

/// One torture case: a fragmented-spectrum WhiteFi network with an
/// adversarially timed mic strike on the main channel (and sometimes a
/// second strike on the predicted backup, mid-chirp-collection) plus a
/// randomized fault plan.
fn torture_scenario(case: u64) -> (Scenario, WfChannel) {
    let mut mix = Mix(0x7057_0001 ^ case.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let map = fragmented_map();
    let n_clients = 1 + mix.below(2) as usize; // 1–2 clients
    let mut s = Scenario::new(1000 + case, map, n_clients);
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(4);

    // Main channel on the wide low fragment (5..=9 free).
    let initial = WfChannel::from_parts(7, Width::W20); // spans 5..=9

    // Mic strike on the main channel, timed anywhere from mid-warmup
    // (mid-association) to mid-measurement.
    let strike_at = SimTime::ZERO + SimDuration::from_millis(500 + mix.below(2_500));
    let strike_len = SimDuration::from_millis(500 + mix.below(1_500));
    let struck = UhfChannel::from_index(5 + mix.below(5) as usize);
    let mut incumbents = IncumbentSet::default();
    incumbents
        .mics
        .push(mic_on(struck, strike_at, strike_at + strike_len));

    // Sometimes a second strike on the deterministic backup pick
    // (lowest free 5 MHz channel outside the main), landing shortly
    // after the first so it hits mid-chirp-collection — the protocol
    // must fall back to a secondary backup. The map keeps channels
    // 12..=14, 17 and 26 free, so a fallback always exists.
    if mix.below(2) == 0 {
        if let Some(backup) = whitefi::choose_backup(s.combined_map(), Some(initial)) {
            let second_at = strike_at + SimDuration::from_millis(50 + mix.below(400));
            incumbents
                .mics
                .push(mic_on(backup.center(), second_at, second_at + strike_len));
        }
    }
    s.ap_extra_incumbents = Some(incumbents.clone());
    s.client_extra_incumbents = vec![Some(incumbents); n_clients];

    // Light background load on another fragment half the time.
    if mix.below(2) == 0 {
        s.background.push(BackgroundPair {
            channel: WfChannel::from_parts(13, Width::W5),
            traffic: BackgroundTraffic::Cbr {
                interval: SimDuration::from_millis(5 + mix.below(10)),
            },
        });
    }

    // The randomized fault plan under test.
    s.faults = Some(FaultPlan {
        seed: mix.next(),
        drop_prob: mix.unit() * 0.25,
        dup_prob: mix.unit() * 0.2,
        delay_prob: mix.unit() * 0.2,
        max_delay: SimDuration::from_millis(1 + mix.below(4)),
        max_detection_extra: SimDuration::from_millis(mix.below(100)),
        history_skew: (mix.below(4) == 0).then(|| SimDuration::from_secs(1 + mix.below(5))),
    });
    (s, initial)
}

fn case_count() -> u64 {
    std::env::var("SIM_TORTURE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Case mix for the single-AP sweep: even indices use the hand-rolled
/// adversarial generator above; odd indices sample the declarative
/// scenario schema through the seeded fuzzer, compile it, and torture
/// whatever comes out. Both halves are pure functions of the index.
fn single_ap_case(case: u64) -> (Scenario, Option<WfChannel>) {
    if case % 2 == 1 {
        let compiled = whitefi::scenario_fuzz::generate_single_ap(0x7057_0001 ^ case).compile();
        (compiled.scenario, compiled.initial)
    } else {
        let (s, initial) = torture_scenario(case);
        (s, Some(initial))
    }
}

/// The tentpole property: across randomized fault plans and adversarial
/// mic timings, every oracle stays silent and the engine's own
/// compliance meter stays zero.
#[test]
fn randomized_fault_plans_never_violate_invariants() {
    for case in 0..case_count() {
        let (s, initial) = single_ap_case(case);
        let out = run_whitefi(&s, initial);
        assert_eq!(
            out.violations, 0,
            "case {case}: engine compliance meter tripped"
        );
        assert!(
            out.oracle.clean(),
            "case {case} (plan {:?}): {:#?}",
            s.faults,
            out.oracle.violations
        );
        assert!(
            out.oracle.checked_tx > 0,
            "case {case}: oracles saw nothing"
        );
    }
}

/// Same seed ⇒ same violations (and same everything else): a torture
/// case is a pure function of its index, including the oracle report
/// and its trace digest.
#[test]
fn torture_cases_are_deterministic() {
    // 0 is hand-rolled, 7 and 13 are fuzz-drawn — both halves of the
    // mix must be pure functions of the index.
    for case in [0u64, 7, 13] {
        let (s, initial) = single_ap_case(case);
        let a = run_whitefi(&s, initial);
        let b = run_whitefi(&s, initial);
        assert_eq!(a, b, "case {case} not reproducible");
    }
}

/// The faults-off contract (DESIGN.md §10): a quiet plan — fault layer
/// installed, every probability zero — yields an outcome *equal* to not
/// installing the fault layer at all. Fault gates draw only from the
/// dedicated fault RNG family, never from node behaviour streams.
#[test]
fn quiet_plan_is_byte_identical_to_no_plan() {
    for case in [0u64, 3] {
        let (mut s, initial) = torture_scenario(case);
        s.faults = Some(FaultPlan::quiet(case));
        let quiet = run_whitefi(&s, Some(initial));
        s.faults = None;
        let off = run_whitefi(&s, Some(initial));
        assert_eq!(quiet, off, "case {case}: quiet plan perturbed the run");
        assert_eq!(quiet.oracle.trace_digest, off.oracle.trace_digest);
    }
}

/// One city torture case: a small multi-AP city with a randomized
/// geometry (so the shard structure varies from all-singletons to
/// multi-cell components), an adversarial mic strike inside one cell's
/// bootstrap footprint, and a randomized fault plan.
fn city_torture_case(case: u64) -> (CityScenario, usize) {
    let mut mix = Mix(0xC170_0001 ^ case.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let n_aps = 3 + mix.below(3) as usize;
    let range = [60.0, 100.0, 140.0][mix.below(3) as usize];
    let mut city = CityScenario::grid(2_000 + case, n_aps, 1 + mix.below(2) as usize, 100.0, range);
    city.warmup = SimDuration::from_millis(500);
    city.duration = SimDuration::from_millis(1_000 + mix.below(1_000));
    city.sample_interval = SimDuration::from_millis(250);

    // Mic strike on one spanned UHF channel of a victim cell's
    // bootstrap channel — forces that cell through the disconnection
    // protocol mid-run.
    let victim = mix.below(n_aps as u64) as usize;
    let spanned: Vec<UhfChannel> = city.cells[victim].initial_channel().spanned().collect();
    let struck = spanned[mix.below(spanned.len() as u64) as usize];
    let at = SimTime::ZERO + SimDuration::from_millis(400 + mix.below(800));
    let len = SimDuration::from_millis(300 + mix.below(700));
    let mut incumbents = IncumbentSet::default();
    incumbents.mics.push(mic_on(struck, at, at + len));
    city.cells[victim].extra_incumbents = Some(incumbents);

    city.faults = Some(FaultPlan {
        seed: mix.next(),
        drop_prob: mix.unit() * 0.25,
        dup_prob: mix.unit() * 0.2,
        delay_prob: mix.unit() * 0.2,
        max_delay: SimDuration::from_millis(1 + mix.below(4)),
        max_detection_extra: SimDuration::from_millis(mix.below(100)),
        history_skew: (mix.below(4) == 0).then(|| SimDuration::from_secs(1 + mix.below(5))),
    });
    let shards = 2 + (case % 3) as usize;
    (city, shards)
}

/// Case mix for the city sweep, mirroring [`single_ap_case`]: odd
/// indices come from the fuzzer's city generator, even indices from the
/// hand-rolled geometry above.
fn city_case(case: u64) -> (CityScenario, usize) {
    if case % 2 == 1 {
        let city = whitefi::scenario_fuzz::generate_city(0xC170_0001 ^ case).compile();
        (city, 2 + (case % 3) as usize)
    } else {
        city_torture_case(case)
    }
}

/// The city slice of the torture sweep: the same 24-case cadence, each
/// case run unsharded and component-sharded. The two outcomes must agree
/// byte for byte — oracle reports and fault events included — and the
/// oracles must stay silent in the face of the strikes and the fault
/// plan.
#[test]
fn city_sweep_is_shard_invariant_under_faults() {
    for case in 0..case_count() {
        let (city, shards) = city_case(case);
        let (base, _) = run_city(&city, 1);
        let (out, stats) = run_city(&city, shards);
        assert_eq!(base, out, "case {case}: sharded != unsharded");
        assert!(stats.sync_rounds > 0, "case {case}: barrier never ran");
        assert_eq!(
            base.violations(),
            0,
            "case {case}: engine compliance meter tripped"
        );
        assert_eq!(
            base.oracle_violations(),
            0,
            "case {case}: oracles tripped: {:#?}",
            base.cells
                .iter()
                .flat_map(|c| c.oracle.violations.iter())
                .collect::<Vec<_>>()
        );
    }
}

/// A fault-free run of the torture scenario is also invariant-clean:
/// the strikes themselves (without message loss) exercise the
/// disconnection protocol, and the oracles must accept it.
#[test]
fn fault_free_strikes_are_clean() {
    let (mut s, initial) = torture_scenario(2);
    s.faults = None;
    let out = run_whitefi(&s, Some(initial));
    assert_eq!(out.violations, 0);
    assert!(out.oracle.clean(), "{:#?}", out.oracle.violations);
    assert_eq!(out.oracle.explained_liveness, 0, "nothing to explain");
}
