//! Golden-trace snapshot: one small seeded `run_whitefi` scenario whose
//! foreground event-trace digest is committed, guarding the
//! byte-identical determinism contract (DESIGN.md §7–§10)
//! independently of the full experiment sweep.
//!
//! Regen after an *intended* protocol/timing change:
//! `GOLDEN_BLESS=1 cargo test --test golden_trace` (then commit
//! `tests/golden/whitefi_trace.digest`).

use std::path::PathBuf;
use whitefi::driver::{run_whitefi, BackgroundPair, BackgroundTraffic, Scenario};
use whitefi_phy::SimDuration;
use whitefi_spectrum::{SpectrumMap, UhfChannel, WfChannel, Width, NUM_UHF_CHANNELS};

/// The pinned scenario: fragmented spectrum, two clients, one
/// background pair — small enough to run in seconds, rich enough to
/// exercise beacons, data, reports, ACKs and the assignment path.
fn golden_scenario() -> Scenario {
    let free = [5usize, 6, 7, 8, 9, 12, 13, 14, 17, 26];
    let mut map = SpectrumMap::all_free();
    for i in 0..NUM_UHF_CHANNELS {
        if !free.contains(&i) {
            map.set_occupied(UhfChannel::from_index(i));
        }
    }
    let mut s = Scenario::new(42, map, 2);
    s.warmup = SimDuration::from_secs(1);
    s.duration = SimDuration::from_secs(2);
    s.background.push(BackgroundPair {
        channel: WfChannel::from_parts(13, Width::W5),
        traffic: BackgroundTraffic::Cbr {
            interval: SimDuration::from_millis(10),
        },
    });
    s
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("whitefi_trace.digest")
}

#[test]
fn golden_trace_digest_matches() {
    let out = run_whitefi(&golden_scenario(), None);
    assert_eq!(out.violations, 0);
    assert!(out.oracle.clean(), "{:?}", out.oracle.violations);
    let got = format!("{:016x}", out.oracle.trace_digest);

    let path = digest_path();
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden digest {}: {e}", path.display()));
    let committed = committed.trim();

    if std::env::var("GOLDEN_BLESS").is_ok() {
        // Explicit re-bless after an intended protocol/timing change.
        std::fs::write(&path, format!("{got}\n")).expect("write golden digest");
        eprintln!("re-blessed golden trace digest {got} -> {}", path.display());
        return;
    }

    assert_eq!(
        committed, got,
        "golden foreground trace digest changed. If the protocol/timing \
         change is intended, regen with: GOLDEN_BLESS=1 cargo test --test \
         golden_trace"
    );
}

/// The digest itself is deterministic: two runs of the pinned scenario
/// agree exactly.
#[test]
fn golden_scenario_is_reproducible() {
    let a = run_whitefi(&golden_scenario(), None);
    let b = run_whitefi(&golden_scenario(), None);
    assert_eq!(a, b);
    assert_eq!(a.oracle.trace_digest, b.oracle.trace_digest);
}
