//! Seeded property tests for the WhiteFi protocol layer: case `c` of each
//! property draws its inputs from `ChaCha8Rng::seed_from_u64(c)`; past
//! failures are pinned as fixed-input tests.

// Candidate/channel counts are at most 84, so the usize→u32 narrowing in
// the scan bounds is exact.
#![allow(clippy::cast_possible_truncation)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use whitefi::{
    backup_candidates, baseline_discovery, evaluate_all, j_sift_discovery, l_sift_discovery, mcham,
    select_channel, NodeReport, SyntheticOracle,
};
use whitefi_spectrum::{
    AirtimeVector, ChannelLoad, SpectrumMap, UhfChannel, WfChannel, Width, NUM_UHF_CHANNELS,
};

const CASES: u64 = 64;

fn arb_map(rng: &mut impl Rng) -> SpectrumMap {
    SpectrumMap::from_bits(rng.gen_range(0u32..(1 << NUM_UHF_CHANNELS)))
}

fn arb_airtime(rng: &mut impl Rng) -> AirtimeVector {
    let mut v = AirtimeVector::idle();
    for i in 0..NUM_UHF_CHANNELS {
        let (busy, aps) = (rng.gen_range(0.0..1.0), rng.gen_range(0u32..4));
        // Consistent measurements: busy channels have at least one AP.
        let aps = if busy > 0.05 { aps.max(1) } else { aps };
        v.set_load(UhfChannel::from_index(i), ChannelLoad::new(busy, aps));
    }
    v
}

/// A random map, its available channels and the one at a random pick,
/// or `None` when the map admits no channel.
fn arb_placement(rng: &mut impl Rng) -> Option<(SpectrumMap, Vec<WfChannel>, WfChannel)> {
    let (map, pick) = (arb_map(rng), rng.gen_range(0usize..84));
    let candidates = map.available_channels();
    let chosen = *candidates.get(pick % candidates.len().max(1))?;
    Some((map, candidates, chosen))
}

/// MCham is bounded by the optimal capacity and below by the
/// fair-share floor.
#[test]
fn mcham_bounds() {
    for case in 0..CASES {
        let airtime = arb_airtime(&mut ChaCha8Rng::seed_from_u64(case));
        for cand in SpectrumMap::all_free().available_channels() {
            let (v, cap) = (mcham(&airtime, cand), cand.width().capacity_factor());
            assert!(v <= cap + 1e-9, "case {case}: {cand}: {v} > cap {cap}");
            assert!(v > 0.0, "case {case}: {cand}: vanished");
        }
    }
}

/// Adding load to a channel never increases any candidate's MCham
/// (monotonicity).
#[test]
fn mcham_monotone_in_load() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (airtime, i) = (arb_airtime(&mut rng), rng.gen_range(0..NUM_UHF_CHANNELS));
        let ch = UhfChannel::from_index(i);
        let (mut heavier, old) = (airtime, airtime.load(ch));
        heavier.set_load(ch, ChannelLoad::new((old.busy + 0.3).min(1.0), old.aps + 1));
        for cand in SpectrumMap::all_free().available_channels() {
            let worse = mcham(&heavier, cand) <= mcham(&airtime, cand) + 1e-12;
            assert!(worse, "case {case}: {cand} improved by load on {i}");
        }
    }
}

/// The shared-table fast path scores every candidate like the direct
/// per-candidate product (within log/exp rounding).
#[test]
fn evaluate_all_matches_mcham() {
    for case in 0..CASES {
        let airtime = arb_airtime(&mut ChaCha8Rng::seed_from_u64(case));
        let fast = evaluate_all(&airtime);
        assert_eq!(fast.len(), WfChannel::all().count(), "case {case}");
        for (cand, v) in fast {
            let slow = mcham(&airtime, cand);
            let close = (v - slow).abs() <= 1e-9 * slow.abs().max(1.0);
            assert!(close, "case {case}: {cand}: fast {v} vs slow {slow}");
        }
    }
}

/// The selected channel is always admissible at every node.
#[test]
fn selection_respects_all_maps() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (map, n_clients) = (arb_map(&mut rng), rng.gen_range(0..5));
        let client_maps: Vec<SpectrumMap> = (0..n_clients).map(|_| arb_map(&mut rng)).collect();
        let airtime = arb_airtime(&mut rng);
        let ctx = format!("case {case}: ap {map:?} clients {client_maps:?}");
        let report = |map| NodeReport { map, airtime };
        let clients: Vec<NodeReport> = client_maps.iter().copied().map(report).collect();
        match select_channel(&report(map), &clients) {
            Some((best, score)) => {
                assert!(map.admits(best), "{ctx}: {best}");
                for c in &clients {
                    assert!(c.map.admits(best), "{ctx}: {best}");
                }
                assert!(score > 0.0, "{ctx}: {best} score {score}");
            }
            None => {
                // Correct only when no channel is admissible anywhere.
                let all = std::iter::once(map).chain(client_maps.iter().copied());
                let combined = SpectrumMap::union_all(all);
                assert!(combined.available_channels().is_empty(), "{ctx}");
            }
        }
    }
}

/// Selection is idempotent (pure in its inputs).
#[test]
fn selection_deterministic() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let ap = NodeReport {
            map: arb_map(&mut rng),
            airtime: arb_airtime(&mut rng),
        };
        let ctx = format!("case {case}: {:?}", ap.map);
        assert_eq!(select_channel(&ap, &[]), select_channel(&ap, &[]), "{ctx}");
    }
}

/// All three discovery algorithms find any admissible AP placement on
/// any map, and agree on what they found.
#[test]
fn discovery_complete_and_consistent() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let Some((map, _, ap)) = arb_placement(&mut rng) else {
            continue;
        };
        let seed = rng.gen_range(0..100);
        let oracle = || SyntheticOracle::new(ap, ChaCha8Rng::seed_from_u64(seed));
        let ctx = format!("case {case}: {map:?} ap {ap} seed {seed}");
        let b = baseline_discovery(&mut oracle(), map).expect("baseline");
        let l = l_sift_discovery(&mut oracle(), map).expect("l-sift");
        let j = j_sift_discovery(&mut oracle(), map).expect("j-sift");
        assert_eq!((b.found, l.found, j.found), (ap, ap, ap), "{ctx}");
    }
}

/// SIFT-based discovery never does *more* dwells than exhaustively
/// scanning all (F, W) combinations would in the worst case.
#[test]
fn sift_discovery_bounded_by_candidate_count() {
    for case in 0..CASES {
        let Some((map, candidates, ap)) = arb_placement(&mut ChaCha8Rng::seed_from_u64(case))
        else {
            continue;
        };
        let worst = candidates.len() as u32 + NUM_UHF_CHANNELS as u32;
        let oracle = || SyntheticOracle::new(ap, ChaCha8Rng::seed_from_u64(1));
        let l = l_sift_discovery(&mut oracle(), map).unwrap().scans;
        let j = j_sift_discovery(&mut oracle(), map).unwrap().scans;
        let ctx = format!("case {case}: {map:?} ap {ap}: l-sift {l}, j-sift {j}");
        assert!(l <= worst && j <= worst, "{ctx} > {worst}");
    }
}

/// Backup candidates are always free 5 MHz channels disjoint from the
/// main channel.
#[test]
fn backup_candidates_sound() {
    for case in 0..CASES {
        let Some((map, _, main)) = arb_placement(&mut ChaCha8Rng::seed_from_u64(case)) else {
            continue;
        };
        for b in backup_candidates(map, Some(main)) {
            let ctx = format!("case {case}: {map:?} main {main} backup {b}");
            assert_eq!(b.width(), Width::W5, "{ctx}");
            assert!(map.admits(b) && !b.overlaps(main), "{ctx}");
        }
    }
}

/// A wider channel fully containing a narrower one at the same load
/// never scores a lower optimal capacity-to-share tradeoff than the
/// paper's examples imply: with uniform load x on all channels,
/// MCham(W) = (W/5)·ρ^span, so ordering depends on ρ — verify the
/// crossover behaviour is monotone: if W20 beats W10 at load x, it
/// also beats it at any lighter load.
#[test]
fn width_preference_monotone_in_uniform_load() {
    let (c20, c10) = (
        WfChannel::from_parts(10, Width::W20),
        WfChannel::from_parts(10, Width::W10),
    );
    let uniform = |load: f64| AirtimeVector::from_fn(|_| ChannelLoad::new(load, 1));
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (x, y) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let (light, heavy) = if x < y { (x, y) } else { (y, x) };
        let (at_heavy, at_light) = (uniform(heavy), uniform(light));
        if mcham(&at_heavy, c20) >= mcham(&at_heavy, c10) {
            let wide = mcham(&at_light, c20) >= mcham(&at_light, c10) - 1e-12;
            assert!(wide, "case {case}: wide wins at load {heavy}, not {light}");
        }
    }
}
