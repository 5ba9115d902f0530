//! Seeded property tests for the spectrum model: case `c` of each
//! property draws its inputs from `ChaCha8Rng::seed_from_u64(c)`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use whitefi_spectrum::{
    fragment_histogram, SpectrumMap, UhfChannel, WfChannel, Width, NUM_UHF_CHANNELS,
};

const CASES: u64 = 256;

fn arb_map(rng: &mut impl Rng) -> SpectrumMap {
    SpectrumMap::from_bits(rng.gen_range(0u32..(1 << NUM_UHF_CHANNELS)))
}

fn arb_width(rng: &mut impl Rng) -> Width {
    [Width::W5, Width::W10, Width::W20][rng.gen_range(0..3)]
}

/// Runs `check` on one random map per case, with a context string
/// naming the case and the map.
fn for_each_map(check: impl Fn(&str, SpectrumMap)) {
    for case in 0..CASES {
        let m = arb_map(&mut ChaCha8Rng::seed_from_u64(case));
        check(&format!("case {case}: {m:?}"), m);
    }
}

#[test]
fn bits_round_trip() {
    for_each_map(|ctx, m| assert_eq!(SpectrumMap::from_bits(m.bits()), m, "{ctx}"));
}

#[test]
fn occupied_plus_free_is_thirty() {
    for_each_map(|ctx, m| {
        assert_eq!(
            m.occupied_count() + m.free_count(),
            NUM_UHF_CHANNELS,
            "{ctx}"
        );
    });
}

#[test]
fn hamming_is_a_metric() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (a, b, c) = (arb_map(&mut rng), arb_map(&mut rng), arb_map(&mut rng));
        let ctx = format!("case {case}: {a:?} {b:?} {c:?}");
        assert_eq!(a.hamming(b), b.hamming(a), "{ctx}");
        assert_eq!(a.hamming(a), 0, "{ctx}");
        // Triangle inequality.
        assert!(a.hamming(c) <= a.hamming(b) + b.hamming(c), "{ctx}");
        // Identity of indiscernibles.
        assert!(a.hamming(b) != 0 || a == b, "{ctx}");
    }
}

#[test]
fn union_is_monotone() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (a, b) = (arb_map(&mut rng), arb_map(&mut rng));
        let (u, ctx) = (a.union(b), format!("case {case}: {a:?} {b:?}"));
        for ch in UhfChannel::all() {
            let occupied = a.is_occupied(ch) || b.is_occupied(ch);
            assert!(
                if occupied {
                    u.is_occupied(ch)
                } else {
                    u.is_free(ch)
                },
                "{ctx} {ch:?}"
            );
        }
        // Union can only shrink the candidate set.
        let shrunk = u.available_channels().len() <= a.available_channels().len();
        assert!(shrunk, "{ctx}");
    }
}

#[test]
fn fragments_partition_free_channels() {
    for_each_map(|ctx, m| {
        let frags = m.fragments();
        // Total fragment length equals free count.
        let total: usize = frags.iter().map(|f| f.len()).sum();
        assert_eq!(total, m.free_count(), "{ctx}");
        // Fragments are maximal: separated by at least one occupied channel.
        for w in frags.windows(2) {
            assert!(w[0].start() + w[0].len() < w[1].start(), "{ctx}");
        }
        // Every fragment channel is free.
        for ch in frags.iter().flat_map(|f| f.channels()) {
            assert!(m.is_free(ch), "{ctx} {ch:?}");
        }
    });
}

#[test]
fn available_channels_fit_in_fragments() {
    for_each_map(|ctx, m| {
        let frags = m.fragments();
        for wf in m.available_channels() {
            // The span of every available channel lies inside one fragment.
            let hosted = frags
                .iter()
                .any(|f| f.start() <= wf.low_index() && wf.high_index() < f.start() + f.len());
            assert!(hosted, "{ctx}: channel {wf} not inside any fragment");
        }
        // Conversely, per-fragment enumeration covers exactly the same set.
        let mut from_frags: Vec<WfChannel> =
            frags.iter().flat_map(|f| f.channels_within()).collect();
        let mut avail = m.available_channels();
        from_frags.sort();
        avail.sort();
        assert_eq!(from_frags, avail, "{ctx}");
    });
}

#[test]
fn flip_changes_exactly_one_channel() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (m, i) = (arb_map(&mut rng), rng.gen_range(0..NUM_UHF_CHANNELS));
        let ctx = format!("case {case}: {m:?} channel {i}");
        let mut f = m;
        f.flip(UhfChannel::from_index(i));
        assert_eq!(m.hamming(f), 1, "{ctx}");
        f.flip(UhfChannel::from_index(i));
        assert_eq!(m, f, "{ctx}");
    }
}

#[test]
fn widest_fragment_bounds_widest_available_width() {
    for_each_map(|ctx, m| {
        let widest = m.widest_fragment();
        for wf in m.available_channels() {
            assert!(wf.width().span() <= widest, "{ctx}: {wf}");
        }
    });
}

#[test]
fn histogram_total_matches_fragment_count() {
    for_each_map(|ctx, m| {
        let h = fragment_histogram([&m]);
        assert_eq!(h.iter().sum::<usize>(), m.fragments().len(), "{ctx}");
        assert_eq!(h[0], 0, "{ctx}");
    });
}

#[test]
fn overlap_iff_span_intersection() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(case);
        let (ci, wi) = (rng.gen_range(0..NUM_UHF_CHANNELS), arb_width(&mut rng));
        let (cj, wj) = (rng.gen_range(0..NUM_UHF_CHANNELS), arb_width(&mut rng));
        let (Some(a), Some(b)) = (
            WfChannel::new(UhfChannel::from_index(ci), wi),
            WfChannel::new(UhfChannel::from_index(cj), wj),
        ) else {
            continue;
        };
        let brute = a.spanned().any(|u| b.contains(u));
        assert_eq!(a.overlaps(b), brute, "case {case}: {a} {b}");
        assert_eq!(a.overlaps(b), b.overlaps(a), "case {case}: {a} {b}");
    }
}

#[test]
fn admits_iff_every_spanned_channel_is_free() {
    for_each_map(|ctx, m| {
        for c in WfChannel::all() {
            let brute = c.spanned().all(|u| m.is_free(u));
            assert_eq!(m.admits(c), brute, "{ctx} {c}");
        }
    });
}
