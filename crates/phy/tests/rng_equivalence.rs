//! Equivalence suite: the in-tree [`whitefi_phy::ChaCha8Rng`] against its
//! reference twin, the `rand_chacha` stand-in, word for word.
//!
//! The reference is the plain block function the in-tree generator was
//! derived from; as with the `_ref` kernels (DESIGN.md §12.3), it stays
//! as the executable specification. Every draw below is made on both
//! generators in lockstep, and each one's value and the word position
//! after it must be equal.

use rand::{Rng, RngCore, SeedableRng};
use whitefi_phy::ChaCha8Rng;

type Twin = rand_chacha::ChaCha8Rng;

/// The generator under test and its reference, driven in lockstep.
#[derive(Clone)]
struct Lockstep {
    ours: ChaCha8Rng,
    twin: Twin,
    /// Draws made so far, for failure messages.
    draws: usize,
    label: String,
}

impl Lockstep {
    fn new(seed: u64, stream: u64) -> Self {
        let mut ours = ChaCha8Rng::seed_from_u64(seed);
        let mut twin = Twin::seed_from_u64(seed);
        ours.set_stream(stream);
        twin.set_stream(stream);
        let s = Self {
            ours,
            twin,
            draws: 0,
            label: format!("seed {seed} stream {stream}"),
        };
        s.check_pos();
        s
    }

    fn check_pos(&self) {
        assert_eq!(
            self.ours.get_word_pos(),
            self.twin.get_word_pos(),
            "{}: word position after {} draws",
            self.label,
            self.draws
        );
    }

    fn u32(&mut self) -> u32 {
        let (a, b) = (self.ours.next_u32(), self.twin.next_u32());
        assert_eq!(a, b, "{}: next_u32 at draw {}", self.label, self.draws);
        self.draws += 1;
        self.check_pos();
        a
    }

    fn u64(&mut self) -> u64 {
        let (a, b) = (self.ours.next_u64(), self.twin.next_u64());
        assert_eq!(a, b, "{}: next_u64 at draw {}", self.label, self.draws);
        self.draws += 1;
        self.check_pos();
        a
    }

    fn set_stream(&mut self, stream: u64) {
        self.ours.set_stream(stream);
        self.twin.set_stream(stream);
        self.label = format!("{} -> stream {stream}", self.label);
        self.check_pos();
    }

    fn word_pos(&self) -> u128 {
        self.ours.get_word_pos()
    }
}

/// Streams the simulators use: the noise and first burst streams, node
/// ids, and the extremes of the 64-bit stream id.
const STREAMS: [u64; 8] = [0, 1, 2, 3, 17, 255, (1 << 32) - 1, u64::MAX];

#[test]
fn word_streams_match_over_many_seeds() {
    for seed in (0..200u64).chain([u64::MAX, 1 << 63, 0x5746_6946_6175_6c74]) {
        let mut l = Lockstep::new(seed, 0);
        for _ in 0..300 {
            l.u32();
        }
        let mut l = Lockstep::new(seed, 0);
        for _ in 0..150 {
            l.u64();
        }
    }
}

#[test]
fn word_streams_match_on_every_stream() {
    for seed in 0..16u64 {
        for stream in STREAMS.into_iter().chain(4..68) {
            let mut l = Lockstep::new(seed, stream);
            for i in 0..200 {
                if i % 3 == 0 {
                    l.u64();
                } else {
                    l.u32();
                }
            }
        }
    }
}

#[test]
fn random_interleavings_cross_the_buffer_seam() {
    for case in 0..256u64 {
        let mut drive = Twin::seed_from_u64(case);
        let stream = STREAMS[drive.gen_range(0..STREAMS.len())];
        let mut l = Lockstep::new(drive.gen(), stream);
        // Long enough to cross several 64-word buffers.
        for _ in 0..400 {
            if drive.gen_bool(0.5) {
                l.u32();
            } else {
                l.u64();
            }
        }
    }
}

#[test]
fn u64_with_one_word_left_straddles_the_refill() {
    for seed in 0..32u64 {
        for stream in STREAMS {
            let mut l = Lockstep::new(seed, stream);
            // Land on word 63, 127, 191 in turn: the low half is the
            // buffer's last word, the high half the next buffer's first.
            for _ in 0..3 {
                while l.word_pos() % 64 != 63 {
                    l.u32();
                }
                l.u64();
                assert_eq!(l.word_pos() % 64, 1);
            }
            // And the even-aligned u64 that ends a buffer exactly.
            while l.word_pos() % 64 != 62 {
                l.u32();
            }
            l.u64();
            assert_eq!(l.word_pos() % 64, 0);
            l.u64();
        }
    }
}

#[test]
fn set_stream_after_partial_draws_and_at_buffer_end() {
    for case in 0..64u64 {
        let mut drive = Twin::seed_from_u64(1_000 + case);
        let seed = drive.gen();
        // Fresh generator, partial buffers (block-aligned or not), one
        // word short of a buffer, exactly one buffer, and positions past
        // the first refill.
        for words in [
            0u32,
            1,
            5,
            16,
            33,
            48,
            63,
            64,
            65,
            128,
            drive.gen_range(1..300),
        ] {
            for stream in STREAMS {
                let mut l = Lockstep::new(seed, 0);
                for _ in 0..words {
                    l.u32();
                }
                assert_eq!(l.word_pos(), u128::from(words));
                // Twice in a row: the second switch lands on a buffer the
                // first one just regenerated.
                l.set_stream(STREAMS[drive.gen_range(0..STREAMS.len())]);
                l.set_stream(stream);
                assert_eq!(l.word_pos(), u128::from(words));
                for _ in 0..70 {
                    if drive.gen_bool(0.5) {
                        l.u32();
                    } else {
                        l.u64();
                    }
                }
                // Switch again mid-draw and keep going.
                l.set_stream(STREAMS[drive.gen_range(0..STREAMS.len())]);
                for _ in 0..70 {
                    l.u32();
                }
            }
        }
    }
}

#[test]
fn clones_taken_mid_buffer_continue_identically() {
    for case in 0..64u64 {
        let mut drive = Twin::seed_from_u64(2_000 + case);
        let mut l = Lockstep::new(drive.gen(), STREAMS[drive.gen_range(0..STREAMS.len())]);
        for _ in 0..drive.gen_range(1..200) {
            l.u32();
        }
        let mut c = l.clone();
        assert_eq!(c.ours, l.ours);
        // The clone and the original draw the same words from here on,
        // and each still matches the reference.
        for _ in 0..150 {
            let (a, b) = if drive.gen_bool(0.5) {
                (l.u64(), c.u64())
            } else {
                (u64::from(l.u32()), u64::from(c.u32()))
            };
            assert_eq!(a, b, "case {case}: clone diverged");
        }
    }
}

#[test]
fn rng_extension_draws_match() {
    // `gen`, `gen_range` and `gen_bool` read words through `RngCore`, so
    // they match too; pinned for the distributions the simulators call.
    for seed in 0..32u64 {
        let mut ours = ChaCha8Rng::seed_from_u64(seed);
        let mut twin = Twin::seed_from_u64(seed);
        for _ in 0..200 {
            assert_eq!(ours.gen::<f64>(), twin.gen::<f64>());
            assert_eq!(ours.gen_range(0..1023u32), twin.gen_range(0..1023u32));
            assert_eq!(ours.gen_range(0.5..1.5), twin.gen_range(0.5..1.5));
            assert_eq!(ours.gen_bool(0.3), twin.gen_bool(0.3));
        }
        assert_eq!(ours.get_word_pos(), twin.get_word_pos());
    }
}
