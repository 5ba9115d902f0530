//! The chirping disconnection protocol (§4.3).
//!
//! When a primary user appears on the main channel, the node that detects
//! it vacates immediately and signals on the AP's advertised 5 MHz
//! **backup channel** — never on the incumbent's channel, because even a
//! single packet audibly degrades a wireless-mic recording (§2.3). The AP
//! detects chirps with SIFT on its secondary (scanner) radio, "in the
//! background", and only then moves its main radio to the backup channel
//! to decode them.
//!
//! This module provides the pieces shared by the AP and client state
//! machines:
//!
//! * backup-channel selection (a free 5 MHz channel disjoint from the
//!   main channel, with deterministic fallback to a *secondary* backup
//!   when the advertised one is itself hit by an incumbent);
//! * SIFT-based chirp detection over captured amplitude traces;
//! * the optional time-domain identity encoding: "we can encode some
//!   amount of information in the time domain, such as the client's SSID,
//!   for example by setting the length of the chirp packet. (In effect,
//!   this uses SIFT to implement a low-bitrate OOK-modulated channel.)"

use whitefi_phy::synth::duration_to_samples;
use whitefi_phy::{NoiseModel, PhyTiming, Sift, SynthesizerConfig};

pub use whitefi_phy::timing::chirp_bytes_for_slot;
use whitefi_spectrum::{SpectrumMap, WfChannel, Width};

/// All candidate backup channels under `map`: free 5 MHz channels that do
/// not overlap `main` (chirping must not contend with the network's own
/// data traffic channel selection).
pub fn backup_candidates(map: SpectrumMap, main: Option<WfChannel>) -> Vec<WfChannel> {
    map.available_channels_of_width(Width::W5)
        .into_iter()
        .filter(|c| main.is_none_or(|m| !c.overlaps(m)))
        .collect()
}

/// Deterministically chooses a backup channel: the lowest-frequency
/// candidate. Returns `None` when no 5 MHz channel is free outside the
/// main channel.
pub fn choose_backup(map: SpectrumMap, main: Option<WfChannel>) -> Option<WfChannel> {
    backup_candidates(map, main).into_iter().next()
}

/// When the advertised backup is blocked, "an arbitrary available channel
/// is selected as a secondary backup": the lowest candidate excluding the
/// failed one.
pub fn choose_secondary_backup(
    map: SpectrumMap,
    main: Option<WfChannel>,
    failed: WfChannel,
) -> Option<WfChannel> {
    backup_candidates(map, main)
        .into_iter()
        .find(|&c| c != failed)
}

/// Chirp detection over SIFT burst extraction.
#[derive(Debug, Clone, Default)]
pub struct ChirpDetector {
    sift: Sift,
}

/// A chirp found in a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChirpDetection {
    /// Sample index where the chirp starts.
    pub start: usize,
    /// The identity slot decoded from the chirp length, if the length
    /// matches an encoded slot.
    pub slot: Option<u8>,
}

impl ChirpDetector {
    /// A detector with default SIFT parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Expected on-air samples of a slot-`slot` chirp on the 5 MHz backup
    /// channel.
    pub fn expected_samples(slot: u8) -> f64 {
        let d = PhyTiming::for_width(Width::W5).frame_duration(chirp_bytes_for_slot(slot));
        duration_to_samples(d)
    }

    /// Scans a backup-channel capture for chirps: lone bursts whose
    /// on-air length matches some chirp slot (±tolerance).
    ///
    /// A chirp is a 5 MHz frame, so its head (the first
    /// `w5_head_fraction`) goes out at reduced amplitude (§5.1) and may
    /// stay below the SIFT threshold: the burst SIFT extracts then starts
    /// late and can even measure as a shorter slot (slot 11 as slot 9).
    /// The burst's end is exact, so slots are tried longest first as "the
    /// frame began `expected_samples` before the end". A slot is accepted
    /// when SIFT's start agrees within tolerance, or lies at most one head
    /// later with signal in the skipped samples (`carries_signal`), and
    /// receiver noise surrounds the frame.
    pub fn detect(&self, samples: &[f32]) -> Vec<ChirpDetection> {
        let tol = self.sift.config.match_tolerance;
        let head_fraction = SynthesizerConfig::default().w5_head_fraction;
        let noise_at = |from: usize, to: usize| {
            !carries_signal(&samples[from.min(samples.len())..to.min(samples.len())])
        };
        self.sift
            .extract_bursts(samples)
            .into_iter()
            .filter(|b| noise_at(b.end() + GUARD, b.end() + GUARD + WINDOW))
            .filter_map(|b| {
                (0u8..=15).rev().find_map(|slot| {
                    let len = Self::expected_samples(slot);
                    let skipped = b.start as f64 - (b.end() as f64 - len);
                    // The frame is at most a few thousand samples long.
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let on_air = b.end().checked_sub(len.round() as usize)?;
                    let start = if skipped.abs() <= tol {
                        b.start
                    } else if skipped > tol
                        && skipped <= len * head_fraction + tol
                        && carries_signal(&samples[on_air..b.start])
                    {
                        on_air
                    } else {
                        return None;
                    };
                    noise_at(
                        on_air.saturating_sub(GUARD + WINDOW),
                        on_air.saturating_sub(GUARD),
                    )
                    .then_some(ChirpDetection {
                        start,
                        slot: Some(slot),
                    })
                })
            })
            .collect()
    }
}

/// Samples compared against receiver noise beside a chirp and at the
/// opening of a skipped stretch: one slot step (24 bytes at 5 MHz), so a
/// slot hypothesized too long opens on a full window of noise.
const WINDOW: usize = 125;

/// Gap between a frame edge and the noise window beside it, covering
/// SIFT's ±4-sample match tolerance.
const GUARD: usize = 4;

/// Whether a stretch holds a transmission rather than receiver noise:
/// its mean amplitude, and that of its first [`WINDOW`] samples, exceed
/// the noise mean by five standard errors. The default noise is
/// |N(0, σ²)| with σ = `NoiseModel::DEFAULT_SIGMA`: mean σ·√(2/π),
/// standard deviation σ·√(1 − 2/π).
fn carries_signal(stretch: &[f32]) -> bool {
    let above_noise = |xs: &[f32]| {
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let sigma = NoiseModel::DEFAULT_SIGMA;
        let noise_mean = sigma * std::f64::consts::FRAC_2_PI.sqrt();
        let noise_sd = sigma * (1.0 - std::f64::consts::FRAC_2_PI).sqrt();
        mean > noise_mean + 5.0 * noise_sd / n.sqrt()
    };
    !stretch.is_empty()
        && above_noise(stretch)
        && above_noise(&stretch[..stretch.len().min(WINDOW)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use whitefi_phy::synth::{Burst, BurstKind};
    use whitefi_phy::{SimDuration, SimTime, Synthesizer};

    #[test]
    fn backup_is_free_5mhz_disjoint_from_main() {
        let map = SpectrumMap::from_free([5, 6, 7, 8, 9, 12, 13, 14, 17, 26]);
        let main = WfChannel::from_parts(7, Width::W20); // spans 5..=9
        let b = choose_backup(map, Some(main)).unwrap();
        assert_eq!(b.width(), Width::W5);
        assert!(!b.overlaps(main));
        assert!(map.admits(b));
        assert_eq!(b.center().index(), 12);
    }

    #[test]
    fn backup_none_when_main_covers_all_free() {
        let map = SpectrumMap::from_free([5, 6, 7, 8, 9]);
        let main = WfChannel::from_parts(7, Width::W20);
        assert!(choose_backup(map, Some(main)).is_none());
    }

    #[test]
    fn secondary_backup_skips_failed() {
        let map = SpectrumMap::from_free([12, 13, 14, 17, 26]);
        let primary = choose_backup(map, None).unwrap();
        let secondary = choose_secondary_backup(map, None, primary).unwrap();
        assert_ne!(secondary, primary);
        assert!(map.admits(secondary));
    }

    #[test]
    fn slot_lengths_are_separated_beyond_tolerance() {
        for s in 0..15u8 {
            let d = ChirpDetector::expected_samples(s + 1) - ChirpDetector::expected_samples(s);
            assert!(d > 2.0 * 4.0, "slots {s},{} too close: {d}", s + 1);
        }
    }

    fn chirp_burst(slot: u8, start_us: u64) -> Burst {
        Burst {
            start: SimTime::from_micros(start_us),
            duration: PhyTiming::for_width(Width::W5).frame_duration(chirp_bytes_for_slot(slot)),
            width: Width::W5,
            amplitude: 1000.0,
            kind: BurstKind::Chirp,
        }
    }

    #[test]
    fn detects_chirp_and_decodes_slot() {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for slot in [0u8, 3, 7, 15] {
            let trace = synth.synthesize(
                &[chirp_burst(slot, 500)],
                SimDuration::from_millis(8),
                &mut rng,
            );
            let found = ChirpDetector::new().detect(&trace);
            assert_eq!(found.len(), 1, "slot {slot}");
            assert_eq!(found[0].slot, Some(slot));
        }
    }

    #[test]
    fn multiple_chirps_from_different_clients() {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let bursts = [
            chirp_burst(1, 500),
            chirp_burst(4, 6_000),
            chirp_burst(1, 12_000),
        ];
        let trace = synth.synthesize(&bursts, SimDuration::from_millis(20), &mut rng);
        let found = ChirpDetector::new().detect(&trace);
        assert_eq!(found.len(), 3);
        let slots: Vec<_> = found.iter().map(|c| c.slot.unwrap()).collect();
        assert_eq!(slots, vec![1, 4, 1]);
    }

    #[test]
    fn data_traffic_not_mistaken_for_chirps() {
        // A large data frame and its ACK on the backup channel (another
        // AP's main channel may overlap the backup — §4.3 allows this)
        // must not register as chirps.
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ex = whitefi_phy::synth::data_ack_exchange(
            SimTime::from_micros(500),
            Width::W5,
            1000,
            1000.0,
        );
        let trace = synth.synthesize(&ex, SimDuration::from_millis(15), &mut rng);
        let found = ChirpDetector::new().detect(&trace);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn pure_noise_has_no_chirps() {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let trace = synth.synthesize(&[], SimDuration::from_millis(50), &mut rng);
        assert!(ChirpDetector::new().detect(&trace).is_empty());
    }
}
