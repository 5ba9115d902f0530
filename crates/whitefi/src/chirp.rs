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
//! * the on-air length of each chirp slot ([`chirp_samples`]): the AP
//!   recognises a chirp by the length of a 5 MHz burst that SIFT measures
//!   on its scanner's view, so no sample-level detector is involved;
//! * the optional time-domain identity encoding: "we can encode some
//!   amount of information in the time domain, such as the client's SSID,
//!   for example by setting the length of the chirp packet. (In effect,
//!   this uses SIFT to implement a low-bitrate OOK-modulated channel.)"

use whitefi_phy::synth::duration_to_samples;
use whitefi_phy::PhyTiming;

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

/// Expected on-air samples of a slot-`slot` chirp on the 5 MHz backup
/// channel. The AP recognises a chirp by matching the burst length SIFT
/// measures against these lengths.
pub fn chirp_samples(slot: u8) -> f64 {
    let d = PhyTiming::for_width(Width::W5).frame_duration(chirp_bytes_for_slot(slot));
    duration_to_samples(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use whitefi_phy::sift::MATCH_TOLERANCE;

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
            let d = chirp_samples(s + 1) - chirp_samples(s);
            assert!(
                d > 2.0 * MATCH_TOLERANCE,
                "slots {s},{} too close: {d}",
                s + 1
            );
        }
    }
}
