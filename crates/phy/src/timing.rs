//! Width-scaled PHY and MAC timing.
//!
//! WhiteFi uses the channel-width adaptation technique of Chandra et al.
//! (SIGCOMM 2008 — the paper's reference \[15\]): the Wi-Fi card's PLL clock
//! is scaled so the same 802.11 OFDM PHY runs at 5, 10 or 20 MHz. Scaling
//! the clock by `s = 20 MHz / W` stretches *every* PHY time constant by
//! `s` and divides the data rate by `s`:
//!
//! * symbol period, preamble, SIFS, slot time, and hence DIFS all grow by
//!   `s` — "SIFS values change across different channel widths and the
//!   lowest SIFS value in our system is for a 20 MHz transmission, which is
//!   10 µs" (§4.2.1);
//! * at the paper's single 6 Mbps (20 MHz reference) rate, a 10 MHz channel
//!   carries 3 Mbps and a 5 MHz channel 1.5 Mbps, so "halving the channel
//!   width also halves the effective transmission rate" and doubles every
//!   packet duration (Figure 5, Figure 6).
//!
//! Reference constants are 802.11a at 6 Mbps: 4 µs symbol carrying 24 data
//! bits, 20 µs PLCP preamble+header, 9 µs slot, 10 µs SIFS.

use crate::time::SimDuration;
use whitefi_spectrum::Width;

/// MAC-layer acknowledgement frame size: "the acknowledgement packet is
/// the smallest MAC layer packet (14 bytes)" (§4.2.1).
pub const ACK_BYTES: usize = 14;

/// CTS(-to-self) frame size; same 14-byte control frame footprint.
pub const CTS_BYTES: usize = 14;

/// Beacon frame size (SSID, capabilities, and WhiteFi's backup-channel
/// advertisement).
pub const BEACON_BYTES: usize = 80;

/// Chirp frame payload: the chirping node's spectrum map and identity
/// (§4.3).
pub const CHIRP_BYTES: usize = 40;

/// Bytes of a chirp frame encoding identity `slot` in its on-air length:
/// each slot adds 24 bytes (eight 5 MHz OFDM symbols ≈ 125 SDR samples),
/// far beyond SIFT's matching tolerance — the paper's "low-bitrate
/// OOK-modulated channel" built on SIFT (§4.3).
pub fn chirp_bytes_for_slot(slot: u8) -> usize {
    CHIRP_BYTES + slot as usize * 24
}

/// 20 MHz reference constants (802.11a, 6 Mbps).
mod reference {
    /// OFDM symbol period at 20 MHz, nanoseconds.
    pub const SYMBOL_NS: u64 = 4_000;
    /// Data bits per symbol at 6 Mbps (24 bits / 4 µs).
    pub const BITS_PER_SYMBOL: u64 = 24;
    /// PLCP preamble + header at 20 MHz, nanoseconds.
    pub const PREAMBLE_NS: u64 = 20_000;
    /// Slot time at 20 MHz, nanoseconds.
    pub const SLOT_NS: u64 = 9_000;
    /// SIFS at 20 MHz, nanoseconds (§4.2.1: 10 µs).
    pub const SIFS_NS: u64 = 10_000;
    /// PHY service bits prepended to the PSDU (802.11a SERVICE field).
    pub const SERVICE_BITS: u64 = 16;
    /// Convolutional-coder tail bits appended to the PSDU.
    pub const TAIL_BITS: u64 = 6;
}

/// Width-scaled PHY timing for one channel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhyTiming {
    width: Width,
    scale: u64,
}

impl PhyTiming {
    /// Timing for the given channel width.
    pub fn for_width(width: Width) -> Self {
        Self {
            width,
            scale: width.scale() as u64,
        }
    }

    /// The channel width this timing describes.
    pub fn width(self) -> Width {
        self.width
    }

    /// Clock scale factor relative to 20 MHz (1, 2, or 4).
    pub fn scale(self) -> u64 {
        self.scale
    }

    /// OFDM symbol period.
    pub fn symbol(self) -> SimDuration {
        SimDuration::from_nanos(reference::SYMBOL_NS * self.scale)
    }

    /// PLCP preamble + header duration.
    pub fn preamble(self) -> SimDuration {
        SimDuration::from_nanos(reference::PREAMBLE_NS * self.scale)
    }

    /// SIFS: 10 µs at 20 MHz, 20 µs at 10 MHz, 40 µs at 5 MHz.
    pub fn sifs(self) -> SimDuration {
        SimDuration::from_nanos(reference::SIFS_NS * self.scale)
    }

    /// Backoff slot time.
    pub fn slot(self) -> SimDuration {
        SimDuration::from_nanos(reference::SLOT_NS * self.scale)
    }

    /// DIFS = SIFS + 2 × slot.
    pub fn difs(self) -> SimDuration {
        self.sifs() + self.slot() * 2
    }

    /// Effective data rate in Mbps (6 at 20 MHz, 3 at 10, 1.5 at 5).
    pub fn data_rate_mbps(self) -> f64 {
        6.0 / self.scale as f64
    }

    /// Airtime of a frame carrying `bytes` bytes of MAC payload:
    /// preamble + ceil((service + 8·bytes + tail) / bits-per-symbol)
    /// symbols.
    pub fn frame_duration(self, bytes: usize) -> SimDuration {
        let bits = reference::SERVICE_BITS + 8 * bytes as u64 + reference::TAIL_BITS;
        let symbols = bits.div_ceil(reference::BITS_PER_SYMBOL);
        self.preamble() + self.symbol() * symbols
    }

    /// Duration of an ACK frame at this width.
    pub fn ack_duration(self) -> SimDuration {
        self.frame_duration(ACK_BYTES)
    }

    /// Duration of a CTS-to-self frame at this width.
    pub fn cts_duration(self) -> SimDuration {
        self.frame_duration(CTS_BYTES)
    }

    /// Duration of a beacon frame at this width.
    pub fn beacon_duration(self) -> SimDuration {
        self.frame_duration(BEACON_BYTES)
    }

    /// Full data + SIFS + ACK exchange airtime for a `bytes`-byte frame.
    pub fn exchange_duration(self, bytes: usize) -> SimDuration {
        self.frame_duration(bytes) + self.sifs() + self.ack_duration()
    }

    /// The smallest SIFS over all widths — SIFT's moving-average window
    /// must stay below this (§4.2.1).
    pub fn min_sifs() -> SimDuration {
        PhyTiming::for_width(Width::W20).sifs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sifs_scales_with_width() {
        assert_eq!(PhyTiming::for_width(Width::W20).sifs().as_micros(), 10);
        assert_eq!(PhyTiming::for_width(Width::W10).sifs().as_micros(), 20);
        assert_eq!(PhyTiming::for_width(Width::W5).sifs().as_micros(), 40);
        assert_eq!(PhyTiming::min_sifs().as_micros(), 10);
    }

    #[test]
    fn data_rates_match_paper() {
        assert_eq!(PhyTiming::for_width(Width::W20).data_rate_mbps(), 6.0);
        assert_eq!(PhyTiming::for_width(Width::W10).data_rate_mbps(), 3.0);
        assert_eq!(PhyTiming::for_width(Width::W5).data_rate_mbps(), 1.5);
    }

    #[test]
    fn ack_duration_at_20mhz() {
        // 14 bytes → 16 + 112 + 6 = 134 bits → 6 symbols → 24 µs + 20 µs
        // preamble = 44 µs.
        assert_eq!(
            PhyTiming::for_width(Width::W20).ack_duration().as_micros(),
            44
        );
        // Durations double per halving.
        assert_eq!(
            PhyTiming::for_width(Width::W10).ack_duration().as_micros(),
            88
        );
        assert_eq!(
            PhyTiming::for_width(Width::W5).ack_duration().as_micros(),
            176
        );
    }

    #[test]
    fn narrowest_ack_shorter_than_widest_data() {
        // "the duration of an acknowledgement packet at the narrowest width
        // of 5 MHz is still much smaller than any data packet sent at
        // 20 MHz" (§4.2.1) — for data packets of realistic size.
        let ack5 = PhyTiming::for_width(Width::W5).ack_duration();
        let data20 = PhyTiming::for_width(Width::W20).frame_duration(132);
        assert!(ack5 < data20, "ack5={ack5} data20={data20}");
    }

    #[test]
    fn frame_duration_doubles_as_width_halves() {
        for bytes in [14, 132, 1000, 1500] {
            let d20 = PhyTiming::for_width(Width::W20).frame_duration(bytes);
            let d10 = PhyTiming::for_width(Width::W10).frame_duration(bytes);
            let d5 = PhyTiming::for_width(Width::W5).frame_duration(bytes);
            assert_eq!(d10.as_nanos(), 2 * d20.as_nanos());
            assert_eq!(d5.as_nanos(), 4 * d20.as_nanos());
        }
    }

    #[test]
    fn fig5_data_ack_windows() {
        // Figure 5 shows a 132-byte data+ACK exchange fitting in ~600 µs at
        // 20 MHz, ~1200 µs at 10 MHz, ~2500 µs at 5 MHz. Our exchange
        // durations must scale the same way and fit those windows.
        let ex = |w| PhyTiming::for_width(w).exchange_duration(132).as_micros();
        assert!(ex(Width::W20) < 600, "{}", ex(Width::W20));
        assert!(ex(Width::W10) < 1200);
        assert!(ex(Width::W5) < 2500);
        assert_eq!(ex(Width::W10), 2 * ex(Width::W20));
        assert_eq!(ex(Width::W5), 4 * ex(Width::W20));
    }

    #[test]
    fn difs_composition() {
        let t = PhyTiming::for_width(Width::W20);
        assert_eq!(t.difs().as_micros(), 10 + 2 * 9);
    }

    #[test]
    fn thousand_byte_packet_duration() {
        // 1000 B → 16+8000+6 = 8022 bits → 335 symbols (334.25 rounded up)
        // → 1340 µs + 20 µs = 1360 µs at 20 MHz.
        let d = PhyTiming::for_width(Width::W20).frame_duration(1000);
        assert_eq!(d.as_micros(), 1360);
    }
}
