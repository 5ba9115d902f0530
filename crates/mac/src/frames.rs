//! Frame types exchanged over the simulated medium.

use whitefi_phy::synth::BurstKind;
use whitefi_phy::timing::{chirp_bytes_for_slot, ACK_BYTES, BEACON_BYTES, CTS_BYTES};
use whitefi_spectrum::{AirtimeVector, SpectrumMap, WfChannel};

/// Index of a node within a [`crate::Simulator`].
pub type NodeId = usize;

/// MAC frame kinds, including WhiteFi's control frames.
///
/// Frames live in event-heap entries, node queues and the medium's
/// history, so every variant stays a few words: `Report`'s 480-byte
/// airtime vector travels boxed, out of line (DESIGN.md §8, "Compact
/// frames"). Cloning a `Report` allocates; every other kind is a plain
/// copy.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameKind {
    /// A data frame carrying `bytes` of payload.
    Data {
        /// MAC payload length.
        bytes: usize,
    },
    /// A client's periodic control report: its spectrum map and airtime
    /// utilization vector (§4.1, "Clients periodically transmit this
    /// information to the AP as part of a control message").
    Report {
        /// The client's observed incumbent occupancy.
        map: SpectrumMap,
        /// The client's measured per-channel load, boxed so the variant
        /// stays word-sized.
        airtime: Box<AirtimeVector>,
    },
    /// An AP beacon, advertising the backup channel (§4.3).
    Beacon {
        /// The 5 MHz backup channel clients should chirp on after a
        /// disconnection.
        backup: Option<WfChannel>,
    },
    /// The AP's broadcast ordering clients onto a new channel (§4.1,
    /// "The AP broadcasts the new channel to its clients").
    SwitchAnnounce {
        /// The channel to move to.
        target: WfChannel,
    },
    /// A disconnection chirp on the backup channel, carrying the chirping
    /// node's white-space availability (§4.3). The identity `slot` is
    /// encoded in the frame's on-air length so SIFT can read it without
    /// decoding.
    Chirp {
        /// The chirping node's spectrum map.
        map: SpectrumMap,
        /// Identity slot encoded in the chirp length.
        slot: u8,
        /// Network security key. §4.3: "it will process the chirp packet
        /// only if it is encoded with the network's security key (similar
        /// to Wi-Fi)" — a fake chirp can still drag the AP's main radio
        /// to the backup channel briefly, but cannot steer the network.
        key: u32,
    },
    /// A MAC acknowledgement (sent by the engine, one SIFS after a
    /// delivered unicast frame).
    Ack,
    /// A CTS-to-self (sent by the engine one SIFS after every beacon, so
    /// SIFT can match beacons in the time domain — §4.2.1).
    Cts,
}

impl FrameKind {
    /// On-air MAC payload size in bytes.
    pub fn bytes(&self) -> usize {
        match self {
            FrameKind::Data { bytes } => *bytes,
            FrameKind::Report { .. } => 64,
            FrameKind::Beacon { .. } => BEACON_BYTES,
            FrameKind::SwitchAnnounce { .. } => 32,
            FrameKind::Chirp { slot, .. } => chirp_bytes_for_slot(*slot),
            FrameKind::Ack => ACK_BYTES,
            FrameKind::Cts => CTS_BYTES,
        }
    }

    /// The burst kind SIFT-visible captures report for this frame.
    pub fn burst_kind(&self) -> BurstKind {
        match self {
            FrameKind::Data { .. }
            | FrameKind::Report { .. }
            | FrameKind::SwitchAnnounce { .. } => BurstKind::Data,
            FrameKind::Beacon { .. } => BurstKind::Beacon,
            FrameKind::Chirp { .. } => BurstKind::Chirp,
            FrameKind::Ack => BurstKind::Ack,
            FrameKind::Cts => BurstKind::Cts,
        }
    }
}

/// A MAC frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination; `None` broadcasts (no acknowledgement).
    pub dst: Option<NodeId>,
    /// Frame contents.
    pub kind: FrameKind,
}

impl Frame {
    /// A unicast data frame.
    pub fn data(src: NodeId, dst: NodeId, bytes: usize) -> Self {
        Self {
            src,
            dst: Some(dst),
            kind: FrameKind::Data { bytes },
        }
    }

    /// On-air payload size.
    pub fn bytes(&self) -> usize {
        self.kind.bytes()
    }

    /// Whether delivery of this frame elicits a MAC acknowledgement.
    pub fn needs_ack(&self) -> bool {
        self.dst.is_some() && matches!(self.kind, FrameKind::Data { .. } | FrameKind::Report { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sizes() {
        assert_eq!(Frame::data(0, 1, 1000).bytes(), 1000);
        assert_eq!(FrameKind::Ack.bytes(), 14);
        assert_eq!(FrameKind::Cts.bytes(), 14);
        assert_eq!(FrameKind::Beacon { backup: None }.bytes(), 80);
        assert_eq!(
            FrameKind::Chirp {
                map: SpectrumMap::all_free(),
                slot: 0,
                key: 0
            }
            .bytes(),
            40
        );
    }

    #[test]
    fn ack_rules() {
        assert!(Frame::data(0, 1, 100).needs_ack());
        let report = Frame {
            src: 0,
            dst: Some(1),
            kind: FrameKind::Report {
                map: SpectrumMap::all_free(),
                airtime: Box::new(AirtimeVector::idle()),
            },
        };
        assert!(report.needs_ack());
        let beacon = Frame {
            src: 0,
            dst: None,
            kind: FrameKind::Beacon { backup: None },
        };
        assert!(!beacon.needs_ack());
        let chirp = Frame {
            src: 0,
            dst: None,
            kind: FrameKind::Chirp {
                map: SpectrumMap::all_free(),
                slot: 2,
                key: 7,
            },
        };
        assert!(!chirp.needs_ack());
    }

    #[test]
    fn burst_kind_mapping() {
        assert_eq!(FrameKind::Data { bytes: 10 }.burst_kind(), BurstKind::Data);
        assert_eq!(
            FrameKind::Beacon { backup: None }.burst_kind(),
            BurstKind::Beacon
        );
        assert_eq!(FrameKind::Ack.burst_kind(), BurstKind::Ack);
        assert_eq!(FrameKind::Cts.burst_kind(), BurstKind::Cts);
    }
}
