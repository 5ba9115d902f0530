//! Signal substrate for the WhiteFi reproduction.
//!
//! The paper's KNOWS prototype pairs a variable-width Wi-Fi transceiver
//! (an Atheros card behind a UHF translator) with a USRP software-defined
//! radio used as a scanner. Neither is available here, so this crate
//! provides the faithful synthetic equivalent:
//!
//! * [`time`] — the integer-nanosecond simulation timebase;
//! * [`timing`] — width-scaled PHY/MAC timing (symbol, SIFS, slot,
//!   preamble, packet durations) per Chandra et al. (SIGCOMM 2008), the
//!   technique WhiteFi builds on;
//! * [`attenuation`] — dB arithmetic and the noise model;
//! * [`synth`] — synthesis of raw amplitude (`sqrt(I² + Q²)`) sample
//!   traces from a schedule of bursts, including the low-amplitude head
//!   of 5 MHz packets visible in Figure 5;
//! * [`rng`] — the workspace's ChaCha8 generator, whose word reads the
//!   synthesis kernels inline;
//! * [`kernels`] — the batched 4-wide lane kernels behind both
//!   [`synth`] and [`sift`], each paired with a scalar reference that
//!   differential tests hold bit-identical;
//! * [`sift`] — the SIFT detector itself: moving-average burst
//!   extraction, data/ACK (and beacon/CTS-to-self) matching, channel-width
//!   classification, airtime measurement, and the block-at-a-time
//!   [`StreamingSift`] front end;
//! * [`sniffer`] — a packet-sniffer decode model (the Figure 7
//!   comparison baseline);
//! * [`scanner`] — the USRP-like scanner: which transmissions are
//!   visible when dwelling on a given UHF channel, and capture of their
//!   amplitude trace.
//!
//! Everything is deterministic under a seeded RNG.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attenuation;
pub mod kernels;
pub mod rng;
pub mod scanner;
pub mod sift;
pub mod sniffer;
pub mod synth;
pub mod time;
pub mod timing;

pub use attenuation::{amplitude_after, db_to_amplitude_ratio, NoiseModel};
pub use rng::ChaCha8Rng;
pub use scanner::{Scanner, VisibleBurst};
pub use sift::{Detection, DetectionKind, RawBurst, Sift, SiftConfig, StreamingSift};
pub use sniffer::Sniffer;
pub use synth::{
    Burst, BurstKind, SynthStream, Synthesizer, SynthesizerConfig, BLOCK_SAMPLES, SAMPLE_NS,
};
pub use time::{SimDuration, SimTime};
pub use timing::{PhyTiming, ACK_BYTES, BEACON_BYTES, CHIRP_BYTES, CTS_BYTES};
