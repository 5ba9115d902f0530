//! The USRP-like scanner: dwell on a UHF channel, capture what is on air.
//!
//! The KNOWS scanner is a receive-only SDR stepped across the band in
//! 6 MHz increments (§3). For SIFT the relevant property is channel-
//! granularity visibility: "when SIFT samples an 8 MHz band centered at a
//! frequency Fs, it will be able to detect a WhiteFi transmitter whose
//! channel overlaps with Fs, even though their center frequencies may not
//! match" (§4.2.1). The output of a scan is therefore `(F ± E, W)` with
//! `E = ±W/2`: the width is known exactly, the centre only to within the
//! transmitter's own span.

use crate::synth::{Burst, SynthStream, Synthesizer};
use crate::time::{SimDuration, SimTime};
use rand::Rng;
use whitefi_spectrum::{UhfChannel, WfChannel};

/// A transmission on the air during a capture, tagged with its channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibleBurst {
    /// The WhiteFi channel the frame is sent on.
    pub channel: WfChannel,
    /// The burst itself (absolute simulation time).
    pub burst: Burst,
}

/// A scanner dwelling on one UHF channel at a time.
#[derive(Debug, Clone)]
pub struct Scanner {
    /// Waveform synthesis for captured traces.
    pub synth: Synthesizer,
}

impl Scanner {
    /// A scanner with default synthesis (noise + ripple).
    pub fn new() -> Self {
        Self {
            synth: Synthesizer::new(),
        }
    }

    /// Whether a transmission on `tx` is visible when the scanner dwells
    /// on UHF channel `center`: true iff `tx`'s span contains `center`.
    pub fn sees(center: UhfChannel, tx: WfChannel) -> bool {
        tx.contains(center)
    }

    /// The candidate centre channels of a transmitter of width `w`
    /// detected while dwelling on `scanned`: every centre whose span
    /// contains `scanned` — the paper's `F ± E` with `E = ±W/2`.
    pub fn candidate_centers(scanned: UhfChannel, w: whitefi_spectrum::Width) -> Vec<WfChannel> {
        let h = w.half_span() as i64;
        let s = scanned.index() as i64;
        (s - h..=s + h)
            .filter_map(|c| {
                let idx = usize::try_from(c).ok()?; // below-band centres fall out here
                UhfChannel::new(idx).and_then(|u| WfChannel::new(u, w))
            })
            .collect()
    }

    /// The bursts visible while dwelling on `center` during
    /// `[window_start, window_start + dwell)`: transmissions whose
    /// channel does not span `center` are invisible; visible ones are
    /// clipped to the window and re-based to its origin.
    fn visible_in_window(
        center: UhfChannel,
        on_air: &[VisibleBurst],
        window_start: SimTime,
        dwell: SimDuration,
    ) -> Vec<Burst> {
        let window_end = window_start + dwell;
        let mut local = Vec::new();
        for vb in on_air {
            if !Self::sees(center, vb.channel) {
                continue;
            }
            let b = vb.burst;
            let b_end = b.start + b.duration;
            if b_end <= window_start || b.start >= window_end {
                continue;
            }
            // Clip to the window and re-base to its origin.
            let clipped_start = b.start.max(window_start);
            let clipped_end = if b_end < window_end {
                b_end
            } else {
                window_end
            };
            local.push(Burst {
                start: SimTime::from_nanos(clipped_start.since(window_start).as_nanos()),
                duration: clipped_end.since(clipped_start),
                ..b
            });
        }
        local
    }

    /// Captures the amplitude trace seen while dwelling on `center` during
    /// `[window_start, window_start + dwell)`, materialized as one buffer
    /// (tests and offline analysis; the scan path uses
    /// [`Self::capture_stream`]).
    pub fn capture<R: Rng + ?Sized>(
        &self,
        center: UhfChannel,
        on_air: &[VisibleBurst],
        window_start: SimTime,
        dwell: SimDuration,
        rng: &mut R,
    ) -> Vec<f32> {
        let local = Self::visible_in_window(center, on_air, window_start, dwell);
        self.synth.synthesize(&local, dwell, rng)
    }

    /// Block-at-a-time capture of the same dwell, for SIFT: the USRP
    /// hands the PC 2048-sample blocks, and this path models that — the
    /// full trace is never materialized. The blocks are sparse
    /// ([`Synthesizer::stream`]): receiver noise is drawn only where the
    /// default SIFT can see it, so SIFT's output on them equals its
    /// output on [`Self::capture`] in law, not sample for sample.
    pub fn capture_stream<R: Rng + ?Sized>(
        &self,
        center: UhfChannel,
        on_air: &[VisibleBurst],
        window_start: SimTime,
        dwell: SimDuration,
        rng: &mut R,
    ) -> SynthStream {
        let local = Self::visible_in_window(center, on_air, window_start, dwell);
        self.synth.stream(&local, dwell, rng)
    }
}

impl Default for Scanner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sift::Sift;
    use crate::synth::data_ack_exchange;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use whitefi_spectrum::Width;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    #[test]
    fn visibility_is_channel_span_membership() {
        let tx = WfChannel::from_parts(10, Width::W20); // spans 8..=12
        for i in 0..30 {
            let vis = Scanner::sees(UhfChannel::from_index(i), tx);
            assert_eq!(vis, (8..=12).contains(&i), "channel {i}");
        }
    }

    #[test]
    fn candidate_centers_have_error_half_width() {
        // Detected a 20 MHz transmitter while scanning channel 10: centre
        // could be anywhere in 8..=12 (E = ±W/2).
        let cands = Scanner::candidate_centers(UhfChannel::from_index(10), Width::W20);
        let idx: Vec<usize> = cands.iter().map(|c| c.center().index()).collect();
        assert_eq!(idx, vec![8, 9, 10, 11, 12]);
        // 5 MHz: centre is known exactly.
        let cands = Scanner::candidate_centers(UhfChannel::from_index(10), Width::W5);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].center().index(), 10);
    }

    #[test]
    fn candidate_centers_clip_at_band_edges() {
        let cands = Scanner::candidate_centers(UhfChannel::from_index(0), Width::W20);
        // Centres below half-span are invalid WfChannels.
        assert!(cands.iter().all(|c| c.center().index() >= 2));
    }

    #[test]
    fn capture_then_sift_detects_overlapping_transmitter() {
        let scanner = Scanner::new();
        let sift = Sift::default();
        let tx_channel = WfChannel::from_parts(10, Width::W20);
        let ex = data_ack_exchange(SimTime::from_millis(2), Width::W20, 1000, 1000.0);
        let on_air: Vec<VisibleBurst> = ex
            .iter()
            .map(|&burst| VisibleBurst {
                channel: tx_channel,
                burst,
            })
            .collect();
        // Dwell on channel 8 — not the transmitter's centre, but inside
        // its span.
        let trace = scanner.capture(
            UhfChannel::from_index(8),
            &on_air,
            SimTime::ZERO,
            SimDuration::from_millis(10),
            &mut rng(),
        );
        let detections = sift.detect(&trace);
        assert_eq!(detections.len(), 1);
        assert_eq!(detections[0].width, Width::W20);
    }

    #[test]
    fn capture_misses_non_overlapping_transmitter() {
        let scanner = Scanner::new();
        let sift = Sift::default();
        let tx_channel = WfChannel::from_parts(10, Width::W5);
        let ex = data_ack_exchange(SimTime::from_millis(2), Width::W5, 1000, 1000.0);
        let on_air: Vec<VisibleBurst> = ex
            .iter()
            .map(|&burst| VisibleBurst {
                channel: tx_channel,
                burst,
            })
            .collect();
        let trace = scanner.capture(
            UhfChannel::from_index(11),
            &on_air,
            SimTime::ZERO,
            SimDuration::from_millis(10),
            &mut rng(),
        );
        assert!(sift.detect(&trace).is_empty());
    }

    #[test]
    fn bursts_outside_window_are_clipped_away() {
        let scanner = Scanner::new();
        let tx_channel = WfChannel::from_parts(5, Width::W5);
        let before = VisibleBurst {
            channel: tx_channel,
            burst: crate::synth::Burst {
                start: SimTime::from_millis(1),
                duration: SimDuration::from_micros(500),
                width: Width::W5,
                amplitude: 1000.0,
                kind: crate::synth::BurstKind::Data,
            },
        };
        // Window starts at 10 ms — burst is long gone.
        let trace = scanner.capture(
            UhfChannel::from_index(5),
            &[before],
            SimTime::from_millis(10),
            SimDuration::from_millis(5),
            &mut rng(),
        );
        assert!(Sift::default().extract_bursts(&trace).is_empty());
    }

    #[test]
    fn straddling_burst_is_partially_captured() {
        let scanner = Scanner::new();
        let tx_channel = WfChannel::from_parts(5, Width::W5);
        let straddle = VisibleBurst {
            channel: tx_channel,
            burst: crate::synth::Burst {
                start: SimTime::from_micros(9_500),
                duration: SimDuration::from_millis(2),
                width: Width::W5,
                amplitude: 1000.0,
                kind: crate::synth::BurstKind::Data,
            },
        };
        let trace = scanner.capture(
            UhfChannel::from_index(5),
            &[straddle],
            SimTime::from_millis(10),
            SimDuration::from_millis(5),
            &mut rng(),
        );
        let bursts = Sift::default().extract_bursts(&trace);
        assert_eq!(bursts.len(), 1);
        // Visible portion: 9.5 ms..11.5 ms clipped to 10 ms.. → 1.5 ms.
        let len_us = bursts[0].len as u64 * crate::synth::SAMPLE_NS / 1000;
        assert!((1460..=1540).contains(&len_us), "visible {len_us} µs");
    }
}
