//! Synthesis of raw amplitude sample traces.
//!
//! The KNOWS scanner "samples a bandwidth of 1 MHz around F at
//! 1 MSamples/sec. Each sample represents 1.024 µs of raw RF signal as an
//! (I,Q) pair; the signal amplitude is computed as sqrt(I² + Q²). The USRP
//! delivers blocks of 2048 samples at a time" (§4.2.1). SIFT consumes only
//! the amplitude series, so this synthesizer produces amplitude samples
//! directly from a schedule of bursts.
//!
//! Two waveform details from Figure 5 matter for fidelity:
//!
//! * the amplitude "might fall to very low values even in the middle of
//!   the packet transmission" — modelled as per-sample multiplicative
//!   ripple — which is exactly why SIFT needs its moving average;
//! * "the initial portion of a packet at 5 MHz channel width is sent at a
//!   lower amplitude than the rest of the packet", which makes SIFT
//!   "sometimes fail to accurately match the length of the detected packet"
//!   (§5.1) — modelled as a random low-amplitude head applied to 5 MHz
//!   bursts only.
//!
//! The synthesizer runs on the batched [`crate::kernels`] and exists in
//! two forms with one randomness contract:
//!
//! * [`Synthesizer::synthesize`] / [`Synthesizer::synthesize_into`] fill
//!   a whole capture at once;
//! * [`SynthStream`] (from [`Synthesizer::stream`]) emits the identical
//!   trace one USRP-sized block at a time, never materializing the
//!   capture.
//!
//! The contract that makes them bit-identical: when the configuration is
//! stochastic at all, exactly **one** `u64` is drawn from the caller's
//! RNG per capture, seeding a family of derived ChaCha8 streams — stream
//! 0 for receiver noise, stream `1 + i` for input burst `i`. Each
//! burst's head/ripple draws happen in that burst's own stream in sample
//! order, and noise draws happen in stream 0 in sample order: one
//! ziggurat half-normal per sample, which reads one word on its fast path
//! and a few more on its rare slow paths, all before the next sample's
//! draw, with nothing carried from one sample to the next. So no draw's
//! position depends on block boundaries or on which other bursts exist.
//! An ideal (ripple-free, noiseless, headless) configuration consumes no
//! randomness whatsoever.

use crate::attenuation::NoiseModel;
use crate::kernels;
use crate::time::{SimDuration, SimTime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use whitefi_spectrum::Width;

/// Nanoseconds represented by one SDR sample (1 MS/s ⇒ 1.024 µs).
pub const SAMPLE_NS: u64 = 1_024;

/// Samples per USRP block.
pub const BLOCK_SAMPLES: usize = 2_048;

/// Converts a duration to a (fractional) number of samples.
pub fn duration_to_samples(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / SAMPLE_NS as f64
}

/// Converts a sample count to the duration it spans.
pub fn samples_to_duration(samples: usize) -> SimDuration {
    SimDuration::from_nanos(samples as u64 * SAMPLE_NS)
}

/// What a burst of RF energy is, from the transmitter's point of view.
///
/// SIFT cannot decode frames; the kind only drives waveform details (the
/// 5 MHz head droop) and lets tests assert against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BurstKind {
    /// A data frame.
    Data,
    /// A MAC acknowledgement.
    Ack,
    /// An AP beacon.
    Beacon,
    /// A CTS-to-self (sent one SIFS after each beacon so SIFT can match
    /// beacons like data/ACK pairs — §4.2.1).
    Cts,
    /// A disconnection chirp (§4.3).
    Chirp,
}

/// One burst of energy to synthesize, positioned relative to the capture
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Start time relative to the capture window origin.
    pub start: SimTime,
    /// On-air duration.
    pub duration: SimDuration,
    /// Channel width the frame was sent at.
    pub width: Width,
    /// Received amplitude (after any attenuation), linear units.
    pub amplitude: f64,
    /// Frame kind (ground truth, not visible to SIFT).
    pub kind: BurstKind,
}

/// Waveform-shape knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesizerConfig {
    /// Per-sample multiplicative ripple, uniform in `[ripple_low,
    /// ripple_high]` (mean must be ~1 to preserve calibration).
    pub ripple_low: f64,
    /// Upper ripple bound.
    pub ripple_high: f64,
    /// Fraction of a 5 MHz burst affected by the low-amplitude head.
    pub w5_head_fraction: f64,
    /// Mean of the per-burst head amplitude factor.
    pub w5_head_mean: f64,
    /// Standard deviation of the head amplitude factor.
    pub w5_head_sd: f64,
}

impl Default for SynthesizerConfig {
    fn default() -> Self {
        Self {
            ripple_low: 0.55,
            ripple_high: 1.45,
            w5_head_fraction: 0.15,
            w5_head_mean: 0.45,
            w5_head_sd: 0.15,
        }
    }
}

/// Amplitude-trace synthesizer.
#[derive(Debug, Clone)]
pub struct Synthesizer {
    /// Waveform shape.
    pub config: SynthesizerConfig,
    /// Additive receiver noise.
    pub noise: NoiseModel,
}

impl Synthesizer {
    /// A synthesizer with default shape and noise.
    pub fn new() -> Self {
        Self {
            config: SynthesizerConfig::default(),
            noise: NoiseModel::default_model(),
        }
    }

    /// A noiseless, ripple-free synthesizer producing ideal rectangular
    /// envelopes (for exactness tests).
    pub fn ideal() -> Self {
        Self {
            config: SynthesizerConfig {
                ripple_low: 1.0,
                ripple_high: 1.0,
                w5_head_fraction: 0.0,
                w5_head_mean: 1.0,
                w5_head_sd: 0.0,
            },
            noise: NoiseModel::noiseless(),
        }
    }

    /// Whether this configuration draws any randomness at all. When
    /// false, synthesis consumes **nothing** from the caller's RNG.
    fn is_stochastic(&self) -> bool {
        self.config.ripple_low != self.config.ripple_high
            || self.noise.sigma != 0.0
            || self.config.w5_head_fraction > 0.0
    }

    /// Synthesizes the amplitude trace of a capture window of length
    /// `window`, containing the given bursts (positions relative to the
    /// window; bursts extending past either edge are clipped).
    pub fn synthesize<R: Rng + ?Sized>(
        &self,
        bursts: &[Burst],
        window: SimDuration,
        rng: &mut R,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.synthesize_into(bursts, window, rng, &mut out);
        out
    }

    /// [`Self::synthesize`] into a caller-owned buffer, bit-identical
    /// under the same RNG state. `out` is cleared and refilled; hot loops
    /// that synthesize thousands of windows reuse its allocation (the f64
    /// accumulation scratch is a thread-local, also reused).
    pub fn synthesize_into<R: Rng + ?Sized>(
        &self,
        bursts: &[Burst],
        window: SimDuration,
        rng: &mut R,
        out: &mut Vec<f32>,
    ) {
        use std::cell::RefCell;
        thread_local! {
            static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        let mut stream = self.stream(bursts, window, rng);
        out.clear();
        SCRATCH.with(|scratch| {
            let mut acc = scratch.borrow_mut();
            // One whole-window block: the same per-stream draw schedule
            // as block-at-a-time emission, so the trace is bit-identical
            // to draining a [`SynthStream`].
            stream.fill_into(&mut acc, out, stream.total_samples());
        });
    }

    /// Scalar reference for the whole synthesis pipeline: the same draw
    /// schedule and per-sample expressions over the `_ref` kernels, one
    /// sample at a time. Kept forever as the semantic contract; the
    /// differential suite asserts bit-identity with
    /// [`Self::synthesize`] and with [`SynthStream`] emission.
    pub fn synthesize_ref<R: Rng + ?Sized>(
        &self,
        bursts: &[Burst],
        window: SimDuration,
        rng: &mut R,
    ) -> Vec<f32> {
        let n = (window.as_nanos() / SAMPLE_NS) as usize;
        let base = if self.is_stochastic() {
            rng.gen::<u64>()
        } else {
            0
        };
        let mut acc = vec![0f64; n];
        let mut pending = clip_bursts(&self.config, bursts, n);
        pending.sort_by_key(|c| (c.start, c.stream));
        for c in &pending {
            let mut burst_rng = derive_stream(base, c.stream);
            let amp_head = c.amplitude * head_factor(&self.config, c.head_len, &mut burst_rng);
            let head_end = c.start + c.head_len;
            kernels::accumulate_ripple_ref(
                &mut acc[c.start..head_end],
                amp_head,
                self.config.ripple_low,
                self.config.ripple_high,
                &mut burst_rng,
            );
            kernels::accumulate_ripple_ref(
                &mut acc[head_end..c.end],
                c.amplitude,
                self.config.ripple_low,
                self.config.ripple_high,
                &mut burst_rng,
            );
        }
        let mut out = Vec::new();
        let mut noise_rng = derive_stream(base, 0);
        kernels::add_noise_ref(&acc, self.noise.sigma, &mut out, &mut noise_rng);
        out
    }

    /// Begins block-at-a-time synthesis of a capture window. Draws the
    /// single stream-family seed from `rng` up front (nothing at all for
    /// an ideal configuration), so the caller's RNG is released before
    /// the first block is emitted.
    pub fn stream<R: Rng + ?Sized>(
        &self,
        bursts: &[Burst],
        window: SimDuration,
        rng: &mut R,
    ) -> SynthStream {
        let n = (window.as_nanos() / SAMPLE_NS) as usize;
        let base = if self.is_stochastic() {
            rng.gen::<u64>()
        } else {
            0
        };
        let mut pending = clip_bursts(&self.config, bursts, n);
        pending.sort_by_key(|c| (c.start, c.stream));
        SynthStream {
            config: self.config,
            sigma: self.noise.sigma,
            base,
            total: n,
            emitted: 0,
            pending,
            next_pending: 0,
            active: Vec::new(),
            noise_rng: derive_stream(base, 0),
            acc: Vec::new(),
            out: Vec::new(),
        }
    }
}

impl Default for Synthesizer {
    fn default() -> Self {
        Self::new()
    }
}

/// One derived ChaCha8 stream of the per-capture family.
fn derive_stream(base: u64, stream: u64) -> ChaCha8Rng {
    let mut rng = ChaCha8Rng::seed_from_u64(base);
    rng.set_stream(stream); // stream-map: domain=synth-lanes salt=synth-seed streams=0..=65535 role="capture synthesis (0 = noise floor, 1 + burst index)"
    rng
}

/// A burst clipped to the capture window, keyed by its derived-stream id
/// (`1 + input index`, so the assignment is independent of clipping).
#[derive(Debug, Clone, Copy)]
struct ClippedBurst {
    start: usize,
    end: usize,
    head_len: usize,
    amplitude: f64,
    stream: u64,
}

/// Clips bursts to the `n`-sample window and computes each one's 5 MHz
/// head length from its **clipped** length (the droop is a power-ramp
/// artifact of initiating a transmission from an idle chain, so it
/// affects data/beacon/chirp frames; an ACK or CTS follows one SIFS
/// behind with the chain still warm).
fn clip_bursts(config: &SynthesizerConfig, bursts: &[Burst], n: usize) -> Vec<ClippedBurst> {
    let mut out = Vec::with_capacity(bursts.len());
    for (idx, b) in bursts.iter().enumerate() {
        let start = ((b.start.as_nanos() / SAMPLE_NS) as usize).min(n);
        let end_ns = b.start.as_nanos() + b.duration.as_nanos();
        let end = ((end_ns / SAMPLE_NS) as usize).min(n); // exclusive
        if start >= end {
            continue;
        }
        let len = end - start;
        let initiating = matches!(
            b.kind,
            BurstKind::Data | BurstKind::Beacon | BurstKind::Chirp
        );
        // Truncating the fractional sample is the intended floor; the
        // product is nonnegative (fraction checked > 0).
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let head_len = if b.width == Width::W5 && initiating && config.w5_head_fraction > 0.0 {
            (len as f64 * config.w5_head_fraction) as usize
        } else {
            0
        };
        out.push(ClippedBurst {
            start,
            end,
            head_len,
            amplitude: b.amplitude,
            stream: 1 + idx as u64,
        });
    }
    out
}

/// Draws the per-burst head amplitude factor (the first draws in the
/// burst's stream), or 1.0 without drawing when the burst has no head.
fn head_factor<R: Rng + ?Sized>(config: &SynthesizerConfig, head_len: usize, rng: &mut R) -> f64 {
    if head_len == 0 {
        return 1.0;
    }
    let g = kernels::normal(rng);
    (config.w5_head_mean + g * config.w5_head_sd).clamp(0.02, 1.0)
}

/// A burst currently overlapping the emission cursor, with its derived
/// RNG stream live so emission resumes in O(1) at each block.
#[derive(Debug, Clone)]
struct ActiveBurst {
    start: usize,
    end: usize,
    /// Absolute end of the low-amplitude head region.
    head_end: usize,
    amp_head: f64,
    amp_body: f64,
    rng: ChaCha8Rng,
}

/// Block-at-a-time trace emission (see [`Synthesizer::stream`]).
///
/// Each [`Self::next_block`] call yields the next up-to-
/// [`BLOCK_SAMPLES`] samples of the capture, bit-identical to the
/// corresponding slice of [`Synthesizer::synthesize`] under the same
/// caller-RNG state. Only the bursts overlapping the current block are
/// touched (activation is a cursor over the start-sorted schedule), and
/// the working buffers are one block long — streaming a capture
/// allocates O(block + active bursts), not O(capture).
#[derive(Debug, Clone)]
pub struct SynthStream {
    config: SynthesizerConfig,
    sigma: f64,
    base: u64,
    total: usize,
    emitted: usize,
    pending: Vec<ClippedBurst>,
    next_pending: usize,
    active: Vec<ActiveBurst>,
    noise_rng: ChaCha8Rng,
    acc: Vec<f64>,
    out: Vec<f32>,
}

impl SynthStream {
    /// Total samples this capture will emit.
    pub fn total_samples(&self) -> usize {
        self.total
    }

    /// Samples emitted so far.
    pub fn samples_emitted(&self) -> usize {
        self.emitted
    }

    /// Emits the next block of up to [`BLOCK_SAMPLES`] samples, or
    /// `None` once the capture is complete. The slice borrows the
    /// stream's internal block buffer and is valid until the next call.
    pub fn next_block(&mut self) -> Option<&[f32]> {
        if self.emitted >= self.total {
            return None;
        }
        let len = BLOCK_SAMPLES.min(self.total - self.emitted);
        let (mut acc, mut out) = (std::mem::take(&mut self.acc), std::mem::take(&mut self.out));
        self.fill_into(&mut acc, &mut out, len);
        self.acc = acc;
        self.out = out;
        Some(&self.out)
    }

    /// Accumulates the next `len` samples into `acc` and appends their
    /// quantized form to `out` (cleared first). Shared by block emission
    /// and the whole-capture [`Synthesizer::synthesize_into`], which is
    /// what makes the two paths identical by construction.
    fn fill_into(&mut self, acc: &mut Vec<f64>, out: &mut Vec<f32>, len: usize) {
        let lo = self.emitted;
        let hi = lo + len;
        acc.clear();
        acc.resize(len, 0f64);
        // Activate bursts whose first sample falls inside this range;
        // `pending` is (start, stream)-sorted, so `active` stays in the
        // global burst order and per-sample superposition adds in the
        // same order as the buffered pass.
        while let Some(c) = self.pending.get(self.next_pending).copied() {
            if c.start >= hi {
                break;
            }
            self.next_pending += 1;
            let mut rng = derive_stream(self.base, c.stream);
            let amp_head = c.amplitude * head_factor(&self.config, c.head_len, &mut rng);
            self.active.push(ActiveBurst {
                start: c.start,
                end: c.end,
                head_end: c.start + c.head_len,
                amp_head,
                amp_body: c.amplitude,
                rng,
            });
        }
        for a in &mut self.active {
            let seg_lo = a.start.max(lo);
            let seg_hi = a.end.min(hi);
            // Head and body segments of this burst inside the block.
            let cut = a.head_end.clamp(seg_lo, seg_hi);
            kernels::accumulate_ripple(
                &mut acc[seg_lo - lo..cut - lo],
                a.amp_head,
                self.config.ripple_low,
                self.config.ripple_high,
                &mut a.rng,
            );
            kernels::accumulate_ripple(
                &mut acc[cut - lo..seg_hi - lo],
                a.amp_body,
                self.config.ripple_low,
                self.config.ripple_high,
                &mut a.rng,
            );
        }
        self.active.retain(|a| a.end > hi);
        out.clear();
        kernels::add_noise(acc, self.sigma, out, &mut self.noise_rng);
        self.emitted = hi;
    }
}

/// Builds the burst pair of a unicast data + ACK exchange starting at
/// `start`, using the width-scaled timing of `width`.
pub fn data_ack_exchange(
    start: SimTime,
    width: Width,
    data_bytes: usize,
    amplitude: f64,
) -> [Burst; 2] {
    let t = crate::timing::PhyTiming::for_width(width);
    let data = Burst {
        start,
        duration: t.frame_duration(data_bytes),
        width,
        amplitude,
        kind: BurstKind::Data,
    };
    let ack = Burst {
        start: start + data.duration + t.sifs(),
        duration: t.ack_duration(),
        width,
        amplitude,
        kind: BurstKind::Ack,
    };
    [data, ack]
}

/// Builds a beacon + CTS-to-self pair (the AP-discovery signature).
pub fn beacon_cts(start: SimTime, width: Width, amplitude: f64) -> [Burst; 2] {
    let t = crate::timing::PhyTiming::for_width(width);
    let beacon = Burst {
        start,
        duration: t.beacon_duration(),
        width,
        amplitude,
        kind: BurstKind::Beacon,
    };
    let cts = Burst {
        start: start + beacon.duration + t.sifs(),
        duration: t.cts_duration(),
        width,
        amplitude,
        kind: BurstKind::Cts,
    };
    [beacon, cts]
}

#[cfg(test)]
// Sample-index arithmetic in the assertions casts small u64 constants to
// usize; the values are tiny, the casts are exact.
#[allow(clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::timing::PhyTiming;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sample_conversions_round_trip() {
        let d = SimDuration::from_micros(1024);
        assert_eq!(duration_to_samples(d), 1000.0);
        assert_eq!(samples_to_duration(1000), d);
    }

    #[test]
    fn ideal_trace_is_rectangular() {
        let synth = Synthesizer::ideal();
        let burst = Burst {
            start: SimTime::from_micros(100),
            duration: SimDuration::from_micros(200),
            width: Width::W20,
            amplitude: 1000.0,
            kind: BurstKind::Data,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let trace = synth.synthesize(&[burst], SimDuration::from_micros(500), &mut rng);
        let start = 100_000 / SAMPLE_NS as usize;
        let end = 300_000 / SAMPLE_NS as usize;
        assert!(trace[..start].iter().all(|&s| s == 0.0));
        assert!(trace[start..end].iter().all(|&s| (s - 1000.0).abs() < 1e-3));
        assert!(trace[end..].iter().all(|&s| s == 0.0));
    }

    #[test]
    fn ideal_synthesis_consumes_no_randomness() {
        let synth = Synthesizer::ideal();
        let burst = Burst {
            start: SimTime::from_micros(100),
            duration: SimDuration::from_micros(200),
            width: Width::W5,
            amplitude: 1000.0,
            kind: BurstKind::Data,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let before = rng.clone().gen::<u64>();
        let _ = synth.synthesize(&[burst], SimDuration::from_micros(500), &mut rng);
        assert_eq!(rng.gen::<u64>(), before);
    }

    #[test]
    fn bursts_superpose() {
        let synth = Synthesizer::ideal();
        let b = |start_us| Burst {
            start: SimTime::from_micros(start_us),
            duration: SimDuration::from_micros(100),
            width: Width::W20,
            amplitude: 500.0,
            kind: BurstKind::Data,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let trace = synth.synthesize(&[b(0), b(50)], SimDuration::from_micros(200), &mut rng);
        let mid = 75_000 / SAMPLE_NS as usize;
        assert!((trace[mid] - 1000.0).abs() < 1e-3, "overlap should sum");
    }

    #[test]
    fn bursts_clip_to_window() {
        let synth = Synthesizer::ideal();
        let burst = Burst {
            start: SimTime::from_micros(400),
            duration: SimDuration::from_micros(500),
            width: Width::W20,
            amplitude: 100.0,
            kind: BurstKind::Data,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let trace = synth.synthesize(&[burst], SimDuration::from_micros(500), &mut rng);
        assert_eq!(trace.len(), 500_000 / SAMPLE_NS as usize);
        assert!(trace.last().unwrap() > &0.0);
    }

    #[test]
    fn noise_floor_present_with_default_model() {
        let synth = Synthesizer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let trace = synth.synthesize(&[], SimDuration::from_millis(1), &mut rng);
        let mean: f64 = trace.iter().map(|&s| s as f64).sum::<f64>() / trace.len() as f64;
        assert!(mean > 10.0 && mean < 40.0, "noise floor mean {mean}");
    }

    #[test]
    fn w5_head_is_attenuated() {
        let mut synth = Synthesizer::ideal();
        synth.config.w5_head_fraction = 0.2;
        synth.config.w5_head_mean = 0.4;
        synth.config.w5_head_sd = 0.0;
        let burst = Burst {
            start: SimTime::ZERO,
            duration: SimDuration::from_micros(1024), // exactly 1000 samples
            width: Width::W5,
            amplitude: 1000.0,
            kind: BurstKind::Data,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let trace = synth.synthesize(&[burst], SimDuration::from_micros(1024), &mut rng);
        assert!(
            (trace[100] - 400.0).abs() < 1e-3,
            "head sample {}",
            trace[100]
        );
        assert!(
            (trace[500] - 1000.0).abs() < 1e-3,
            "body sample {}",
            trace[500]
        );
    }

    #[test]
    fn w20_has_no_head_droop() {
        let synth = Synthesizer::ideal();
        let burst = Burst {
            start: SimTime::ZERO,
            duration: SimDuration::from_micros(1024),
            width: Width::W20,
            amplitude: 1000.0,
            kind: BurstKind::Data,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let trace = synth.synthesize(&[burst], SimDuration::from_micros(1024), &mut rng);
        assert!((trace[5] - 1000.0).abs() < 1e-3);
    }

    #[test]
    fn synthesize_into_matches_synthesize() {
        let synth = Synthesizer::new();
        let ex = data_ack_exchange(SimTime::from_micros(50), Width::W5, 132, 900.0);
        let window = SimDuration::from_millis(3);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let a = synth.synthesize(&ex, window, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut b = vec![1.0f32; 7]; // dirty, wrongly-sized buffer
        synth.synthesize_into(&ex, window, &mut rng, &mut b);
        assert_eq!(a, b);
        // Reusing the buffer for a different window stays exact.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let c = synth.synthesize(&ex, SimDuration::from_millis(2), &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        synth.synthesize_into(&ex, SimDuration::from_millis(2), &mut rng, &mut b);
        assert_eq!(c, b);
    }

    #[test]
    fn stream_blocks_concatenate_to_buffered_trace() {
        let synth = Synthesizer::new();
        let ex = data_ack_exchange(SimTime::from_micros(50), Width::W5, 400, 900.0);
        let window = SimDuration::from_millis(3);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let buffered = synth.synthesize(&ex, window, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut stream = synth.stream(&ex, window, &mut rng);
        assert_eq!(stream.total_samples(), buffered.len());
        let mut streamed = Vec::new();
        while let Some(block) = stream.next_block() {
            assert!(block.len() <= BLOCK_SAMPLES);
            streamed.extend_from_slice(block);
        }
        assert_eq!(stream.samples_emitted(), buffered.len());
        for (i, (a, b)) in buffered.iter().zip(&streamed).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}");
        }
        assert_eq!(buffered.len(), streamed.len());
    }

    #[test]
    fn stream_matches_scalar_reference_bitwise() {
        let synth = Synthesizer::new();
        let mut bursts = Vec::new();
        let mut t = SimTime::from_micros(100);
        for width in [Width::W5, Width::W20] {
            let ex = data_ack_exchange(t, width, 600, 800.0);
            t = ex[1].start + ex[1].duration + SimDuration::from_micros(200);
            bursts.extend(ex);
        }
        let window = SimDuration::from_millis(8);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let reference = synth.synthesize_ref(&bursts, window, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let batched = synth.synthesize(&bursts, window, &mut rng);
        for (i, (a, b)) in reference.iter().zip(&batched).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}");
        }
        assert_eq!(reference.len(), batched.len());
    }

    #[test]
    fn exchange_builder_spacing_matches_timing() {
        for w in Width::ALL {
            let t = PhyTiming::for_width(w);
            let [data, ack] = data_ack_exchange(SimTime::ZERO, w, 132, 1000.0);
            assert_eq!(data.duration, t.frame_duration(132));
            assert_eq!(ack.duration, t.ack_duration());
            assert_eq!(
                ack.start.since(SimTime::ZERO + data.duration),
                t.sifs(),
                "gap must be one SIFS at {w:?}"
            );
        }
    }

    #[test]
    fn beacon_builder_spacing() {
        let [beacon, cts] = beacon_cts(SimTime::ZERO, Width::W10, 800.0);
        let t = PhyTiming::for_width(Width::W10);
        assert_eq!(beacon.duration, t.beacon_duration());
        assert_eq!(cts.duration, t.cts_duration());
        assert_eq!(
            cts.start.as_nanos(),
            beacon.duration.as_nanos() + t.sifs().as_nanos()
        );
    }
}
