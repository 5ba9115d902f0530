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
//! two forms, one per kind of consumer:
//!
//! * [`Synthesizer::synthesize`] fills a whole capture **densely**: every
//!   sample gets its receiver noise. fig5's trace head,
//!   [`crate::Scanner::capture`] and the tests that read raw samples use
//!   it, and [`Synthesizer::synthesize_ref`] is its scalar reference.
//! * [`SynthStream`] (from [`Synthesizer::stream`]) emits a capture one
//!   USRP-sized block at a time and **sparsely**: it draws receiver
//!   noise only where SIFT can see it, and emits every other sample as
//!   `0.0`. SIFT's output on the stream equals, in law, its output on a
//!   dense capture (DESIGN.md §12.4), and the stream's work grows with
//!   the bursts, not with the capture's length.
//!
//! Both share one randomness contract: when the configuration is
//! stochastic at all, exactly **one** `u64` is drawn from the caller's
//! RNG per capture, seeding a family of derived ChaCha8 streams — stream
//! 0 for receiver noise, stream `1 + i` for input burst `i`. Each
//! burst's head/ripple draws happen in that burst's own stream in sample
//! order, so a burst's signal is the same in both forms. Noise draws
//! happen in stream 0 in sample order: the dense form takes one ziggurat
//! half-normal per sample; the sparse form takes one per burst sample
//! and the split laws of `kernels::SplitNoise` elsewhere, at
//! positions fixed by the schedule and by its own earlier draws. Nothing
//! depends on block boundaries or on which other bursts exist. An ideal
//! (ripple-free, noiseless, headless) configuration consumes no
//! randomness whatsoever, and then the two forms emit identical samples.

use crate::attenuation::NoiseModel;
use crate::kernels::{self, SplitNoise};
use crate::rng::ChaCha8Rng;
use crate::sift::SiftConfig;
use crate::time::{SimDuration, SimTime};
use rand::{Rng, SeedableRng};
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

    /// The capture's stream-family seed: one `u64` from `rng` when this
    /// configuration draws any randomness at all, and otherwise nothing
    /// from `rng` and 0.
    fn family_seed<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let stochastic = self.config.ripple_low != self.config.ripple_high
            || self.noise.sigma != 0.0
            || self.config.w5_head_fraction > 0.0;
        if stochastic {
            rng.gen::<u64>()
        } else {
            0
        }
    }

    /// Synthesizes the dense amplitude trace of a capture window of
    /// length `window`, containing the given bursts (positions relative
    /// to the window; bursts extending past either edge are clipped).
    pub fn synthesize<R: Rng + ?Sized>(
        &self,
        bursts: &[Burst],
        window: SimDuration,
        rng: &mut R,
    ) -> Vec<f32> {
        let n = window_samples(window);
        let base = self.family_seed(rng);
        let mut acc = vec![0f64; n];
        for c in &schedule(&self.config, bursts, n) {
            ActiveBurst::new(&self.config, base, c).accumulate(&self.config, &mut acc, 0);
        }
        let mut out = Vec::with_capacity(n);
        kernels::add_noise(
            &acc,
            self.noise.sigma,
            &mut out,
            &mut derive_stream(base, 0),
        );
        out
    }

    /// Scalar reference for [`Self::synthesize`]: the same draw schedule
    /// and per-sample expressions over the `_ref` kernels, one sample at
    /// a time. Kept forever as the semantic contract; the differential
    /// suite asserts bit-identity with [`Self::synthesize`].
    pub fn synthesize_ref<R: Rng + ?Sized>(
        &self,
        bursts: &[Burst],
        window: SimDuration,
        rng: &mut R,
    ) -> Vec<f32> {
        let n = window_samples(window);
        let base = self.family_seed(rng);
        let mut acc = vec![0f64; n];
        for c in &schedule(&self.config, bursts, n) {
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

    /// Begins sparse, block-at-a-time synthesis of a capture window
    /// (see [`SynthStream`]). Draws the single stream-family seed from
    /// `rng` up front (nothing at all for an ideal configuration), so the
    /// caller's RNG is released before the first block is emitted.
    ///
    /// The stream is made for SIFT, and only for a SIFT whose threshold
    /// is at least [`SiftConfig::default`]'s (150) and whose window is at
    /// most its window (5 samples): for such a detector, detections and
    /// busy samples on the stream equal, in law, those on the dense
    /// [`Self::synthesize`] trace (DESIGN.md §12.4). Every caller in this
    /// repository runs the default detector. Readers of raw samples use
    /// [`Self::synthesize`].
    pub fn stream<R: Rng + ?Sized>(
        &self,
        bursts: &[Burst],
        window: SimDuration,
        rng: &mut R,
    ) -> SynthStream {
        let n = window_samples(window);
        let base = self.family_seed(rng);
        let pending = schedule(&self.config, bursts, n);
        // Merged burst cover: the samples that carry signal.
        let mut cover: Vec<(usize, usize)> = Vec::new();
        for c in &pending {
            match cover.last_mut() {
                Some(last) if c.start <= last.1 => last.1 = last.1.max(c.end),
                _ => cover.push((c.start, c.end)),
            }
        }
        let visible = SiftConfig::default();
        let noise = SplitNoise::new(self.noise.sigma, visible.threshold);
        let mut noise_rng = derive_stream(base, 0);
        let next_mark = noise.map_or(usize::MAX, |s| s.gap(&mut noise_rng));
        SynthStream {
            config: self.config,
            sigma: self.noise.sigma,
            base,
            total: n,
            emitted: 0,
            pending,
            next_pending: 0,
            active: Vec::new(),
            cover,
            next_cover: 0,
            reach: if noise.is_some() {
                visible.window - 1
            } else {
                0
            },
            cover_reach_end: 0,
            noise,
            noise_rng,
            next_mark,
            mark_reach_end: 0,
            acc: Vec::new(),
            out: Vec::new(),
            out_quiet: false,
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

/// Samples in a capture window (the partial last sample is dropped).
fn window_samples(window: SimDuration) -> usize {
    (window.as_nanos() / SAMPLE_NS) as usize
}

/// The clipped bursts of a capture in superposition order: by start,
/// then by derived-stream id.
fn schedule(config: &SynthesizerConfig, bursts: &[Burst], n: usize) -> Vec<ClippedBurst> {
    let mut pending = clip_bursts(config, bursts, n);
    pending.sort_by_key(|c| (c.start, c.stream));
    pending
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

/// A burst whose signal is being accumulated, with its derived RNG
/// stream live so accumulation resumes in O(1) at each block.
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

impl ActiveBurst {
    /// Opens burst `c`'s stream and draws its head factor.
    fn new(config: &SynthesizerConfig, base: u64, c: &ClippedBurst) -> Self {
        let mut rng = derive_stream(base, c.stream);
        let amp_head = c.amplitude * head_factor(config, c.head_len, &mut rng);
        Self {
            start: c.start,
            end: c.end,
            head_end: c.start + c.head_len,
            amp_head,
            amp_body: c.amplitude,
            rng,
        }
    }

    /// Adds this burst's rippled signal to `acc`, which holds the samples
    /// `[lo, lo + acc.len())`: the head and body segments that fall in
    /// that range, drawing their ripple in sample order.
    fn accumulate(&mut self, config: &SynthesizerConfig, acc: &mut [f64], lo: usize) {
        let hi = lo + acc.len();
        let seg_lo = self.start.clamp(lo, hi);
        let seg_hi = self.end.clamp(seg_lo, hi);
        let cut = self.head_end.clamp(seg_lo, seg_hi);
        kernels::accumulate_ripple(
            &mut acc[seg_lo - lo..cut - lo],
            self.amp_head,
            config.ripple_low,
            config.ripple_high,
            &mut self.rng,
        );
        kernels::accumulate_ripple(
            &mut acc[cut - lo..seg_hi - lo],
            self.amp_body,
            config.ripple_low,
            config.ripple_high,
            &mut self.rng,
        );
    }
}

/// Sparse block-at-a-time emission (see [`Synthesizer::stream`]).
///
/// Each [`Self::next_block`] call yields the next up-to-
/// [`BLOCK_SAMPLES`] samples of the capture. A burst sample is its
/// rippled signal plus one ziggurat half-normal of noise, as in
/// [`Synthesizer::synthesize`]. A noise-only sample is drawn only when
/// SIFT could see it: when it lies within `reach` (the SIFT window less
/// one, 4) of a burst sample or of a noise sample above the SIFT
/// threshold. The positions of those supra-threshold samples come from
/// geometric gaps, their values from the tail law and their neighbours'
/// from the truncated law (`kernels::SplitNoise`); every other sample is
/// `0.0`.
/// A block with nothing to draw reuses the previous all-zero buffer, so
/// a quiet block costs O(1) here. Only the bursts overlapping the
/// current block are touched (activation is a cursor over the
/// start-sorted schedule), and the working buffers are one block long.
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
    /// Sorted, disjoint sample ranges `[start, end)` covered by bursts.
    cover: Vec<(usize, usize)>,
    /// First `cover` range ending after the emission cursor.
    next_cover: usize,
    /// How far from a visible sample noise is still drawn: the SIFT
    /// window less one, or 0 without noise.
    reach: usize,
    /// End of the last passed cover range plus `reach`.
    cover_reach_end: usize,
    /// The split noise laws; `None` when σ = 0.
    noise: Option<SplitNoise>,
    noise_rng: ChaCha8Rng,
    /// Position of the next noise sample above the SIFT threshold
    /// (`usize::MAX`: none).
    next_mark: usize,
    /// The last such position plus `reach + 1`.
    mark_reach_end: usize,
    acc: Vec<f64>,
    out: Vec<f32>,
    /// Whether `out` holds only zeros.
    out_quiet: bool,
}

impl SynthStream {
    /// Total samples this capture will emit.
    pub fn total_samples(&self) -> usize {
        self.total
    }

    /// Emits the next block of up to [`BLOCK_SAMPLES`] samples, or
    /// `None` once the capture is complete. The slice borrows the
    /// stream's internal block buffer and is valid until the next call.
    pub fn next_block(&mut self) -> Option<&[f32]> {
        self.emit(BLOCK_SAMPLES)
    }

    /// Emits the next block of up to `block` samples. The draw schedule
    /// depends on sample positions only, so any block length yields the
    /// same samples.
    fn emit(&mut self, block: usize) -> Option<&[f32]> {
        if self.emitted >= self.total {
            return None;
        }
        let lo = self.emitted;
        let hi = lo + block.min(self.total - lo);
        self.emitted = hi;
        if self.next_visible(lo) >= hi {
            if !self.out_quiet || self.out.len() != hi - lo {
                self.out.clear();
                self.out.resize(hi - lo, 0.0);
                self.out_quiet = true;
            }
        } else {
            self.out_quiet = false;
            self.fill(lo, hi);
        }
        Some(&self.out)
    }

    /// Passes the cover ranges that end at or before `pos`.
    fn pass_cover(&mut self, pos: usize) {
        while let Some(&(_, end)) = self.cover.get(self.next_cover) {
            if end > pos {
                break;
            }
            self.cover_reach_end = end + self.reach;
            self.next_cover += 1;
        }
    }

    /// The first position at or after `pos` that is a burst sample or a
    /// noise sample to draw.
    fn next_visible(&mut self, pos: usize) -> usize {
        self.pass_cover(pos);
        if pos < self.cover_reach_end || pos < self.mark_reach_end {
            return pos;
        }
        let cover_start = self.cover.get(self.next_cover).map_or(usize::MAX, |c| c.0);
        cover_start
            .min(self.next_mark)
            .saturating_sub(self.reach)
            .max(pos)
    }

    /// Records the draw at `mark`, the position of a noise sample above
    /// the threshold, and draws the gap to the next one.
    fn pass_mark(&mut self, mark: usize) {
        self.mark_reach_end = mark + self.reach + 1;
        let gap = self
            .noise
            .map_or(usize::MAX, |s| s.gap(&mut self.noise_rng));
        self.next_mark = mark.saturating_add(1).saturating_add(gap);
    }

    /// Synthesizes the samples `[lo, hi)` into `out`.
    fn fill(&mut self, lo: usize, hi: usize) {
        // Activate bursts whose first sample falls inside this range;
        // `pending` is (start, stream)-sorted, so `active` stays in the
        // global burst order and per-sample superposition adds in the
        // same order as the dense pass.
        while let Some(c) = self.pending.get(self.next_pending) {
            if c.start >= hi {
                break;
            }
            self.active
                .push(ActiveBurst::new(&self.config, self.base, c));
            self.next_pending += 1;
        }
        self.acc.clear();
        self.acc.resize(hi - lo, 0f64);
        for a in &mut self.active {
            a.accumulate(&self.config, &mut self.acc, lo);
        }
        self.active.retain(|a| a.end > hi);
        self.out.clear();
        let mut pos = lo;
        while pos < hi {
            let next = self.next_visible(pos).min(hi);
            if next > pos {
                self.out.resize(self.out.len() + (next - pos), 0.0);
                pos = next;
                continue;
            }
            let (start, end) = self
                .cover
                .get(self.next_cover)
                .copied()
                .unwrap_or((usize::MAX, usize::MAX));
            if start <= pos {
                // Burst samples: one unconditional half-normal each,
                // with the gap redrawn after a threshold position that
                // falls inside the burst.
                let end = end.min(hi);
                while pos < end {
                    let stop = end.min(self.next_mark.saturating_add(1));
                    kernels::add_noise(
                        &self.acc[pos - lo..stop - lo],
                        self.sigma,
                        &mut self.out,
                        &mut self.noise_rng,
                    );
                    if stop == self.next_mark.saturating_add(1) {
                        self.pass_mark(self.next_mark);
                    }
                    pos = stop;
                }
            } else {
                // A noise-only sample SIFT can see.
                let sample = match self.noise {
                    Some(split) if pos == self.next_mark => {
                        let above = split.above(&mut self.noise_rng);
                        self.pass_mark(pos);
                        above
                    }
                    Some(split) => split.below(&mut self.noise_rng),
                    None => 0.0,
                };
                self.out.push(sample);
                pos += 1;
            }
        }
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

    /// Drains `stream` in blocks of `block` samples.
    fn drain(mut stream: SynthStream, block: usize) -> Vec<f32> {
        let mut out = Vec::new();
        while let Some(b) = stream.emit(block) {
            assert!(b.len() <= block);
            out.extend_from_slice(b);
        }
        assert_eq!(out.len(), stream.total_samples());
        out
    }

    /// Exchanges at every width, one straddling the first block seam.
    fn mixed_schedule() -> Vec<Burst> {
        let mut bursts = Vec::new();
        let mut t = SimTime::from_nanos((BLOCK_SAMPLES as u64 - 300) * SAMPLE_NS);
        for width in [Width::W5, Width::W10, Width::W20] {
            let ex = data_ack_exchange(t, width, 400, 900.0);
            t = ex[1].start + ex[1].duration + SimDuration::from_micros(3000);
            bursts.extend(ex);
        }
        bursts
    }

    /// Without receiver noise the stream draws nothing that the dense
    /// trace does not, so its blocks concatenate bit-exactly to
    /// `synthesize` — ripple and 5 MHz heads included.
    #[test]
    fn stream_blocks_concatenate_to_buffered_trace() {
        let mut synth = Synthesizer::new();
        synth.noise = NoiseModel::noiseless();
        let bursts = mixed_schedule();
        let window = SimDuration::from_millis(14);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let buffered = synth.synthesize(&bursts, window, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let streamed = drain(synth.stream(&bursts, window, &mut rng), BLOCK_SAMPLES);
        assert_eq!(buffered.len(), streamed.len());
        for (i, (a, b)) in buffered.iter().zip(&streamed).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i}");
        }
        // Both drew the one family seed and nothing else.
        let mut dense_rng = ChaCha8Rng::seed_from_u64(42);
        let _ = synth.synthesize(&bursts, window, &mut dense_rng);
        assert_eq!(rng.gen::<u64>(), dense_rng.gen::<u64>());
    }

    /// The sparse draw schedule depends on sample positions only: every
    /// block length yields the same samples, with noise loud enough
    /// (σ = 45, so 1 sample in 1,160 is above 150) that threshold
    /// positions fall in quiet stretches, beside bursts and inside them.
    #[test]
    fn stream_is_invariant_to_block_length() {
        let mut synth = Synthesizer::new();
        synth.noise = NoiseModel { sigma: 45.0 };
        let bursts = mixed_schedule();
        let window = SimDuration::from_millis(14);
        let stream = || synth.stream(&bursts, window, &mut ChaCha8Rng::seed_from_u64(8));
        let cover = stream().cover;
        let whole = drain(stream(), usize::MAX);
        let loud_noise = (0..whole.len())
            .filter(|&i| whole[i] > 150.0 && !cover.iter().any(|&(s, e)| (s..e).contains(&i)))
            .count();
        assert!(loud_noise >= 5, "{loud_noise} noise samples above 150");
        for block in [1, 3, 4, 5, 7, 64, 2047, BLOCK_SAMPLES, 5000] {
            let split = drain(stream(), block);
            for (i, (a, b)) in whole.iter().zip(&split).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "block {block} sample {i}");
            }
        }
    }

    /// Where the stream leaves a sample at zero, SIFT could not have
    /// seen it: every noise-only sample within 4 of a burst sample or of
    /// a sample above 150 is drawn (nonzero), and every other one is
    /// zero.
    #[test]
    fn stream_draws_noise_exactly_where_sift_can_see() {
        let mut synth = Synthesizer::new();
        synth.noise = NoiseModel { sigma: 45.0 };
        let bursts = mixed_schedule();
        let window = SimDuration::from_millis(14);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let stream = synth.stream(&bursts, window, &mut rng);
        let cover = stream.cover.clone();
        let trace = drain(stream, BLOCK_SAMPLES);
        let in_burst = |i: usize| cover.iter().any(|&(s, e)| (s..e).contains(&i));
        let visible: Vec<bool> = (0..trace.len())
            .map(|i| in_burst(i) || trace[i] > 150.0)
            .collect();
        let near =
            |i: usize| (i.saturating_sub(4)..=(i + 4).min(trace.len() - 1)).any(|j| visible[j]);
        let mut zeros = 0;
        for (i, &x) in trace.iter().enumerate() {
            if in_burst(i) {
                assert!(x > 0.0, "burst sample {i}");
            } else if near(i) {
                assert!(x > 0.0, "visible noise sample {i} left at zero");
            } else {
                assert_eq!(x, 0.0, "sample {i} drawn out of SIFT's sight");
                zeros += 1;
            }
        }
        assert!(zeros > trace.len() / 2, "{zeros} zeros");
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
