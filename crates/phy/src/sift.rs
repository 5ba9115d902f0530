//! SIFT — Signal Interpretation before Fourier Transform (§4.2.1).
//!
//! SIFT analyzes the raw amplitude series in the time domain:
//!
//! 1. A **moving average** over a sliding window (5 samples — strictly
//!    below the minimum SIFS of 10 samples, so the data→ACK gap is never
//!    smeared away) is compared against a fixed low threshold to find the
//!    start and end of each energy burst. Instantaneous values are not
//!    used "since the signal amplitude might fall to very low values even
//!    in the middle of the packet transmission".
//! 2. Consecutive burst pairs are matched against the **width-dependent
//!    signature** of a unicast exchange: the gap must equal one SIFS at
//!    some width `W` and the second burst must have the duration of a
//!    14-byte ACK at `W`. "Since the SIFS interval is different on every
//!    width", and the 5 MHz ACK is still shorter than any realistic
//!    20 MHz data frame, the match determines `W` unambiguously.
//! 3. Beacons are matched the same way: "we require APs to send a short
//!    packet, such as a CTS-to-self, one SIFS interval after sending a
//!    beacon packet". A CTS has the same 14-byte footprint as an ACK, so
//!    the pair signature is identical; the first burst's length tells a
//!    beacon from a data frame.
//!
//! Besides detection, SIFT measures **airtime utilization** (the busy
//! fraction of the trace) — the input to the MCham spectrum-assignment
//! metric — and estimates the number of distinct transmitters.
//!
//! Two front ends share one pipeline:
//!
//! * the buffered [`Sift`] runs the batched [`crate::kernels`] over a
//!   whole capture at once;
//! * [`StreamingSift`] consumes USRP-sized blocks as they arrive,
//!   carrying window/burst/merge/classify state across block boundaries
//!   and yielding **exactly** the detections the buffered path would
//!   produce on the concatenated trace (the moving average is defined
//!   per-window, with no cross-window accumulator, so every window sum
//!   is independent of where block boundaries fall — see `DESIGN.md`
//!   §12).

use crate::kernels;
use crate::synth::{duration_to_samples, SAMPLE_NS};
use crate::timing::PhyTiming;
use std::collections::VecDeque;
use whitefi_spectrum::Width;

/// Sample count as `f64`, exactly. Counts are bounded by the capture
/// length (milliseconds at the ~1 MS/s sample clock), far below 2^53,
/// so the conversion is lossless for every input this crate produces.
fn count_f64(n: usize) -> f64 {
    // lint:allow(cast, sample counts are far below 2^53, conversion is exact)
    n as f64
}

/// Sample count as `u64`. `usize` is at most 64 bits on every supported
/// target, so this never truncates.
fn count_u64(n: usize) -> u64 {
    // lint:allow(cast, usize is at most 64 bits on all supported targets)
    n as u64
}

/// Burst-sample total as `f64`, exactly: totals are bounded by the
/// stream length, far below 2^53.
fn busy_f64(n: u64) -> f64 {
    // lint:allow(cast, burst totals are far below 2^53, conversion is exact)
    n as f64
}

/// SIFT's tolerance, in samples, when matching gaps and burst lengths
/// against their expected values: [`SiftConfig::default`]'s
/// `match_tolerance`, and the margin the AP's chirp recognition allows.
pub const MATCH_TOLERANCE: f64 = 4.0;

/// SIFT detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiftConfig {
    /// Fixed amplitude threshold ("in our current implementation this
    /// threshold is fixed at a low value").
    pub threshold: f64,
    /// Moving-average window in samples; must be shorter than the minimum
    /// SIFS (10 samples at 20 MHz), hence 5.
    pub window: usize,
    /// Tolerance, in samples, when matching gaps and ACK lengths.
    pub match_tolerance: f64,
    /// Bursts separated by at most this many samples are merged: no valid
    /// inter-frame gap is shorter than the minimum SIFS (≈ 9.8 samples),
    /// so sub-SIFS gaps are ripple artifacts of a near-threshold signal.
    pub merge_gap: usize,
}

impl Default for SiftConfig {
    fn default() -> Self {
        Self {
            threshold: 150.0,
            window: 5,
            match_tolerance: MATCH_TOLERANCE,
            merge_gap: 5,
        }
    }
}

/// A contiguous burst of supra-threshold energy, in sample units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawBurst {
    /// Index of the first supra-threshold sample.
    pub start: usize,
    /// Number of samples in the burst.
    pub len: usize,
}

impl RawBurst {
    /// One past the last sample of the burst.
    pub fn end(self) -> usize {
        self.start + self.len
    }
}

/// What kind of exchange a detection is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionKind {
    /// A data frame followed by its ACK.
    DataAck,
    /// A beacon followed by its CTS-to-self.
    BeaconCts,
}

/// A matched exchange: the paper's SIFT output `(F ± E, W)` plus timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// The inferred channel width.
    pub width: Width,
    /// Data/ACK or beacon/CTS.
    pub kind: DetectionKind,
    /// Sample index where the first (data or beacon) burst starts.
    pub first_start: usize,
    /// Measured length of the first burst, in samples.
    pub first_len: usize,
    /// Measured length of the second (ACK/CTS) burst, in samples.
    pub second_len: usize,
    /// Measured gap between the bursts, in samples.
    pub gap: usize,
}

impl Detection {
    /// Measured duration of the first frame in nanoseconds.
    pub fn first_duration_ns(&self) -> u64 {
        count_u64(self.first_len) * SAMPLE_NS
    }
}

/// The SIFT detector.
#[derive(Debug, Clone, Default)]
pub struct Sift {
    /// Detector parameters.
    pub config: SiftConfig,
}

impl Sift {
    /// A detector with the given configuration.
    pub fn new(config: SiftConfig) -> Self {
        Self { config }
    }

    /// Expected ACK (or CTS) length at `width`, in samples.
    pub fn expected_ack_samples(width: Width) -> f64 {
        duration_to_samples(PhyTiming::for_width(width).ack_duration())
    }

    /// Expected SIFS gap at `width`, in samples.
    pub fn expected_sifs_samples(width: Width) -> f64 {
        duration_to_samples(PhyTiming::for_width(width).sifs())
    }

    /// Expected beacon length at `width`, in samples.
    pub fn expected_beacon_samples(width: Width) -> f64 {
        duration_to_samples(PhyTiming::for_width(width).beacon_duration())
    }

    /// Extracts energy bursts by thresholding the moving average.
    ///
    /// The moving average at window position `i` (covering samples
    /// `i..i+w`) is above threshold iff the window *sum* exceeds
    /// `threshold · w`; maximal runs of above-threshold windows become
    /// bursts. Start/end refinement: the burst start backtracks to the
    /// first individual supra-threshold sample inside the opening window
    /// (falling back to the window's trailing edge), and the end is the
    /// last supra-threshold sample at or before the trailing edge of the
    /// first below-threshold window — edges stay accurate to ±1 sample
    /// across signal strengths.
    ///
    /// This is the production path, on [`kernels::RunKernel`], whose
    /// shortcut bounds are checked for the configuration at each call
    /// (`config` is a public field); [`Self::extract_bursts_ref`] is the
    /// scalar reference held bit-identical by the differential suite.
    pub fn extract_bursts(&self, samples: &[f32]) -> Vec<RawBurst> {
        let w = self.config.window;
        let thr = self.config.threshold;
        let mut runs = Vec::new();
        kernels::RunKernel::new(thr, w).above_runs(samples, &mut runs);
        let mut bursts = Vec::with_capacity(runs.len());
        for (i0, i1) in runs {
            let start = (i0..i0 + w)
                .find(|&j| f64::from(samples[j]) > thr)
                .unwrap_or(i0 + w - 1);
            // Trailing edge of the first below-threshold window, clipped
            // to the trace when the run is still open at the end.
            let bound = (i1 + w).min(samples.len());
            let end = match kernels::rlast_above(&samples[start..bound], thr) {
                Some(p) => start + p,
                None => start,
            };
            bursts.push(RawBurst {
                start,
                len: end - start + 1,
            });
        }
        self.merge(bursts)
    }

    /// Scalar reference for [`Self::extract_bursts`]: the same pipeline
    /// over the `_ref` kernels, one element at a time.
    pub fn extract_bursts_ref(&self, samples: &[f32]) -> Vec<RawBurst> {
        let w = self.config.window;
        let thr = self.config.threshold;
        let mut sums = Vec::new();
        kernels::window_sums_ref(samples, w, &mut sums);
        let mut runs = Vec::new();
        kernels::above_runs_ref(&sums, thr * count_f64(w), &mut runs);
        let mut bursts = Vec::with_capacity(runs.len());
        for (i0, i1) in runs {
            let start = (i0..i0 + w)
                .find(|&j| f64::from(samples[j]) > thr)
                .unwrap_or(i0 + w - 1);
            let bound = (i1 + w).min(samples.len());
            let end = match kernels::rlast_above_ref(&samples[start..bound], thr) {
                Some(p) => start + p,
                None => start,
            };
            bursts.push(RawBurst {
                start,
                len: end - start + 1,
            });
        }
        self.merge(bursts)
    }

    /// Merges fragments separated by sub-SIFS gaps (ripple artifacts of
    /// a near-threshold signal).
    fn merge(&self, bursts: Vec<RawBurst>) -> Vec<RawBurst> {
        let mut merged: Vec<RawBurst> = Vec::with_capacity(bursts.len());
        for b in bursts {
            match merged.last_mut() {
                Some(prev) if b.start.saturating_sub(prev.end()) <= self.config.merge_gap => {
                    prev.len = b.end() - prev.start;
                }
                _ => merged.push(b),
            }
        }
        merged
    }

    /// Tests one consecutive burst pair against the width signature
    /// table: the gap must be one SIFS and the second burst one ACK/CTS
    /// at the same width (±tolerance), and the second burst must not be
    /// longer than the first — an ACK never follows a frame shorter than
    /// itself. The first burst's length then tells a beacon from a data
    /// frame.
    pub fn classify_pair(&self, first: RawBurst, second: RawBurst) -> Option<Detection> {
        let tol = self.config.match_tolerance;
        let gap = second.start.saturating_sub(first.end());
        for width in Width::ALL {
            let sifs = Self::expected_sifs_samples(width);
            let ack = Self::expected_ack_samples(width);
            if (count_f64(gap) - sifs).abs() <= tol
                && (count_f64(second.len) - ack).abs() <= tol
                // Both lengths are integers, so comparing against the
                // float tolerance is exactly the integer check
                // n ≤ m + ⌊tol⌋ ⟺ n ≤ m + tol.
                && count_f64(second.len) <= count_f64(first.len) + tol
            {
                let beacon = Self::expected_beacon_samples(width);
                let kind = if (count_f64(first.len) - beacon).abs() <= tol {
                    DetectionKind::BeaconCts
                } else {
                    DetectionKind::DataAck
                };
                return Some(Detection {
                    width,
                    kind,
                    first_start: first.start,
                    first_len: first.len,
                    second_len: second.len,
                    gap,
                });
            }
        }
        None
    }

    /// Matches consecutive bursts into data/ACK and beacon/CTS exchanges,
    /// classifying channel width: a greedy left-to-right scan that
    /// consumes both bursts of a matched pair.
    pub fn classify(&self, bursts: &[RawBurst]) -> Vec<Detection> {
        let mut out = Vec::new();
        let mut i = 0;
        while i + 1 < bursts.len() {
            if let Some(d) = self.classify_pair(bursts[i], bursts[i + 1]) {
                out.push(d);
                i += 2; // consume the ACK/CTS burst
            } else {
                i += 1;
            }
        }
        out
    }

    /// Full pipeline: extract bursts, then classify exchanges.
    pub fn detect(&self, samples: &[f32]) -> Vec<Detection> {
        self.classify(&self.extract_bursts(samples))
    }

    /// Busy airtime fraction of a trace: total supra-threshold burst
    /// samples over trace length. This feeds the `A_i` entries of the
    /// airtime utilization vector (§4.1).
    pub fn airtime_fraction(&self, samples: &[f32]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let bursts = self.extract_bursts(samples);
        let busy: u64 = bursts.iter().map(|b| count_u64(b.len)).sum();
        busy_f64(busy) / count_f64(samples.len())
    }
}

/// A moving-average run that has not yet seen its down-crossing.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    /// Refined burst start (absolute sample index).
    start: usize,
    /// Last supra-threshold sample observed so far inside the burst
    /// (absolute index), across all fully-processed extended blocks.
    last_above: Option<usize>,
}

/// Block-at-a-time SIFT front end.
///
/// The USRP "delivers blocks of 2048 samples at a time" (§4.2.1);
/// `StreamingSift` consumes those blocks directly, so the scan path
/// never materializes a whole capture. Feed each block to
/// [`Self::push_block`] and drain the detections it yields; call
/// [`Self::finish`] once after the last block to flush state held back
/// at the final boundary.
///
/// Equality contract: for any partition of a trace into blocks —
/// including 1-sample blocks — the concatenated detections of
/// `push_block` + `finish` are exactly `Sift::detect` of the whole
/// trace, and [`Self::busy_samples`] equals the burst-sample total the
/// buffered [`Sift::airtime_fraction`] numerator uses. A property test in
/// `crates/phy/tests/kernel_differential.rs` holds this for arbitrary
/// chunkings. Internally the carry is: the last `window − 1` samples
/// (so windows straddling the boundary are computable), the open
/// moving-average run with its refined start and last supra-threshold
/// sample, the merge-stage burst that a future sub-SIFS neighbor could
/// still extend, and the classify queue's unpaired burst. A block with
/// no sample above the threshold (carry included) and no open run skips
/// the run kernel when its all-below bound holds: no window can rise
/// above the threshold there.
#[derive(Debug, Clone)]
pub struct StreamingSift {
    sift: Sift,
    /// The run kernel, with its shortcut bounds checked for the
    /// configuration.
    kernel: kernels::RunKernel,
    /// Last `window − 1` samples of the stream (fewer near the start).
    carry: Vec<f32>,
    /// Total samples consumed so far.
    samples_seen: usize,
    /// Moving-average run still above threshold at the last boundary.
    open: Option<OpenRun>,
    /// Merge stage: most recent burst, extendable by a near neighbor.
    pending: Option<RawBurst>,
    /// Classify stage: finalized bursts not yet consumed by the greedy
    /// pair scan (holds at most one burst between drains).
    unclassified: VecDeque<RawBurst>,
    /// Detections ready to be yielded.
    ready: Vec<Detection>,
    /// Total samples inside finalized bursts (airtime numerator).
    busy: u64,
    /// Scratch: carry + current block.
    ext: Vec<f32>,
    /// Scratch: above-threshold window runs over `ext`.
    runs: Vec<(usize, usize)>,
    /// Scratch: bursts finalized by the current call.
    finalized: Vec<RawBurst>,
}

impl StreamingSift {
    /// A streaming detector with the given configuration.
    pub fn new(config: SiftConfig) -> Self {
        Self {
            sift: Sift::new(config),
            kernel: kernels::RunKernel::new(config.threshold, config.window),
            carry: Vec::new(),
            samples_seen: 0,
            open: None,
            pending: None,
            unclassified: VecDeque::new(),
            ready: Vec::new(),
            busy: 0,
            ext: Vec::new(),
            runs: Vec::new(),
            finalized: Vec::new(),
        }
    }

    /// The detector configuration.
    pub fn config(&self) -> &SiftConfig {
        &self.sift.config
    }

    /// Total samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Total samples inside finalized bursts so far. After
    /// [`Self::finish`] this equals the buffered airtime numerator.
    pub fn busy_samples(&self) -> u64 {
        self.busy
    }

    /// Busy airtime fraction over everything consumed so far; exact
    /// (equal to [`Sift::airtime_fraction`]) after [`Self::finish`].
    pub fn airtime_fraction(&self) -> f64 {
        if self.samples_seen == 0 {
            return 0.0;
        }
        busy_f64(self.busy) / count_f64(self.samples_seen)
    }

    /// Consumes one block of samples and yields every detection whose
    /// classification can no longer be affected by future samples.
    /// Blocks may be any length (the USRP's is
    /// [`crate::synth::BLOCK_SAMPLES`]); dropping the iterator discards
    /// nothing — undrained detections are lost only if the caller drops
    /// *it* mid-iteration, as with any `drain`.
    pub fn push_block(&mut self, block: &[f32]) -> impl Iterator<Item = Detection> + '_ {
        self.process_block(block);
        self.ready.drain(..)
    }

    /// Flushes the final boundary: closes a still-open run at the end of
    /// the trace, finalizes the merge stage, and yields the remaining
    /// detections. The detector is then exhausted for this trace.
    pub fn finish(&mut self) -> impl Iterator<Item = Detection> + '_ {
        if let Some(open) = self.open.take() {
            // Run still above threshold at the end of the trace: the
            // buffered path scans to the end of the capture, and the
            // per-block `last_above` updates have covered exactly that.
            let end = match open.last_above {
                Some(la) if la >= open.start => la,
                _ => open.start,
            };
            let burst = RawBurst {
                start: open.start,
                len: end - open.start + 1,
            };
            self.merge_push(burst);
        }
        if let Some(p) = self.pending.take() {
            self.finalized.push(p);
        }
        self.flush_finalized();
        self.carry.clear();
        self.ready.drain(..)
    }

    fn process_block(&mut self, block: &[f32]) {
        let w = self.sift.config.window;
        let thr = self.sift.config.threshold;
        if w == 0 {
            self.samples_seen += block.len();
            return;
        }
        // Quiet block: no sample of `carry + block` is above the
        // threshold, so by the kernel's all-below bound no window is
        // either and `runs` would be empty. With no run open, nothing
        // opens, closes or refines; only the merge stage and the carry
        // advance.
        if self.kernel.below_is_exact()
            && self.open.is_none()
            && !self.kernel.any_above(&self.carry)
            && !self.kernel.any_above(block)
        {
            self.samples_seen += block.len();
            self.finalize_pending();
            self.flush_finalized();
            self.keep_tail(block);
            return;
        }
        // Extended block: the carried `w − 1` tail plus the new samples,
        // so every window straddling the boundary is computable. Window
        // index `i` in `sums` is the window starting at absolute sample
        // `carry_abs + i`; consecutive extended blocks cover contiguous
        // window-start ranges, so runs stitch seamlessly.
        let carry_abs = self.samples_seen - self.carry.len();
        self.samples_seen += block.len();
        self.ext.clear();
        self.ext.extend_from_slice(&self.carry);
        self.ext.extend_from_slice(block);
        self.kernel.above_runs(&self.ext, &mut self.runs);
        let n_windows = (self.ext.len() + 1).saturating_sub(w);

        // The carried open run either continues through this block's
        // first run (which then begins at window 0) or closes at the
        // first below-threshold window, which is window 0.
        let mut next_run = 0;
        if let Some(open) = self.open.take() {
            if n_windows == 0 {
                self.open = Some(open);
            } else if let Some(&(0, i1)) = self.runs.first() {
                next_run = 1;
                if i1 < n_windows {
                    self.close_run(open, i1, carry_abs);
                } else {
                    self.open = Some(open);
                }
            } else {
                self.close_run(open, 0, carry_abs);
            }
        }
        // Remaining runs open fresh bursts; all but an open tail close
        // within this block.
        while next_run < self.runs.len() {
            let (i0, i1) = self.runs[next_run];
            next_run += 1;
            let start = (i0..i0 + w)
                .find(|&j| f64::from(self.ext[j]) > thr)
                .unwrap_or(i0 + w - 1)
                + carry_abs;
            let open = OpenRun {
                start,
                last_above: None,
            };
            if i1 < n_windows {
                self.close_run(open, i1, carry_abs);
            } else {
                self.open = Some(open);
            }
        }
        // An open run absorbs this block's supra-threshold samples into
        // its carried `last_above`: every future down-crossing edge lies
        // past the end of this extended block, so all of them qualify.
        if let Some(open) = &mut self.open {
            let from = open.start.saturating_sub(carry_abs).min(self.ext.len());
            if let Some(p) = kernels::rlast_above(&self.ext[from..], thr) {
                open.last_above = Some(carry_abs + from + p);
            }
        }
        if self.open.is_none() {
            self.finalize_pending();
        }
        self.flush_finalized();
        self.keep_tail(block);
    }

    /// Merge-stage finalization, with no run open: a future burst starts
    /// no earlier than the first window not yet fully observed, so once
    /// the pending burst is more than `merge_gap` behind that bound,
    /// nothing can extend it.
    fn finalize_pending(&mut self) {
        let w = self.sift.config.window;
        if let (Some(p), Some(next_start)) = (self.pending, (self.samples_seen + 1).checked_sub(w))
        {
            if p.end() + self.sift.config.merge_gap < next_start {
                self.pending = None;
                self.finalized.push(p);
            }
        }
    }

    /// Carries the last `window − 1` samples of the stream (fewer near
    /// its start) past `block`, the block just consumed.
    fn keep_tail(&mut self, block: &[f32]) {
        let keep = self.sift.config.window - 1;
        if block.len() >= keep {
            self.carry.clear();
            self.carry.extend_from_slice(&block[block.len() - keep..]);
        } else {
            self.carry.extend_from_slice(block);
            let excess = self.carry.len().saturating_sub(keep);
            self.carry.drain(..excess);
        }
    }

    /// Closes a run whose first below-threshold window is `i1` (relative
    /// to the current extended block) and pushes the refined burst into
    /// the merge stage.
    fn close_run(&mut self, open: OpenRun, i1: usize, carry_abs: usize) {
        let w = self.sift.config.window;
        let thr = self.sift.config.threshold;
        // Last sample of the first below-threshold window — the same
        // scan bound the buffered path uses.
        let from = open.start.saturating_sub(carry_abs);
        let to = i1 + w;
        let end = match kernels::rlast_above(&self.ext[from..to], thr) {
            Some(p) => carry_abs + from + p,
            None => match open.last_above {
                Some(la) if la >= open.start => la,
                _ => open.start,
            },
        };
        let burst = RawBurst {
            start: open.start,
            len: end - open.start + 1,
        };
        self.merge_push(burst);
    }

    /// Merge stage: extends the pending burst when the gap is sub-SIFS,
    /// otherwise finalizes it and makes `b` the new pending burst.
    fn merge_push(&mut self, b: RawBurst) {
        match &mut self.pending {
            Some(prev) if b.start.saturating_sub(prev.end()) <= self.sift.config.merge_gap => {
                prev.len = b.end() - prev.start;
            }
            Some(prev) => {
                self.finalized.push(*prev);
                *prev = b;
            }
            None => self.pending = Some(b),
        }
    }

    /// Accounts finalized bursts toward the airtime numerator and runs
    /// the greedy pair scan over the classify queue.
    fn flush_finalized(&mut self) {
        if self.finalized.is_empty() {
            return;
        }
        self.busy += self.finalized.iter().map(|b| count_u64(b.len)).sum::<u64>();
        self.unclassified.extend(self.finalized.drain(..));
        while self.unclassified.len() >= 2 {
            let first = self.unclassified[0];
            let second = self.unclassified[1];
            if let Some(d) = self.sift.classify_pair(first, second) {
                self.ready.push(d);
                self.unclassified.pop_front();
            }
            self.unclassified.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{beacon_cts, data_ack_exchange, Burst, BurstKind, Synthesizer};
    use crate::time::{SimDuration, SimTime};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(99)
    }

    #[test]
    fn signature_tables_do_not_collide_across_widths() {
        // (SIFS, ACK) per width must be pairwise separated by more than
        // twice the match tolerance, or widths could be confused.
        let tol = SiftConfig::default().match_tolerance;
        for (i, a) in Width::ALL.iter().enumerate() {
            for b in &Width::ALL[i + 1..] {
                let ds = (Sift::expected_sifs_samples(*a) - Sift::expected_sifs_samples(*b)).abs();
                let da = (Sift::expected_ack_samples(*a) - Sift::expected_ack_samples(*b)).abs();
                assert!(
                    ds > 2.0 * tol || da > 2.0 * tol,
                    "{a:?} vs {b:?}: sifs Δ{ds} ack Δ{da}"
                );
            }
        }
    }

    #[test]
    fn extracts_single_burst_with_exact_edges() {
        let synth = Synthesizer::ideal();
        let burst = Burst {
            start: SimTime::from_micros(1024),       // sample 1000
            duration: SimDuration::from_micros(512), // 500 samples
            width: Width::W20,
            amplitude: 1000.0,
            kind: BurstKind::Data,
        };
        let trace = synth.synthesize(&[burst], SimDuration::from_micros(4096), &mut rng());
        let sift = Sift::default();
        let bursts = sift.extract_bursts(&trace);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].start, 1000);
        assert_eq!(bursts[0].len, 500);
    }

    #[test]
    fn no_bursts_in_pure_noise() {
        let synth = Synthesizer::new();
        let trace = synth.synthesize(&[], SimDuration::from_millis(50), &mut rng());
        let sift = Sift::default();
        assert!(sift.extract_bursts(&trace).is_empty());
        assert_eq!(sift.airtime_fraction(&trace), 0.0);
    }

    #[test]
    fn detects_data_ack_at_every_width() {
        let synth = Synthesizer::new();
        let sift = Sift::default();
        for width in Width::ALL {
            let bursts = data_ack_exchange(SimTime::from_micros(500), width, 1000, 1000.0);
            let trace = synth.synthesize(&bursts, SimDuration::from_millis(10), &mut rng());
            let detections = sift.detect(&trace);
            assert_eq!(detections.len(), 1, "width {width:?}: {detections:?}");
            assert_eq!(detections[0].width, width);
            assert_eq!(detections[0].kind, DetectionKind::DataAck);
        }
    }

    #[test]
    fn detects_beacon_cts_and_distinguishes_from_data() {
        let synth = Synthesizer::new();
        let sift = Sift::default();
        for width in Width::ALL {
            let bursts = beacon_cts(SimTime::from_micros(500), width, 1000.0);
            let trace = synth.synthesize(&bursts, SimDuration::from_millis(10), &mut rng());
            let detections = sift.detect(&trace);
            assert_eq!(detections.len(), 1, "width {width:?}");
            assert_eq!(detections[0].width, width);
            assert_eq!(detections[0].kind, DetectionKind::BeaconCts);
        }
    }

    #[test]
    fn measures_packet_duration() {
        // "Once the algorithm determines the start and end time of a
        // packet, the duration of the packet is known."
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let width = Width::W10;
        let bursts = data_ack_exchange(SimTime::from_micros(100), width, 132, 1000.0);
        let expected = bursts[0].duration;
        let trace = synth.synthesize(&bursts, SimDuration::from_millis(5), &mut rng());
        let d = &sift.detect(&trace)[0];
        let measured_ns = d.first_duration_ns() as f64;
        let err = (measured_ns - expected.as_nanos() as f64).abs() / expected.as_nanos() as f64;
        assert!(err < 0.02, "duration error {err}");
    }

    #[test]
    fn multiple_exchanges_all_found() {
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let mut bursts = Vec::new();
        let mut t = SimTime::from_micros(200);
        for _ in 0..20 {
            let ex = data_ack_exchange(t, Width::W20, 1000, 1000.0);
            t = ex[1].start + ex[1].duration + SimDuration::from_micros(300);
            bursts.extend(ex);
        }
        let trace = synth.synthesize(&bursts, SimDuration::from_millis(50), &mut rng());
        let detections = sift.detect(&trace);
        assert_eq!(detections.len(), 20);
        assert!(detections.iter().all(|d| d.width == Width::W20));
    }

    #[test]
    fn lone_data_burst_is_not_classified() {
        // Without an ACK there is no signature to match.
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let burst = Burst {
            start: SimTime::from_micros(500),
            duration: SimDuration::from_micros(800),
            width: Width::W20,
            amplitude: 1000.0,
            kind: BurstKind::Data,
        };
        let trace = synth.synthesize(&[burst], SimDuration::from_millis(5), &mut rng());
        assert!(sift.detect(&trace).is_empty());
        // …but the energy still counts toward airtime.
        assert!(sift.airtime_fraction(&trace) > 0.1);
    }

    #[test]
    fn airtime_fraction_matches_ground_truth() {
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let window = SimDuration::from_millis(100);
        let mut bursts = Vec::new();
        let mut t = SimTime::from_micros(100);
        let mut on = SimDuration::ZERO;
        for _ in 0..20 {
            let ex = data_ack_exchange(t, Width::W10, 300, 1000.0);
            on += ex[0].duration + ex[1].duration;
            t = ex[1].start + ex[1].duration + SimDuration::from_micros(1500);
            bursts.extend(ex);
        }
        assert!(
            t + SimDuration::from_millis(1) < SimTime::ZERO + window,
            "workload must fit inside the capture window"
        );
        let trace = synth.synthesize(&bursts, window, &mut rng());
        let truth = on.as_nanos() as f64 / window.as_nanos() as f64;
        let measured = sift.airtime_fraction(&trace);
        assert!(
            (measured - truth).abs() < 0.02,
            "measured {measured} truth {truth}"
        );
    }

    #[test]
    fn weak_signal_below_threshold_is_missed() {
        // Signals under the fixed threshold are invisible — the mechanism
        // behind the sharp Figure 7 cliff.
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let bursts = data_ack_exchange(SimTime::from_micros(500), Width::W20, 1000, 90.0);
        let trace = synth.synthesize(&bursts, SimDuration::from_millis(5), &mut rng());
        assert!(sift.detect(&trace).is_empty());
    }

    #[test]
    fn detects_corrupted_packets_the_sniffer_would_drop() {
        // SIFT "is even able to detect corrupted packets" — energy near
        // the threshold still forms bursts even though decode would fail.
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let bursts = data_ack_exchange(SimTime::from_micros(500), Width::W20, 1000, 250.0);
        let trace = synth.synthesize(&bursts, SimDuration::from_millis(5), &mut rng());
        let detections = sift.detect(&trace);
        assert_eq!(detections.len(), 1);
        // The sniffer decodes such packets well under 95% of the time.
        let p = crate::sniffer::Sniffer::default()
            .decode_probability_for(250.0, &crate::attenuation::NoiseModel::default_model());
        assert!(p < 0.95, "sniffer p {p}");
    }

    #[test]
    fn short_trace_yields_nothing() {
        let sift = Sift::default();
        assert!(sift.extract_bursts(&[1000.0; 3]).is_empty());
    }

    #[test]
    fn burst_end_accessor() {
        let b = RawBurst { start: 10, len: 5 };
        assert_eq!(b.end(), 15);
    }

    #[test]
    fn buffered_matches_scalar_reference() {
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let mut bursts = Vec::new();
        let mut t = SimTime::from_micros(200);
        for width in [Width::W5, Width::W10, Width::W20] {
            let ex = data_ack_exchange(t, width, 700, 900.0);
            t = ex[1].start + ex[1].duration + SimDuration::from_micros(250);
            bursts.extend(ex);
        }
        let trace = synth.synthesize(&bursts, SimDuration::from_millis(20), &mut rng());
        assert_eq!(sift.extract_bursts(&trace), sift.extract_bursts_ref(&trace));
    }

    #[test]
    fn streaming_matches_buffered_on_block_sized_chunks() {
        let synth = Synthesizer::new();
        let sift = Sift::default();
        let mut bursts = Vec::new();
        let mut t = SimTime::from_micros(300);
        for _ in 0..8 {
            let ex = data_ack_exchange(t, Width::W10, 800, 1000.0);
            t = ex[1].start + ex[1].duration + SimDuration::from_micros(400);
            bursts.extend(ex);
        }
        let trace = synth.synthesize(&bursts, SimDuration::from_millis(30), &mut rng());
        let buffered = sift.detect(&trace);
        let mut stream = StreamingSift::new(sift.config);
        let mut streamed = Vec::new();
        for block in trace.chunks(crate::synth::BLOCK_SAMPLES) {
            streamed.extend(stream.push_block(block));
        }
        streamed.extend(stream.finish());
        assert_eq!(buffered, streamed);
        assert_eq!(
            stream.busy_samples(),
            sift.extract_bursts(&trace)
                .iter()
                .map(|b| count_u64(b.len))
                .sum::<u64>()
        );
        assert_eq!(stream.samples_seen(), trace.len());
    }

    #[test]
    fn streaming_empty_trace_is_empty() {
        let mut stream = StreamingSift::new(SiftConfig::default());
        assert_eq!(stream.push_block(&[]).count(), 0);
        assert_eq!(stream.finish().count(), 0);
        assert_eq!(stream.busy_samples(), 0);
        assert_eq!(stream.airtime_fraction(), 0.0);
    }
}
