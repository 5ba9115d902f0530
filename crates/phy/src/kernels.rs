//! Batched sample-domain kernels for the PHY hot path.
//!
//! SIFT and the waveform synthesizer process 1 MS/s amplitude traces;
//! per-sample scalar loops over those traces dominated the experiment
//! sweeps' wall time. This module rewrites the sample-domain primitives
//! as **batched kernels**: manual chunking over plain slices (no
//! nightly/portable-SIMD dependency) shaped so LLVM's auto-vectorizer
//! emits SIMD for the lane bodies, and SIFT's [`RunKernel`], which
//! classifies 64-window chunks against the threshold and sums only the
//! windows that straddle it.
//!
//! Every kernel comes in two forms:
//!
//! * the batched kernel (`RunKernel::above_runs`, `add_noise`, …) — the
//!   production path;
//! * a `_ref` scalar reference — the semantic contract, kept forever so
//!   differential tests (`crates/phy/tests/kernel_differential.rs`,
//!   plus the in-module suites below) can assert **bit-identical**
//!   output on every change.
//!
//! Bit-identity across the scalar/batched pair is by construction, not
//! by luck: each output element is an *independent* expression with a
//! fixed per-lane evaluation order (f64 additions left-to-right within
//! one element, RNG draws sample-major), so no cross-element
//! accumulator exists whose rounding could depend on chunk width; and
//! where the run kernel skips a window sum, a bound checked for its
//! configuration proves the comparison it skipped. That is also what
//! makes the streaming SIFT chunking-invariant: an element's value
//! never depends on where a block boundary falls. See `DESIGN.md` §12
//! for the full contract.

use rand::Rng;
use std::sync::LazyLock;

/// Lane width of the chunked kernels. Four f64 lanes fill one AVX2
/// register; the remainder loops reuse the identical per-element
/// expressions, so lane width is a pure performance knob.
pub const LANES: usize = 4;

/// Window length as `f64`, as SIFT scales its threshold: exact for every
/// window below 2^53 samples.
fn count_f64(n: usize) -> f64 {
    // lint:allow(cast, window lengths are far below 2^53, conversion is exact)
    n as f64
}

/// Quantizes one accumulated f64 amplitude down to the scanner's f32
/// sample type — the only lossy conversion on the synthesis path, and
/// the point of the kernel's output format.
fn quantize(s: f64) -> f32 {
    // Quantizing the f64 mix to f32 is the kernel's output contract.
    #[allow(clippy::cast_possible_truncation)]
    // lint:allow(cast, quantizing the f64 mix to the f32 sample type is the kernel's contract)
    let q = s as f32;
    q
}

/// Moving-window envelope sums: `out[i] = Σ f64::from(samples[i..i+w])`,
/// added **left-to-right** from `0.0`, for every window fully inside
/// `samples` (`out.len() == samples.len() - w + 1`; empty when the trace
/// is shorter than the window or `w == 0`).
///
/// SIFT's moving average at position `t` is `out[t - w + 1] / w`; the
/// detector compares `out` against `threshold · w` instead of dividing.
/// Unlike the classic running sum (`+ newest − oldest`), each element
/// is an independent w-term chain, so the value is identical no matter
/// how the trace is chunked — the property the streaming SIFT leans on.
/// This is the specification [`RunKernel::above_runs`] is held to.
pub fn window_sums_ref(samples: &[f32], w: usize, out: &mut Vec<f64>) {
    out.clear();
    if w == 0 || samples.len() < w {
        return;
    }
    for i in 0..=samples.len() - w {
        let mut a = 0f64;
        for j in 0..w {
            a += f64::from(samples[i + j]);
        }
        out.push(a);
    }
}

/// One window's sum: `f64::from` of each sample, added left to right
/// from `0.0`, the chain [`window_sums_ref`] computes.
fn window_sum(window: &[f32]) -> f64 {
    let mut a = 0f64;
    for &s in window {
        a += f64::from(s);
    }
    a
}

/// Threshold crossing / edge detection: appends every maximal run
/// `[start, end)` of indices where `sums[i] > thr` to `out` (cleared
/// first). A run still open at the end of the slice is reported with
/// `end == sums.len()`; the caller decides whether that edge is a real
/// down-crossing or a block boundary.
pub fn above_runs_ref(sums: &[f64], thr: f64, out: &mut Vec<(usize, usize)>) {
    out.clear();
    let mut open: Option<usize> = None;
    for (i, &s) in sums.iter().enumerate() {
        match (open, s > thr) {
            (None, true) => open = Some(i),
            (Some(st), false) => {
                out.push((st, i));
                open = None;
            }
            _ => {}
        }
    }
    if let Some(st) = open {
        out.push((st, sums.len()));
    }
}

/// Advances the run state machine by one window: an above window opens
/// a run, a below one closes the open run at `i`.
fn step_run(open: &mut Option<usize>, above: bool, i: usize, out: &mut Vec<(usize, usize)>) {
    match (*open, above) {
        (None, true) => *open = Some(i),
        (Some(s), false) => {
            out.push((s, i));
            *open = None;
        }
        _ => {}
    }
}

/// Windows per classified chunk of [`RunKernel::above_runs`].
const CHUNK: usize = 64;

/// SIFT's run kernel for one `(threshold, window)` configuration:
/// [`Self::above_runs`] returns exactly
/// `above_runs_ref(window_sums_ref(x, w), threshold · w)`, summing only
/// the windows whose samples straddle the threshold.
///
/// A sample is *above* when `f64::from(s) > threshold`. The kernel tests
/// that in f32, against `threshold` rounded **down** to f32: no f32 lies
/// strictly between that floor and `threshold`, so `s > floor` exactly
/// when `f64::from(s) > threshold`, for every `threshold` (NaN samples
/// and NaN thresholds are never above). Two shortcuts then decide a
/// window without summing it, each only when [`Self::new`] has proven it
/// exact for the configuration (DESIGN.md §12.2):
///
/// * **all below**: a sample that is not above is at most the floor, so
///   `w` such samples sum to at most `w` copies of the floor summed the
///   same way (rounding is monotone; a NaN sum is not above anything),
///   and the window is below when that sum is at most `threshold · w`.
///   For any window under 2^29 samples the copies sum exactly to at
///   most `threshold · w`, so this fails only for a NaN threshold;
/// * **all above**: `w` samples all above are each at least the next f32
///   above `threshold`, so the window is above when `w` copies of that
///   f32 sum to more than `threshold · w`.
///
/// A chunk of up to 64 windows whose samples are all below
/// yields no run, one whose samples are all above yields one run, and in
/// a mixed chunk the same two tests run per window on a sliding count of
/// above samples. Every window left over is summed by the same
/// left-to-right chain as [`window_sums_ref`].
#[derive(Debug, Clone, Copy)]
pub struct RunKernel {
    window: usize,
    /// `threshold · window`, the run threshold on window sums.
    run_threshold: f64,
    /// `threshold` rounded down to f32.
    floor: f32,
    /// Whether a window with no sample above the threshold is below it.
    below_exact: bool,
    /// Whether a window whose samples are all above the threshold is
    /// above it.
    above_exact: bool,
}

impl RunKernel {
    /// The kernel for moving windows of `window` samples against the
    /// per-sample `threshold`, with both shortcut bounds checked.
    pub fn new(threshold: f64, window: usize) -> Self {
        let floor = floor_f32(threshold);
        let run_threshold = threshold * count_f64(window);
        let repeated = |x: f64| window_sum_of_copies(x, window);
        Self {
            window,
            run_threshold,
            floor,
            below_exact: repeated(f64::from(floor)) <= run_threshold,
            above_exact: repeated(f64::from(floor.next_up())) > run_threshold,
        }
    }

    /// Whether a window with no sample above the threshold is always
    /// below it, so all-below chunks (and quiet blocks) need no sums.
    pub fn below_is_exact(&self) -> bool {
        self.below_exact
    }

    /// Whether a window whose samples are all above the threshold is
    /// always above it, so all-above chunks need no sums.
    pub fn above_is_exact(&self) -> bool {
        self.above_exact
    }

    /// Whether any sample has `f64::from(s) > threshold`, by the kernel's
    /// f32 chunk classifier; exits at the first chunk with a hit.
    pub fn any_above(&self, samples: &[f32]) -> bool {
        samples.chunks(CHUNK).any(|c| self.classify(c).0)
    }

    /// Whether any sample of `span` is above the threshold, and whether
    /// all are. Branch-free over the span, so it vectorizes.
    fn classify(&self, span: &[f32]) -> (bool, bool) {
        let (mut any, mut all) = (false, true);
        for &s in span {
            let above = s > self.floor;
            any |= above;
            all &= above;
        }
        (any, all)
    }

    /// Appends every maximal run `[start, end)` of window indices whose
    /// window sum exceeds `threshold · window` to `out` (cleared first),
    /// exactly as `above_runs_ref` over `window_sums_ref`: a run still
    /// open at the last window ends at the window count, and a trace
    /// shorter than the window (or a zero window) has no windows.
    pub fn above_runs(&self, samples: &[f32], out: &mut Vec<(usize, usize)>) {
        out.clear();
        let w = self.window;
        if w == 0 || samples.len() < w {
            return;
        }
        let n = samples.len() - w + 1;
        let mut open: Option<usize> = None;
        let mut c = 0;
        while c < n {
            let m = CHUNK.min(n - c);
            match self.classify(&samples[c..c + m + w - 1]) {
                (false, _) if self.below_exact => step_run(&mut open, false, c, out),
                (_, true) if self.above_exact => step_run(&mut open, true, c, out),
                _ => self.mixed_chunk(samples, c, m, &mut open, out),
            }
            c += m;
        }
        if let Some(s) = open {
            out.push((s, n));
        }
    }

    /// Windows `c..c + m` one at a time: a sliding count of above
    /// samples decides all-below and all-above windows, and the rest are
    /// summed.
    fn mixed_chunk(
        &self,
        samples: &[f32],
        c: usize,
        m: usize,
        open: &mut Option<usize>,
        out: &mut Vec<(usize, usize)>,
    ) {
        let w = self.window;
        let above = |s: f32| usize::from(s > self.floor);
        let mut count: usize = samples[c..c + w - 1].iter().map(|&s| above(s)).sum();
        for i in c..c + m {
            count += above(samples[i + w - 1]);
            let up = if count == 0 && self.below_exact {
                false
            } else if count == w && self.above_exact {
                true
            } else {
                window_sum(&samples[i..i + w]) > self.run_threshold
            };
            step_run(open, up, i, out);
            count -= above(samples[i]);
        }
    }
}

/// `w` copies of `x` summed as [`window_sum`] sums a window.
fn window_sum_of_copies(x: f64, w: usize) -> f64 {
    let mut a = 0f64;
    for _ in 0..w {
        a += x;
    }
    a
}

/// The largest f32 at most `x` (NaN for NaN).
fn floor_f32(x: f64) -> f32 {
    let q = quantize(x);
    if f64::from(q) > x {
        q.next_down()
    } else {
        q
    }
}

/// Burst-edge refinement: index of the **last** sample with
/// `f64::from(samples[i]) > thr`, scanning backward in lane-width
/// chunks. SIFT calls this on the interior of a closing burst, where
/// the answer is almost always within the trailing few samples, so the
/// reverse scan is O(1) amortized.
pub fn rlast_above(samples: &[f32], thr: f64) -> Option<usize> {
    let mut i = samples.len();
    while i >= LANES {
        let base = i - LANES;
        let mut any = false;
        let mut a = [false; LANES];
        for (l, flag) in a.iter_mut().enumerate() {
            *flag = f64::from(samples[base + l]) > thr;
            any |= *flag;
        }
        if any {
            for l in (0..LANES).rev() {
                if a[l] {
                    return Some(base + l);
                }
            }
        }
        i = base;
    }
    while i > 0 {
        i -= 1;
        if f64::from(samples[i]) > thr {
            return Some(i);
        }
    }
    None
}

/// Scalar reference for [`rlast_above`].
pub fn rlast_above_ref(samples: &[f32], thr: f64) -> Option<usize> {
    samples.iter().rposition(|&s| f64::from(s) > thr)
}

/// Whether any sample has `f64::from(s) > thr`: the specification of
/// [`RunKernel::any_above`].
pub fn any_above_ref(samples: &[f32], thr: f64) -> bool {
    samples.iter().any(|&s| f64::from(s) > thr)
}

/// `2^-24`: the weight of one step of a 24-bit uniform.
const U24: f64 = 1.0 / 16_777_216.0;

/// The top 24 bits of a ChaCha word as a uniform on `[0, 1)`, in steps
/// of `2^-24` (exact: a 24-bit integer fits an f64 mantissa).
fn unit24(word: u32) -> f64 {
    f64::from(word >> 8) * U24
}

/// Ripple synthesis: `seg[i] += amp · (lo + (hi − lo)·u)`, with `u` the
/// 24-bit uniform of one `next_u32` per sample, drawn in sample order (no
/// draws at all when `lo == hi` — the ideal ripple-free synthesizer must
/// consume no randomness). 24 bits match the f32 output: a ripple step
/// at amplitude 1000 is 5.4e-5, below one f32 ulp (6.1e-5). `seg` is the
/// slice of the f64 mixing scratch covered by one burst within one
/// block; the caller splits the 5 MHz low-amplitude head from the body
/// by calling this twice with different `amp`.
pub fn accumulate_ripple<R: Rng + ?Sized>(
    seg: &mut [f64],
    amp: f64,
    lo: f64,
    hi: f64,
    rng: &mut R,
) {
    if lo == hi {
        let add = amp * lo;
        let mut chunks = seg.chunks_exact_mut(LANES);
        for c in &mut chunks {
            for s in c {
                *s += add;
            }
        }
        for s in chunks.into_remainder() {
            *s += add;
        }
        return;
    }
    let span = hi - lo;
    let mut chunks = seg.chunks_exact_mut(LANES);
    for c in &mut chunks {
        let mut w = [0u32; LANES];
        for v in &mut w {
            *v = rng.next_u32();
        }
        for (s, word) in c.iter_mut().zip(w) {
            *s += amp * (lo + span * unit24(word));
        }
    }
    for s in chunks.into_remainder() {
        *s += amp * (lo + span * unit24(rng.next_u32()));
    }
}

/// Scalar reference for [`accumulate_ripple`] — same draws, same order,
/// same per-element expression.
pub fn accumulate_ripple_ref<R: Rng + ?Sized>(
    seg: &mut [f64],
    amp: f64,
    lo: f64,
    hi: f64,
    rng: &mut R,
) {
    for s in seg {
        let ripple = if lo == hi {
            lo
        } else {
            lo + (hi - lo) * unit24(rng.next_u32())
        };
        *s += amp * ripple;
    }
}

/// Layers of the half-normal ziggurat.
const ZIG_LAYERS: usize = 256;

/// Right edge of the base layer, where the tail begins: the published
/// constant 3.6541528853610088 of the 256-layer normal ziggurat
/// (Marsaglia & Tsang, "The Ziggurat Method for Generating Random
/// Variables", JSS 2000), written with the fewest digits that give the
/// same f64.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// The half-normal density up to its constant factor, `exp(−x²/2)`.
fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// `∫_r^∞ exp(−t²/2) dt` for `r ≥ 0`. From `r = 1.5` up, by the Laplace
/// continued fraction `f(r) / (r + 1/(r + 2/(r + 3/(r + …))))`,
/// evaluated bottom-up; 200 terms reach full f64 precision there (at
/// `r = ZIG_R` and at the sparse sampler's `r = 150/σ = 5`). Below
/// 1.5, where the fraction converges too slowly, as `√(π/2)` minus the
/// Maclaurin series of `∫_0^r`, whose terms are at most `r` there, so
/// cancellation costs less than one digit.
fn tail_area(r: f64) -> f64 {
    if r < 1.5 {
        let (mut term, mut head) = (r, 0.0);
        for n in 0..60u32 {
            head += term / f64::from(2 * n + 1);
            term *= -r * r / f64::from(2 * n + 2);
        }
        return (std::f64::consts::PI / 2.0).sqrt() - head;
    }
    let mut t = 0.0;
    for k in (1..=200u32).rev() {
        t = f64::from(k) / (r + t);
    }
    density(r) / (r + t)
}

/// The layer tables of a 256-layer Marsaglia–Tsang ziggurat covering the
/// half-normal density `exp(−x²/2)` on `x ≥ 0`. Every layer has the same
/// area `v`: layer `i` is the box `[0, x[i]) × [f(x[i]), f(x[i+1])]`, and
/// layer 0 is the box `[0, r) × [0, f(r)]` plus the tail beyond `r`,
/// stretched to the virtual width `x[0] = v / f(r)`.
struct Ziggurat {
    /// Layer edges: `x[0] = v / f(r)`, `x[1] = r`, decreasing to
    /// `x[256] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// `f[i] = exp(−x[i]²/2)`, increasing to `f[256] = 1`.
    f: [f64; ZIG_LAYERS + 1],
}

impl Ziggurat {
    /// The common layer area `v`. The published `v = 4.92867323399e-3`
    /// has 12 significant digits, too few to close the top layer (its
    /// area would be off by ~1e-9), so `v` comes from `r` through the
    /// base layer's own equation `v = r·f(r) + ∫_r^∞ f`; every layer's
    /// area then equals `v` to ~1e-13 relative.
    fn area() -> f64 {
        ZIG_R * density(ZIG_R) + tail_area(ZIG_R)
    }

    /// Builds the tables from the published recurrence
    /// `x[i+1] = sqrt(−2 ln(v / x[i] + f(x[i])))`, starting at `x[1] = r`.
    fn new() -> Self {
        let v = Self::area();
        let mut x = [0f64; ZIG_LAYERS + 1];
        x[0] = v / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..ZIG_LAYERS - 1 {
            x[i + 1] = (-2.0 * (v / x[i] + density(x[i])).ln()).sqrt();
        }
        Self {
            x,
            f: x.map(density),
        }
    }

    /// One half-normal draw. The fast path reads one `next_u32`: the low
    /// byte picks the layer and the high 24 bits place the point inside
    /// it. Points outside the layer's inner rectangle take the exact
    /// slow path ([`Self::edge`]), which may draw more.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let (i, x) = self.point(rng.next_u32());
            if x < self.x[i + 1] {
                return x;
            }
            if let Some(x) = self.edge(i, x, rng) {
                return x;
            }
        }
    }

    /// The layer and abscissa a 32-bit word selects.
    fn point(&self, word: u32) -> (usize, f64) {
        let [layer, ..] = word.to_le_bytes();
        let i = usize::from(layer);
        (i, unit24(word) * self.x[i])
    }

    /// The slow path for a point `x` of layer `i` beyond the inner
    /// rectangle. In the base layer that point stands for the tail:
    /// Marsaglia's exact tail sampler returns `r + a` with `a = −ln(U₁)/r`,
    /// accepted when `−2 ln(U₂) ≥ a²`. Elsewhere it is the wedge test: a
    /// uniform height in the layer accepts `x` when it falls under the
    /// density; `None` rejects the point, and the caller draws a new word.
    #[cold]
    #[inline(never)]
    fn edge<R: Rng + ?Sized>(&self, i: usize, x: f64, rng: &mut R) -> Option<f64> {
        if i == 0 {
            return Some(tail(ZIG_R, rng));
        }
        let y = self.f[i] + rng.gen::<f64>() * (self.f[i + 1] - self.f[i]);
        (y < density(x)).then_some(x)
    }
}

/// Marsaglia's exact tail sampler: a half-normal draw conditioned on
/// exceeding `r > 0`, as `r + a` with `a = −ln(U₁)/r`, accepted when
/// `−2 ln(U₂) ≥ a²`. Exact for every `r`; it accepts 96 % of proposals
/// at `r = 5` and 94 % at the ziggurat's `r = ZIG_R`.
fn tail<R: Rng + ?Sized>(r: f64, rng: &mut R) -> f64 {
    loop {
        let a = -open_unit(rng).ln() / r;
        let b = -open_unit(rng).ln();
        if b + b >= a * a {
            return r + a;
        }
    }
}

/// A uniform on `(0, 1]`, so its logarithm is finite.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    1.0 - rng.gen::<f64>()
}

/// The ziggurat tables, built once per process.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::new);

/// One draw of the half-normal `|N(0,1)|`, exact in distribution at the
/// 24-bit resolution of its fast path. Usually one `next_u32`; the wedge
/// and tail paths (about 1.5 % of draws) read more, always in order.
pub(crate) fn half_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ZIGGURAT.sample(rng)
}

/// One draw of the standard normal `N(0,1)`: a [`half_normal`] draw,
/// then one `next_u32` whose top bit is the sign.
pub(crate) fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let m = half_normal(rng);
    if rng.gen::<bool>() {
        -m
    } else {
        m
    }
}

/// AWGN quantization: appends `(acc[i] + |N(0,1)·σ|) as f32` for every
/// mixed sample — or no draws at all when `σ == 0`, matching
/// [`crate::attenuation::NoiseModel::sample`]'s draw-free noiseless
/// path. Each sample takes one `half_normal` draw, in sample order and
/// with nothing left over, so a capture split into blocks at any sample
/// boundary draws exactly what the whole buffer draws. `out` is appended
/// to, not cleared: successive blocks land in one caller buffer.
pub fn add_noise<R: Rng + ?Sized>(acc: &[f64], sigma: f64, out: &mut Vec<f32>, rng: &mut R) {
    out.reserve(acc.len());
    if sigma == 0.0 {
        let mut chunks = acc.chunks_exact(LANES);
        for c in &mut chunks {
            for &s in c {
                out.push(quantize(s));
            }
        }
        for &s in chunks.remainder() {
            out.push(quantize(s));
        }
        return;
    }
    let zig = &*ZIGGURAT;
    let mut chunks = acc.chunks_exact(LANES);
    for c in &mut chunks {
        let mut g = [0f64; LANES];
        for v in &mut g {
            *v = zig.sample(rng);
        }
        let mut q = [0f32; LANES];
        for (o, (s, z)) in q.iter_mut().zip(c.iter().zip(g)) {
            *o = quantize(s + (z * sigma).abs());
        }
        out.extend_from_slice(&q);
    }
    for &s in chunks.remainder() {
        out.push(quantize(s + (zig.sample(rng) * sigma).abs()));
    }
}

/// Scalar reference for [`add_noise`] — same draws, same order, same
/// per-element expression.
pub fn add_noise_ref<R: Rng + ?Sized>(acc: &[f64], sigma: f64, out: &mut Vec<f32>, rng: &mut R) {
    for &s in acc {
        if sigma == 0.0 {
            out.push(quantize(s));
        } else {
            out.push(quantize(s + (half_normal(rng) * sigma).abs()));
        }
    }
}

/// Receiver noise `|N(0,1)·σ|` split at a visibility bound: the three
/// laws the sparse capture synthesizer draws noise-only samples from
/// (`crate::synth`, DESIGN.md §12.4). With `r = bound / σ`, a sample is
/// above the bound with probability `p = P(|Z| > r) = √(2/π)·∫_r^∞
/// exp(−t²/2) dt` (about 5.73e-7 at bound 150 and σ = 30), so
///
/// * [`Self::gap`] draws how many samples pass before the next one above
///   the bound (geometric);
/// * [`Self::above`] draws that sample from the tail law beyond `r`;
/// * [`Self::below`] draws any other sample from the law truncated at
///   or below `r`.
///
/// A mixture of the three is the `half_normal` law to within its
/// 24-bit resolution: the tail beyond `ZIG_R` is exact in both, and the
/// truncated law is the ziggurat's own, by rejection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitNoise {
    sigma: f64,
    /// The bound in σ units, `r = bound / σ`.
    r: f64,
    /// `ln(1 − p)`.
    ln_stay: f64,
}

/// `2^53`: gaps at least this long are never reached, and every smaller
/// whole f64 converts to `usize` exactly.
const GAP_CAP: f64 = 9_007_199_254_740_992.0;

impl SplitNoise {
    /// The split of `|N(0,1)·σ|` at `bound`; `None` when `σ == 0`, which
    /// draws no noise at all.
    pub fn new(sigma: f64, bound: f64) -> Option<Self> {
        if sigma == 0.0 {
            return None;
        }
        let r = bound / sigma.abs();
        let p = (2.0 / std::f64::consts::PI).sqrt() * tail_area(r);
        Some(Self {
            sigma,
            r,
            ln_stay: (-p).ln_1p(),
        })
    }

    /// `P(|N(0,1)·σ| > bound)`.
    #[cfg(test)]
    fn p(&self) -> f64 {
        -(self.ln_stay.exp_m1())
    }

    /// The number of samples before the next one above the bound: the
    /// failures before the first success of Bernoulli(`p`) trials, by
    /// inversion, `⌊ln U / ln(1 − p)⌋` for `U` uniform on `(0, 1]`, so
    /// `P(gap ≥ k) = (1 − p)^k`. One `f64` draw; `usize::MAX` (never)
    /// when `p` underflows to 0.
    pub fn gap<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let g = (open_unit(rng).ln() / self.ln_stay).floor();
        if g < GAP_CAP {
            // `g` is a whole number in [0, 2^53): exact as usize.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            // lint:allow(cast, g is a whole number in [0, 2^53), converted exactly)
            let gap = g as usize;
            gap
        } else {
            usize::MAX
        }
    }

    /// `|Z|` conditioned on `|Z| > r`.
    fn above_z<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        tail(self.r, rng)
    }

    /// `|Z|` conditioned on `|Z| ≤ r`: ziggurat draws, redrawn while
    /// above `r` (probability `p` per draw).
    fn below_z<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let z = ZIGGURAT.sample(rng);
            if z <= self.r {
                return z;
            }
        }
    }

    /// A noise-only sample above the bound, quantized as [`add_noise`]
    /// quantizes a sample with nothing accumulated.
    pub fn above<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        quantize((self.above_z(rng) * self.sigma).abs())
    }

    /// A noise-only sample at or below the bound, quantized likewise
    /// (never above `bound` as an f32).
    pub fn below<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        quantize((self.below_z(rng) * self.sigma).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Sizes that cover every lane-remainder class plus degenerate and
    /// realistic lengths.
    const SIZES: [usize; 10] = [0, 1, 3, 4, 5, 7, 8, 33, 100, 1023];

    fn trace(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                // Mix of sub- and supra-threshold values, including
                // negatives and near-threshold ulp fodder.
                let base: f64 = rng.gen_range(-50.0..400.0);
                quantize(base)
            })
            .collect()
    }

    fn assert_f64_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "index {i}: {x} vs {y}");
        }
    }

    fn assert_f32_bits_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "index {i}: {x} vs {y}");
        }
    }

    /// The run kernel's specification: the window sums compared against
    /// `thr · w`, run by run.
    fn runs_ref(s: &[f32], thr: f64, w: usize) -> Vec<(usize, usize)> {
        let (mut sums, mut runs) = (Vec::new(), Vec::new());
        window_sums_ref(s, w, &mut sums);
        above_runs_ref(&sums, thr * w as f64, &mut runs);
        runs
    }

    fn runs(s: &[f32], thr: f64, w: usize) -> Vec<(usize, usize)> {
        let mut out = vec![(7, 7)];
        RunKernel::new(thr, w).above_runs(s, &mut out);
        out
    }

    #[test]
    fn above_runs_matches_reference_at_every_window() {
        for (k, &n) in SIZES.iter().enumerate() {
            for w in [1usize, 2, 5, 7] {
                let s = trace(n, 10 + k as u64);
                let got = runs(&s, 150.0, w);
                assert_eq!(got, runs_ref(&s, 150.0, w), "n {n} w {w}");
                // Runs lie inside the window range.
                let n_windows = (n + 1).saturating_sub(w);
                assert!(
                    got.iter().all(|&(a, b)| a < b && b <= n_windows),
                    "n {n} w {w}"
                );
            }
        }
    }

    #[test]
    fn above_runs_zero_window_is_empty() {
        let mut out = vec![(1, 2)];
        RunKernel::new(0.0, 0).above_runs(&[1.0, 2.0], &mut out);
        assert!(out.is_empty());
        let mut sums = vec![1.0];
        window_sums_ref(&[1.0, 2.0], 0, &mut sums);
        assert!(sums.is_empty());
    }

    #[test]
    fn above_runs_matches_reference() {
        for (k, &n) in SIZES.iter().enumerate() {
            let s = trace(n, 40 + k as u64);
            for thr in [-100.0, 0.0, 150.0, 1e9, f64::NAN] {
                assert_eq!(runs(&s, thr, 1), runs_ref(&s, thr, 1), "n {n} thr {thr}");
            }
        }
    }

    #[test]
    fn above_runs_reports_open_tail_run() {
        assert_eq!(runs(&[0.0, 5.0, 5.0], 1.0, 1), vec![(1, 3)]);
    }

    #[test]
    fn exactness_bounds_hold_for_the_default_config() {
        let k = RunKernel::new(150.0, 5);
        assert!(k.below_is_exact() && k.above_is_exact());
        // 150 is an f32, so it is its own floor; the next f32 above it,
        // 150 + 2^-16, sums five times to 750 + 5·2^-16 > 750.
        assert_eq!(k.floor, 150.0);
        assert_eq!(f64::from(k.floor.next_up()), 150.0 + 2f64.powi(-16));
    }

    /// `w` copies of the f32 floor sum exactly in f64 to at most
    /// `thr · w`, so the all-below bound fails only for a NaN threshold.
    #[test]
    fn all_below_bound_fails_only_for_nan() {
        let just_below = f64::from(150.1f32).next_down();
        for thr in [
            150.1,
            0.1,
            -0.1,
            1e-50,
            just_below,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            for w in [1, 2, 5, 6, 64, 1000] {
                assert!(RunKernel::new(thr, w).below_is_exact(), "thr {thr} w {w}");
            }
        }
        assert!(!RunKernel::new(f64::NAN, 5).below_is_exact());
    }

    #[test]
    fn the_floor_is_the_largest_f32_at_most_the_threshold() {
        let just_below = f64::from(150.1f32).next_down();
        for thr in [
            150.0, 150.1, 0.1, -0.1, 1e-50, -1e-50, just_below, 1e300, -1e300,
        ] {
            let f = floor_f32(thr);
            assert!(
                f64::from(f) <= thr && f64::from(f.next_up()) > thr,
                "thr {thr}: {f}"
            );
        }
        // Round to nearest would pick 150.1f32 here, one f64 ulp above.
        assert_eq!(floor_f32(just_below), 150.1f32.next_down());
        assert!(floor_f32(f64::NAN).is_nan());
        assert_eq!(floor_f32(f64::INFINITY), f32::INFINITY);
        assert_eq!(floor_f32(f64::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn rlast_above_matches_reference() {
        for (k, &n) in SIZES.iter().enumerate() {
            let s = trace(n, 70 + k as u64);
            for thr in [-100.0, 150.0, 1e9] {
                assert_eq!(
                    rlast_above(&s, thr),
                    rlast_above_ref(&s, thr),
                    "n {n} thr {thr}"
                );
            }
        }
    }

    #[test]
    fn any_above_matches_reference() {
        for (k, &n) in SIZES.iter().enumerate() {
            let mut s = trace(n, 90 + k as u64);
            for thr in [-100.0, 150.0, 399.0, 1e9, f64::NAN] {
                assert_eq!(
                    RunKernel::new(thr, 5).any_above(&s),
                    any_above_ref(&s, thr),
                    "n {n} thr {thr}"
                );
            }
            // One supra-threshold sample at every position of a quiet
            // trace, so every lane and remainder slot is the only hit.
            let kernel = RunKernel::new(150.0, 5);
            s.iter_mut().for_each(|x| *x = x.min(150.0));
            assert!(!kernel.any_above(&s), "n {n}");
            for i in 0..n {
                let mut t = s.clone();
                t[i] = 150.01;
                assert!(kernel.any_above(&t), "n {n} at {i}");
                t[i] = f32::NAN;
                assert!(!kernel.any_above(&t), "n {n} NaN at {i}");
            }
        }
    }

    #[test]
    fn accumulate_ripple_matches_reference_bitwise() {
        for (k, &n) in SIZES.iter().enumerate() {
            for (lo, hi) in [(0.55, 1.45), (1.0, 1.0)] {
                let mut a = vec![7.5f64; n];
                let mut b = a.clone();
                let mut ra = ChaCha8Rng::seed_from_u64(100 + k as u64);
                let mut rb = ra.clone();
                accumulate_ripple(&mut a, 321.0, lo, hi, &mut ra);
                accumulate_ripple_ref(&mut b, 321.0, lo, hi, &mut rb);
                assert_f64_bits_eq(&a, &b);
                // Identical draw counts: the streams stay in lockstep.
                assert_eq!(ra.gen::<u64>(), rb.gen::<u64>());
            }
        }
    }

    #[test]
    fn ideal_ripple_consumes_no_randomness() {
        let mut seg = vec![0f64; 9];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let before = rng.clone().gen::<u64>();
        accumulate_ripple(&mut seg, 2.0, 1.0, 1.0, &mut rng);
        assert_eq!(rng.gen::<u64>(), before);
        assert!(seg.iter().all(|&s| s == 2.0));
    }

    #[test]
    fn add_noise_matches_reference_bitwise() {
        for (k, &n) in SIZES.iter().enumerate() {
            for sigma in [0.0, 30.0] {
                let acc: Vec<f64> = trace(n, 200 + k as u64)
                    .iter()
                    .map(|&s| f64::from(s))
                    .collect();
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let mut ra = ChaCha8Rng::seed_from_u64(300 + k as u64);
                let mut rb = ra.clone();
                add_noise(&acc, sigma, &mut a, &mut ra);
                add_noise_ref(&acc, sigma, &mut b, &mut rb);
                assert_f32_bits_eq(&a, &b);
                assert_eq!(ra.gen::<u64>(), rb.gen::<u64>());
            }
        }
    }

    /// Draws `n` half-normals and returns, for each, the value and the
    /// number of ChaCha words it consumed.
    fn draws_with_words(n: usize, seed: u64) -> Vec<(f64, u128)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let before = rng.get_word_pos();
                let x = half_normal(&mut rng);
                (x, rng.get_word_pos() - before)
            })
            .collect()
    }

    #[test]
    fn add_noise_chunking_is_invisible() {
        let n = 20_000;
        let acc: Vec<f64> = trace(n, 9).iter().map(|&s| f64::from(s)).collect();
        let mut whole = Vec::new();
        add_noise(&acc, 30.0, &mut whole, &mut ChaCha8Rng::seed_from_u64(11));
        // Samples whose draw left the fast path: one landing in the tail
        // (value beyond r) and one whose wedge test rejected a point
        // (more than the three words of a single wedge test).
        let draws = draws_with_words(n, 11);
        let tail = draws.iter().position(|&(x, _)| x > ZIG_R);
        let wedge_reject = draws.iter().position(|&(x, w)| x < ZIG_R && w > 3);
        let (Some(tail), Some(wedge_reject)) = (tail, wedge_reject) else {
            panic!("fixture must hit both slow paths: tail {tail:?} wedge {wedge_reject:?}");
        };
        // Block boundaries right before and right after each slow draw,
        // then uniform chunkings down to 1-sample blocks.
        let mut cuts: Vec<Vec<usize>> = [tail, tail + 1, wedge_reject, wedge_reject + 1]
            .iter()
            .map(|&c| vec![c, n - c])
            .collect();
        for chunk in [1usize, 2, 3, 7, 64, 2048] {
            cuts.push(vec![chunk; n.div_ceil(chunk)]);
        }
        for sizes in cuts {
            let mut split = Vec::new();
            let mut rs = ChaCha8Rng::seed_from_u64(11);
            let mut at = 0;
            for len in sizes {
                let end = (at + len).min(n);
                add_noise(&acc[at..end], 30.0, &mut split, &mut rs);
                at = end;
            }
            assert_f32_bits_eq(&whole, &split);
        }
    }

    #[test]
    fn add_noise_sigma_zero_draws_nothing() {
        let mut out = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let before = rng.clone().gen::<u64>();
        add_noise(&[2.0, 3.0], 0.0, &mut out, &mut rng);
        assert_eq!(rng.gen::<u64>(), before);
    }

    #[test]
    fn add_noise_appends_rather_than_clears() {
        let mut out = vec![1.0f32];
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        add_noise(&[2.0], 0.0, &mut out, &mut rng);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    /// `∫_a^b exp(−x²/2) dx` by composite Simpson over `n` (even)
    /// intervals, independent of the ziggurat's tables.
    fn simpson(a: f64, b: f64, n: usize) -> f64 {
        let h = (b - a) / n as f64;
        let mut sum = density(a) + density(b);
        for k in 1..n {
            let w = if k % 2 == 1 { 4.0 } else { 2.0 };
            sum += w * density(a + k as f64 * h);
        }
        sum * h / 3.0
    }

    /// `P(|N(0,1)| > a)`: the half-normal upper tail, by Simpson.
    fn half_normal_sf(a: f64) -> f64 {
        simpson(a, a + 20.0, 20_000) * (2.0 / std::f64::consts::PI).sqrt()
    }

    /// Asserts an observed count of `hits` in `n` trials lies within five
    /// binomial standard deviations of probability `p`.
    fn assert_binomial(what: &str, hits: u64, n: u64, p: f64) {
        let (n, hits) = (n as f64, hits as f64);
        let sd = (n * p * (1.0 - p)).sqrt();
        assert!(
            (hits - n * p).abs() <= 5.0 * sd,
            "{what}: {hits} of {n}, expected {} ± 5·{sd}",
            n * p
        );
    }

    #[test]
    fn half_normal_moments() {
        let n = 1_000_000;
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let (mut m1, mut m2, mut m4) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let x = half_normal(&mut rng);
            assert!(x >= 0.0 && x.is_finite(), "draw {x}");
            m1 += x;
            m2 += x * x;
            m4 += x * x * x * x;
        }
        let n = n as f64;
        let (m1, m2, m4) = (m1 / n, m2 / n, m4 / n);
        // Five standard errors: sd(x) = sqrt(1 − 2/π), sd(x²) = √2,
        // sd(x⁴) = √96.
        let mean = (2.0 / std::f64::consts::PI).sqrt();
        assert!(
            (m1 - mean).abs() < 5.0 * (1.0 - mean * mean).sqrt() / n.sqrt(),
            "E[x] {m1}"
        );
        assert!(
            (m2 - 1.0).abs() < 5.0 * 2f64.sqrt() / n.sqrt(),
            "E[x²] {m2}"
        );
        assert!(
            (m4 - 3.0).abs() < 5.0 * 96f64.sqrt() / n.sqrt(),
            "E[x⁴] {m4}"
        );
    }

    #[test]
    fn normal_is_a_signed_half_normal() {
        let n = 100_000;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut lockstep = rng.clone();
        let (mut sum, mut negative) = (0.0, 0u32);
        for _ in 0..n {
            let z = normal(&mut rng);
            // Same magnitude as a half-normal draw, then one sign word.
            let m = half_normal(&mut lockstep);
            let sign_word = lockstep.next_u32();
            assert_eq!(z.abs().to_bits(), m.to_bits());
            assert_eq!(z < 0.0, sign_word >> 31 == 1, "draw {z}");
            sum += z;
            negative += u32::from(z < 0.0);
        }
        // Five standard errors: sd(z) = 1, sd(sign) = 1/2.
        let n = f64::from(n);
        assert!((sum / n).abs() < 5.0 / n.sqrt(), "E[z] {}", sum / n);
        let frac = f64::from(negative) / n;
        assert!((frac - 0.5).abs() < 5.0 * 0.5 / n.sqrt(), "P(z < 0) {frac}");
    }

    #[test]
    fn half_normal_tail_probabilities_match_cdf() {
        let n = 1_000_000u64;
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let (mut above3, mut above_r) = (0u64, 0u64);
        for _ in 0..n {
            let x = half_normal(&mut rng);
            above3 += u64::from(x > 3.0);
            above_r += u64::from(x > ZIG_R);
        }
        assert_binomial("P(x > 3)", above3, n, half_normal_sf(3.0));
        assert_binomial("P(x > r)", above_r, n, half_normal_sf(ZIG_R));
    }

    #[test]
    fn wedge_and_tail_paths_fire_at_expected_rates() {
        let (zig, v) = (&*ZIGGURAT, Ziggurat::area());
        let n = 1_000_000;
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut lockstep = rng.clone();
        let (mut attempts, mut tails, mut wedges, mut rejects) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..n {
            // `Ziggurat::sample`, unrolled to count its paths.
            let x = loop {
                attempts += 1;
                let (i, x) = zig.point(rng.next_u32());
                if x < zig.x[i + 1] {
                    break x;
                }
                if i == 0 {
                    tails += 1;
                } else {
                    wedges += 1;
                }
                match zig.edge(i, x, &mut rng) {
                    Some(x) => break x,
                    None => rejects += 1,
                }
            };
            assert_eq!(x.to_bits(), half_normal(&mut lockstep).to_bits());
        }
        let layers = ZIG_LAYERS as f64;
        // A word lands in the tail strip with the tail's share of the
        // ziggurat's area, and a wedge test rejects with the share of
        // the ziggurat that lies above the density; both follow from r
        // and v alone.
        let tail = simpson(ZIG_R, ZIG_R + 20.0, 20_000);
        assert_binomial("tail", tails, attempts, tail / (layers * v));
        let above = 1.0 - (std::f64::consts::PI / 2.0).sqrt() / (layers * v);
        assert_binomial("wedge rejections", rejects, attempts, above);
        // A word leaves layer i's inner rectangle with probability
        // 1 − x[i+1]/x[i] (always, in the top layer).
        let wedge: f64 = (1..ZIG_LAYERS)
            .map(|i| 1.0 - zig.x[i + 1] / zig.x[i])
            .sum::<f64>()
            / layers;
        assert_binomial("wedge", wedges, attempts, wedge);
    }

    /// `∫_0^r exp(−x²/2) dx`, by Simpson.
    fn head_area(r: f64) -> f64 {
        simpson(0.0, r, 20_000)
    }

    /// Asserts the sample mean of `xs` lies within five standard errors
    /// of `mean`, for a law of standard deviation `sd`.
    fn assert_mean(what: &str, xs: &[f64], mean: f64, sd: f64) {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        assert!(
            (m - mean).abs() <= 5.0 * sd / n.sqrt(),
            "{what}: mean {m}, expected {mean} ± 5·{sd}/√{n}"
        );
    }

    #[test]
    fn split_noise_rate_is_the_half_normal_tail() {
        // r = 5, 3.33, 2.5, 1.5, 1, 0.5: both branches of `tail_area`.
        for sigma in [30.0, 45.0, 60.0, 100.0, 150.0, 300.0] {
            let split = SplitNoise::new(sigma, 150.0).unwrap();
            let exact = half_normal_sf(150.0 / sigma);
            assert!(
                (split.p() / exact - 1.0).abs() < 1e-9,
                "σ {sigma}: p {} vs {exact}",
                split.p()
            );
        }
        let p = SplitNoise::new(30.0, 150.0).unwrap().p();
        assert!((p / 5.733e-7 - 1.0).abs() < 1e-3, "p {p}");
        assert!(SplitNoise::new(0.0, 150.0).is_none());
        // p underflows to 0 at σ = 1: no sample is ever above 150.
        let silent = SplitNoise::new(1.0, 150.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!((0..100).all(|_| silent.gap(&mut rng) == usize::MAX));
    }

    #[test]
    fn split_noise_gaps_are_geometric() {
        for (sigma, n) in [(60.0, 200_000usize), (30.0, 20_000)] {
            let split = SplitNoise::new(sigma, 150.0).unwrap();
            let p = split.p();
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let gaps: Vec<f64> = (0..n).map(|_| split.gap(&mut rng) as f64).collect();
            // Geometric on {0, 1, …}: mean (1 − p)/p, sd √(1 − p)/p.
            assert_mean(
                &format!("σ {sigma} gap"),
                &gaps,
                (1.0 - p) / p,
                (1.0 - p).sqrt() / p,
            );
            // P(gap = 0) = p and P(gap ≥ k) = (1 − p)^k.
            let k = (0.5 / p).round();
            let zero = gaps.iter().filter(|&&g| g == 0.0).count() as u64;
            let long = gaps.iter().filter(|&&g| g >= k).count() as u64;
            assert_binomial("gap = 0", zero, n as u64, p);
            assert_binomial("gap ≥ k", long, n as u64, (1.0 - p).powf(k));
        }
    }

    #[test]
    fn split_noise_tail_law() {
        for sigma in [30.0, 60.0] {
            let split = SplitNoise::new(sigma, 150.0).unwrap();
            let r = 150.0 / sigma;
            let n = 200_000u64;
            let mut rng = ChaCha8Rng::seed_from_u64(23);
            let xs: Vec<f64> = (0..n).map(|_| split.above_z(&mut rng)).collect();
            assert!(xs.iter().all(|&x| x > r && x.is_finite()), "σ {sigma}");
            // E[Z | Z > r] = f(r)/T(r), E[Z² | Z > r] = 1 + r·E[Z | Z > r].
            let tail = simpson(r, r + 20.0, 20_000);
            let m = density(r) / tail;
            assert_mean(
                &format!("σ {sigma} tail"),
                &xs,
                m,
                (1.0 + r * m - m * m).sqrt(),
            );
            for d in [0.1, 0.3, 1.0] {
                let hits = xs.iter().filter(|&&x| x > r + d).count() as u64;
                let want = simpson(r + d, r + d + 20.0, 20_000) / tail;
                assert_binomial(&format!("σ {sigma}: P(Z > r + {d})"), hits, n, want);
            }
            // Quantized, the tail is never below the bound.
            let mut rng = ChaCha8Rng::seed_from_u64(24);
            assert!((0..10_000).all(|_| split.above(&mut rng) >= 150.0));
        }
    }

    #[test]
    fn split_noise_truncated_law() {
        for sigma in [30.0, 60.0, 100.0] {
            let split = SplitNoise::new(sigma, 150.0).unwrap();
            let r = 150.0 / sigma;
            let n = 500_000u64;
            let mut rng = ChaCha8Rng::seed_from_u64(29);
            let xs: Vec<f64> = (0..n).map(|_| split.below_z(&mut rng)).collect();
            assert!(xs.iter().all(|&x| (0.0..=r).contains(&x)), "σ {sigma}");
            // E[Z | Z ≤ r] = (1 − f(r))/F(r), E[Z² | Z ≤ r] = 1 − r·f(r)/F(r).
            let head = head_area(r);
            let m = (1.0 - density(r)) / head;
            let m2 = 1.0 - r * density(r) / head;
            assert_mean(&format!("σ {sigma} truncated"), &xs, m, (m2 - m * m).sqrt());
            for a in [0.5, 1.0, 1.4] {
                let hits = xs.iter().filter(|&&x| x > a).count() as u64;
                let want = (head - head_area(a)) / head;
                assert_binomial(&format!("σ {sigma}: P(Z > {a} | Z ≤ r)"), hits, n, want);
            }
            // Quantized, the truncated law never exceeds the bound.
            let mut rng = ChaCha8Rng::seed_from_u64(30);
            assert!((0..100_000).all(|_| split.below(&mut rng) <= 150.0));
        }
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        let (zig, v) = (&*ZIGGURAT, Ziggurat::area());
        assert_eq!(zig.x[1], ZIG_R);
        assert_eq!(zig.x[ZIG_LAYERS], 0.0);
        // The published area, to its 12 significant digits.
        assert!((v / 4.928_673_233_99e-3 - 1.0).abs() < 1e-11, "v {v}");
        let close = |area: f64, what: &str| {
            assert!((area / v - 1.0).abs() < 1e-12, "{what}: {area} vs {v}");
        };
        // Base layer: the rectangle under f(r) plus the tail, integrated
        // here by Simpson rather than the builder's continued fraction.
        close(
            ZIG_R * density(ZIG_R) + simpson(ZIG_R, ZIG_R + 20.0, 20_000),
            "layer 0",
        );
        close(zig.x[0] * zig.f[1], "layer 0 strip");
        for i in 1..ZIG_LAYERS {
            close(zig.x[i] * (zig.f[i + 1] - zig.f[i]), &format!("layer {i}"));
        }
    }
}
