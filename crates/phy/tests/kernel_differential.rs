//! Differential suite: batched lane kernels vs their scalar references,
//! and streaming (block-at-a-time) processing vs whole-buffer processing.
//!
//! Everything here asserts **bit-identical** output (`f32::to_bits` /
//! exact struct equality), not approximate closeness — the lane kernels
//! are only admissible because they reassociate nothing (DESIGN.md §12).

use rand::{Rng, SeedableRng};
use whitefi_phy::attenuation::NoiseModel;
use whitefi_phy::kernels;
use whitefi_phy::synth::{data_ack_exchange, duration_to_samples};
use whitefi_phy::{
    Burst, BurstKind, ChaCha8Rng, RawBurst, Sift, SimDuration, SimTime, StreamingSift, SynthStream,
    Synthesizer, BLOCK_SAMPLES,
};
use whitefi_spectrum::Width;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A pseudo-random trace with burst-like structure: quiet floor with
/// occasional high-amplitude plateaus, so threshold kernels see real
/// edges rather than white noise.
fn structured_trace(len: usize, seed: u64) -> Vec<f32> {
    let mut r = rng(seed);
    let mut out = Vec::with_capacity(len);
    let mut level = 30.0f64;
    for _ in 0..len {
        if r.gen::<f64>() < 0.01 {
            level = if level > 100.0 { 30.0 } else { 900.0 };
        }
        #[allow(clippy::cast_possible_truncation)] // test fixture, range ≪ f32 max
        out.push((level * r.gen_range(0.5..1.5)) as f32);
    }
    out
}

// ---------------------------------------------------------------------
// Kernel-level: batched vs scalar reference, bit for bit.
// ---------------------------------------------------------------------

/// The run kernel's specification: every window's left-to-right sum
/// compared against `thr · w`, run by run.
fn ref_runs(trace: &[f32], thr: f64, w: usize) -> Vec<(usize, usize)> {
    let (mut sums, mut runs) = (Vec::new(), Vec::new());
    kernels::window_sums_ref(trace, w, &mut sums);
    kernels::above_runs_ref(&sums, thr * w as f64, &mut runs);
    runs
}

fn kernel_runs(trace: &[f32], thr: f64, w: usize) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    kernels::RunKernel::new(thr, w).above_runs(trace, &mut runs);
    runs
}

#[test]
fn run_kernel_matches_ref_across_sizes() {
    for &len in &[0usize, 1, 4, 5, 31, 32, 1000, 4097] {
        let trace = structured_trace(len, 7 + len as u64);
        for &w in &[1usize, 2, 5, 16] {
            for thr in [150.0, 600.0] {
                assert_eq!(
                    kernel_runs(&trace, thr, w),
                    ref_runs(&trace, thr, w),
                    "len {len} w {w} thr {thr}"
                );
            }
        }
    }
}

#[test]
fn above_runs_and_rlast_batched_match_ref() {
    for &len in &[0usize, 3, 64, 1000, 4097] {
        let trace = structured_trace(len, 19 + len as u64);
        let w = 5.min(len.max(1));
        for &thr in &[0.0f64, 150.0, 2e8] {
            assert_eq!(
                kernel_runs(&trace, thr, w),
                ref_runs(&trace, thr, w),
                "len {len} thr {thr}"
            );
        }
        assert_eq!(
            kernels::rlast_above(&trace, 150.0),
            kernels::rlast_above_ref(&trace, 150.0),
            "len {len}"
        );
    }
}

/// The largest f32 at most `thr`, computed independently of the kernel.
#[allow(clippy::cast_possible_truncation)] // rounding to f32 is the point
fn f32_floor(thr: f64) -> f32 {
    let q = thr as f32;
    if f64::from(q) > thr {
        q.next_down()
    } else {
        q
    }
}

/// Traces of `len` samples that put the run kernel's shortcuts on the
/// spot, each with a name for failure messages: every sample at the
/// threshold's f32 floor (all below) or at the next f32 (all above); one
/// sample of the other kind at every position of each; and seeded
/// traces of runs drawn from all-below, all-above and mixed palettes
/// holding the floor and its neighbours, zeros of both signs,
/// negatives, subnormals, NaN and ±inf.
fn edge_traces(thr: f64, len: usize) -> Vec<(String, Vec<f32>)> {
    let lo = f32_floor(thr);
    let hi = lo.next_up();
    let tiny = f32::from_bits(1);
    let below = [
        lo,
        lo.next_down(),
        0.0,
        -0.0,
        -hi,
        tiny,
        -tiny,
        f32::MIN_POSITIVE / 2.0,
    ];
    let above = [hi, hi.next_up(), 1000.0, f32::INFINITY];
    let odd = [f32::NAN, f32::NEG_INFINITY, -1000.0, lo, hi];
    let mut out = vec![
        ("all below".to_string(), vec![lo; len]),
        ("all above".to_string(), vec![hi; len]),
    ];
    for at in 0..len {
        let mut t = vec![lo; len];
        t[at] = hi;
        out.push((format!("one above at {at}"), t));
        let mut t = vec![hi; len];
        t[at] = lo;
        out.push((format!("one below at {at}"), t));
    }
    for seed in 0..6u64 {
        let mut r = rng(seed ^ len as u64);
        let mut t = Vec::with_capacity(len);
        while t.len() < len {
            let palette: Vec<f32> = match r.gen_range(0..4) {
                0 => below.to_vec(),
                1 => above.to_vec(),
                2 => [&below[..], &above[..]].concat(),
                _ => [&below[..], &above[..], &odd[..]].concat(),
            };
            for _ in 0..r.gen_range(1..80).min(len - t.len()) {
                t.push(palette[r.gen_range(0..palette.len())]);
            }
        }
        out.push((format!("palette runs, seed {seed}"), t));
    }
    out
}

/// Holds the run kernel to its specification on [`edge_traces`] of
/// 63, 64, 65, 127, 128 and 129 windows (one chunk, minus one, plus
/// one, two chunks and around), at window `w`.
fn assert_edge_fixtures_match(thr: f64, w: usize) {
    for n_windows in [63usize, 64, 65, 127, 128, 129] {
        let len = n_windows + w.saturating_sub(1);
        for (name, trace) in edge_traces(thr, len) {
            assert_eq!(
                kernel_runs(&trace, thr, w),
                ref_runs(&trace, thr, w),
                "thr {thr} w {w} windows {n_windows}: {name}"
            );
        }
    }
}

/// Thresholds 150 (an f32), 150.1 and 0.1 (not f32s) and one exactly
/// one f64 ulp below an f32, where rounding the threshold to the
/// nearest f32 instead of down would misclassify that f32; windows 0,
/// 1, 2, 5, 8 and 70 (wider than a chunk).
#[test]
fn run_kernel_matches_ref_on_edge_fixtures() {
    let ulp_below_f32 = f64::from(150.1f32).next_down();
    for thr in [150.0, 150.1, 0.1, ulp_below_f32] {
        for w in [0usize, 1, 2, 5, 8, 70] {
            assert_edge_fixtures_match(thr, w);
        }
    }
}

/// Configurations whose bounds fail sum the windows a failed bound
/// cannot decide, and still equal the specification: 1e308 × 5 (whose
/// `thr · w` overflows) fails the all-above bound and a NaN threshold
/// both. 150.1 × 6, not an f32, passes both: the all-below bound sums
/// copies of the threshold's f32 floor.
#[test]
fn configs_failing_a_bound_match_ref_on_edge_fixtures() {
    for (thr, w, below, above) in [
        (150.0, 5, true, true),
        (150.1, 6, true, true),
        (1e308, 5, true, false),
        (f64::NAN, 5, false, false),
    ] {
        let k = kernels::RunKernel::new(thr, w);
        assert_eq!(
            (k.below_is_exact(), k.above_is_exact()),
            (below, above),
            "thr {thr} w {w}"
        );
        assert_edge_fixtures_match(thr, w);
    }
}

#[test]
fn noise_and_ripple_batched_match_ref_in_rng_lockstep() {
    for &len in &[0usize, 1, 7, 64, 4097] {
        let acc: Vec<f64> = structured_trace(len, 3 + len as u64)
            .iter()
            .map(|&s| f64::from(s))
            .collect();

        let mut seg_a = acc.clone();
        let mut seg_b = acc.clone();
        let (mut ra, mut rb) = (rng(5), rng(5));
        kernels::accumulate_ripple(&mut seg_a, 700.0, 0.55, 1.45, &mut ra);
        kernels::accumulate_ripple_ref(&mut seg_b, 700.0, 0.55, 1.45, &mut rb);
        assert_eq!(ra.gen::<u64>(), rb.gen::<u64>(), "ripple rng lockstep");
        let ab: Vec<u64> = seg_a.iter().map(|x| x.to_bits()).collect();
        let bb: Vec<u64> = seg_b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ab, bb, "ripple len {len}");

        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        let (mut ra, mut rb) = (rng(9), rng(9));
        kernels::add_noise(&acc, 30.0, &mut oa, &mut ra);
        kernels::add_noise_ref(&acc, 30.0, &mut ob, &mut rb);
        assert_eq!(ra.gen::<u64>(), rb.gen::<u64>(), "noise rng lockstep");
        let ab: Vec<u32> = oa.iter().map(|x| x.to_bits()).collect();
        let bb: Vec<u32> = ob.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ab, bb, "noise len {len}");
    }
}

// ---------------------------------------------------------------------
// Pipeline-level: extraction, detection and synthesis.
// ---------------------------------------------------------------------

#[test]
fn extract_bursts_batched_matches_ref_on_synthetic_traces() {
    let sift = Sift::default();
    for seed in 0..8 {
        let trace = structured_trace(20_000, 100 + seed);
        assert_eq!(
            sift.extract_bursts(&trace),
            sift.extract_bursts_ref(&trace),
            "seed {seed}"
        );
    }
}

#[test]
fn synthesize_matches_scalar_reference_on_noisy_exchange() {
    let synth = Synthesizer::new();
    for width in [Width::W5, Width::W10, Width::W20] {
        let ex = data_ack_exchange(SimTime::from_millis(1), width, 1200, 900.0);
        let window = SimDuration::from_millis(6);
        let a = synth.synthesize(&ex, window, &mut rng(21));
        let b = synth.synthesize_ref(&ex, window, &mut rng(21));
        let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
        let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ab, bb, "{width:?}");
    }
}

/// Without receiver noise the sparse stream has nothing to leave out:
/// its blocks concatenate bit-exactly to the dense trace.
#[test]
fn synth_stream_blocks_concatenate_to_buffered_trace() {
    let mut synth = Synthesizer::new();
    synth.noise = NoiseModel::noiseless();
    let ex = data_ack_exchange(SimTime::from_millis(1), Width::W5, 1500, 800.0);
    let window = SimDuration::from_millis(8);
    let whole = synth.synthesize(&ex, window, &mut rng(4));
    let cat = drain(synth.stream(&ex, window, &mut rng(4)));
    assert_eq!(cat.len(), whole.len());
    let ab: Vec<u32> = cat.iter().map(|x| x.to_bits()).collect();
    let bb: Vec<u32> = whole.iter().map(|x| x.to_bits()).collect();
    assert_eq!(ab, bb);
}

/// Concatenates a stream's blocks.
fn drain(mut stream: SynthStream) -> Vec<f32> {
    let mut cat = Vec::with_capacity(stream.total_samples());
    while let Some(block) = stream.next_block() {
        assert!(block.len() <= BLOCK_SAMPLES);
        cat.extend_from_slice(block);
    }
    cat
}

/// `count` data/ACK exchanges of 1000 bytes at `width`, one every
/// `8000 bits / rate_kbps` (or back to back with 200 µs between them when
/// the load exceeds the channel), with up to 300 µs of jitter, and the
/// window covering them.
fn cbr(width: Width, rate_kbps: u64, count: usize, seed: u64) -> (Vec<Burst>, SimDuration) {
    let mut r = rng(seed);
    let period = SimDuration::from_nanos(8_000 * 1_000_000 / rate_kbps);
    let mut bursts = Vec::new();
    let mut t = SimTime::from_micros(r.gen_range(0..2_000));
    for _ in 0..count {
        let ex = data_ack_exchange(t, width, 1000, 1000.0);
        let busy = ex[1].start.since(t) + ex[1].duration + SimDuration::from_micros(200);
        bursts.extend(ex);
        t = t + period.max(busy) + SimDuration::from_micros(r.gen_range(0..300));
    }
    (bursts, SimDuration::from_nanos(t.as_nanos() + 2_000_000))
}

/// The masking lemma behind the sparse stream (DESIGN.md §12.4), on
/// dense traces: zeroing every sample farther than 4 from a sample
/// above 150 changes neither SIFT's detections nor its busy count.
/// σ = 60 puts 1 noise sample in 80 above the threshold, so the mask
/// meets noise spikes beside bursts, inside the SIFS gaps and alone.
#[test]
fn sift_cannot_see_samples_beyond_reach_of_the_threshold() {
    let sift = Sift::default();
    let mut synth = Synthesizer::new();
    synth.noise = NoiseModel { sigma: 60.0 };
    for (k, width) in [Width::W5, Width::W10, Width::W20].into_iter().enumerate() {
        for rate in [125, 250, 500, 750, 1000] {
            let seed = 40 + rate + k as u64;
            let (bursts, window) = cbr(width, rate, 4, seed);
            let trace = synth.synthesize(&bursts, window, &mut rng(seed));
            let above: Vec<usize> = (0..trace.len()).filter(|&i| trace[i] > 150.0).collect();
            let mut masked = vec![0f32; trace.len()];
            for &i in &above {
                let (lo, hi) = (i.saturating_sub(4), (i + 5).min(trace.len()));
                masked[lo..hi].copy_from_slice(&trace[lo..hi]);
            }
            let zeroed = masked.iter().zip(&trace).filter(|(m, t)| m != t).count();
            let ctx = format!("{width:?} {rate} kbps: {zeroed} of {} zeroed", trace.len());
            assert!(zeroed > 10_000, "{ctx}");
            assert_eq!(sift.detect(&masked), sift.detect(&trace), "{ctx}");
            assert_eq!(
                busy_samples(&sift.extract_bursts(&masked)),
                busy_samples(&sift.extract_bursts(&trace)),
                "{ctx}"
            );
        }
    }
}

/// `StreamingSift` over the sparse stream's blocks equals `Sift::detect`
/// on their concatenation, detections and busy count, at every width
/// and load of Table 1 and at σ = 30 (the default) and σ = 60 (noise
/// spikes beside the bursts); so does any other chunking of it, with
/// its long runs of exact zeros taking the quiet-block path.
#[test]
fn streaming_sift_on_sparse_stream_equals_detect_on_its_concatenation() {
    let sift = Sift::default();
    for sigma in [30.0, 60.0] {
        let mut synth = Synthesizer::new();
        synth.noise = NoiseModel { sigma };
        for (k, width) in [Width::W5, Width::W10, Width::W20].into_iter().enumerate() {
            for rate in [125, 250, 500, 750, 1000] {
                let seed = rate * 3 + k as u64;
                let (bursts, window) = cbr(width, rate, 4, seed);
                let ctx = format!("σ {sigma} {width:?} {rate} kbps seed {seed}");
                let mut stream = synth.stream(&bursts, window, &mut rng(seed));
                let mut s = StreamingSift::new(sift.config);
                let mut streamed = Vec::new();
                let mut cat = Vec::new();
                while let Some(block) = stream.next_block() {
                    streamed.extend(s.push_block(block));
                    cat.extend_from_slice(block);
                }
                streamed.extend(s.finish());
                let buffered = sift.detect(&cat);
                assert_eq!(streamed, buffered, "{ctx}");
                assert!(!buffered.is_empty(), "{ctx}: no detection");
                let busy = busy_samples(&sift.extract_bursts(&cat));
                assert_eq!(s.busy_samples(), busy, "{ctx}");
                let (rechunked, busy2) =
                    run_streaming(&sift, &cat, &[1 + usize::try_from(seed % 700).unwrap(), 3]);
                assert_eq!(rechunked, buffered, "{ctx}");
                assert_eq!(busy2, busy, "{ctx}");
            }
        }
    }
}

/// Total samples of `bursts`: the busy count `StreamingSift` keeps.
fn busy_samples(bursts: &[RawBurst]) -> u64 {
    bursts.iter().map(|b| b.len as u64).sum()
}

/// Feeds `trace` to a fresh `StreamingSift` in chunks of the given sizes
/// (cycling), returning the detections plus the busy-sample counter.
fn run_streaming(
    sift: &Sift,
    trace: &[f32],
    chunks: &[usize],
) -> (Vec<whitefi_phy::Detection>, u64) {
    let mut s = StreamingSift::new(sift.config);
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut ci = 0usize;
    while pos < trace.len() {
        let take = chunks[ci % chunks.len()].min(trace.len() - pos);
        ci += 1;
        out.extend(s.push_block(&trace[pos..pos + take]));
        pos += take;
    }
    out.extend(s.finish());
    (out, s.busy_samples())
}

// ---------------------------------------------------------------------
// Block-boundary edge cases (satellite 3).
// ---------------------------------------------------------------------

#[test]
fn burst_spanning_chunk_boundary_detected_identically() {
    // Data frame positioned so its rising edge sits mid-way through a
    // BLOCK_SAMPLES boundary, with the ACK entirely in the next block.
    let synth = Synthesizer::new();
    let start_ns = (BLOCK_SAMPLES as u64 - 200) * whitefi_phy::SAMPLE_NS;
    let ex = data_ack_exchange(SimTime::from_nanos(start_ns), Width::W20, 800, 900.0);
    let trace = synth.synthesize(&ex, SimDuration::from_millis(6), &mut rng(31));
    let sift = Sift::default();
    let buffered = sift.detect(&trace);
    assert!(!buffered.is_empty(), "fixture must detect something");
    let (streamed, _) = run_streaming(&sift, &trace, &[BLOCK_SAMPLES]);
    assert_eq!(streamed, buffered);
}

#[test]
fn merge_gap_dip_straddling_block_boundary_still_merges() {
    // Two ideal plateaus separated by a sub-merge-gap dip placed exactly
    // on a chunk boundary: the streaming merge stage must stitch them
    // just like the buffered pass does.
    let sift = Sift::default();
    let gap = sift.config.merge_gap; // dip width ≤ merge_gap ⇒ one burst
    let mut trace = vec![0.0f32; 4 * BLOCK_SAMPLES];
    let dip_at = 2 * BLOCK_SAMPLES;
    for (i, s) in trace.iter_mut().enumerate() {
        let in_dip = (dip_at..dip_at + gap).contains(&i);
        if (BLOCK_SAMPLES..3 * BLOCK_SAMPLES).contains(&i) && !in_dip {
            *s = 900.0;
        }
    }
    let buffered = sift.extract_bursts(&trace);
    assert_eq!(buffered.len(), 1, "dip must merge into one burst");
    for chunks in [&[1usize][..], &[BLOCK_SAMPLES][..], &[gap - 1, 3][..]] {
        let (_, busy) = run_streaming(&sift, &trace, chunks);
        assert_eq!(busy, buffered[0].len as u64, "chunks {chunks:?}");
    }
}

#[test]
fn trace_shorter_than_ma_window_yields_nothing_in_both_paths() {
    let sift = Sift::default();
    let trace = vec![5000.0f32; sift.config.window - 1];
    assert!(sift.detect(&trace).is_empty());
    let (streamed, busy) = run_streaming(&sift, &trace, &[1]);
    assert!(streamed.is_empty());
    assert_eq!(busy, 0);
}

#[test]
fn w5_low_amplitude_head_split_across_blocks_matches_buffered() {
    // A 5 MHz frame whose low-amplitude head straddles a block boundary:
    // position the burst so the head region covers the BLOCK_SAMPLES
    // seam, then check streaming classification agrees with buffered.
    let synth = Synthesizer::new();
    let head_frac = synth.config.w5_head_fraction;
    assert!(head_frac > 0.0, "fixture needs a head");
    let dur = SimDuration::from_micros(2000);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // small positive count
    let head_samples = (duration_to_samples(dur) * head_frac) as usize;
    // Start so that the seam falls inside [start, start + head_samples).
    let start_samples = BLOCK_SAMPLES - head_samples / 2;
    let start = SimTime::from_nanos(start_samples as u64 * whitefi_phy::SAMPLE_NS);
    let ex = data_ack_exchange(start, Width::W5, 1000, 900.0);
    assert_eq!(ex[0].kind, BurstKind::Data);
    let trace = synth.synthesize(&ex, SimDuration::from_millis(10), &mut rng(77));
    let sift = Sift::default();
    let buffered = sift.detect(&trace);
    for chunks in [&[BLOCK_SAMPLES][..], &[257usize][..], &[1usize][..]] {
        let (streamed, _) = run_streaming(&sift, &trace, chunks);
        assert_eq!(streamed, buffered, "chunks {chunks:?}");
    }
}

// ---------------------------------------------------------------------
// Property: ANY chunking of the sample stream is invisible (tentpole).
// ---------------------------------------------------------------------

/// Chunking the trace arbitrarily — including 1-sample blocks — yields
/// exactly the detections, busy count and sample count of the
/// whole-buffer `Sift::detect`. 48 cases, case `c` drawing its inputs
/// from `ChaCha8Rng::seed_from_u64(c)`.
#[test]
fn any_chunking_matches_whole_buffer_detect() {
    for case in 0..48 {
        let mut r = rng(case);
        let seed = r.gen_range(0u64..1_000);
        let n_chunks = r.gen_range(1..8);
        let chunks: Vec<usize> = (0..n_chunks)
            .map(|_| r.gen_range(1..3 * BLOCK_SAMPLES))
            .collect();
        let n_exchanges = r.gen_range(1usize..4);
        let ctx = format!("case {case}: seed {seed} chunks {chunks:?} n_exchanges {n_exchanges}");
        let synth = Synthesizer::new();
        let mut bursts: Vec<Burst> = Vec::new();
        let mut r = rng(seed);
        for k in 0..n_exchanges {
            let width = [Width::W5, Width::W10, Width::W20][k % 3];
            let at = SimTime::from_micros(1_000 + 9_000 * k as u64 + r.gen_range(0u64..500));
            bursts.extend(data_ack_exchange(at, width, 1000, 900.0));
        }
        let trace = synth.synthesize(
            &bursts,
            SimDuration::from_millis(2 + 9 * n_exchanges as u64),
            &mut rng(seed ^ 0xABCD),
        );
        let sift = Sift::default();
        let buffered = sift.detect(&trace);
        let busy_truth: u64 = sift
            .extract_bursts(&trace)
            .iter()
            .map(|b| b.len as u64)
            .sum();
        // The fixture's long noise gaps give the streaming SIFT quiet
        // blocks, which take its window-sum-free path.
        let mut quiet = 0;
        let (mut pos, mut ci) = (0, 0);
        while pos < trace.len() {
            let take = chunks[ci % chunks.len()].min(trace.len() - pos);
            quiet += usize::from(!kernels::any_above_ref(&trace[pos..pos + take], 150.0));
            (pos, ci) = (pos + take, ci + 1);
        }
        assert!(quiet > 0, "{ctx}: no quiet block");
        let (streamed, busy) = run_streaming(&sift, &trace, &chunks);
        assert_eq!(streamed, buffered, "{ctx}");
        assert_eq!(busy, busy_truth, "{ctx}");
        // The degenerate 1-sample chunking as well, on the same fixture.
        let (one_by_one, busy1) = run_streaming(&sift, &trace, &[1]);
        assert_eq!(one_by_one, sift.detect(&trace), "{ctx}");
        assert_eq!(busy1, busy_truth, "{ctx}");
    }
}

/// Mostly-quiet traces: exact zeros and sub-threshold values, short
/// plateaus and single supra-threshold spikes, so blocks switch between
/// the quiet path and the window-sum path at every kind of seam (a run
/// still open when a quiet block begins, a merge candidate spanning
/// quiet blocks, a spike in the carried tail). 48 cases, case `c`
/// drawing its inputs from `ChaCha8Rng::seed_from_u64(c)`.
#[test]
// Test fixture: amplitudes ≪ f32 max.
#[allow(clippy::cast_possible_truncation)]
fn quiet_block_path_matches_whole_buffer_detect() {
    let sift = Sift::default();
    let kernel = kernels::RunKernel::new(sift.config.threshold, sift.config.window);
    let mut quiet_blocks = 0;
    for case in 0..48 {
        let mut r = rng(case);
        let len = r.gen_range(1..4 * BLOCK_SAMPLES);
        let mut trace = vec![0f32; len];
        for _ in 0..r.gen_range(0..len / 8 + 1) {
            let at = r.gen_range(0..len);
            trace[at] = r.gen_range(0.0..150.0) as f32;
        }
        for _ in 0..r.gen_range(0..12) {
            let at = r.gen_range(0..len);
            let n = r.gen_range(1..60).min(len - at);
            let level = r.gen_range(151.0..1000.0) as f32;
            trace[at..at + n].iter_mut().for_each(|s| *s = level);
        }
        let chunks: Vec<usize> = (0..r.gen_range(1..6))
            .map(|_| r.gen_range(1..BLOCK_SAMPLES))
            .collect();
        let ctx = format!("case {case}: len {len} chunks {chunks:?}");
        let busy_truth: u64 = sift
            .extract_bursts(&trace)
            .iter()
            .map(|b| b.len as u64)
            .sum();
        for chunking in [&chunks[..], &[1][..], &[4][..], &[5][..]] {
            let (streamed, busy) = run_streaming(&sift, &trace, chunking);
            assert_eq!(streamed, sift.detect(&trace), "{ctx} / {chunking:?}");
            assert_eq!(busy, busy_truth, "{ctx} / {chunking:?}");
        }
        // The quiet-block test is the run kernel's classifier; it agrees
        // with the f64 reference on every block of the chunking.
        for block in trace.chunks(chunks[0]) {
            let quiet = !kernel.any_above(block);
            assert_eq!(quiet, !kernels::any_above_ref(block, 150.0), "{ctx}");
            quiet_blocks += usize::from(quiet);
        }
        assert_eq!(
            sift.extract_bursts(&trace),
            sift.extract_bursts_ref(&trace),
            "{ctx}"
        );
    }
    assert!(quiet_blocks > 0, "no quiet block in any case");
}
