//! Differential suite: batched lane kernels vs their scalar references,
//! and streaming (block-at-a-time) processing vs whole-buffer processing.
//!
//! Everything here asserts **bit-identical** output (`f32::to_bits` /
//! exact struct equality), not approximate closeness — the lane kernels
//! are only admissible because they reassociate nothing (DESIGN.md §12).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use whitefi_phy::kernels;
use whitefi_phy::synth::{data_ack_exchange, duration_to_samples};
use whitefi_phy::{
    Burst, BurstKind, Sift, SimDuration, SimTime, StreamingSift, Synthesizer, BLOCK_SAMPLES,
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

#[test]
fn window_sums_batched_matches_ref_across_sizes() {
    for &len in &[0usize, 1, 4, 5, 31, 32, 1000, 4097] {
        let trace = structured_trace(len, 7 + len as u64);
        for &w in &[1usize, 2, 5, 16] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            kernels::window_sums(&trace, w, &mut a);
            kernels::window_sums_ref(&trace, w, &mut b);
            let ab: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(ab, bb, "len {len} w {w}");
        }
    }
}

#[test]
fn above_runs_and_rlast_batched_match_ref() {
    for &len in &[0usize, 3, 64, 1000, 4097] {
        let trace = structured_trace(len, 19 + len as u64);
        let mut sums = Vec::new();
        kernels::window_sums(&trace, 5.min(len.max(1)), &mut sums);
        for &thr in &[0.0f64, 150.0 * 5.0, 1e9] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            kernels::above_runs(&sums, thr, &mut a);
            kernels::above_runs_ref(&sums, thr, &mut b);
            assert_eq!(a, b, "len {len} thr {thr}");
        }
        assert_eq!(
            kernels::rlast_above(&trace, 150.0),
            kernels::rlast_above_ref(&trace, 150.0),
            "len {len}"
        );
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

#[test]
fn synth_stream_blocks_concatenate_to_buffered_trace() {
    let synth = Synthesizer::new();
    let ex = data_ack_exchange(SimTime::from_millis(1), Width::W10, 1500, 800.0);
    let window = SimDuration::from_millis(8);
    let whole = synth.synthesize(&ex, window, &mut rng(4));
    let mut stream = synth.stream(&ex, window, &mut rng(4));
    let mut cat: Vec<f32> = Vec::new();
    while let Some(block) = stream.next_block() {
        assert!(block.len() <= BLOCK_SAMPLES);
        cat.extend_from_slice(block);
    }
    assert_eq!(cat.len(), whole.len());
    let ab: Vec<u32> = cat.iter().map(|x| x.to_bits()).collect();
    let bb: Vec<u32> = whole.iter().map(|x| x.to_bits()).collect();
    assert_eq!(ab, bb);
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
        let (streamed, busy) = run_streaming(&sift, &trace, &chunks);
        assert_eq!(streamed, buffered, "{ctx}");
        assert_eq!(busy, busy_truth, "{ctx}");
        // The degenerate 1-sample chunking as well, on the same fixture.
        let (one_by_one, busy1) = run_streaming(&sift, &trace, &[1]);
        assert_eq!(one_by_one, sift.detect(&trace), "{ctx}");
        assert_eq!(busy1, busy_truth, "{ctx}");
    }
}
