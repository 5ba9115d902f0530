//! One module per table/figure of the paper. See `DESIGN.md` §5 for the
//! experiment index and `EXPERIMENTS.md` for the recorded outcomes.

pub mod ablation;
pub mod city;
pub mod disconnection;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fuzz;
pub mod hamming;
pub mod mos;
pub mod scan_analysis;
pub mod sweep;
pub mod table1;

use rand::SeedableRng;
use whitefi_phy::synth::Burst;
use whitefi_phy::{ChaCha8Rng, Detection, Sift, SimDuration, StreamingSift, Synthesizer};

/// Deterministic RNG for experiment `id`/replica.
pub(crate) fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A SIFT capture path: synthesizes a capture from the RNG and returns
/// SIFT's detections on it and its total busy samples.
pub(crate) type Capture =
    fn(&Synthesizer, &[Burst], SimDuration, &mut ChaCha8Rng) -> (Vec<Detection>, u64);

/// Synthesizes the capture sparsely, block-at-a-time, and runs
/// [`StreamingSift`] over it, returning the detections and the total
/// busy samples. The synthesis loops (Table 1, Figures 6/7) never
/// materialize a whole ~100k-sample trace; only `BLOCK_SAMPLES`-sized
/// blocks exist, and noise is drawn only where SIFT can see it.
pub(crate) fn stream_sift(
    synth: &Synthesizer,
    bursts: &[Burst],
    window: SimDuration,
    rng: &mut ChaCha8Rng,
) -> (Vec<Detection>, u64) {
    let mut stream = synth.stream(bursts, window, rng);
    let mut sift = StreamingSift::new(Sift::default().config);
    let mut out = Vec::new();
    while let Some(block) = stream.next_block() {
        out.extend(sift.push_block(block));
    }
    out.extend(sift.finish());
    (out, sift.busy_samples())
}

/// The dense twin of [`stream_sift`]: the whole trace with noise on
/// every sample, then the buffered [`Sift`]. Its results equal
/// [`stream_sift`]'s in law, not sample for sample; the experiments'
/// law tests compare the two over many seeds.
#[cfg(test)]
pub(crate) fn dense_sift(
    synth: &Synthesizer,
    bursts: &[Burst],
    window: SimDuration,
    rng: &mut ChaCha8Rng,
) -> (Vec<Detection>, u64) {
    let trace = synth.synthesize(bursts, window, rng);
    let sift = Sift::default();
    let found = sift.extract_bursts(&trace);
    let busy = found.iter().map(|b| b.len as u64).sum();
    (sift.classify(&found), busy)
}

/// Asserts that `a` of `n` and `b` of `n` trials differ by at most five
/// standard errors of a two-sample binomial difference at the pooled
/// rate.
#[cfg(test)]
pub(crate) fn assert_same_rate(what: &str, a: usize, b: usize, n: usize) {
    let n = n as f64;
    let (pa, pb) = (a as f64 / n, b as f64 / n);
    let pooled = (pa + pb) / 2.0;
    let se = (2.0 * pooled * (1.0 - pooled) / n).sqrt();
    assert!(
        (pa - pb).abs() <= 5.0 * se,
        "{what}: {pa:.4} vs {pb:.4} over {n} trials each, 5·se = {:.4}",
        5.0 * se
    );
}
