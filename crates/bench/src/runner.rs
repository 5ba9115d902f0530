//! Deterministic parallel trial runner.
//!
//! Every experiment is a bag of independent seeded trials: each trial's
//! RNG seed is derived purely from the experiment's fixed base constants
//! and the trial index, never from execution order. [`RunCtx::map`] fans
//! the trial indices across a scoped-thread work pool (`std::thread::scope`
//! plus an `AtomicUsize` work index — no extra dependencies) and then
//! reassembles the results in index order, so the output of `--jobs N`
//! is byte-identical to `--jobs 1` by construction. Each worker returns
//! its `(index, result)` pairs through its own join handle, so no result
//! slot is shared between threads; the work index is the only shared
//! state. A test in `tests/determinism.rs` enforces the byte-identity
//! end-to-end through the real experiment registry.
//!
//! [`RunCtx`] also owns the `--seed` perturbation: a user seed of 0 (the
//! default) leaves every base seed untouched, keeping historical outputs
//! stable; any other value mixes it into each derived seed via
//! splitmix64.

use std::sync::atomic::{AtomicUsize, Ordering};
use whitefi_mac::splitmix64;

/// Per-experiment execution context handed to every experiment runner:
/// the quick/full switch plus the trial pool.
#[derive(Debug)]
pub struct RunCtx {
    quick: bool,
    jobs: usize,
    user_seed: u64,
}

impl RunCtx {
    /// A context running trials on up to `jobs` threads (clamped to at
    /// least 1). `user_seed = 0` keeps all derived seeds identical to the
    /// sequential historical outputs.
    pub fn new(quick: bool, jobs: usize, user_seed: u64) -> Self {
        Self {
            quick,
            jobs: jobs.max(1),
            user_seed,
        }
    }

    /// Today's single-threaded behaviour with unperturbed seeds.
    pub fn sequential(quick: bool) -> Self {
        Self::new(quick, 1, 0)
    }

    /// Whether the experiment should run its abbreviated grid.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Derives the effective seed for a trial from its base seed. The
    /// identity when no user seed is set, so default runs reproduce the
    /// historical byte-exact outputs.
    pub fn seed(&self, base: u64) -> u64 {
        if self.user_seed == 0 {
            base
        } else {
            splitmix64(base ^ splitmix64(self.user_seed))
        }
    }

    /// Runs `f(0), f(1), …, f(n-1)` across the work pool and returns the
    /// results in index order. `f` must derive all randomness from its
    /// index (via per-trial seeds), which makes the result independent of
    /// scheduling — parallel and sequential runs return identical vectors.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        indexed.sort_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn trial(i: usize, seed: u64) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ i as u64);
        (0..100).map(|_| rng.gen::<f64>()).sum()
    }

    #[test]
    fn map_preserves_index_order() {
        let ctx = RunCtx::new(true, 8, 0);
        let out = ctx.map(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let seq = RunCtx::new(true, 1, 0).map(40, |i| trial(i, 42));
        let par = RunCtx::new(true, 7, 0).map(40, |i| trial(i, 42));
        assert_eq!(seq, par);
    }

    #[test]
    fn seed_zero_is_identity_nonzero_perturbs() {
        let plain = RunCtx::new(true, 1, 0);
        assert_eq!(plain.seed(1234), 1234);
        assert_eq!(plain.seed(0), 0);
        let salted = RunCtx::new(true, 1, 7);
        assert_ne!(salted.seed(1234), 1234);
        // Distinct bases stay distinct after perturbation.
        assert_ne!(salted.seed(1), salted.seed(2));
        // Same base, same user seed: stable.
        assert_eq!(salted.seed(9), RunCtx::new(true, 1, 7).seed(9));
    }

    /// Every index comes back exactly once and in index order, whatever
    /// the worker count and however unevenly the per-index work is
    /// spread (slow indices make workers finish out of order).
    #[test]
    fn map_returns_each_index_once_in_order() {
        for jobs in [1, 2, 4, 7] {
            let ctx = RunCtx::new(true, jobs, 0);
            for n in [0, 1, 3, 1000] {
                let out = ctx.map(n, |i| {
                    let spins = if i % 17 == 0 { 20_000 } else { i % 5 * 100 };
                    let work = (0..spins as u64).fold(i as u64, |a, k| a.wrapping_mul(31) ^ k);
                    (i, std::hint::black_box(work))
                });
                let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "jobs {jobs}, n {n}");
            }
        }
    }

    #[test]
    fn zero_and_single_item_maps() {
        let ctx = RunCtx::new(true, 4, 0);
        assert!(ctx.map(0, |i| i).is_empty());
        assert_eq!(ctx.map(1, |i| i + 1), vec![1]);
    }
}
