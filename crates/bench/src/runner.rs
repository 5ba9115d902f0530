//! Deterministic parallel trial runner.
//!
//! Every experiment is a bag of independent seeded trials: each trial's
//! RNG seed is derived purely from the experiment's fixed base constants
//! and the trial index, never from execution order. The runner fans the
//! trial indices across a scoped-thread work pool (`std::thread::scope`
//! plus an `AtomicUsize` work index — no extra dependencies) and then
//! reassembles the results in index order, so the output of `--jobs N`
//! is byte-identical to `--jobs 1` by construction. Each worker returns
//! its `(index, result)` pairs through its own join handle, so no result
//! slot is shared between threads; the work index is the only shared
//! state. A test in `tests/determinism.rs` enforces the byte-identity
//! end-to-end through the real experiment registry.
//!
//! The runner also owns the `--seed` perturbation: a user seed of 0 (the
//! default) leaves every base seed untouched, keeping historical outputs
//! stable; any other value mixes it into each derived seed via
//! splitmix64.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The splitmix64 finalizer — a cheap, well-dispersed u64 mixer.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Work-pool state shared by every trial of one experiment run.
#[derive(Debug)]
pub struct Runner {
    jobs: usize,
    user_seed: u64,
}

impl Runner {
    /// A runner executing up to `jobs` trials concurrently (clamped to at
    /// least 1). `user_seed = 0` keeps all derived seeds identical to the
    /// sequential historical outputs.
    pub fn new(jobs: usize, user_seed: u64) -> Self {
        Self {
            jobs: jobs.max(1),
            user_seed,
        }
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

/// Per-experiment execution context handed to every experiment runner:
/// the quick/full switch plus the trial pool.
#[derive(Debug)]
pub struct RunCtx {
    quick: bool,
    runner: Runner,
}

impl RunCtx {
    /// A context running trials on up to `jobs` threads.
    pub fn new(quick: bool, jobs: usize, user_seed: u64) -> Self {
        Self {
            quick,
            runner: Runner::new(jobs, user_seed),
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

    /// See [`Runner::seed`].
    pub fn seed(&self, base: u64) -> u64 {
        self.runner.seed(base)
    }

    /// See [`Runner::map`].
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.runner.map(n, f)
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
        let r = Runner::new(8, 0);
        let out = r.map(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let seq = Runner::new(1, 0).map(40, |i| trial(i, 42));
        let par = Runner::new(7, 0).map(40, |i| trial(i, 42));
        assert_eq!(seq, par);
    }

    #[test]
    fn seed_zero_is_identity_nonzero_perturbs() {
        let plain = Runner::new(1, 0);
        assert_eq!(plain.seed(1234), 1234);
        assert_eq!(plain.seed(0), 0);
        let salted = Runner::new(1, 7);
        assert_ne!(salted.seed(1234), 1234);
        // Distinct bases stay distinct after perturbation.
        assert_ne!(salted.seed(1), salted.seed(2));
        // Same base, same user seed: stable.
        assert_eq!(salted.seed(9), Runner::new(1, 7).seed(9));
    }

    /// Every index comes back exactly once and in index order, whatever
    /// the worker count and however unevenly the per-index work is
    /// spread (slow indices make workers finish out of order).
    #[test]
    fn map_returns_each_index_once_in_order() {
        for jobs in [1, 2, 4, 7] {
            let r = Runner::new(jobs, 0);
            for n in [0, 1, 3, 1000] {
                let out = r.map(n, |i| {
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
        let r = Runner::new(4, 0);
        assert!(r.map(0, |i| i).is_empty());
        assert_eq!(r.map(1, |i| i + 1), vec![1]);
    }
}
