//! The parallel runner's determinism contract: running an experiment
//! with `--jobs N` must produce byte-identical JSON to `--jobs 1`,
//! because every trial's RNG seed is a pure function of (experiment,
//! trial index, user seed) and results are reassembled in index order.

use whitefi_bench::{registry, RunCtx};

fn entry(id: &str) -> fn(&RunCtx) -> whitefi_bench::ExperimentReport {
    registry()
        .iter()
        .find(|(eid, _, _)| *eid == id)
        .unwrap_or_else(|| panic!("experiment {id} not in registry"))
        .2
}

/// Experiments with nontrivial fan-out, run quick: parallel output is
/// byte-identical to sequential. `city` fans its component groups
/// across the pool.
#[test]
fn parallel_matches_sequential_byte_for_byte() {
    for id in ["scan_analysis", "hamming", "city"] {
        let run = entry(id);
        let sequential = run(&RunCtx::new(true, 1, 0)).to_json();
        let parallel = run(&RunCtx::new(true, 4, 0)).to_json();
        assert_eq!(
            sequential, parallel,
            "{id}: --jobs 4 output diverged from --jobs 1"
        );
    }
}

/// With the default user seed (0), `ctx.seed` is the identity, so the
/// historical per-trial seed constants are preserved exactly.
#[test]
fn default_seed_is_identity() {
    let ctx = RunCtx::new(true, 1, 0);
    for base in [0u64, 1, 42, 1000, 0xDEAD_BEEF] {
        assert_eq!(ctx.seed(base), base);
    }
}

/// A nonzero `--seed` perturbs every trial seed, and differently per
/// base, so sweeps re-randomize coherently.
#[test]
fn user_seed_perturbs_trial_seeds() {
    let ctx = RunCtx::new(true, 1, 7);
    assert_ne!(ctx.seed(1000), 1000);
    assert_ne!(ctx.seed(1000), ctx.seed(1001));
    // And deterministically: same (base, user seed) -> same trial seed.
    assert_eq!(ctx.seed(1000), RunCtx::new(true, 4, 7).seed(1000));
}

/// A driver-based experiment (full `run_whitefi` network sims, the
/// fig11 seeding scheme) is byte-equal between `--jobs 1` and
/// `--jobs 4` — the event-core fast paths (reachability bitsets,
/// channel indexes, the CSMA deadline slots, windowed history) must not leak
/// scheduling into results.
#[test]
fn driver_trials_parallel_match_sequential() {
    use whitefi_bench::experiments::fig11;

    let run = |jobs: usize| {
        let ctx = RunCtx::new(true, jobs, 0);
        ctx.map(4, |k| {
            let s = fig11::scenario(k * 4, ctx.seed(5000 + k as u64), true);
            let out = whitefi::driver::run_whitefi(&s, None);
            // Exact f64 equality on purpose: the contract is bit-level.
            (out.aggregate_mbps, out.per_client_mbps, out.violations)
        })
    };
    assert_eq!(
        run(1),
        run(4),
        "driver trials diverged between --jobs 1 and --jobs 4"
    );
}

/// Fuzz-generated scenarios replay deterministically under the worker
/// pool: compiling and running the sampled corpus at `--jobs 1` and
/// `--jobs 8` yields byte-identical outcomes, scenario-fuzz streams
/// being placement-independent per the PR-3 contract.
#[test]
fn fuzz_corpus_parallel_matches_sequential() {
    let run = |jobs: usize| {
        let ctx = RunCtx::new(true, jobs, 0);
        ctx.map(8, |i| {
            let doc = whitefi::generate_doc(ctx.seed(i as u64));
            doc.compile().run()
        })
    };
    assert_eq!(
        run(1),
        run(8),
        "fuzz corpus diverged between --jobs 1 and --jobs 8"
    );
}
