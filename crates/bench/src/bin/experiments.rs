//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments list                     # show available experiment ids
//! experiments all [--quick]            # run everything
//! experiments fig11 table1 ...         # run selected experiments
//! experiments all --jobs 8             # parallel trials + overlapped experiments
//! experiments all --seed 42            # perturb every trial seed (default 0 = historical outputs)
//! ```
//!
//! Results are printed as text tables and written atomically as JSON to
//! `results/<id>.json`. Performance is measured by `layerbench/`, not
//! here: the only wall-clock output is each experiment's
//! `(… completed in …)` line and the closing `ran … experiments` line.
//!
//! Determinism contract: for a fixed `--seed`, the JSON outputs are
//! byte-identical for every `--jobs` value — each trial derives its RNG
//! seed purely from (experiment id, trial index), never from scheduling.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use whitefi::{global_oracle_totals, OracleTotals};
use whitefi_bench::{registry, ExperimentReport, RunCtx, Runner};

/// Default chart axes per experiment for `--plot`.
fn plot_axes(id: &str) -> Option<(&'static str, Vec<&'static str>)> {
    match id {
        "fig7" => Some(("attenuation_db", vec!["sift", "sniffer"])),
        "fig8" => Some(("fragment_width", vec!["l_sift_frac", "j_sift_frac"])),
        "fig10" => Some(("delay_ms", vec!["tput5", "tput10", "tput20"])),
        "fig11" => Some(("pairs", vec!["whitefi", "opt", "opt20"])),
        "fig12" => Some(("p", vec!["whitefi", "opt", "opt20"])),
        "fig13" => Some(("churn", vec!["whitefi", "opt", "opt20"])),
        "fig14" => Some(("t_s", vec!["goodput_mbps", "width_mhz"])),
        _ => None,
    }
}

/// Writes `contents` to `path` atomically (temp file in the same
/// directory, then rename) so readers never observe a half-written JSON.
fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    let p = Path::new(path);
    let dir = p.parent().unwrap_or_else(|| Path::new("."));
    let name = p
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, p)
}

fn usage() -> ! {
    eprintln!("usage: experiments [list | all | <id>...] [--quick] [--plot] [--jobs N] [--seed S]");
    std::process::exit(2);
}

struct Options {
    quick: bool,
    plot: bool,
    jobs: usize,
    seed: u64,
    selected: Vec<String>,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let default_jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut opts = Options {
        quick: false,
        plot: false,
        jobs: default_jobs,
        seed: 0,
        selected: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--quick" {
            opts.quick = true;
        } else if a == "--plot" {
            opts.plot = true;
        } else if a == "--jobs" || a == "--seed" {
            i += 1;
            let Some(v) = args.get(i) else {
                eprintln!("{a} requires a value");
                usage();
            };
            match (a.as_str(), v.parse::<u64>()) {
                ("--jobs", Ok(n)) => {
                    opts.jobs = usize::try_from(n).unwrap_or(usize::MAX).max(1);
                }
                ("--seed", Ok(s)) => opts.seed = s,
                _ => {
                    eprintln!("invalid value for {a}: {v}");
                    usage();
                }
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            match v.parse::<usize>() {
                Ok(n) => opts.jobs = n.max(1),
                Err(_) => {
                    eprintln!("invalid value for --jobs: {v}");
                    usage();
                }
            }
        } else if let Some(v) = a.strip_prefix("--seed=") {
            match v.parse::<u64>() {
                Ok(s) => opts.seed = s,
                Err(_) => {
                    eprintln!("invalid value for --seed: {v}");
                    usage();
                }
            }
        } else if a.starts_with("--") {
            eprintln!("unknown option: {a}");
            usage();
        } else {
            opts.selected.push(a.clone());
        }
        i += 1;
    }
    opts
}

/// One finished experiment, in registry order.
struct Finished {
    id: &'static str,
    report: ExperimentReport,
    wall_s: f64,
    /// Invariant-oracle totals accumulated while this experiment ran
    /// (delta of the process-wide totals: exact when experiments run
    /// one at a time, approximate attribution when they overlap).
    oracles: OracleTotals,
}

// lint:allow(taint, the experiments binary times its own phases; sims only see scenario seeds)
fn main() {
    let opts = parse_args();
    let registry = registry();

    if opts.selected.first().map(|s| s.as_str()) == Some("list") {
        for (id, desc, _) in &registry {
            println!("{id:14} {desc}");
        }
        return;
    }

    let run_all = opts.selected.is_empty() || opts.selected.iter().any(|s| s == "all");
    for sel in &opts.selected {
        if sel != "all" && !registry.iter().any(|(id, ..)| id == sel) {
            eprintln!("unknown experiment id: {sel}");
            eprintln!("no matching experiments; try `experiments list`");
            std::process::exit(1);
        }
    }
    let entries: Vec<_> = registry
        .iter()
        .filter(|(id, ..)| run_all || opts.selected.iter().any(|s| s == id))
        .copied()
        .collect();
    if entries.is_empty() {
        eprintln!("no matching experiments; try `experiments list`");
        std::process::exit(1);
    }

    // Split the job budget: overlap whole experiments (outer) and give
    // each the remaining slots for its own trials (inner). Single-shot
    // experiments (e.g. fig14) parallelize only through the outer level.
    let outer = if entries.len() > 1 {
        opts.jobs.min(entries.len())
    } else {
        1
    };
    let inner = (opts.jobs / outer).max(1);

    let total_start = Instant::now();
    // Whole experiments fan out through the same pool as their trials:
    // `Runner::map` hands each worker's results back through its join
    // handle and returns them in registry order (with one outer slot it
    // runs them in turn on this thread).
    let finished: Vec<Finished> = Runner::new(outer, opts.seed).map(entries.len(), |k| {
        let (id, _desc, runner) = entries[k];
        let ctx = RunCtx::new(opts.quick, inner, opts.seed);
        let oracles_before = global_oracle_totals();
        let start = Instant::now();
        let report = runner(&ctx);
        Finished {
            id,
            report,
            wall_s: start.elapsed().as_secs_f64(),
            oracles: global_oracle_totals().delta_since(oracles_before),
        }
    });
    let total_wall_s = total_start.elapsed().as_secs_f64();

    fs::create_dir_all("results").ok();
    let mut failed = false;
    for f in &finished {
        println!("{}", f.report.render_text());
        if opts.plot {
            if let Some((x, ys)) = plot_axes(f.id) {
                println!("{}", f.report.render_ascii_chart(x, &ys));
            }
        }
        println!("({} completed in {:.1}s)\n", f.id, f.wall_s);
        if let Err(e) = f.report.validate() {
            eprintln!("error: invalid report: {e}");
            failed = true;
        }
        let path = format!("results/{}.json", f.id);
        if let Err(e) = write_atomic(&path, &f.report.to_json()) {
            eprintln!("warning: could not write {path}: {e}");
        }
    }

    // Invariant gate: adaptive (WhiteFi-mode) runs must never violate an
    // oracle on the seed scenarios. Fixed-baseline violations are the
    // paper's motivating failure (a static channel cannot vacate for an
    // incumbent) and are reported but do not fail the run.
    let adaptive_violations: u64 = finished.iter().map(|f| f.oracles.adaptive_violations).sum();
    if adaptive_violations > 0 {
        for f in finished
            .iter()
            .filter(|f| f.oracles.adaptive_violations > 0)
        {
            eprintln!(
                "error: {} adaptive oracle violation(s) during {}",
                f.oracles.adaptive_violations, f.id
            );
        }
        failed = true;
    }

    println!(
        "ran {} experiments in {total_wall_s:.1}s (jobs {}, overlap {outer}x{inner})",
        finished.len(),
        opts.jobs
    );
    if failed {
        std::process::exit(1);
    }
}
