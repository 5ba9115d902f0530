//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments list                     # show available experiment ids
//! experiments all [--quick]            # run everything
//! experiments fig11 table1 ...         # run selected experiments
//! experiments all --jobs 8             # each experiment's trials on 8 workers
//! experiments all --seed 42            # perturb every trial seed (default 0 = historical outputs)
//! ```
//!
//! Results are printed as text tables and written atomically as JSON to
//! `results/<id>.json`. Performance is measured by `layerbench/`, not
//! here: the only wall-clock output is each experiment's
//! `(… completed in …)` line and the closing `ran … experiments` line.
//!
//! Experiments run one at a time, in registry order, and every `--jobs`
//! worker serves the running experiment's trials. Each experiment's
//! text, JSON and oracle verdict are emitted as soon as it finishes.
//!
//! Determinism contract: for a fixed `--seed`, the JSON outputs are
//! byte-identical for every `--jobs` value — each trial derives its RNG
//! seed purely from (experiment id, trial index), never from scheduling.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use whitefi::global_oracle_totals;
use whitefi_bench::{registry, RunCtx};

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

#[derive(Debug, PartialEq)]
struct Options {
    quick: bool,
    plot: bool,
    jobs: usize,
    seed: u64,
    selected: Vec<String>,
}

/// Parses the value of `--jobs` or `--seed`, in either spelling, into
/// `opts`. A `--jobs` of 0 means 1.
fn set_value(opts: &mut Options, name: &str, v: &str) -> Result<(), String> {
    let invalid = |_| format!("invalid value for {name}: {v}");
    if name == "--jobs" {
        opts.jobs = v.parse::<usize>().map_err(invalid)?.max(1);
    } else {
        opts.seed = v.parse::<u64>().map_err(invalid)?;
    }
    Ok(())
}

/// Parses the command line (without the program name); an error is the
/// message to print before the usage line.
fn parse_args(args: &[String]) -> Result<Options, String> {
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
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--plot" => opts.plot = true,
            "--jobs" | "--seed" => {
                let v = args.next().ok_or_else(|| format!("{a} requires a value"))?;
                set_value(&mut opts, a, v)?;
            }
            _ => match a.split_once('=') {
                Some((name @ ("--jobs" | "--seed"), v)) => set_value(&mut opts, name, v)?,
                _ if a.starts_with("--") => return Err(format!("unknown option: {a}")),
                _ => opts.selected.push(a.clone()),
            },
        }
    }
    Ok(opts)
}

// lint:allow(taint, the experiments binary times its own phases; sims only see scenario seeds)
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
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

    fs::create_dir_all("results").ok();
    let ctx = RunCtx::new(opts.quick, opts.jobs, opts.seed);
    let mut failed = false;
    let total_start = Instant::now();
    for &(id, _desc, run) in &entries {
        // Experiments run one at a time, so the change in the
        // process-wide oracle totals is exactly this experiment's.
        let oracles_before = global_oracle_totals();
        let start = Instant::now();
        let report = run(&ctx);
        let wall_s = start.elapsed().as_secs_f64();
        let oracles = global_oracle_totals().delta_since(oracles_before);

        println!("{}", report.render_text());
        if opts.plot {
            if let Some((x, ys)) = plot_axes(id) {
                println!("{}", report.render_ascii_chart(x, &ys));
            }
        }
        println!("({id} completed in {wall_s:.1}s)\n");
        if let Err(e) = report.validate() {
            eprintln!("error: invalid report: {e}");
            failed = true;
        }
        let path = format!("results/{id}.json");
        if let Err(e) = write_atomic(&path, &report.to_json()) {
            eprintln!("warning: could not write {path}: {e}");
        }
        // Invariant gate: adaptive (WhiteFi-mode) runs must never
        // violate an oracle on the seed scenarios. Fixed-baseline
        // violations are the paper's motivating failure (a static
        // channel cannot vacate for an incumbent) and are reported but
        // do not fail the run.
        if oracles.adaptive_violations > 0 {
            eprintln!(
                "error: {} adaptive oracle violation(s) during {id}",
                oracles.adaptive_violations
            );
            failed = true;
        }
    }

    println!(
        "ran {} experiments in {:.1}s (jobs {})",
        entries.len(),
        total_start.elapsed().as_secs_f64(),
        opts.jobs
    );
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn both_spellings_parse_alike() {
        for (spaced, joined) in [
            (vec!["--jobs", "3"], vec!["--jobs=3"]),
            (vec!["--seed", "42"], vec!["--seed=42"]),
            (vec!["--jobs", "0"], vec!["--jobs=0"]),
            (vec!["--seed", "0"], vec!["--seed=0"]),
        ] {
            assert_eq!(parse(&spaced), parse(&joined), "{spaced:?}");
        }
        let opts = parse(&["fig8", "--jobs", "3", "--seed=42", "--quick"]).unwrap();
        assert_eq!((opts.jobs, opts.seed, opts.quick), (3, 42, true));
        assert_eq!(opts.selected, ["fig8"]);
    }

    #[test]
    fn zero_jobs_means_one() {
        assert_eq!(parse(&["--jobs", "0"]).unwrap().jobs, 1);
        assert_eq!(parse(&["--jobs=0"]).unwrap().jobs, 1);
    }

    #[test]
    fn bad_values_keep_their_messages() {
        for (args, msg) in [
            (vec!["--jobs", "x"], "invalid value for --jobs: x"),
            (vec!["--jobs=x"], "invalid value for --jobs: x"),
            (vec!["--seed", "-1"], "invalid value for --seed: -1"),
            (vec!["--seed="], "invalid value for --seed: "),
            (vec!["--jobs"], "--jobs requires a value"),
            (vec!["--seed"], "--seed requires a value"),
            (vec!["--quick=1"], "unknown option: --quick=1"),
            (vec!["--frobnicate"], "unknown option: --frobnicate"),
        ] {
            assert_eq!(parse(&args), Err(msg.to_string()), "{args:?}");
        }
    }
}
