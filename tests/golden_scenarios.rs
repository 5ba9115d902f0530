//! Golden outcomes of the committed scenario files (DESIGN.md §15).
//!
//! Each `scenarios/*.ron` is loaded, compiled and run once; one line per
//! file records the bits of its aggregate goodput, its incumbent
//! violations, its oracle trace digest (one per cell for a city) and its
//! timeline sample count. Any drift in the loader, the compile layer or
//! the engine beneath them fails here.
//!
//! Regen after an *intended* protocol/timing change:
//! `GOLDEN_BLESS=1 cargo test --test golden_scenarios` (then commit
//! `tests/golden/scenario_files.txt`).

use std::path::{Path, PathBuf};
use whitefi::scenario_file::{self, CaseOutcome};

fn outcome_line(path: &Path) -> String {
    let doc = scenario_file::load(path).unwrap_or_else(|e| panic!("{e}"));
    let out = doc.compile().run();
    let (digests, samples): (Vec<String>, usize) = match &out {
        CaseOutcome::SingleAp(o) => (
            vec![format!("{:016x}", o.oracle.trace_digest)],
            o.samples.len(),
        ),
        CaseOutcome::City(o) => (
            o.cells
                .iter()
                .map(|c| format!("{:016x}", c.oracle.trace_digest))
                .collect(),
            o.cells.iter().map(|c| c.samples.len()).sum(),
        ),
    };
    let name = path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    );
    format!(
        "{name} aggregate_mbps=0x{:016x} violations={} digest={} samples={samples}",
        out.aggregate_mbps().to_bits(),
        out.violations(),
        digests.join(","),
    )
}

#[test]
fn scenario_file_outcomes_match_golden() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(root.join("scenarios"))
        .expect("read scenarios/")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    files.sort();
    let got: String = files.iter().map(|p| outcome_line(p) + "\n").collect();

    let path = root.join("tests/golden/scenario_files.txt");
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(&path, &got).expect("write scenario golden");
        eprintln!("re-blessed scenario outcomes -> {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing scenario golden {}: {e}", path.display()));
    assert_eq!(
        committed, got,
        "scenario-file outcomes changed. If the protocol/timing change is \
         intended, regen with: GOLDEN_BLESS=1 cargo test --test golden_scenarios"
    );
}
