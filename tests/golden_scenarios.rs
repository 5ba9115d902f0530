//! Golden outcomes of the committed scenario files (DESIGN.md §15).
//!
//! Each `scenarios/*.ron` is loaded, compiled and run once; one line per
//! file records the bits of its aggregate goodput, its incumbent
//! violations, its oracle trace digest (one per cell for a city) and its
//! timeline sample count. Any drift in the loader, the compile layer or
//! the engine beneath them fails here.
//!
//! A second golden pins the writer's bytes (DESIGN.md §15.4: same seed
//! ⇒ identical file bytes, across builds): one FNV-1a digest per
//! `generate_file(seed)` for seeds `0..256`, and one per committed
//! file's canonical `to_ron()`, in `tests/golden/scenario_bytes.txt`.
//!
//! Regen after an *intended* protocol/timing or writer change:
//! `GOLDEN_BLESS=1 cargo test --test golden_scenarios` (then commit
//! `tests/golden/scenario_files.txt` and `tests/golden/scenario_bytes.txt`).

use std::path::{Path, PathBuf};
use whitefi::scenario_file::{self, CaseOutcome};
use whitefi::scenario_fuzz::generate_file;

/// Fuzzer seeds whose file bytes the bytes golden pins.
const FUZZ_SEEDS: u64 = 256;

fn file_name(path: &Path) -> String {
    path.file_name().map_or_else(
        || path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    )
}

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
    format!(
        "{} aggregate_mbps=0x{:016x} violations={} digest={} samples={samples}",
        file_name(path),
        out.aggregate_mbps().to_bits(),
        out.violations(),
        digests.join(","),
    )
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The committed `scenarios/*.ron`, sorted by path.
fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root().join("scenarios"))
        .expect("read scenarios/")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    files.sort();
    files
}

/// Compares `got` with the committed golden `name` under
/// `tests/golden/`, or rewrites it under `GOLDEN_BLESS`.
fn check_golden(name: &str, got: &str) {
    let path = root().join("tests/golden").join(name);
    if std::env::var("GOLDEN_BLESS").is_ok() {
        std::fs::write(&path, got).expect("write scenario golden");
        eprintln!("re-blessed {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing scenario golden {}: {e}", path.display()));
    assert_eq!(
        committed, got,
        "{name} changed. If the change is intended, regen with: \
         GOLDEN_BLESS=1 cargo test --test golden_scenarios"
    );
}

#[test]
fn scenario_file_outcomes_match_golden() {
    let got: String = scenario_files()
        .iter()
        .map(|p| outcome_line(p) + "\n")
        .collect();
    check_golden("scenario_files.txt", &got);
}

#[test]
fn scenario_file_bytes_match_golden() {
    let mut got = String::new();
    for seed in 0..FUZZ_SEEDS {
        let ron = generate_file(seed);
        got += &format!("fuzz seed={seed} fnv1a={:016x}\n", fnv1a(ron.as_bytes()));
    }
    for p in scenario_files() {
        let doc = scenario_file::load(&p).unwrap_or_else(|e| panic!("{e}"));
        let ron = doc.to_ron();
        got += &format!("{} fnv1a={:016x}\n", file_name(&p), fnv1a(ron.as_bytes()));
    }
    check_golden("scenario_bytes.txt", &got);
}
