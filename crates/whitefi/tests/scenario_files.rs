//! Scenario-file conformance suite (DESIGN.md §15).
//!
//! Three satellites of the declarative-DSL work ride here: every
//! shipped `scenarios/*.ron` must round-trip through the canonical
//! serializer; every malformed fixture under `tests/scenario_rejects/`
//! must be rejected with its exact `file:line:col` diagnostic (no
//! panicking paths); and a compiled document must equal the hand-coded
//! engine build field for field.

use std::fs;
use std::path::{Path, PathBuf};

use whitefi::scenario_file::{self, ScenarioDoc};
use whitefi::{run_city, CityScenario};

fn rel_dir(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn ron_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .ron files under {}", dir.display());
    files
}

/// Every shipped scenario parses, serializes canonically, and the
/// canonical form re-parses to an equal document. The second
/// serialization must reproduce the first byte for byte, so the
/// canonical form is a fixed point.
#[test]
fn shipped_scenarios_round_trip() {
    let mut seen = 0;
    for path in ron_files(&rel_dir("../../scenarios")) {
        let doc = scenario_file::load(&path).unwrap_or_else(|e| panic!("{e}"));
        let canon = doc.to_ron();
        let again = scenario_file::parse_str(&canon)
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}\n{canon}", path.display()));
        assert_eq!(
            doc,
            again,
            "{}: round-trip changed the document",
            path.display()
        );
        assert_eq!(
            canon,
            again.to_ron(),
            "{}: canonical form is not a fixed point",
            path.display()
        );
        seen += 1;
    }
    assert!(
        seen >= 4,
        "expected the three example files plus city_smoke"
    );
}

/// Every malformed fixture is rejected with the exact diagnostic named
/// in its `// expect:` header — location and message, no panics. The
/// rendered error is `<path>:<line>:<col>: <message>`; the header
/// carries everything after `<path>:`.
#[test]
fn malformed_fixtures_report_exact_diagnostics() {
    let mut drifted = Vec::new();
    for path in ron_files(&rel_dir("tests/scenario_rejects")) {
        let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let expect = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("// expect: "))
            .unwrap_or_else(|| panic!("{}: missing `// expect:` header", path.display()))
            .trim();
        let err = scenario_file::load(&path)
            .err()
            .unwrap_or_else(|| panic!("{}: malformed fixture was accepted", path.display()));
        let rendered = err.to_string();
        let want = format!("{}:{expect}", path.display());
        if rendered != want {
            drifted.push(format!("  want: {want}\n  got:  {rendered}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "diagnostics drifted from fixture headers:\n{}",
        drifted.join("\n")
    );
}

/// `city_smoke.ron` compiles to exactly the engine scenario its
/// hand-coded equivalent builds: the loader adds nothing and loses
/// nothing on the city path. Its outcome does not depend on the shard
/// count (DESIGN.md §13), which is why documents carry none.
#[test]
fn city_smoke_compiles_to_the_hand_coded_city() {
    let doc = scenario_file::load(rel_dir("../../scenarios/city_smoke.ron"))
        .unwrap_or_else(|e| panic!("{e}"));
    let ScenarioDoc::City(city_doc) = &doc else {
        panic!("city_smoke.ron is not a City document");
    };
    let compiled = city_doc.compile();

    let mut want = CityScenario::grid(90210, 4, 2, 120.0, 130.0);
    want.warmup = whitefi_phy::SimDuration::from_millis(200);
    want.duration = whitefi_phy::SimDuration::from_millis(400);
    want.sample_interval = whitefi_phy::SimDuration::from_millis(100);
    want.faults = Some(whitefi_mac::FaultPlan {
        seed: 17,
        drop_prob: 0.05,
        dup_prob: 0.02,
        delay_prob: 0.02,
        max_delay: whitefi_phy::SimDuration::from_millis(2),
        max_detection_extra: whitefi_phy::SimDuration::from_millis(10),
        history_skew: None,
    });
    assert_eq!(compiled, want, "compiled city differs from hand-coded");
    assert_eq!(run_city(&compiled, 1).0, run_city(&compiled, 2).0);
}

/// Document equality is semantic, not textual: reformatting a file
/// (comments, whitespace, trailing commas, key order preserved) parses
/// to the same document.
#[test]
fn formatting_is_not_semantic() {
    let terse = "Scenario(version:1,seed:9,map:Free([5,6,7]),clients:1,\
                 warmup_s:1.0,duration_s:2.0,sample_interval_s:0.5)";
    let commented = "// leading comment\n\
                     Scenario(\n\
                       version: 1, /* inline */\n\
                       seed: 9,\n\
                       map: Free([5, 6, 7,]),\n\
                       clients: 1,\n\
                       warmup_s: 1.0,\n\
                       duration_s: 2.0,\n\
                       sample_interval_s: 0.5,\n\
                     )\n";
    let a = scenario_file::parse_str(terse).unwrap_or_else(|e| panic!("{e}"));
    let b = scenario_file::parse_str(commented).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(a, b);
}
