//! The whitefi-lint rule engine: R1–R5 over a lexed token stream, plus
//! waiver-comment handling and `#[cfg(test)]` region tracking.
//!
//! Rule scope matrix (see DESIGN.md §11 for the rationale):
//!
//! | rule        | where it applies                                        |
//! |-------------|---------------------------------------------------------|
//! | R1-hashmap  | every file of the sim-deterministic crates              |
//! | R2-nondet   | everywhere except benches and the wall-clock allowlist; |
//! |             | sync primitives (`Mutex`/`RwLock`/`Condvar`/`mpsc`)     |
//! |             | additionally banned in sim-crate `src/` outside         |
//! |             | `#[cfg(test)]`                                          |
//! | R3-rng      | everywhere                                              |
//! | R4-unwrap   | `src/` of every crate, outside `#[cfg(test)]`           |
//! | R5-cast     | the hot numeric kernels, outside `#[cfg(test)]`         |
//!
//! A violation is silenced by a waiver comment on the same line or on a
//! comment-only line directly above it:
//!
//! ```text
//! // lint:allow(unwrap, medium invariant: ids are handed out by start())
//! ```
//!
//! The reason text is mandatory; a waiver without one (or with an
//! unknown rule key) is itself a diagnostic, so waivers stay reviewable.
//! A valid waiver that silences *nothing* is also a diagnostic
//! (R8-dead-waiver): when the violation it covered is fixed or moves,
//! the stale waiver must be deleted, or it would silently re-arm.
//!
//! R6 (call-graph taint) and R7 (RNG stream map) are whole-workspace
//! analyses: [`analyze_file`] collects the per-file facts, the passes
//! in [`crate::taint`] and [`crate::streams`] compute cross-file hits,
//! and [`finalize`] merges everything through one waiver filter.

use crate::diag::{Diagnostic, RuleId};
use crate::graph::{file_fns, FnItem};
use crate::lexer::{lex, Comment, Lexed, TokKind, Token};

/// Crates whose state must evolve identically across schedulers and
/// hosts (byte-identical runs, pruned==unpruned, golden digests).
const SIM_CRATES: [&str; 4] = ["mac", "whitefi", "spectrum", "bench"];

/// Files allowed to read the wall clock: experiment timing around the
/// sims, never inside them.
const WALL_CLOCK_ALLOWLIST: [&str; 2] = [
    "crates/bench/src/runner.rs",
    "crates/bench/src/bin/experiments.rs",
];

/// The hot numeric kernels held to R5 (no `as` numeric casts).
const NUMERIC_KERNELS: [&str; 4] = [
    "crates/phy/src/kernels.rs",
    "crates/phy/src/sift.rs",
    "crates/spectrum/src/airtime.rs",
    "crates/whitefi/src/mcham.rs",
];

const NUMERIC_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Where a file sits in the workspace — drives rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` of a crate (library modules and `src/bin` binaries).
    LibSrc,
    /// An integration-test tree (`tests/`).
    TestsDir,
    /// A bench tree (`benches/`).
    Benches,
    /// An example (`examples/`).
    Examples,
}

/// Classified location of one source file.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Path relative to the lint root, forward slashes.
    pub rel: String,
    /// Crate directory name under `crates/`, if any.
    pub crate_dir: Option<String>,
    /// Which tree of the crate (or workspace root) the file is in.
    pub kind: FileKind,
}

impl FileCtx {
    /// Classifies `rel` (e.g. `crates/mac/src/sim.rs`, `tests/e2e.rs`).
    /// Returns `None` for files the linter does not cover.
    pub fn classify(rel: &str) -> Option<Self> {
        let (crate_dir, rest) = match rel.strip_prefix("crates/") {
            Some(r) => {
                let (name, rest) = r.split_once('/')?;
                (Some(name.to_string()), rest)
            }
            None => (None, rel),
        };
        let kind = if rest.starts_with("src/") {
            FileKind::LibSrc
        } else if rest.starts_with("tests/") {
            FileKind::TestsDir
        } else if rest.starts_with("benches/") {
            FileKind::Benches
        } else if rest.starts_with("examples/") {
            FileKind::Examples
        } else {
            return None;
        };
        Some(Self {
            rel: rel.to_string(),
            crate_dir,
            kind,
        })
    }

    /// Whether the file belongs to one of the sim-deterministic crates.
    pub fn in_sim_crate(&self) -> bool {
        self.crate_dir
            .as_deref()
            .is_some_and(|c| SIM_CRATES.contains(&c))
    }

    /// Whether the file is on the R2 wall-clock allowlist (the bench
    /// runner and the experiments binary). Under R6 this allowlist is
    /// no longer a blanket pass: every *function* in these files that
    /// reads ambient state needs its own `taint` waiver.
    pub fn wall_clock_allowlisted(&self) -> bool {
        WALL_CLOCK_ALLOWLIST.contains(&self.rel.as_str())
    }
}

/// One parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule key (`unwrap`, `cast`, …).
    pub key: String,
    /// The mandatory justification; `None` when missing.
    pub reason: Option<String>,
    /// Line the waiver silences.
    pub target_line: u32,
    /// Line of the comment itself.
    pub comment_line: u32,
}

/// Extracts waivers from comments. A trailing comment targets its own
/// line; a standalone comment targets the next line that has tokens.
fn parse_waivers(comments: &[Comment], token_lines: &[u32]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in comments {
        if c.is_doc() {
            continue; // doc text may *describe* waivers, not enact them
        }
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let body = &c.text[pos + "lint:allow(".len()..];
        let Some(end) = body.find(')') else {
            out.push(Waiver {
                key: String::new(),
                reason: None,
                target_line: c.line,
                comment_line: c.line,
            });
            continue;
        };
        let inner = &body[..end];
        let (key, reason) = match inner.split_once(',') {
            Some((k, r)) => {
                let r = r.trim();
                (k.trim().to_string(), (!r.is_empty()).then(|| r.to_string()))
            }
            None => (inner.trim().to_string(), None),
        };
        let target_line = if c.trailing {
            c.line
        } else {
            token_lines
                .iter()
                .copied()
                .find(|&l| l > c.line)
                .unwrap_or(c.line)
        };
        out.push(Waiver {
            key,
            reason,
            target_line,
            comment_line: c.line,
        });
    }
    out
}

/// Computes the set of lines covered by `#[cfg(test)]` (or `#[test]`)
/// items: the attribute through the end of the annotated item.
fn test_region_lines(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].kind == TokKind::Punct && tokens[i].text == "#") {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test_attr)) = scan_attribute(tokens, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes on the same item.
        let mut j = attr_end;
        while j < tokens.len() && tokens[j].kind == TokKind::Punct && tokens[j].text == "#" {
            match scan_attribute(tokens, j) {
                Some((e, _)) => j = e,
                None => break,
            }
        }
        // Item extent: first `{` at delimiter depth 0 opens a balanced
        // block ending the item; a `;` at depth 0 before that ends it.
        let mut depth = 0i64;
        let mut end_line = start_line;
        while j < tokens.len() {
            let t = &tokens[j];
            end_line = t.line;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => {
                        j += 1;
                        break;
                    }
                    "{" if depth == 0 => {
                        let mut braces = 1i64;
                        j += 1;
                        while j < tokens.len() && braces > 0 {
                            let b = &tokens[j];
                            end_line = b.line;
                            if b.kind == TokKind::Punct {
                                match b.text.as_str() {
                                    "{" => braces += 1,
                                    "}" => braces -= 1,
                                    _ => {}
                                }
                            }
                            j += 1;
                        }
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

/// Scans an attribute starting at the `#` token. Returns the index one
/// past the closing `]` and whether it marks test-only code
/// (`#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[test]` — but not
/// `#[cfg(not(test))]`).
fn scan_attribute(tokens: &[Token], hash: usize) -> Option<(usize, bool)> {
    let mut j = hash + 1;
    // Inner attribute `#![…]`.
    if tokens
        .get(j)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == "!")
    {
        j += 1;
    }
    if !tokens
        .get(j)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == "[")
    {
        return None;
    }
    let open = j;
    let mut depth = 0i64;
    let mut is_test = false;
    let mut saw_cfg = false;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((j + 1, is_test));
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "cfg" => saw_cfg = true,
                "test" => {
                    let negated = j >= 2
                        && tokens[j - 1].text == "("
                        && tokens[j - 2].kind == TokKind::Ident
                        && tokens[j - 2].text == "not";
                    // `#[test]` alone, or `test` inside a (non-negated)
                    // `cfg(...)` — either marks test-only code.
                    if !negated && (saw_cfg || j == open + 1) {
                        is_test = true;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    None
}

/// A rule hit before waiver filtering.
#[derive(Debug, Clone)]
pub struct Hit {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-based source line.
    pub line: u32,
    /// Site-specific message.
    pub message: String,
}

fn seq_path(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    tokens[i].kind == TokKind::Ident
        && tokens[i].text == first
        && matches!(tokens.get(i + 1), Some(t) if t.kind == TokKind::Punct && t.text == ":")
        && matches!(tokens.get(i + 2), Some(t) if t.kind == TokKind::Punct && t.text == ":")
        && matches!(tokens.get(i + 3), Some(t) if t.kind == TokKind::Ident && t.text == second)
}

fn scan_rules(ctx: &FileCtx, lexed: &Lexed, test_regions: &[(u32, u32)]) -> Vec<Hit> {
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| (a..=b).contains(&line));
    let tokens = &lexed.tokens;
    let mut hits = Vec::new();

    let r1 = ctx.in_sim_crate();
    let r2 = ctx.kind != FileKind::Benches && !WALL_CLOCK_ALLOWLIST.contains(&ctx.rel.as_str());
    // Shared-memory synchronization primitives have no place in sim-crate
    // library code: cross-thread work fans out through `RunCtx::map`,
    // which hands results back through scoped-thread join handles — an
    // ad-hoc lock or channel is exactly how schedule-dependent state
    // leaks into byte-identical runs.
    let r2_sync = ctx.in_sim_crate() && ctx.kind == FileKind::LibSrc;
    let r4 = ctx.kind == FileKind::LibSrc;
    let r5 = NUMERIC_KERNELS.contains(&ctx.rel.as_str());

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if r1 => hits.push(Hit {
                rule: RuleId::R1Hashmap,
                line: t.line,
                message: format!(
                    "`{}` in sim-deterministic crate `{}` (unordered iteration breaks \
                     byte-identical runs)",
                    t.text,
                    ctx.crate_dir.as_deref().unwrap_or("?"),
                ),
            }),
            "thread_rng" if r2 => hits.push(Hit {
                rule: RuleId::R2Nondet,
                line: t.line,
                message: "`thread_rng()` is ambient nondeterminism".to_string(),
            }),
            "rand" if r2 && seq_path(tokens, i, "rand", "random") => hits.push(Hit {
                rule: RuleId::R2Nondet,
                line: t.line,
                message: "`rand::random()` is ambient nondeterminism".to_string(),
            }),
            "SystemTime" if r2 && seq_path(tokens, i, "SystemTime", "now") => hits.push(Hit {
                rule: RuleId::R2Nondet,
                line: t.line,
                message: "`SystemTime::now()` reads the wall clock in a sim path".to_string(),
            }),
            "Instant" if r2 && seq_path(tokens, i, "Instant", "now") => hits.push(Hit {
                rule: RuleId::R2Nondet,
                line: t.line,
                message: "`Instant::now()` reads the wall clock outside the timing allowlist"
                    .to_string(),
            }),
            "thread" if r2 && seq_path(tokens, i, "thread", "spawn") => hits.push(Hit {
                rule: RuleId::R2Nondet,
                line: t.line,
                message: "`thread::spawn` outside the runner pool (ambient scheduling; fan \
                          work out through RunCtx::map so results reassemble \
                          deterministically)"
                    .to_string(),
            }),
            "Mutex" | "RwLock" | "Condvar" | "mpsc" if r2_sync && !in_test(t.line) => {
                hits.push(Hit {
                    rule: RuleId::R2Nondet,
                    line: t.line,
                    message: format!(
                        "`{}` in sim-crate library code — fan \
                         work out through RunCtx::map, which returns results \
                         through join handles instead of shared state",
                        t.text
                    ),
                });
            }
            "from_entropy" | "from_os_rng" => hits.push(Hit {
                rule: RuleId::R3Rng,
                line: t.line,
                message: format!(
                    "`{}()` bypasses the per-node stream API (seed_from_u64 + set_stream)",
                    t.text
                ),
            }),
            "unwrap" | "expect" if r4 && !in_test(t.line) => {
                let dotted =
                    i >= 1 && tokens[i - 1].kind == TokKind::Punct && tokens[i - 1].text == ".";
                let called = matches!(
                    tokens.get(i + 1),
                    Some(n) if n.kind == TokKind::Punct && n.text == "("
                );
                if dotted && called {
                    hits.push(Hit {
                        rule: RuleId::R4Unwrap,
                        line: t.line,
                        message: format!("`.{}()` in library code outside #[cfg(test)]", t.text),
                    });
                }
            }
            "as" if r5 && !in_test(t.line) => {
                if let Some(n) = tokens.get(i + 1) {
                    if n.kind == TokKind::Ident
                        && (NUMERIC_TYPES.contains(&n.text.as_str())
                            || n.text == "f32"
                            || n.text == "f64")
                    {
                        hits.push(Hit {
                            rule: RuleId::R5Cast,
                            line: t.line,
                            message: format!(
                                "`as {}` cast in hot numeric kernel (potentially lossy)",
                                n.text
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    hits
}

/// Result of linting one file.
pub struct FileReport {
    /// Diagnostics that survived waiver filtering.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations silenced by a valid waiver.
    pub waived: usize,
}

/// What one valid waiver actually silenced (for `--explain-waiver` and
/// the R8 dead-waiver check).
#[derive(Debug, Clone)]
pub struct WaiverExplain {
    /// File the waiver lives in.
    pub file: String,
    /// Line of the waiver comment.
    pub line: u32,
    /// Waiver rule key.
    pub key: String,
    /// The human-written justification.
    pub reason: String,
    /// `(rule, line)` of every hit this waiver silenced. Empty ⇒ dead.
    pub silenced: Vec<(RuleId, u32)>,
}

/// Everything the per-file pass learned about one source file; the
/// whole-workspace analyses (taint, streams) read these and hand their
/// extra hits back to [`finalize`].
pub struct FileAnalysis {
    /// Classified path.
    pub ctx: FileCtx,
    /// The full token/comment stream.
    pub lexed: Lexed,
    /// Source lines (for snippets).
    pub src_lines: Vec<String>,
    /// `#[cfg(test)]` line regions.
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed waiver comments (valid or not).
    pub waivers: Vec<Waiver>,
    /// Local (R1–R5) hits.
    pub hits: Vec<Hit>,
    /// Extracted `fn` items with call sites.
    pub fns: Vec<FnItem>,
}

impl FileAnalysis {
    /// Whether `line` falls in a `#[cfg(test)]` region.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Whether a *valid* (keyed + reasoned) waiver targets `line`.
    pub fn valid_waiver_on(&self, key: &str, line: u32) -> bool {
        self.waivers
            .iter()
            .any(|w| w.key == key && w.reason.is_some() && w.target_line == line)
    }
}

/// Runs the per-file pass: lex, waivers, test regions, local rules and
/// the call-graph extraction.
pub fn analyze_file(ctx: FileCtx, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let token_lines = lexed.token_lines();
    let waivers = parse_waivers(&lexed.comments, &token_lines);
    let test_regions = test_region_lines(&lexed.tokens);
    let hits = scan_rules(&ctx, &lexed, &test_regions);
    let fns = file_fns(&lexed);
    FileAnalysis {
        ctx,
        src_lines: src.lines().map(str::to_string).collect(),
        lexed,
        test_regions,
        waivers,
        hits,
        fns,
    }
}

const KNOWN_KEYS: [&str; 7] = [
    "hashmap", "nondet", "rng", "unwrap", "cast", "taint", "streams",
];

/// Filters the file's local hits plus any `extra_hits` from the global
/// analyses through the waiver set, reporting malformed waivers and
/// R8 dead waivers alongside. Returns the report and the per-waiver
/// explanation records.
pub fn finalize(fa: &FileAnalysis, extra_hits: Vec<Hit>) -> (FileReport, Vec<WaiverExplain>) {
    let ctx = &fa.ctx;
    let snippet = |line: u32| -> String {
        fa.src_lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let mut diagnostics = Vec::new();
    let mut explains: Vec<WaiverExplain> = Vec::new();
    for w in &fa.waivers {
        if w.key.is_empty() || !KNOWN_KEYS.contains(&w.key.as_str()) {
            diagnostics.push(Diagnostic {
                file: ctx.rel.clone(),
                line: w.comment_line,
                rule: RuleId::Waiver,
                message: if w.key.is_empty() {
                    "malformed waiver (unclosed or empty lint:allow)".to_string()
                } else {
                    format!(
                        "waiver names unknown rule `{}` (known: {})",
                        w.key,
                        KNOWN_KEYS.join(", ")
                    )
                },
                snippet: snippet(w.comment_line),
            });
            continue;
        }
        if w.reason.is_none() {
            diagnostics.push(Diagnostic {
                file: ctx.rel.clone(),
                line: w.comment_line,
                rule: RuleId::Waiver,
                message: format!(
                    "waiver for `{}` is missing its reason — every waiver must say why \
                     the invariant holds",
                    w.key
                ),
                snippet: snippet(w.comment_line),
            });
            continue;
        }
        explains.push(WaiverExplain {
            file: ctx.rel.clone(),
            line: w.comment_line,
            key: w.key.clone(),
            reason: w.reason.clone().unwrap_or_default(),
            silenced: Vec::new(),
        });
    }

    let mut waived = 0usize;
    let mut hits = fa.hits.clone();
    hits.extend(extra_hits);
    for h in hits {
        let key = h.rule.waiver_key();
        // A waiver's `target_line` is unique per (key, line): the first
        // matching explain record collects every hit on that line.
        let matched = explains
            .iter_mut()
            .find(|e| e.key == key && waiver_targets(fa, e.line, h.line));
        if let Some(e) = matched {
            e.silenced.push((h.rule, h.line));
            waived += 1;
            continue;
        }
        diagnostics.push(Diagnostic {
            file: ctx.rel.clone(),
            line: h.line,
            rule: h.rule,
            message: h.message,
            snippet: snippet(h.line),
        });
    }

    // R8: a valid waiver that silenced nothing is itself a finding.
    for e in &explains {
        if e.silenced.is_empty() {
            diagnostics.push(Diagnostic {
                file: ctx.rel.clone(),
                line: e.line,
                rule: RuleId::R8DeadWaiver,
                message: format!(
                    "dead waiver: `lint:allow({}, …)` no longer silences anything here",
                    e.key
                ),
                snippet: snippet(e.line),
            });
        }
    }

    diagnostics.sort_by_key(|d| (d.line, d.rule));
    (
        FileReport {
            diagnostics,
            waived,
        },
        explains,
    )
}

/// Whether the waiver whose comment sits on `comment_line` targets
/// `hit_line` (trailing: same line; standalone: next token line).
fn waiver_targets(fa: &FileAnalysis, comment_line: u32, hit_line: u32) -> bool {
    fa.waivers
        .iter()
        .any(|w| w.comment_line == comment_line && w.target_line == hit_line)
}

/// Lints one file's source text with the local rules only (R6/R7 need
/// the whole workspace — see [`crate::lint_root`]). R8 dead-waiver
/// detection runs here too, so a waiver must silence a local hit.
pub fn check_file(ctx: &FileCtx, src: &str) -> FileReport {
    let fa = analyze_file(ctx.clone(), src);
    finalize(&fa, Vec::new()).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rel: &str) -> FileCtx {
        FileCtx::classify(rel).expect("classifiable path")
    }

    fn lint(rel: &str, src: &str) -> FileReport {
        check_file(&ctx(rel), src)
    }

    #[test]
    fn classify_paths() {
        let c = ctx("crates/mac/src/sim.rs");
        assert_eq!(c.crate_dir.as_deref(), Some("mac"));
        assert_eq!(c.kind, FileKind::LibSrc);
        assert!(c.in_sim_crate());
        let c = ctx("crates/phy/tests/proptests.rs");
        assert_eq!(c.kind, FileKind::TestsDir);
        assert!(!c.in_sim_crate());
        let c = ctx("src/lib.rs");
        assert_eq!(c.crate_dir, None);
        assert_eq!(c.kind, FileKind::LibSrc);
        assert!(FileCtx::classify("README.md").is_none());
    }

    #[test]
    fn r1_fires_only_in_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint("crates/mac/src/x.rs", src).diagnostics.len(), 1);
        assert!(lint("crates/phy/src/x.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn r2_respects_allowlist_and_benches() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(lint("crates/mac/src/x.rs", src).diagnostics.len(), 1);
        assert!(lint("crates/bench/src/bin/experiments.rs", src)
            .diagnostics
            .is_empty());
        assert!(lint("crates/bench/benches/b.rs", src)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn r2_flags_detached_thread_spawn_but_not_scoped_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(lint("crates/whitefi/src/city.rs", src).diagnostics.len(), 1);
        // The runner pool (allowlisted) and benches stay free to thread.
        assert!(lint("crates/bench/src/runner.rs", src)
            .diagnostics
            .is_empty());
        assert!(lint("crates/bench/benches/city.rs", src)
            .diagnostics
            .is_empty());
        // `scope.spawn` method calls (the pool's own mechanism) are a
        // different token shape and do not fire.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(lint("crates/whitefi/src/city.rs", scoped)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn r2_sync_primitives_flagged_in_all_sim_library_code() {
        let src = "use std::sync::Mutex;\n\
                   fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n";
        let r = lint("crates/whitefi/src/city.rs", src);
        assert_eq!(r.diagnostics.len(), 2);
        assert!(r.diagnostics.iter().all(|d| d.rule == RuleId::R2Nondet));
        assert_eq!(r.diagnostics[0].line, 1);
        assert_eq!(r.diagnostics[1].line, 2);
        // No file is exempt: the runner pool returns results through
        // join handles, and the experiments binary has no pool of its own.
        assert_eq!(lint("crates/bench/src/runner.rs", src).diagnostics.len(), 2);
        assert_eq!(
            lint("crates/bench/src/bin/experiments.rs", src)
                .diagnostics
                .len(),
            2
        );
        // Non-sim crates and sim-crate test trees are out of scope.
        assert!(lint("crates/phy/src/x.rs", src).diagnostics.is_empty());
        assert!(lint("crates/whitefi/tests/t.rs", src)
            .diagnostics
            .is_empty());
        // Test regions inside sim-crate src may lock freely.
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(lint("crates/whitefi/src/city.rs", test_src)
            .diagnostics
            .is_empty());
        // RwLock and Condvar are the same violation.
        let more = "fn f() { let l = std::sync::RwLock::new(0); let c = Condvar::new(); }\n";
        assert_eq!(lint("crates/mac/src/sim.rs", more).diagnostics.len(), 2);
    }

    #[test]
    fn r4_skips_cfg_test_items() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) { x.unwrap(); }\n}\n";
        let r = lint("crates/spectrum/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_still_linted() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        assert_eq!(lint("crates/mac/src/x.rs", src).diagnostics.len(), 1);
    }

    #[test]
    fn unwrap_or_and_bare_names_do_not_fire() {
        let src = "fn f(x: Option<u8>) { x.unwrap_or(0); let unwrap = 3; let _ = unwrap; }\n";
        assert!(lint("crates/mac/src/x.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn trailing_waiver_silences_with_reason() {
        let src = "fn f(x: Option<u8>) { x.expect(\"invariant\"); } \
                   // lint:allow(unwrap, checked two lines up)\n";
        let r = lint("crates/mac/src/x.rs", src);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn standalone_waiver_targets_next_code_line() {
        let src = "// lint:allow(unwrap, the queue is non-empty by construction)\n\
                   fn f(x: Option<u8>) { x.unwrap(); }\n";
        let r = lint("crates/mac/src/x.rs", src);
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn waiver_without_reason_is_a_diagnostic() {
        let src = "// lint:allow(unwrap)\nfn f(x: Option<u8>) { x.unwrap(); }\n";
        let r = lint("crates/mac/src/x.rs", src);
        // Both the malformed waiver and the (unsilenced) unwrap fire.
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].rule, RuleId::Waiver);
        assert_eq!(r.diagnostics[1].rule, RuleId::R4Unwrap);
    }

    #[test]
    fn waiver_with_wrong_key_does_not_silence() {
        let src = "// lint:allow(cast, wrong key for this violation)\n\
                   fn f(x: Option<u8>) { x.unwrap(); }\n";
        let r = lint("crates/mac/src/x.rs", src);
        // The unwrap stays a violation, and the mismatched (valid but
        // useless) waiver is flagged dead by R8.
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].rule, RuleId::R8DeadWaiver);
        assert_eq!(r.diagnostics[0].line, 1);
        assert_eq!(r.diagnostics[1].rule, RuleId::R4Unwrap);
        assert_eq!(r.diagnostics[1].line, 2);
    }

    #[test]
    fn doc_comments_do_not_enact_waivers() {
        let src = "/// lint:allow(unwrap, doc example only — must not waive)\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let r = lint("crates/mac/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, RuleId::R4Unwrap);
        assert_eq!(r.waived, 0);
    }

    #[test]
    fn dead_waiver_fires_after_the_violation_is_fixed() {
        let src = "// lint:allow(unwrap, the queue is non-empty by construction)\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n";
        let r = lint("crates/mac/src/x.rs", src);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].rule, RuleId::R8DeadWaiver);
        assert_eq!(r.waived, 0);
    }

    #[test]
    fn r5_only_in_kernels() {
        let src = "fn f(n: usize) -> f64 { n as f64 }\n";
        assert_eq!(lint("crates/phy/src/sift.rs", src).diagnostics.len(), 1);
        assert!(lint("crates/phy/src/scanner.rs", src)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn r5_ignores_non_numeric_as() {
        let src = "use std::fmt::Debug as D;\nfn f(x: &dyn D) {}\n";
        assert!(lint("crates/phy/src/sift.rs", src).diagnostics.is_empty());
    }

    #[test]
    fn r3_fires_everywhere() {
        let src = "fn f() { let r = ChaCha8Rng::from_entropy(); }\n";
        assert_eq!(lint("crates/audio/src/x.rs", src).diagnostics.len(), 1);
        assert_eq!(lint("tests/e2e.rs", src).diagnostics.len(), 1);
    }

    #[test]
    fn banned_names_in_strings_and_comments_do_not_fire() {
        let src = "// HashMap thread_rng from_entropy\n\
                   fn f() -> &'static str { \"HashMap::from_entropy\" }\n";
        assert!(lint("crates/mac/src/x.rs", src).diagnostics.is_empty());
    }
}
