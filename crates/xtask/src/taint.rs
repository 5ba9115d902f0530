//! R6: call-graph nondeterminism taint (DESIGN.md §16).
//!
//! R2 is lexical: it flags the *tokens* of ambient nondeterminism
//! (`Instant::now`, `thread_rng`, …) but cannot see a sim-crate
//! function that reaches a wall clock through a wrapper defined in an
//! allowlisted (or out-of-crate) file. R6 closes that hole:
//!
//! 1. **Seed**: every `fn` whose body lexically contains an ambient
//!    source (`Instant::now`, `SystemTime::now`, `thread_rng`,
//!    `rand::random`, `from_entropy`, `from_os_rng`, `env::var{,_os}`,
//!    `env::vars`) is directly tainted.
//! 2. **Propagate**: taint flows caller-ward over the conservative
//!    name-resolved call graph ([`crate::graph`]) to a fixed point. A
//!    function whose definition line carries a valid
//!    `lint:allow(taint, …)` waiver is a **barrier**: it is sanctioned
//!    to touch ambient state and its callers stay clean (the
//!    `experiments` binary's `main`, which times each experiment, is
//!    the canonical barrier).
//! 3. **Flag**: a fn in sim-deterministic library code (outside
//!    `#[cfg(test)]`) is reported when it is *transitively* tainted
//!    through a call, or when it is *directly* tainted inside a file
//!    on R2's wall-clock allowlist — under R6 that file allowlist
//!    shrinks to a per-function waiver, so each clock-touching fn is
//!    individually acknowledged.
//!
//! Directly tainted fns outside the allowlist are NOT re-reported:
//! their source tokens are already R2/R3 violations at the exact line.
//! The reported hit lands on the `fn` line and is waived (and turned
//! into a barrier) by the same `taint` key, so acknowledging a finding
//! and stopping its upward propagation are one act.

use crate::diag::RuleId;
use crate::lexer::{TokKind, Token};
use crate::rules::{FileAnalysis, FileKind, Hit};
use std::collections::BTreeMap;

/// One ambient-nondeterminism source found in a fn body.
#[derive(Debug, Clone)]
struct Source {
    what: &'static str,
    line: u32,
}

fn seq_path(tokens: &[Token], i: usize, first: &str, second: &str) -> bool {
    tokens[i].kind == TokKind::Ident
        && tokens[i].text == first
        && matches!(tokens.get(i + 1), Some(t) if t.kind == TokKind::Punct && t.text == ":")
        && matches!(tokens.get(i + 2), Some(t) if t.kind == TokKind::Punct && t.text == ":")
        && matches!(tokens.get(i + 3), Some(t) if t.kind == TokKind::Ident && t.text == second)
}

/// Scans one fn body token range for ambient sources.
fn body_sources(tokens: &[Token], range: (usize, usize)) -> Vec<Source> {
    let mut out = Vec::new();
    for i in range.0..=range.1.min(tokens.len().saturating_sub(1)) {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            "Instant" if seq_path(tokens, i, "Instant", "now") => "Instant::now()",
            "SystemTime" if seq_path(tokens, i, "SystemTime", "now") => "SystemTime::now()",
            "thread_rng" => "thread_rng()",
            "rand" if seq_path(tokens, i, "rand", "random") => "rand::random()",
            "from_entropy" => "from_entropy()",
            "from_os_rng" => "from_os_rng()",
            "env"
                if seq_path(tokens, i, "env", "var")
                    || seq_path(tokens, i, "env", "var_os")
                    || seq_path(tokens, i, "env", "vars") =>
            {
                "env read"
            }
            _ => continue,
        };
        out.push(Source { what, line: t.line });
    }
    out
}

/// Per-fn taint state across the whole workspace.
struct Node {
    file: usize,
    fn_ix: usize,
    barrier: bool,
    /// Direct ambient source in this body, if any.
    direct: Option<Source>,
    /// `(callee node, call line)` that tainted this fn transitively.
    via: Option<(usize, u32)>,
}

/// Runs the R6 analysis over every analyzed file; returns extra hits
/// keyed by file index.
pub fn analyze(files: &[FileAnalysis]) -> BTreeMap<usize, Vec<Hit>> {
    // Build the global node list and the name → nodes index.
    let mut nodes: Vec<Node> = Vec::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, fa) in files.iter().enumerate() {
        for (gi, f) in fa.fns.iter().enumerate() {
            let direct = f
                .body_range()
                .and_then(|r| body_sources(&fa.lexed.tokens, r).into_iter().next());
            let n = nodes.len();
            nodes.push(Node {
                file: fi,
                fn_ix: gi,
                barrier: fa.valid_waiver_on("taint", f.line),
                direct,
                via: None,
            });
            by_name.entry(f.name.as_str()).or_default().push(n);
        }
    }

    // Caller-ward fixed point: conservative name resolution means a
    // call edge to every same-named fn, so taint can only be
    // over-propagated, never missed.
    let mut tainted: Vec<bool> = nodes.iter().map(|n| n.direct.is_some()).collect();
    loop {
        let mut changed = false;
        for n in 0..nodes.len() {
            if tainted[n] {
                continue;
            }
            let fa = &files[nodes[n].file];
            let f = &fa.fns[nodes[n].fn_ix];
            'calls: for c in &f.calls {
                let Some(cands) = by_name.get(c.callee.as_str()) else {
                    continue;
                };
                for &m in cands {
                    if m != n && tainted[m] && !nodes[m].barrier {
                        tainted[n] = true;
                        nodes[n].via = Some((m, c.line));
                        changed = true;
                        break 'calls;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Witness path: follow `via` links down to a direct source.
    let path_of = |start: usize| -> String {
        let mut parts = Vec::new();
        let mut cur = start;
        for _ in 0..16 {
            let node = &nodes[cur];
            let fa = &files[node.file];
            let f = &fa.fns[node.fn_ix];
            parts.push(f.qual.clone());
            if let Some(src) = &node.direct {
                parts.push(format!("{} ({}:{})", src.what, fa.ctx.rel, src.line));
                break;
            }
            match node.via {
                Some((next, _)) => cur = next,
                None => break,
            }
        }
        parts.join(" → ")
    };

    let mut out: BTreeMap<usize, Vec<Hit>> = BTreeMap::new();
    for n in 0..nodes.len() {
        if !tainted[n] {
            continue;
        }
        let node = &nodes[n];
        let fa = &files[node.file];
        let f = &fa.fns[node.fn_ix];
        if !(fa.ctx.in_sim_crate() && fa.ctx.kind == FileKind::LibSrc) || fa.in_test(f.line) {
            continue;
        }
        let transitive = node.direct.is_none() && node.via.is_some();
        let direct_on_allowlist = node.direct.is_some() && fa.ctx.wall_clock_allowlisted();
        // Barrier fns still produce the hit: their `taint` waiver
        // silences it (and is thereby counted live, not dead).
        if !(transitive || direct_on_allowlist) {
            continue;
        }
        let message = if transitive {
            format!(
                "`{}` reaches ambient nondeterminism through its calls: {}",
                f.qual,
                path_of(n)
            )
        } else {
            format!(
                "`{}` reads ambient state directly ({}); the R2 file allowlist is a \
                 per-function waiver under R6",
                f.qual,
                path_of(n)
            )
        };
        out.entry(node.file).or_default().push(Hit {
            rule: RuleId::R6Taint,
            line: f.line,
            message,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{analyze_file, FileCtx};

    fn fa(rel: &str, src: &str) -> FileAnalysis {
        analyze_file(FileCtx::classify(rel).expect("classifiable"), src)
    }

    fn hit_lines(hits: &BTreeMap<usize, Vec<Hit>>, file: usize) -> Vec<u32> {
        hits.get(&file)
            .map(|v| v.iter().map(|h| h.line).collect())
            .unwrap_or_default()
    }

    #[test]
    fn transitive_wrapper_is_caught() {
        // The wrapper lives on the R2 wall-clock allowlist; the sim fn
        // reaches the clock only through the call — exactly the path
        // lexical R2 cannot see.
        let wrapper = fa(
            "crates/bench/src/runner.rs",
            "pub fn now_secs() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
        );
        let sim = fa(
            "crates/mac/src/x.rs",
            "pub fn step() -> f64 { crate::now_secs() }\n",
        );
        let files = vec![wrapper, sim];
        let hits = analyze(&files);
        // Wrapper: direct source on the allowlist → per-function hit.
        assert_eq!(hit_lines(&hits, 0), vec![1]);
        // Sim fn: transitively tainted.
        assert_eq!(hit_lines(&hits, 1), vec![1]);
        let msg = &hits[&1][0].message;
        assert!(msg.contains("step → now_secs → Instant::now()"), "{msg}");
    }

    #[test]
    fn barrier_waiver_stops_propagation() {
        let wrapper = fa(
            "crates/bench/src/runner.rs",
            "// lint:allow(taint, sanctioned experiment timing — results carry wall \
             seconds, sims never see them)\n\
             pub fn now_secs() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
        );
        let sim = fa(
            "crates/mac/src/x.rs",
            "pub fn step() -> f64 { crate::now_secs() }\n",
        );
        let files = vec![wrapper, sim];
        let hits = analyze(&files);
        // The barrier fn still yields its (waivable) hit; the caller is
        // clean.
        assert_eq!(hit_lines(&hits, 0), vec![2]);
        assert!(hit_lines(&hits, 1).is_empty());
    }

    #[test]
    fn direct_sources_outside_allowlist_are_left_to_r2() {
        let sim = fa(
            "crates/mac/src/x.rs",
            "pub fn bad() -> u64 { thread_rng().gen() }\n\
             pub fn caller() -> u64 { bad() }\n",
        );
        let files = vec![sim];
        let hits = analyze(&files);
        // `bad` is R2's finding (line 1 token); R6 flags only the
        // transitive caller.
        assert_eq!(hit_lines(&hits, 0), vec![2]);
    }

    #[test]
    fn test_regions_and_non_sim_crates_are_out_of_scope() {
        let wrapper = fa(
            "crates/bench/src/runner.rs",
            "pub fn now_secs() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
        );
        let phy = fa(
            "crates/phy/src/x.rs",
            "pub fn free() -> f64 { crate::now_secs() }\n",
        );
        let sim_test = fa(
            "crates/mac/src/y.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() -> f64 { crate::now_secs() }\n}\n",
        );
        let files = vec![wrapper, phy, sim_test];
        let hits = analyze(&files);
        assert!(hit_lines(&hits, 1).is_empty(), "phy is not a sim crate");
        assert!(hit_lines(&hits, 2).is_empty(), "test regions may time");
    }

    #[test]
    fn propagation_is_transitive_over_many_hops() {
        let wrapper = fa(
            "crates/bench/src/runner.rs",
            "pub fn now_secs() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }\n",
        );
        let sim = fa(
            "crates/whitefi/src/x.rs",
            "pub fn a() -> f64 { b() }\npub fn b() -> f64 { c() }\n\
             pub fn c() -> f64 { crate::now_secs() }\n",
        );
        let files = vec![wrapper, sim];
        let hits = analyze(&files);
        assert_eq!(hit_lines(&hits, 1), vec![1, 2, 3]);
    }
}
