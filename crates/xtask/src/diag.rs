//! Structured lint diagnostics.

use std::fmt;

/// The rule a diagnostic belongs to. Ids and waiver keys are part of
/// the repo's check-time contract — see DESIGN.md §11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R1: no `HashMap`/`HashSet` in sim-deterministic crates.
    R1Hashmap,
    /// R2: no ambient nondeterminism (`thread_rng`, `rand::random`,
    /// `SystemTime::now`, `Instant::now`) outside the wall-clock
    /// allowlist.
    R2Nondet,
    /// R3: RNGs must come from the per-node stream API; no
    /// `from_entropy` / `from_os_rng`.
    R3Rng,
    /// R4: no `.unwrap()` / `.expect(…)` in library code outside
    /// `#[cfg(test)]` without a reasoned waiver.
    R4Unwrap,
    /// R5: no `as` numeric casts in the hot numeric kernels.
    R5Cast,
    /// R6: no call path from sim-deterministic library code into a
    /// function that (transitively) reaches ambient nondeterminism —
    /// the call-graph taint analysis (DESIGN.md §16).
    R6Taint,
    /// R7: every RNG stream-assignment site carries a `stream-map:`
    /// annotation, salts are pairwise distinct, and same-salt ranges
    /// of different domains are disjoint (DESIGN.md §16).
    R7Streams,
    /// R8: a syntactically valid waiver that no longer silences
    /// anything — the violation it covered was fixed or moved, so the
    /// waiver is dead weight (or the rule regressed).
    R8DeadWaiver,
    /// A malformed waiver comment (missing reason, unknown rule key).
    Waiver,
}

impl RuleId {
    /// Stable diagnostic id (`R1-hashmap`, …).
    pub fn id(self) -> &'static str {
        match self {
            RuleId::R1Hashmap => "R1-hashmap",
            RuleId::R2Nondet => "R2-nondet",
            RuleId::R3Rng => "R3-rng",
            RuleId::R4Unwrap => "R4-unwrap",
            RuleId::R5Cast => "R5-cast",
            RuleId::R6Taint => "R6-taint",
            RuleId::R7Streams => "R7-streams",
            RuleId::R8DeadWaiver => "R8-dead-waiver",
            RuleId::Waiver => "waiver",
        }
    }

    /// The key accepted inside a waiver comment for this rule.
    pub fn waiver_key(self) -> &'static str {
        match self {
            RuleId::R1Hashmap => "hashmap",
            RuleId::R2Nondet => "nondet",
            RuleId::R3Rng => "rng",
            RuleId::R4Unwrap => "unwrap",
            RuleId::R5Cast => "cast",
            RuleId::R6Taint => "taint",
            RuleId::R7Streams => "streams",
            // Dead-waiver and malformed-waiver findings are about the
            // waivers themselves and cannot be waived in turn.
            RuleId::R8DeadWaiver | RuleId::Waiver => "waiver",
        }
    }

    /// The fix-or-waive hint appended to every diagnostic of the rule.
    pub fn hint(self) -> &'static str {
        match self {
            RuleId::R1Hashmap => {
                "use BTreeMap/BTreeSet or a sorted Vec (iteration order feeds the \
                 determinism contract, DESIGN.md §7)"
            }
            RuleId::R2Nondet => {
                "sim paths must be scheduling- and wall-clock-independent; draw from the \
                 scenario-seeded RNG, and leave timing to layerbench/"
            }
            RuleId::R3Rng => {
                "construct RNGs with ChaCha8Rng::seed_from_u64(seed) + set_stream(node id) \
                 (per-node stream contract, DESIGN.md §9)"
            }
            RuleId::R4Unwrap => {
                "propagate a typed error, or restructure so the invariant is visible; \
                 a panic that guards a real invariant needs a reasoned waiver"
            }
            RuleId::R5Cast => {
                "use From/TryFrom (or a reasoned waiver when the conversion is provably \
                 lossless for the domain, e.g. sample counts far below 2^53)"
            }
            RuleId::R6Taint => {
                "break the call chain (inject the value from the experiment layer), or \
                 acknowledge the site with lint:allow(taint, <why>) on the fn line — a \
                 taint waiver is also a propagation barrier for callers"
            }
            RuleId::R7Streams => {
                "annotate the site: // stream-map: domain=<name> salt=<CONST|family-tag> \
                 streams=<lo>..=<hi> role=\"<who draws here>\" — then regenerate \
                 STREAM_MAP.md with `cargo run -p xtask -- lint --write-stream-map`"
            }
            RuleId::R8DeadWaiver => {
                "delete the waiver (the violation it covered is gone), or — if the rule \
                 should still fire there — the linter regressed; run with --explain-waiver \
                 to see what every waiver silences"
            }
            RuleId::Waiver => "write the waiver as: lint:allow(<rule>, <reason text>)",
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the lint root, with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// What happened, specific to the site.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    /// Renders the diagnostic as one JSON object (for `lint --json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\
             \"snippet\":\"{}\",\"hint\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            self.rule.id(),
            json_escape(&self.message),
            json_escape(&self.snippet),
            json_escape(self.rule.hint()),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )?;
        if !self.snippet.is_empty() {
            writeln!(f, "    {}", self.snippet)?;
        }
        write!(f, "    hint: {}", self.rule.hint())
    }
}
