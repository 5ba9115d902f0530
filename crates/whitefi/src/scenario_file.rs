//! Declarative scenario files: a versioned, dependency-free RON-subset
//! schema that compiles to the existing [`Scenario`]/[`CityScenario`]
//! structs **byte-identically** to their hand-coded equivalents
//! (DESIGN.md §15).
//!
//! A document is one named struct — its name selects the kind:
//!
//! * `Scenario(...)` — a single-AP run ([`SingleApDoc`] →
//!   [`CompiledSingleAp`]), covering spectrum map, client population,
//!   timing, scripted and sampled ("storm") mic strikes, background
//!   traffic mixes (CBR, Markov churn, scripted and diurnal windows)
//!   and a full [`FaultPlan`];
//! * `City(...)` — a multi-AP city grid ([`CityDoc`] →
//!   [`CityScenario`]) with per-cell strike overrides.
//!
//! The grammar is the RON subset `ident`, integers, floats, `[lists]`,
//! `Name(field: value, ...)` structs, `Name(v0, v1)` tuples,
//! `Some(x)`/`None`, with `//` and `/* */` comments and trailing
//! commas. Every diagnostic carries an exact `line:col`; [`load`]
//! prefixes the file path so failures print `file:line:col: message`.
//! No code path unwraps (whitefi-lint R4).

use crate::city::{run_city, CityOutcome, CityScenario};
use crate::driver::{
    run_fixed, run_whitefi, BackgroundPair, BackgroundTraffic, Scenario, ScenarioOutcome,
};
use rand::{Rng, SeedableRng};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use whitefi_mac::FaultPlan;
use whitefi_phy::{ChaCha8Rng, SimDuration, SimTime};
use whitefi_spectrum::{
    IncumbentSet, MicActivity, MicSchedule, SpectrumMap, UhfChannel, WfChannel, Width, WirelessMic,
    NUM_UHF_CHANNELS,
};

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

/// A parse or schema-validation error with an exact source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line of the offending token/value.
    pub line: u32,
    /// 1-based column of the offending token/value.
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl SchemaError {
    fn at(span: Span, msg: impl Into<String>) -> Self {
        Self {
            line: span.line,
            col: span.col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for SchemaError {}

/// A failure to load a scenario file: I/O or parse/schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file could not be read.
    Io {
        /// Path as given to [`load`].
        path: String,
        /// The OS error text.
        msg: String,
    },
    /// The file read but failed to parse or validate.
    Schema {
        /// Path as given to [`load`].
        path: String,
        /// The positioned diagnostic.
        err: SchemaError,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { path, msg } => write!(f, "{path}: {msg}"),
            LoadError::Schema { path, err } => write!(f, "{path}:{err}"),
        }
    }
}

impl std::error::Error for LoadError {}

type Res<T> = Result<T, SchemaError>;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i128),
    Float(f64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Float(v) => format!("float `{v:?}`"),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Eof => "end of file".into(),
        }
    }
}

#[derive(Debug, Clone)]
struct STok {
    tok: Tok,
    span: Span,
}

struct Lexer<'a> {
    s: &'a [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            s: src.as_bytes(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Skips whitespace and `//` / `/* */` comments.
    fn skip_trivia(&mut self) -> Res<()> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.s.get(self.i + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.s.get(self.i + 1) == Some(&b'*') => {
                    let open = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => {
                                return Err(SchemaError::at(open, "unterminated block comment"))
                            }
                            Some(b'*') if self.s.get(self.i + 1) == Some(&b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self, span: Span) -> Res<Tok> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        let mut digits = 0usize;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.bump();
            digits += 1;
        }
        if digits == 0 {
            return Err(SchemaError::at(span, "invalid number: expected digits"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.bump();
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            let mut exp_digits = 0usize;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.bump();
                exp_digits += 1;
            }
            if exp_digits == 0 {
                return Err(SchemaError::at(span, "invalid number: empty exponent"));
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.i])
            .map_err(|_| SchemaError::at(span, "invalid number encoding"))?;
        if float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|_| SchemaError::at(span, format!("invalid float literal `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Tok::Int)
                .map_err(|_| SchemaError::at(span, format!("integer literal `{text}` overflows")))
        }
    }

    fn tokens(mut self) -> Res<Vec<STok>> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(b) = self.peek() else {
                out.push(STok {
                    tok: Tok::Eof,
                    span,
                });
                return Ok(out);
            };
            let tok = match b {
                b'(' => {
                    self.bump();
                    Tok::LParen
                }
                b')' => {
                    self.bump();
                    Tok::RParen
                }
                b'[' => {
                    self.bump();
                    Tok::LBracket
                }
                b']' => {
                    self.bump();
                    Tok::RBracket
                }
                b',' => {
                    self.bump();
                    Tok::Comma
                }
                b':' => {
                    self.bump();
                    Tok::Colon
                }
                b'-' | b'0'..=b'9' => self.lex_number(span)?,
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    let start = self.i;
                    while self
                        .peek()
                        .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                    {
                        self.bump();
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i])
                        .map_err(|_| SchemaError::at(span, "invalid identifier encoding"))?;
                    Tok::Ident(text.to_string())
                }
                other => {
                    return Err(SchemaError::at(
                        span,
                        format!("unexpected character `{}`", other as char),
                    ))
                }
            };
            out.push(STok { tok, span });
        }
    }
}

// ---------------------------------------------------------------------------
// Parser → spanned Node AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Int(i128),
    Float(f64),
    Ident(String),
    List(Vec<SNode>),
    Struct {
        name: Option<String>,
        fields: Vec<(String, Span, SNode)>,
    },
    Tuple {
        name: Option<String>,
        items: Vec<SNode>,
    },
}

impl Node {
    fn describe(&self) -> &'static str {
        match self {
            Node::Int(_) => "an integer",
            Node::Float(_) => "a float",
            Node::Ident(_) => "an identifier",
            Node::List(_) => "a list",
            Node::Struct { .. } => "a struct",
            Node::Tuple { .. } => "a tuple",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct SNode {
    node: Node,
    span: Span,
}

struct Parser {
    toks: Vec<STok>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &STok {
        // The token vector always ends with Eof; clamp defensively.
        let last = self.toks.len().saturating_sub(1);
        &self.toks[self.i.min(last)]
    }

    fn peek2(&self) -> &STok {
        let last = self.toks.len().saturating_sub(1);
        &self.toks[(self.i + 1).min(last)]
    }

    fn next(&mut self) -> STok {
        let t = self.peek().clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn expect_tok(&mut self, want: &Tok, what: &str) -> Res<STok> {
        let t = self.next();
        if &t.tok == want {
            Ok(t)
        } else {
            Err(SchemaError::at(
                t.span,
                format!("expected {what}, found {}", t.tok.describe()),
            ))
        }
    }

    fn parse_value(&mut self) -> Res<SNode> {
        let t = self.next();
        let span = t.span;
        let node = match t.tok {
            Tok::Int(v) => Node::Int(v),
            Tok::Float(v) => Node::Float(v),
            Tok::Ident(name) => {
                if self.peek().tok == Tok::LParen {
                    return self.parse_paren(Some(name), span);
                }
                Node::Ident(name)
            }
            Tok::LParen => {
                // Re-enter with the paren already consumed.
                self.i -= 1;
                return self.parse_paren(None, span);
            }
            Tok::LBracket => {
                let mut items = Vec::new();
                loop {
                    if self.peek().tok == Tok::RBracket {
                        self.next();
                        break;
                    }
                    items.push(self.parse_value()?);
                    match &self.peek().tok {
                        Tok::Comma => {
                            self.next();
                        }
                        Tok::RBracket => {}
                        other => {
                            let d = other.describe();
                            return Err(SchemaError::at(
                                self.peek().span,
                                format!("expected `,` or `]` in list, found {d}"),
                            ));
                        }
                    }
                }
                Node::List(items)
            }
            other => {
                return Err(SchemaError::at(
                    span,
                    format!("expected a value, found {}", other.describe()),
                ))
            }
        };
        Ok(SNode { node, span })
    }

    /// Parses `Name( ... )` or `( ... )`: struct fields if the first
    /// token pair is `ident :`, positional tuple items otherwise.
    fn parse_paren(&mut self, name: Option<String>, span: Span) -> Res<SNode> {
        self.expect_tok(&Tok::LParen, "`(`")?;
        if self.peek().tok == Tok::RParen {
            self.next();
            return Ok(SNode {
                node: Node::Tuple {
                    name,
                    items: vec![],
                },
                span,
            });
        }
        let is_struct = matches!(self.peek().tok, Tok::Ident(_)) && self.peek2().tok == Tok::Colon;
        if is_struct {
            let mut fields: Vec<(String, Span, SNode)> = Vec::new();
            loop {
                if self.peek().tok == Tok::RParen {
                    self.next();
                    break;
                }
                let key_tok = self.next();
                let Tok::Ident(key) = key_tok.tok else {
                    return Err(SchemaError::at(
                        key_tok.span,
                        format!("expected a field name, found {}", key_tok.tok.describe()),
                    ));
                };
                if fields.iter().any(|(k, _, _)| *k == key) {
                    return Err(SchemaError::at(
                        key_tok.span,
                        format!("duplicate key `{key}`"),
                    ));
                }
                self.expect_tok(&Tok::Colon, "`:` after field name")?;
                let value = self.parse_value()?;
                fields.push((key, key_tok.span, value));
                match &self.peek().tok {
                    Tok::Comma => {
                        self.next();
                    }
                    Tok::RParen => {}
                    other => {
                        let d = other.describe();
                        return Err(SchemaError::at(
                            self.peek().span,
                            format!("expected `,` or `)` after field, found {d}"),
                        ));
                    }
                }
            }
            Ok(SNode {
                node: Node::Struct { name, fields },
                span,
            })
        } else {
            let mut items = Vec::new();
            loop {
                if self.peek().tok == Tok::RParen {
                    self.next();
                    break;
                }
                items.push(self.parse_value()?);
                match &self.peek().tok {
                    Tok::Comma => {
                        self.next();
                    }
                    Tok::RParen => {}
                    other => {
                        let d = other.describe();
                        return Err(SchemaError::at(
                            self.peek().span,
                            format!("expected `,` or `)` in tuple, found {d}"),
                        ));
                    }
                }
            }
            Ok(SNode {
                node: Node::Tuple { name, items },
                span,
            })
        }
    }
}

fn parse_root(src: &str) -> Res<SNode> {
    let toks = Lexer::new(src).tokens()?;
    let mut p = Parser { toks, i: 0 };
    let root = p.parse_value()?;
    let t = p.peek();
    if t.tok != Tok::Eof {
        return Err(SchemaError::at(
            t.span,
            format!("trailing content after document: {}", t.tok.describe()),
        ));
    }
    Ok(root)
}

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

/// A struct's fields as its decoder reads them. The keys it asks for,
/// in ask order, are the struct's allowed keys: [`Fields::finish`]
/// rejects any other and lists these.
struct Fields<'a> {
    name: &'a str,
    span: Span,
    entries: &'a [(String, Span, SNode)],
    used: Vec<bool>,
    asked: Vec<&'static str>,
}

impl<'a> Fields<'a> {
    fn new(n: &'a SNode, want: &'a str) -> Res<Self> {
        match &n.node {
            Node::Struct {
                name: Some(name),
                fields,
            } if name == want => Ok(Self {
                name: want,
                span: n.span,
                entries: fields,
                used: vec![false; fields.len()],
                asked: Vec::new(),
            }),
            _ => Err(SchemaError::at(
                n.span,
                format!("expected `{want}(...)`, found {}", n.node.describe()),
            )),
        }
    }

    fn get(&mut self, key: &'static str) -> Option<&'a SNode> {
        self.asked.push(key);
        for (i, (k, _, v)) in self.entries.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn req(&mut self, key: &'static str) -> Res<&'a SNode> {
        let name = self.name;
        let span = self.span;
        self.get(key).ok_or_else(|| {
            SchemaError::at(span, format!("missing required key `{key}` in `{name}`"))
        })
    }

    fn finish(self) -> Res<()> {
        for (i, (k, kspan, _)) in self.entries.iter().enumerate() {
            if !self.used[i] {
                return Err(SchemaError::at(
                    *kspan,
                    format!(
                        "unknown key `{k}` in `{}` (expected one of: {})",
                        self.name,
                        self.asked.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }
}

fn int_of(n: &SNode) -> Res<i128> {
    match &n.node {
        Node::Int(v) => Ok(*v),
        _ => Err(SchemaError::at(
            n.span,
            format!("expected an integer, found {}", n.node.describe()),
        )),
    }
}

fn u64_of(n: &SNode) -> Res<u64> {
    let v = int_of(n)?;
    u64::try_from(v)
        .map_err(|_| SchemaError::at(n.span, format!("integer {v} does not fit in u64")))
}

fn usize_of(n: &SNode) -> Res<usize> {
    let v = int_of(n)?;
    usize::try_from(v)
        .map_err(|_| SchemaError::at(n.span, format!("integer {v} is not a valid count")))
}

/// Accepts float or integer literals, plus the idents `NaN` and `inf`
/// (so range validation can reject them with a precise diagnostic).
fn f64_of(n: &SNode) -> Res<f64> {
    #[allow(clippy::cast_precision_loss)] // schema numbers are small
    match &n.node {
        Node::Float(v) => Ok(*v),
        Node::Int(v) => Ok(*v as f64),
        Node::Ident(s) if s == "NaN" => Ok(f64::NAN),
        Node::Ident(s) if s == "inf" => Ok(f64::INFINITY),
        _ => Err(SchemaError::at(
            n.span,
            format!("expected a number, found {}", n.node.describe()),
        )),
    }
}

/// Seconds → nanoseconds. The caller has range-checked `v` into
/// `[0, 1e6]` seconds, so the rounded product fits `u64` exactly.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn nanos(v: f64) -> u64 {
    (v * 1e9).round() as u64
}

fn checked_secs(n: &SNode, key: &str) -> Res<f64> {
    let v = f64_of(n)?;
    if !v.is_finite() || !(0.0..=1.0e6).contains(&v) {
        return Err(SchemaError::at(
            n.span,
            format!("`{key}` must be a finite number of seconds in [0, 1e6], got {v:?}"),
        ));
    }
    Ok(v)
}

fn dur_of(n: &SNode, key: &str) -> Res<SimDuration> {
    Ok(SimDuration::from_nanos(nanos(checked_secs(n, key)?)))
}

fn pos_dur_of(n: &SNode, key: &str) -> Res<SimDuration> {
    let d = dur_of(n, key)?;
    if d == SimDuration::ZERO {
        return Err(SchemaError::at(n.span, format!("`{key}` must be positive")));
    }
    Ok(d)
}

fn time_of(n: &SNode, key: &str) -> Res<SimTime> {
    Ok(SimTime::from_nanos(nanos(checked_secs(n, key)?)))
}

fn prob_of(n: &SNode, key: &str) -> Res<f64> {
    let v = f64_of(n)?;
    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
        return Err(SchemaError::at(
            n.span,
            format!("`{key}` must be a probability in [0, 1], got {v:?}"),
        ));
    }
    Ok(v)
}

fn pos_f64_of(n: &SNode, key: &str) -> Res<f64> {
    let v = f64_of(n)?;
    if !v.is_finite() || v <= 0.0 {
        return Err(SchemaError::at(
            n.span,
            format!("`{key}` must be a positive finite number, got {v:?}"),
        ));
    }
    Ok(v)
}

fn list_of(n: &SNode) -> Res<&[SNode]> {
    match &n.node {
        Node::List(items) => Ok(items),
        _ => Err(SchemaError::at(
            n.span,
            format!("expected a list, found {}", n.node.describe()),
        )),
    }
}

fn opt_of(n: &SNode) -> Res<Option<&SNode>> {
    match &n.node {
        Node::Ident(s) if s == "None" => Ok(None),
        Node::Tuple {
            name: Some(nm),
            items,
        } if nm == "Some" && items.len() == 1 => Ok(Some(&items[0])),
        _ => Err(SchemaError::at(n.span, "expected `None` or `Some(...)`")),
    }
}

fn uhf_of(n: &SNode) -> Res<UhfChannel> {
    let idx = usize_of(n)?;
    UhfChannel::new(idx).ok_or_else(|| {
        SchemaError::at(
            n.span,
            format!("channel index {idx} out of band (0..{NUM_UHF_CHANNELS})"),
        )
    })
}

fn wf_of(n: &SNode) -> Res<WfChannel> {
    let Node::Tuple {
        name: Some(name),
        items,
    } = &n.node
    else {
        return Err(SchemaError::at(
            n.span,
            "expected a channel like `W20(7)` (width + centre index)",
        ));
    };
    let width = match name.as_str() {
        "W5" => Width::W5,
        "W10" => Width::W10,
        "W20" => Width::W20,
        other => {
            return Err(SchemaError::at(
                n.span,
                format!("unknown channel width `{other}` (expected W5, W10 or W20)"),
            ))
        }
    };
    let [item] = &items[..] else {
        return Err(SchemaError::at(
            n.span,
            "a channel takes exactly one centre index, e.g. `W20(7)`",
        ));
    };
    let center = uhf_of(item)?;
    WfChannel::new(center, width).ok_or_else(|| {
        SchemaError::at(
            n.span,
            format!(
                "channel {name}({}) does not fit inside the UHF band",
                center.index()
            ),
        )
    })
}

// ---------------------------------------------------------------------------
// Typed documents
// ---------------------------------------------------------------------------

/// A parsed scenario document of any kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioDoc {
    /// `Scenario(...)`: one AP, its clients, and the band.
    SingleAp(SingleApDoc),
    /// `City(...)`: a multi-AP grid sharing one band.
    City(CityDoc),
}

/// The spectrum map, as written in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapSpec {
    /// `Free([..])`: the listed UHF indices are free, the rest occupied.
    Free(Vec<usize>),
    /// `Occupied([..])`: the listed indices are occupied, the rest free.
    Occupied(Vec<usize>),
}

impl MapSpec {
    /// Builds the [`SpectrumMap`].
    pub fn build(&self) -> SpectrumMap {
        match self {
            MapSpec::Free(idx) => SpectrumMap::from_free(idx.iter().copied()),
            MapSpec::Occupied(idx) => SpectrumMap::from_occupied(idx.iter().copied()),
        }
    }
}

/// Which nodes observe a mic strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicAt {
    /// Only the AP's incumbent set.
    Ap,
    /// Only the given client's incumbent set.
    Client(usize),
    /// The AP and every client.
    Everyone,
}

/// One scripted wireless-mic strike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicStrike {
    /// Struck UHF channel (must be free in the map).
    pub channel: UhfChannel,
    /// Mic switch-on time.
    pub on: SimTime,
    /// Mic switch-off time (must be after `on`).
    pub off: SimTime,
    /// Audience.
    pub at: MicAt,
}

impl MicStrike {
    /// The scripted mic this strike switches on and off.
    fn mic(&self) -> WirelessMic {
        WirelessMic::new(
            self.channel,
            MicSchedule::scripted(vec![MicActivity {
                start: self.on.as_nanos(),
                end: self.off.as_nanos(),
            }]),
        )
    }
}

/// Where a sampled process takes its seed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedSource {
    /// Reuse the document's `seed` (so a seed override retargets both).
    Scenario,
    /// An independent fixed seed.
    Fixed(u64),
}

/// A randomized mic population: every free channel hosts a mic with
/// probability `prob`, with exponential on/off bursts (the
/// `examples/campus_day.rs` §2.3 process, reproduced draw-for-draw).
#[derive(Debug, Clone, PartialEq)]
pub struct MicStorm {
    /// Per-free-channel probability of hosting a mic.
    pub prob: f64,
    /// Mean off-time of each mic burst process (seconds).
    pub mean_off_s: f64,
    /// Mean on-time (seconds).
    pub mean_on_s: f64,
    /// Schedule horizon.
    pub horizon: SimDuration,
    /// RNG seed source.
    pub seed: SeedSource,
}

/// Background traffic shape of one pair.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// Constant bit rate.
    Cbr {
        /// Inter-packet delay.
        interval: SimDuration,
    },
    /// Two-state Markov churn (arrival/departure of contending load).
    Markov {
        /// CBR interval while active.
        interval: SimDuration,
        /// Mean active dwell.
        mean_active: SimDuration,
        /// Mean passive dwell.
        mean_passive: SimDuration,
    },
    /// CBR only inside explicit windows.
    Scripted {
        /// CBR interval while a window is open.
        interval: SimDuration,
        /// Open windows.
        windows: Vec<(SimTime, SimTime)>,
    },
    /// Periodic on/off windows over the whole run — a diurnal load mix
    /// compiled down to [`BackgroundTraffic::Scripted`].
    Diurnal {
        /// CBR interval while on.
        interval: SimDuration,
        /// On-phase length.
        on: SimDuration,
        /// Off-phase length.
        off: SimDuration,
        /// Offset of the first on-phase.
        phase: SimDuration,
    },
}

impl TrafficSpec {
    /// Lowers to the engine's [`BackgroundTraffic`]. `horizon` bounds
    /// the generated diurnal windows (warmup + duration).
    pub fn compile(&self, horizon: SimDuration) -> BackgroundTraffic {
        match self {
            TrafficSpec::Cbr { interval } => BackgroundTraffic::Cbr {
                interval: *interval,
            },
            TrafficSpec::Markov {
                interval,
                mean_active,
                mean_passive,
            } => BackgroundTraffic::Markov {
                interval: *interval,
                mean_active: *mean_active,
                mean_passive: *mean_passive,
            },
            TrafficSpec::Scripted { interval, windows } => BackgroundTraffic::Scripted {
                interval: *interval,
                windows: windows.clone(),
            },
            TrafficSpec::Diurnal {
                interval,
                on,
                off,
                phase,
            } => {
                let mut windows = Vec::new();
                let mut t = SimTime::ZERO + *phase;
                let end = SimTime::ZERO + horizon;
                while t < end {
                    windows.push((t, t + *on));
                    t = t + *on + *off;
                }
                BackgroundTraffic::Scripted {
                    interval: *interval,
                    windows,
                }
            }
        }
    }
}

/// One background pair: a channel and its load shape.
#[derive(Debug, Clone, PartialEq)]
pub struct BgSpec {
    /// The pair's fixed channel (must be admitted by the map).
    pub channel: WfChannel,
    /// Load shape.
    pub traffic: TrafficSpec,
}

/// How to run a compiled single-AP scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSpec {
    /// The adaptive WhiteFi protocol, optionally pinned to an initial
    /// channel.
    Whitefi {
        /// Initial channel (must be admitted by the map).
        initial: Option<WfChannel>,
    },
    /// A static network pinned to one channel for the whole run.
    Fixed {
        /// The pinned channel.
        channel: WfChannel,
    },
}

/// A `Scenario(...)` document.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleApDoc {
    /// Simulation seed (every per-node stream derives from it).
    pub seed: u64,
    /// The band.
    pub map: MapSpec,
    /// Client count.
    pub clients: usize,
    /// Warmup before measurement.
    pub warmup: SimDuration,
    /// Measured duration.
    pub duration: SimDuration,
    /// Timeline sample interval.
    pub sample_interval: SimDuration,
    /// Downlink payload bytes per frame.
    pub downlink_bytes: usize,
    /// Uplink payload bytes per frame (`None` disables uplink).
    pub uplink_bytes: Option<usize>,
    /// Scripted mic strikes.
    pub mics: Vec<MicStrike>,
    /// Optional sampled mic population.
    pub mic_storm: Option<MicStorm>,
    /// Background pairs.
    pub background: Vec<BgSpec>,
    /// Optional fault plan.
    pub faults: Option<FaultPlan>,
    /// Run mode.
    pub run: RunSpec,
    /// Optional pinned-channel contrast run (e.g. campus_day's static
    /// 20 MHz comparison).
    pub contrast_fixed: Option<WfChannel>,
}

/// City topology constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum GridSpec {
    /// [`CityScenario::grid`]: seeded locale mix on a square grid.
    Grid {
        /// AP count.
        aps: usize,
        /// Clients per AP.
        clients_per_ap: usize,
        /// Grid spacing (metres).
        spacing_m: f64,
        /// Radio range (metres).
        range_m: f64,
    },
    /// [`CityScenario::checkerboard`]: the one-component parity maps.
    Checkerboard {
        /// AP count.
        aps: usize,
        /// Clients per AP.
        clients_per_ap: usize,
    },
}

impl GridSpec {
    /// Builds the city this constructor names under `seed` (topology
    /// only — no overrides applied).
    pub fn build(&self, seed: u64) -> CityScenario {
        match *self {
            GridSpec::Grid {
                aps,
                clients_per_ap,
                spacing_m,
                range_m,
            } => CityScenario::grid(seed, aps, clients_per_ap, spacing_m, range_m),
            GridSpec::Checkerboard {
                aps,
                clients_per_ap,
            } => CityScenario::checkerboard(seed, aps, clients_per_ap),
        }
    }
}

/// Per-cell strike override.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOverride {
    /// Cell index.
    pub cell: usize,
    /// Strikes observed by the whole cell.
    pub mics: Vec<MicStrike>,
}

/// A `City(...)` document.
#[derive(Debug, Clone, PartialEq)]
pub struct CityDoc {
    /// City seed.
    pub seed: u64,
    /// Topology constructor.
    pub grid: GridSpec,
    /// Warmup before measurement.
    pub warmup: SimDuration,
    /// Measured duration.
    pub duration: SimDuration,
    /// Timeline sample interval.
    pub sample_interval: SimDuration,
    /// Downlink payload bytes per frame.
    pub downlink_bytes: usize,
    /// Uplink payload bytes (`None` disables uplink).
    pub uplink_bytes: Option<usize>,
    /// Per-cell strike overrides.
    pub overrides: Vec<CellOverride>,
    /// Optional fault plan.
    pub faults: Option<FaultPlan>,
}

impl ScenarioDoc {
    /// Overrides the document's primary seed (for `[seed]` CLI args).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        match &mut self {
            ScenarioDoc::SingleAp(d) => d.seed = seed,
            ScenarioDoc::City(d) => d.seed = seed,
        }
        self
    }

    /// Compiles the document to a runnable case.
    pub fn compile(&self) -> CompiledCase {
        match self {
            ScenarioDoc::SingleAp(d) => CompiledCase::SingleAp(Box::new(d.compile())),
            ScenarioDoc::City(d) => CompiledCase::City(d.compile()),
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// A compiled single-AP case: the engine [`Scenario`] plus run mode.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSingleAp {
    /// The engine scenario, byte-identical to the hand-coded build.
    pub scenario: Scenario,
    /// Run mode.
    pub run: RunSpec,
    /// Optional pinned contrast channel.
    pub contrast_fixed: Option<WfChannel>,
}

impl CompiledSingleAp {
    /// The initial channel handed to [`run_whitefi`] (None for fixed
    /// runs, which pin their own channel).
    pub fn initial(&self) -> Option<WfChannel> {
        match self.run {
            RunSpec::Whitefi { initial } => initial,
            RunSpec::Fixed { .. } => None,
        }
    }

    /// Runs the case per its [`RunSpec`].
    pub fn run(&self) -> ScenarioOutcome {
        match self.run {
            RunSpec::Whitefi { initial } => run_whitefi(&self.scenario, initial),
            RunSpec::Fixed { channel } => run_fixed(&self.scenario, channel),
        }
    }
}

impl SingleApDoc {
    /// Horizon of the run (warmup + duration) — bounds diurnal windows.
    pub fn horizon(&self) -> SimDuration {
        self.warmup + self.duration
    }

    /// Compiles to the engine [`Scenario`]. Infallible: every
    /// cross-field constraint was validated at decode time.
    pub fn compile(&self) -> CompiledSingleAp {
        let map = self.map.build();
        let mut s = Scenario::new(self.seed, map, self.clients);
        s.warmup = self.warmup;
        s.duration = self.duration;
        s.sample_interval = self.sample_interval;
        s.downlink_bytes = self.downlink_bytes;
        s.uplink_bytes = self.uplink_bytes;

        // A node's set is `Some` once a strike or the storm reaches it
        // (a storm that samples no mic still yields an empty `Some`).
        let mut ap_set: Option<IncumbentSet> = None;
        let mut client_sets: Vec<Option<IncumbentSet>> = vec![None; self.clients];

        if let Some(storm) = &self.mic_storm {
            // Draw-for-draw the campus_day process: one ChaCha8 stream,
            // `gen_bool` then `MicSchedule::sample` per free channel.
            let storm_seed = match storm.seed {
                SeedSource::Scenario => self.seed,
                SeedSource::Fixed(x) => x,
            };
            let mut rng = ChaCha8Rng::seed_from_u64(storm_seed);
            let mut sampled = IncumbentSet::default();
            for ch in map.free_channels() {
                if rng.gen_bool(storm.prob) {
                    let schedule = MicSchedule::sample(
                        &mut rng,
                        storm.horizon.as_nanos(),
                        storm.mean_off_s,
                        storm.mean_on_s,
                    );
                    sampled.mics.push(WirelessMic::new(ch, schedule));
                }
            }
            ap_set = Some(sampled.clone());
            client_sets.fill(Some(sampled));
        }

        let push = |set: &mut Option<IncumbentSet>, mic| {
            set.get_or_insert_with(IncumbentSet::default).mics.push(mic);
        };
        for strike in &self.mics {
            let mic = strike.mic();
            match strike.at {
                MicAt::Ap => push(&mut ap_set, mic),
                MicAt::Client(i) => {
                    if let Some(set) = client_sets.get_mut(i) {
                        push(set, mic);
                    }
                }
                MicAt::Everyone => {
                    push(&mut ap_set, mic.clone());
                    for set in &mut client_sets {
                        push(set, mic.clone());
                    }
                }
            }
        }

        s.ap_extra_incumbents = ap_set;
        s.client_extra_incumbents = client_sets;

        let horizon = self.horizon();
        s.background = self
            .background
            .iter()
            .map(|b| BackgroundPair {
                channel: b.channel,
                traffic: b.traffic.compile(horizon),
            })
            .collect();
        s.faults = self.faults.clone();

        CompiledSingleAp {
            scenario: s,
            run: self.run,
            contrast_fixed: self.contrast_fixed,
        }
    }
}

impl CityDoc {
    /// Compiles to the engine [`CityScenario`]. Infallible: every
    /// cross-field constraint was validated at decode time.
    pub fn compile(&self) -> CityScenario {
        let mut city = self.grid.build(self.seed);
        city.warmup = self.warmup;
        city.duration = self.duration;
        city.sample_interval = self.sample_interval;
        city.downlink_bytes = self.downlink_bytes;
        city.uplink_bytes = self.uplink_bytes;
        for o in &self.overrides {
            if let Some(cell) = city.cells.get_mut(o.cell) {
                cell.extra_incumbents = Some(IncumbentSet {
                    mics: o.mics.iter().map(MicStrike::mic).collect(),
                    ..IncumbentSet::default()
                });
            }
        }
        city.faults = self.faults.clone();
        city
    }
}

/// A compiled simulation case of either kind.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledCase {
    /// Single-AP case.
    SingleAp(Box<CompiledSingleAp>),
    /// City case.
    City(CityScenario),
}

/// The outcome of running a [`CompiledCase`].
#[derive(Debug, Clone, PartialEq)]
pub enum CaseOutcome {
    /// Single-AP outcome.
    SingleAp(ScenarioOutcome),
    /// City outcome.
    City(CityOutcome),
}

impl CompiledCase {
    /// Runs the case. A city runs as one simulator group: by DESIGN.md
    /// §13 every shard count gives the same outcome.
    pub fn run(&self) -> CaseOutcome {
        match self {
            CompiledCase::SingleAp(c) => CaseOutcome::SingleAp(c.run()),
            CompiledCase::City(c) => CaseOutcome::City(run_city(c, 1).0),
        }
    }
}

impl CaseOutcome {
    /// Engine compliance meter (transmissions over a live incumbent).
    pub fn violations(&self) -> u64 {
        match self {
            CaseOutcome::SingleAp(o) => o.violations,
            CaseOutcome::City(o) => o.violations(),
        }
    }

    /// Total oracle-bank violations.
    pub fn oracle_violation_count(&self) -> usize {
        match self {
            CaseOutcome::SingleAp(o) => o.oracle.violations.len(),
            CaseOutcome::City(o) => o.oracle_violations(),
        }
    }

    /// Member transmissions the oracle bank checked.
    pub fn checked_tx(&self) -> u64 {
        match self {
            CaseOutcome::SingleAp(o) => o.oracle.checked_tx,
            CaseOutcome::City(o) => o.cells.iter().map(|c| c.oracle.checked_tx).sum(),
        }
    }

    /// Aggregate goodput in Mbps.
    pub fn aggregate_mbps(&self) -> f64 {
        match self {
            CaseOutcome::SingleAp(o) => o.aggregate_mbps,
            CaseOutcome::City(o) => o.aggregate_mbps,
        }
    }
}

// ---------------------------------------------------------------------------
// Document decoding
// ---------------------------------------------------------------------------

/// The schema version this build reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

fn check_version(f: &mut Fields) -> Res<()> {
    let n = f.req("version")?;
    let v = u64_of(n)?;
    if v != SCHEMA_VERSION {
        return Err(SchemaError::at(
            n.span,
            format!("unsupported schema version {v} (this build reads version {SCHEMA_VERSION})"),
        ));
    }
    Ok(())
}

fn map_spec_of(n: &SNode) -> Res<MapSpec> {
    let Node::Tuple {
        name: Some(name),
        items,
    } = &n.node
    else {
        return Err(SchemaError::at(
            n.span,
            "expected `Free([..])` or `Occupied([..])`",
        ));
    };
    let [inner] = &items[..] else {
        return Err(SchemaError::at(
            n.span,
            format!("`{name}` takes exactly one list of channel indices"),
        ));
    };
    let idx = list_of(inner)?
        .iter()
        .map(|c| uhf_of(c).map(UhfChannel::index))
        .collect::<Res<Vec<usize>>>()?;
    let spec = match name.as_str() {
        "Free" => MapSpec::Free(idx),
        "Occupied" => MapSpec::Occupied(idx),
        other => {
            return Err(SchemaError::at(
                n.span,
                format!("unknown map constructor `{other}` (expected Free or Occupied)"),
            ))
        }
    };
    if spec.build().free_count() == 0 {
        return Err(SchemaError::at(n.span, "map has no free channels"));
    }
    Ok(spec)
}

fn mic_at_of(n: &SNode, clients: usize) -> Res<MicAt> {
    match &n.node {
        Node::Ident(s) if s == "Ap" => Ok(MicAt::Ap),
        Node::Ident(s) if s == "Everyone" => Ok(MicAt::Everyone),
        Node::Tuple {
            name: Some(nm),
            items,
        } if nm == "Client" => {
            let [item] = &items[..] else {
                return Err(SchemaError::at(
                    n.span,
                    "`Client` takes exactly one client index",
                ));
            };
            let i = usize_of(item)?;
            if i >= clients {
                return Err(SchemaError::at(
                    item.span,
                    format!("client index {i} out of range (the scenario has {clients} clients)"),
                ));
            }
            Ok(MicAt::Client(i))
        }
        _ => Err(SchemaError::at(
            n.span,
            "expected `Ap`, `Everyone` or `Client(i)`",
        )),
    }
}

/// Decodes one `Strike(...)`. `clients` is `Some(n)` for single-AP
/// documents (where `at:` selects the audience) and `None` for city
/// overrides (where the whole cell hears every strike).
fn strike_of(n: &SNode, map: SpectrumMap, clients: Option<usize>) -> Res<(MicStrike, Span)> {
    let mut f = Fields::new(n, "Strike")?;
    let ch_node = f.req("channel")?;
    let channel = uhf_of(ch_node)?;
    if !map.is_free(channel) {
        return Err(SchemaError::at(
            ch_node.span,
            format!(
                "mic strike channel {} is not free in the map",
                channel.index()
            ),
        ));
    }
    let on = time_of(f.req("on_s")?, "on_s")?;
    let off_node = f.req("off_s")?;
    let off = time_of(off_node, "off_s")?;
    if off <= on {
        return Err(SchemaError::at(
            off_node.span,
            "`off_s` must be after `on_s`",
        ));
    }
    // Only a single-AP strike asks for `at`, so only there is it a key.
    let at = match clients.map(|c| (c, f.get("at"))) {
        Some((clients, Some(v))) => mic_at_of(v, clients)?,
        _ => MicAt::Everyone,
    };
    f.finish()?;
    Ok((
        MicStrike {
            channel,
            on,
            off,
            at,
        },
        n.span,
    ))
}

fn audiences_intersect(a: MicAt, b: MicAt) -> bool {
    match (a, b) {
        (MicAt::Everyone, _) | (_, MicAt::Everyone) => true,
        (MicAt::Ap, MicAt::Ap) => true,
        (MicAt::Client(i), MicAt::Client(j)) => i == j,
        _ => false,
    }
}

/// Rejects strike pairs that overlap in time on the same channel with
/// an intersecting audience — such schedules are ambiguous to merge
/// into one scripted activity list.
fn check_strike_overlap(strikes: &[(MicStrike, Span)]) -> Res<()> {
    for (i, (a, _)) in strikes.iter().enumerate() {
        for (b, bspan) in strikes.iter().skip(i + 1) {
            if a.channel == b.channel
                && audiences_intersect(a.at, b.at)
                && a.on < b.off
                && b.on < a.off
            {
                return Err(SchemaError::at(
                    *bspan,
                    format!("overlapping mic strikes on channel {}", a.channel.index()),
                ));
            }
        }
    }
    Ok(())
}

fn strike_list_of(n: &SNode, map: SpectrumMap, clients: Option<usize>) -> Res<Vec<MicStrike>> {
    let strikes = list_of(n)?
        .iter()
        .map(|s| strike_of(s, map, clients))
        .collect::<Res<Vec<_>>>()?;
    check_strike_overlap(&strikes)?;
    Ok(strikes.into_iter().map(|(s, _)| s).collect())
}

fn window_of(n: &SNode) -> Res<(SimTime, SimTime)> {
    let Node::Tuple { name: None, items } = &n.node else {
        return Err(SchemaError::at(
            n.span,
            "expected a `(on_s, off_s)` window pair",
        ));
    };
    let [on_n, off_n] = &items[..] else {
        return Err(SchemaError::at(
            n.span,
            "a window takes exactly two times: `(on_s, off_s)`",
        ));
    };
    let on = time_of(on_n, "on_s")?;
    let off = time_of(off_n, "off_s")?;
    if off <= on {
        return Err(SchemaError::at(
            off_n.span,
            "window end must be after its start",
        ));
    }
    Ok((on, off))
}

fn traffic_of(n: &SNode) -> Res<TrafficSpec> {
    let Node::Struct {
        name: Some(name), ..
    } = &n.node
    else {
        return Err(SchemaError::at(
            n.span,
            "expected a traffic shape: `Cbr(...)`, `Markov(...)`, `Scripted(...)` or `Diurnal(...)`",
        ));
    };
    match name.as_str() {
        "Cbr" => {
            let mut f = Fields::new(n, "Cbr")?;
            let interval = pos_dur_of(f.req("interval_s")?, "interval_s")?;
            f.finish()?;
            Ok(TrafficSpec::Cbr { interval })
        }
        "Markov" => {
            let mut f = Fields::new(n, "Markov")?;
            let interval = pos_dur_of(f.req("interval_s")?, "interval_s")?;
            let mean_active = pos_dur_of(f.req("mean_active_s")?, "mean_active_s")?;
            let mean_passive = pos_dur_of(f.req("mean_passive_s")?, "mean_passive_s")?;
            f.finish()?;
            Ok(TrafficSpec::Markov {
                interval,
                mean_active,
                mean_passive,
            })
        }
        "Scripted" => {
            let mut f = Fields::new(n, "Scripted")?;
            let interval = pos_dur_of(f.req("interval_s")?, "interval_s")?;
            let windows = list_of(f.req("windows")?)?
                .iter()
                .map(window_of)
                .collect::<Res<Vec<_>>>()?;
            f.finish()?;
            Ok(TrafficSpec::Scripted { interval, windows })
        }
        "Diurnal" => {
            let mut f = Fields::new(n, "Diurnal")?;
            let interval = pos_dur_of(f.req("interval_s")?, "interval_s")?;
            let on = pos_dur_of(f.req("on_s")?, "on_s")?;
            let off = dur_of(f.req("off_s")?, "off_s")?;
            let phase = match f.get("phase_s") {
                Some(v) => dur_of(v, "phase_s")?,
                None => SimDuration::ZERO,
            };
            f.finish()?;
            Ok(TrafficSpec::Diurnal {
                interval,
                on,
                off,
                phase,
            })
        }
        other => Err(SchemaError::at(
            n.span,
            format!("unknown traffic shape `{other}` (expected Cbr, Markov, Scripted or Diurnal)"),
        )),
    }
}

fn bg_of(n: &SNode, map: SpectrumMap) -> Res<BgSpec> {
    let mut f = Fields::new(n, "Background")?;
    let channel = admitted_wf_of(f.req("channel")?, map, "background channel")?;
    let traffic = traffic_of(f.req("traffic")?)?;
    f.finish()?;
    Ok(BgSpec { channel, traffic })
}

fn seed_source_of(n: &SNode) -> Res<SeedSource> {
    match &n.node {
        Node::Ident(s) if s == "Scenario" => Ok(SeedSource::Scenario),
        Node::Tuple {
            name: Some(nm),
            items,
        } if nm == "Fixed" => {
            let [item] = &items[..] else {
                return Err(SchemaError::at(n.span, "`Fixed` takes exactly one seed"));
            };
            Ok(SeedSource::Fixed(u64_of(item)?))
        }
        _ => Err(SchemaError::at(
            n.span,
            "expected `Scenario` or `Fixed(seed)`",
        )),
    }
}

fn storm_of(n: &SNode) -> Res<MicStorm> {
    let mut f = Fields::new(n, "Storm")?;
    let prob = prob_of(f.req("prob")?, "prob")?;
    let mean_off_s = pos_f64_of(f.req("mean_off_s")?, "mean_off_s")?;
    let mean_on_s = pos_f64_of(f.req("mean_on_s")?, "mean_on_s")?;
    let horizon = pos_dur_of(f.req("horizon_s")?, "horizon_s")?;
    let seed = match f.get("seed") {
        Some(v) => seed_source_of(v)?,
        None => SeedSource::Scenario,
    };
    f.finish()?;
    Ok(MicStorm {
        prob,
        mean_off_s,
        mean_on_s,
        horizon,
        seed,
    })
}

fn faults_of(n: &SNode) -> Res<FaultPlan> {
    let mut f = Fields::new(n, "Faults")?;
    let seed = u64_of(f.req("seed")?)?;
    let prob = |f: &mut Fields, key| -> Res<f64> {
        match f.get(key) {
            Some(v) => prob_of(v, key),
            None => Ok(0.0),
        }
    };
    let drop_prob = prob(&mut f, "drop_prob")?;
    let dup_prob = prob(&mut f, "dup_prob")?;
    let delay_prob = prob(&mut f, "delay_prob")?;
    let max_delay = match f.get("max_delay_s") {
        Some(v) => dur_of(v, "max_delay_s")?,
        None => SimDuration::ZERO,
    };
    let max_detection_extra = match f.get("max_detection_extra_s") {
        Some(v) => dur_of(v, "max_detection_extra_s")?,
        None => SimDuration::ZERO,
    };
    let history_skew = match f.get("history_skew_s") {
        Some(v) => match opt_of(v)? {
            Some(inner) => Some(pos_dur_of(inner, "history_skew_s")?),
            None => None,
        },
        None => None,
    };
    f.finish()?;
    Ok(FaultPlan {
        seed,
        drop_prob,
        dup_prob,
        delay_prob,
        max_delay,
        max_detection_extra,
        history_skew,
    })
}

fn admitted_wf_of(n: &SNode, map: SpectrumMap, what: &str) -> Res<WfChannel> {
    let ch = wf_of(n)?;
    if !map.available_channels().contains(&ch) {
        return Err(SchemaError::at(
            n.span,
            format!("{what} {ch} is not admitted by the map"),
        ));
    }
    Ok(ch)
}

fn run_of(n: &SNode, map: SpectrumMap) -> Res<RunSpec> {
    match &n.node {
        Node::Ident(s) if s == "Whitefi" => Ok(RunSpec::Whitefi { initial: None }),
        Node::Struct { name: Some(nm), .. } if nm == "Whitefi" => {
            let mut f = Fields::new(n, "Whitefi")?;
            let initial = match f.get("initial") {
                Some(v) => match opt_of(v)? {
                    Some(inner) => Some(admitted_wf_of(inner, map, "initial channel")?),
                    None => None,
                },
                None => None,
            };
            f.finish()?;
            Ok(RunSpec::Whitefi { initial })
        }
        Node::Struct { name: Some(nm), .. } if nm == "Fixed" => {
            let mut f = Fields::new(n, "Fixed")?;
            let channel = admitted_wf_of(f.req("channel")?, map, "fixed channel")?;
            f.finish()?;
            Ok(RunSpec::Fixed { channel })
        }
        _ => Err(SchemaError::at(
            n.span,
            "expected `Whitefi`, `Whitefi(initial: ...)` or `Fixed(channel: ...)`",
        )),
    }
}

/// Decodes `downlink_bytes` (default 1000) and `uplink_bytes` (default
/// `Some(500)`; `None` disables uplink).
fn payloads_of(f: &mut Fields) -> Res<(usize, Option<usize>)> {
    let downlink = match f.get("downlink_bytes") {
        Some(v) => {
            let b = usize_of(v)?;
            if b == 0 {
                return Err(SchemaError::at(v.span, "`downlink_bytes` must be positive"));
            }
            b
        }
        None => 1000,
    };
    let uplink = match f.get("uplink_bytes").map(opt_of).transpose()? {
        None => Some(500),
        Some(None) => None,
        Some(Some(inner)) => {
            let b = usize_of(inner)?;
            if b == 0 {
                return Err(SchemaError::at(
                    inner.span,
                    "`uplink_bytes` payload must be positive (use None to disable)",
                ));
            }
            Some(b)
        }
    };
    Ok((downlink, uplink))
}

fn decode_single(n: &SNode) -> Res<SingleApDoc> {
    let mut f = Fields::new(n, "Scenario")?;
    check_version(&mut f)?;
    let seed = u64_of(f.req("seed")?)?;
    let map = map_spec_of(f.req("map")?)?;
    let built = map.build();
    let clients_node = f.req("clients")?;
    let clients = usize_of(clients_node)?;
    if clients == 0 {
        return Err(SchemaError::at(
            clients_node.span,
            "`clients` must be at least 1",
        ));
    }
    let warmup = dur_of(f.req("warmup_s")?, "warmup_s")?;
    let duration = pos_dur_of(f.req("duration_s")?, "duration_s")?;
    let sample_interval = pos_dur_of(f.req("sample_interval_s")?, "sample_interval_s")?;
    let (downlink_bytes, uplink_bytes) = payloads_of(&mut f)?;
    let mics = match f.get("mics") {
        Some(v) => strike_list_of(v, built, Some(clients))?,
        None => Vec::new(),
    };
    let mic_storm = match f.get("mic_storm") {
        Some(v) => Some(storm_of(v)?),
        None => None,
    };
    let background = match f.get("background") {
        Some(v) => list_of(v)?
            .iter()
            .map(|b| bg_of(b, built))
            .collect::<Res<Vec<_>>>()?,
        None => Vec::new(),
    };
    let faults = match f.get("faults") {
        Some(v) => Some(faults_of(v)?),
        None => None,
    };
    let run = match f.get("run") {
        Some(v) => run_of(v, built)?,
        None => RunSpec::Whitefi { initial: None },
    };
    let contrast_fixed = match f.get("contrast_fixed") {
        Some(v) => Some(admitted_wf_of(v, built, "contrast channel")?),
        None => None,
    };
    f.finish()?;
    Ok(SingleApDoc {
        seed,
        map,
        clients,
        warmup,
        duration,
        sample_interval,
        downlink_bytes,
        uplink_bytes,
        mics,
        mic_storm,
        background,
        faults,
        run,
        contrast_fixed,
    })
}

fn grid_of(n: &SNode) -> Res<GridSpec> {
    let Node::Struct {
        name: Some(name), ..
    } = &n.node
    else {
        return Err(SchemaError::at(
            n.span,
            "expected `Grid(...)` or `Checkerboard(...)`",
        ));
    };
    let count = |f: &mut Fields, key| -> Res<usize> {
        let v = f.req(key)?;
        let c = usize_of(v)?;
        if c == 0 {
            return Err(SchemaError::at(
                v.span,
                format!("`{key}` must be at least 1"),
            ));
        }
        Ok(c)
    };
    match name.as_str() {
        "Grid" => {
            let mut f = Fields::new(n, "Grid")?;
            let aps = count(&mut f, "aps")?;
            let clients_per_ap = count(&mut f, "clients_per_ap")?;
            let spacing_m = pos_f64_of(f.req("spacing_m")?, "spacing_m")?;
            let range_m = pos_f64_of(f.req("range_m")?, "range_m")?;
            f.finish()?;
            Ok(GridSpec::Grid {
                aps,
                clients_per_ap,
                spacing_m,
                range_m,
            })
        }
        "Checkerboard" => {
            let mut f = Fields::new(n, "Checkerboard")?;
            let aps = count(&mut f, "aps")?;
            let clients_per_ap = count(&mut f, "clients_per_ap")?;
            f.finish()?;
            Ok(GridSpec::Checkerboard {
                aps,
                clients_per_ap,
            })
        }
        other => Err(SchemaError::at(
            n.span,
            format!("unknown grid constructor `{other}` (expected Grid or Checkerboard)"),
        )),
    }
}

fn decode_city(n: &SNode) -> Res<CityDoc> {
    let mut f = Fields::new(n, "City")?;
    check_version(&mut f)?;
    let seed = u64_of(f.req("seed")?)?;
    let grid = grid_of(f.req("grid")?)?;
    let warmup = match f.get("warmup_s") {
        Some(v) => dur_of(v, "warmup_s")?,
        None => SimDuration::from_millis(1000),
    };
    let duration = match f.get("duration_s") {
        Some(v) => pos_dur_of(v, "duration_s")?,
        None => SimDuration::from_millis(2000),
    };
    let sample_interval = match f.get("sample_interval_s") {
        Some(v) => pos_dur_of(v, "sample_interval_s")?,
        None => SimDuration::from_millis(100),
    };
    let (downlink_bytes, uplink_bytes) = payloads_of(&mut f)?;
    // The base city is built here once so per-cell overrides can be
    // validated against the actual cell maps.
    let base = grid.build(seed);
    let mut overrides = Vec::new();
    if let Some(v) = f.get("overrides") {
        for o in list_of(v)? {
            let mut of = Fields::new(o, "Cell")?;
            let cell_node = of.req("cell")?;
            let cell = usize_of(cell_node)?;
            let Some(city_cell) = base.cells.get(cell) else {
                return Err(SchemaError::at(
                    cell_node.span,
                    format!(
                        "cell index {cell} out of range (the city has {} cells)",
                        base.cells.len()
                    ),
                ));
            };
            if overrides.iter().any(|x: &CellOverride| x.cell == cell) {
                return Err(SchemaError::at(
                    cell_node.span,
                    format!("duplicate override for cell {cell}"),
                ));
            }
            let mics = strike_list_of(of.req("mics")?, city_cell.map, None)?;
            of.finish()?;
            overrides.push(CellOverride { cell, mics });
        }
    }
    let faults = match f.get("faults") {
        Some(v) => Some(faults_of(v)?),
        None => None,
    };
    f.finish()?;
    Ok(CityDoc {
        seed,
        grid,
        warmup,
        duration,
        sample_interval,
        downlink_bytes,
        uplink_bytes,
        overrides,
        faults,
    })
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Parses a scenario document from source text. The root struct name
/// selects the document kind.
pub fn parse_str(src: &str) -> Result<ScenarioDoc, SchemaError> {
    let root = parse_root(src)?;
    let Node::Struct {
        name: Some(name), ..
    } = &root.node
    else {
        return Err(SchemaError::at(
            root.span,
            "a scenario document is a named struct, e.g. `Scenario(version: 1, ...)`",
        ));
    };
    match name.as_str() {
        "Scenario" => Ok(ScenarioDoc::SingleAp(decode_single(&root)?)),
        "City" => Ok(ScenarioDoc::City(decode_city(&root)?)),
        other => Err(SchemaError::at(
            root.span,
            format!("unknown document kind `{other}` (expected Scenario or City)"),
        )),
    }
}

/// Loads and parses a scenario file, prefixing every diagnostic with
/// the file path (`path:line:col: message`).
pub fn load(path: impl AsRef<Path>) -> Result<ScenarioDoc, LoadError> {
    let path = path.as_ref();
    let src = std::fs::read_to_string(path).map_err(|e| LoadError::Io {
        path: path.display().to_string(),
        msg: e.to_string(),
    })?;
    parse_str(&src).map_err(|err| LoadError::Schema {
        path: path.display().to_string(),
        err,
    })
}

// ---------------------------------------------------------------------------
// Serialization (canonical form)
// ---------------------------------------------------------------------------

/// Formats a float so [`parse_str`] reads it back exactly (shortest
/// round-trip representation, always with a decimal point or exponent).
fn fmt_f(v: f64) -> String {
    format!("{v:?}")
}

fn fmt_dur(d: SimDuration) -> String {
    #[allow(clippy::cast_precision_loss)] // schema durations are < 1e15 ns
    fmt_f(d.as_nanos() as f64 / 1e9)
}

fn fmt_time(t: SimTime) -> String {
    #[allow(clippy::cast_precision_loss)] // schema times are < 1e15 ns
    fmt_f(t.as_nanos() as f64 / 1e9)
}

fn fmt_wf(ch: WfChannel) -> String {
    let w = match ch.width() {
        Width::W5 => "W5",
        Width::W10 => "W10",
        Width::W20 => "W20",
    };
    format!("{w}({})", ch.center().index())
}

fn fmt_opt_wf(ch: Option<WfChannel>) -> String {
    match ch {
        Some(c) => format!("Some({})", fmt_wf(c)),
        None => "None".into(),
    }
}

fn fmt_usize_list(idx: &[usize]) -> String {
    let items: Vec<String> = idx.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn write_strike(out: &mut String, indent: &str, s: &MicStrike, with_at: bool) {
    let _ = write!(
        out,
        "{indent}Strike(channel: {}, on_s: {}, off_s: {}",
        s.channel.index(),
        fmt_time(s.on),
        fmt_time(s.off)
    );
    if with_at {
        let at = match s.at {
            MicAt::Ap => "Ap".into(),
            MicAt::Everyone => "Everyone".into(),
            MicAt::Client(i) => format!("Client({i})"),
        };
        let _ = write!(out, ", at: {at}");
    }
    let _ = writeln!(out, "),");
}

fn write_traffic(out: &mut String, t: &TrafficSpec) {
    match t {
        TrafficSpec::Cbr { interval } => {
            let _ = write!(out, "Cbr(interval_s: {})", fmt_dur(*interval));
        }
        TrafficSpec::Markov {
            interval,
            mean_active,
            mean_passive,
        } => {
            let _ = write!(
                out,
                "Markov(interval_s: {}, mean_active_s: {}, mean_passive_s: {})",
                fmt_dur(*interval),
                fmt_dur(*mean_active),
                fmt_dur(*mean_passive)
            );
        }
        TrafficSpec::Scripted { interval, windows } => {
            let ws: Vec<String> = windows
                .iter()
                .map(|(on, off)| format!("({}, {})", fmt_time(*on), fmt_time(*off)))
                .collect();
            let _ = write!(
                out,
                "Scripted(interval_s: {}, windows: [{}])",
                fmt_dur(*interval),
                ws.join(", ")
            );
        }
        TrafficSpec::Diurnal {
            interval,
            on,
            off,
            phase,
        } => {
            let _ = write!(
                out,
                "Diurnal(interval_s: {}, on_s: {}, off_s: {}, phase_s: {})",
                fmt_dur(*interval),
                fmt_dur(*on),
                fmt_dur(*off),
                fmt_dur(*phase)
            );
        }
    }
}

/// Writes the timing and payload keys both document kinds carry:
/// `warmup_s`, `duration_s` and `sample_interval_s` from `times`.
fn write_timing(out: &mut String, times: [SimDuration; 3], downlink: usize, uplink: Option<usize>) {
    for (key, d) in ["warmup_s", "duration_s", "sample_interval_s"]
        .iter()
        .zip(times)
    {
        let _ = writeln!(out, "    {key}: {},", fmt_dur(d));
    }
    let _ = writeln!(out, "    downlink_bytes: {downlink},");
    let uplink = match uplink {
        Some(b) => format!("Some({b})"),
        None => "None".into(),
    };
    let _ = writeln!(out, "    uplink_bytes: {uplink},");
}

fn write_faults(out: &mut String, indent: &str, p: &FaultPlan) {
    let _ = writeln!(out, "{indent}faults: Faults(");
    let _ = writeln!(out, "{indent}    seed: {},", p.seed);
    let _ = writeln!(out, "{indent}    drop_prob: {},", fmt_f(p.drop_prob));
    let _ = writeln!(out, "{indent}    dup_prob: {},", fmt_f(p.dup_prob));
    let _ = writeln!(out, "{indent}    delay_prob: {},", fmt_f(p.delay_prob));
    let _ = writeln!(out, "{indent}    max_delay_s: {},", fmt_dur(p.max_delay));
    let _ = writeln!(
        out,
        "{indent}    max_detection_extra_s: {},",
        fmt_dur(p.max_detection_extra)
    );
    let skew = match p.history_skew {
        Some(d) => format!("Some({})", fmt_dur(d)),
        None => "None".into(),
    };
    let _ = writeln!(out, "{indent}    history_skew_s: {skew},");
    let _ = writeln!(out, "{indent}),");
}

impl ScenarioDoc {
    /// Serializes to the canonical `.ron` form. The output re-parses to
    /// an equal document ([`parse_str`] ∘ `to_ron` is the identity on
    /// decoded values).
    pub fn to_ron(&self) -> String {
        let mut out = String::new();
        match self {
            ScenarioDoc::SingleAp(d) => write_single(&mut out, d),
            ScenarioDoc::City(d) => write_city(&mut out, d),
        }
        out
    }
}

fn write_single(out: &mut String, d: &SingleApDoc) {
    let _ = writeln!(out, "Scenario(");
    let _ = writeln!(out, "    version: {SCHEMA_VERSION},");
    let _ = writeln!(out, "    seed: {},", d.seed);
    let map = match &d.map {
        MapSpec::Free(idx) => format!("Free({})", fmt_usize_list(idx)),
        MapSpec::Occupied(idx) => format!("Occupied({})", fmt_usize_list(idx)),
    };
    let _ = writeln!(out, "    map: {map},");
    let _ = writeln!(out, "    clients: {},", d.clients);
    write_timing(
        out,
        [d.warmup, d.duration, d.sample_interval],
        d.downlink_bytes,
        d.uplink_bytes,
    );
    if !d.mics.is_empty() {
        let _ = writeln!(out, "    mics: [");
        for s in &d.mics {
            write_strike(out, "        ", s, true);
        }
        let _ = writeln!(out, "    ],");
    }
    if let Some(storm) = &d.mic_storm {
        let _ = writeln!(out, "    mic_storm: Storm(");
        let _ = writeln!(out, "        prob: {},", fmt_f(storm.prob));
        let _ = writeln!(out, "        mean_off_s: {},", fmt_f(storm.mean_off_s));
        let _ = writeln!(out, "        mean_on_s: {},", fmt_f(storm.mean_on_s));
        let _ = writeln!(out, "        horizon_s: {},", fmt_dur(storm.horizon));
        let seed = match storm.seed {
            SeedSource::Scenario => "Scenario".into(),
            SeedSource::Fixed(x) => format!("Fixed({x})"),
        };
        let _ = writeln!(out, "        seed: {seed},");
        let _ = writeln!(out, "    ),");
    }
    if !d.background.is_empty() {
        let _ = writeln!(out, "    background: [");
        for b in &d.background {
            let _ = write!(
                out,
                "        Background(channel: {}, traffic: ",
                fmt_wf(b.channel)
            );
            write_traffic(out, &b.traffic);
            let _ = writeln!(out, "),");
        }
        let _ = writeln!(out, "    ],");
    }
    if let Some(p) = &d.faults {
        write_faults(out, "    ", p);
    }
    let run = match d.run {
        RunSpec::Whitefi { initial } => format!("Whitefi(initial: {})", fmt_opt_wf(initial)),
        RunSpec::Fixed { channel } => format!("Fixed(channel: {})", fmt_wf(channel)),
    };
    let _ = writeln!(out, "    run: {run},");
    if let Some(ch) = d.contrast_fixed {
        let _ = writeln!(out, "    contrast_fixed: {},", fmt_wf(ch));
    }
    let _ = writeln!(out, ")");
}

fn write_city(out: &mut String, d: &CityDoc) {
    let _ = writeln!(out, "City(");
    let _ = writeln!(out, "    version: {SCHEMA_VERSION},");
    let _ = writeln!(out, "    seed: {},", d.seed);
    let grid = match d.grid {
        GridSpec::Grid {
            aps,
            clients_per_ap,
            spacing_m,
            range_m,
        } => format!(
            "Grid(aps: {aps}, clients_per_ap: {clients_per_ap}, spacing_m: {}, range_m: {})",
            fmt_f(spacing_m),
            fmt_f(range_m)
        ),
        GridSpec::Checkerboard {
            aps,
            clients_per_ap,
        } => {
            format!("Checkerboard(aps: {aps}, clients_per_ap: {clients_per_ap})")
        }
    };
    let _ = writeln!(out, "    grid: {grid},");
    write_timing(
        out,
        [d.warmup, d.duration, d.sample_interval],
        d.downlink_bytes,
        d.uplink_bytes,
    );
    if !d.overrides.is_empty() {
        let _ = writeln!(out, "    overrides: [");
        for o in &d.overrides {
            let _ = writeln!(out, "        Cell(cell: {}, mics: [", o.cell);
            for s in &o.mics {
                write_strike(out, "            ", s, false);
            }
            let _ = writeln!(out, "        ]),");
        }
        let _ = writeln!(out, "    ],");
    }
    if let Some(p) = &d.faults {
        write_faults(out, "    ", p);
    }
    let _ = writeln!(out, ")");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(src: &str) -> SchemaError {
        match parse_str(src) {
            Err(e) => e,
            Ok(_) => panic!("expected a schema error for {src:?}"),
        }
    }

    #[test]
    fn minimal_scenario_parses() {
        let doc = parse_str(
            "Scenario(version: 1, seed: 7, map: Free([3, 4, 5]), clients: 2,\n\
             warmup_s: 1.0, duration_s: 2.0, sample_interval_s: 0.5)",
        )
        .expect("parses");
        let ScenarioDoc::SingleAp(d) = doc else {
            panic!("wrong kind");
        };
        assert_eq!(d.seed, 7);
        assert_eq!(d.clients, 2);
        assert_eq!(d.downlink_bytes, 1000);
        assert_eq!(d.uplink_bytes, Some(500));
        assert_eq!(d.run, RunSpec::Whitefi { initial: None });
    }

    #[test]
    fn comments_and_trailing_commas_are_trivia() {
        let doc = parse_str(
            "// header\nScenario( /* inline */ version: 1, seed: 1,\n\
             map: Free([0, 1,],), clients: 1, warmup_s: 0, duration_s: 1, sample_interval_s: 1,)",
        );
        assert!(doc.is_ok(), "{doc:?}");
    }

    #[test]
    fn duplicate_key_is_rejected_at_the_second_key() {
        let e = err("Scenario(version: 1,\n version: 2)");
        assert_eq!((e.line, e.col), (2, 2));
        assert!(e.msg.contains("duplicate key"), "{e}");
    }

    #[test]
    fn trailing_content_is_rejected() {
        let e = err("Scenario(version: 1) junk");
        assert!(e.msg.contains("trailing content"), "{e}");
    }

    #[test]
    fn unterminated_comment_points_at_its_start() {
        let e = err("Scenario(version: 1) /* open");
        assert!(e.msg.contains("unterminated block comment"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn nan_duration_is_rejected_with_value() {
        let e = err(
            "Scenario(version: 1, seed: 1, map: Free([0]), clients: 1,\n\
             warmup_s: NaN, duration_s: 1, sample_interval_s: 1)",
        );
        assert!(e.msg.contains("finite number of seconds"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn diurnal_windows_stop_at_horizon() {
        let spec = TrafficSpec::Diurnal {
            interval: SimDuration::from_millis(10),
            on: SimDuration::from_secs(1),
            off: SimDuration::from_secs(1),
            phase: SimDuration::from_millis(500),
        };
        let BackgroundTraffic::Scripted { windows, .. } = spec.compile(SimDuration::from_secs(5))
        else {
            panic!("diurnal lowers to scripted");
        };
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].0.as_nanos(), 500_000_000);
        assert!(windows.iter().all(|(on, _)| on.as_nanos() < 5_000_000_000));
    }

    #[test]
    fn canonical_serialization_round_trips() {
        let doc = parse_str(
            "Scenario(version: 1, seed: 9, map: Occupied([0, 29]), clients: 3,\n\
             warmup_s: 0.25, duration_s: 3.5, sample_interval_s: 0.1,\n\
             mics: [Strike(channel: 5, on_s: 1.0, off_s: 2.0, at: Client(1))],\n\
             mic_storm: Storm(prob: 0.5, mean_off_s: 40.0, mean_on_s: 10.0, horizon_s: 60.0, seed: Fixed(11)),\n\
             background: [Background(channel: W5(10), traffic: Diurnal(interval_s: 0.02, on_s: 1.0, off_s: 0.5, phase_s: 0.0))],\n\
             faults: Faults(seed: 3, drop_prob: 0.1, history_skew_s: Some(2.0)),\n\
             run: Whitefi(initial: Some(W20(7))), contrast_fixed: W10(3))",
        )
        .expect("parses");
        let ron = doc.to_ron();
        let back = parse_str(&ron).expect("canonical form parses");
        assert_eq!(doc, back);
        assert_eq!(ron, back.to_ron());
    }
}
