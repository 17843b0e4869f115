//! The determinism rules (D1–D5) and the rule catalogue, which also
//! names the workspace-wide U1 ([`crate::census`]).
//!
//! Each rule is a token-level pass. The passes are deliberately
//! *syntactic*: with no type information available (no crates.io, so no
//! `syn`/rustc integration), every rule anchors on patterns that are
//! cheap to state and hard to evade — a `HashMap` is recognized at its
//! declaration and tracked by name, a float accumulator by its declared
//! type and time-like name, an RNG stream label by its literal. False
//! negatives are possible (aliasing through a function boundary hides a
//! map); the dynamic conformance suites remain the backstop for those.
//! False positives are paid down with reason-carrying allow-directives,
//! which is the point: every hash container and float accumulator in an
//! engine crate either disappears or carries a written justification.

use crate::token::{Tok, TokKind};

/// A determinism rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Malformed `det-lint` directive (missing reason, unknown rule).
    BadDirective,
    /// D1: order-sensitive use of `HashMap`/`HashSet` in engine code.
    UnorderedIter,
    /// D2: `+=`/`-=` accumulation on an `f64` simulated-time variable.
    FloatTimeAccum,
    /// D3: wall clock / ambient nondeterminism (`Instant`, `SystemTime`,
    /// `RandomState`, `std::env`).
    AmbientNondet,
    /// D4: duplicated `DetRng::split`/`split_u64`/`from_label` stream
    /// label within one constructing scope.
    RngLabelDup,
    /// D5: `f64`/`f32` field on a type whose `Eq` backs bit-identity
    /// assertions.
    FloatEqField,
    /// U1: `pub` item in `crates/*/src` that no non-test code names
    /// (workspace-wide; see [`crate::census`]).
    TestOnly,
}

impl Rule {
    /// Every allowable rule (excludes [`Rule::BadDirective`], which can
    /// never be suppressed).
    pub const ALL: [Rule; 6] = [
        Rule::UnorderedIter,
        Rule::FloatTimeAccum,
        Rule::AmbientNondet,
        Rule::RngLabelDup,
        Rule::FloatEqField,
        Rule::TestOnly,
    ];

    /// Stable short id (`D1`…`D5`, `U1`; `D0` for directive errors).
    pub fn id(self) -> &'static str {
        match self {
            Rule::BadDirective => "D0",
            Rule::UnorderedIter => "D1",
            Rule::FloatTimeAccum => "D2",
            Rule::AmbientNondet => "D3",
            Rule::RngLabelDup => "D4",
            Rule::FloatEqField => "D5",
            Rule::TestOnly => "U1",
        }
    }

    /// Human name, as used in allow-directives.
    pub fn name(self) -> &'static str {
        match self {
            Rule::BadDirective => "bad-directive",
            Rule::UnorderedIter => "unordered-iter",
            Rule::FloatTimeAccum => "float-time-accum",
            Rule::AmbientNondet => "ambient-nondet",
            Rule::RngLabelDup => "rng-label-dup",
            Rule::FloatEqField => "float-eq-field",
            Rule::TestOnly => "test-only",
        }
    }

    /// Look a rule up by directive name or short id (case-insensitive
    /// for the id form).
    pub fn by_name(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL
            .iter()
            .copied()
            .find(|r| r.name() == s || r.id().eq_ignore_ascii_case(s))
    }
}

/// One raw rule finding (pre-directive-filtering).
#[derive(Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Run every rule over a token stream (already stripped of test items).
pub fn run_all(toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    unordered_iter(toks, &mut out);
    float_time_accum(toks, &mut out);
    ambient_nondet(toks, &mut out);
    rng_label_dup(toks, &mut out);
    float_eq_field(toks, &mut out);
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

// --- shared helpers ---------------------------------------------------------

/// Index of the token *after* the previous statement boundary (`;`, `{`,
/// `}`) — i.e. where the statement containing `i` begins.
fn stmt_start(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        j -= 1;
    }
    j
}

/// Strip every `#[test]` / `#[cfg(test)]`-gated item from the stream.
///
/// Engine crates keep their unit tests inline; tests legitimately use
/// `HashSet` scratch space, duplicate RNG labels to prove stream
/// equality, and so on. The rules therefore see only non-test code.
/// (`#[cfg(not(test))]` is *kept*: `not` defuses the `test` marker.)
pub fn strip_test_items(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
            // Parse the attribute to its closing `]`.
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut idents: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                } else if t.kind == TokKind::Ident {
                    idents.push(&t.text);
                }
                j += 1;
            }
            let test_gated = idents.contains(&"test") && !idents.contains(&"not");
            if test_gated {
                // Skip this attribute, any further attributes, then the
                // item itself (through its `;` or its outer brace block).
                i = j;
                while i + 1 < toks.len() && toks[i].is_punct("#") && toks[i + 1].is_punct("[") {
                    let mut d = 0i32;
                    while i < toks.len() {
                        if toks[i].is_punct("[") {
                            d += 1;
                        } else if toks[i].is_punct("]") {
                            d -= 1;
                            if d == 0 {
                                i += 1;
                                break;
                            }
                        }
                        i += 1;
                    }
                }
                let mut d = 0i32;
                while i < toks.len() {
                    let t = &toks[i];
                    if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
                        d += 1;
                    } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
                        d -= 1;
                        if d == 0 && toks[i].is_punct("}") {
                            i += 1;
                            break;
                        }
                    } else if t.is_punct(";") && d == 0 {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
            // Not test-gated: emit the attribute tokens verbatim.
            out.extend(toks[i..j].iter().cloned());
            i = j;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

// --- D1: unordered iteration ------------------------------------------------

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn unordered_iter(toks: &[Tok], out: &mut Vec<Finding>) {
    // Pass 1: find hash-container declarations. A type-position use
    // (`: HashMap<…>`, `-> HashMap<…>`, `::<HashSet<_>>`) is itself a
    // finding — key order can leak through *any* later iteration, so the
    // declaration is where the justification belongs. Bindings
    // initialized from `HashMap::new()`-style constructors register the
    // name for pass 2 without a declaration finding (a keyed-only local
    // is harmless until something iterates it).
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // `use std::collections::{HashMap, …}` — imports are not uses.
        let s = stmt_start(toks, i);
        if toks[s].is_ident("use") || (toks[s].is_ident("pub") && toks[s + 1].is_ident("use")) {
            continue;
        }
        let next = toks.get(i + 1);
        if next.is_some_and(|n| n.is_punct("<")) {
            // Type position. Recover the declared name when the pattern
            // is `name: [path::]HashMap<…>`.
            let mut j = i;
            while j >= 2 && toks[j - 1].is_punct("::") && toks[j - 2].kind == TokKind::Ident {
                j -= 2;
            }
            let declared =
                (j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident)
                    .then(|| toks[j - 2].text.clone());
            if let Some(name) = &declared {
                names.push(name.clone());
            }
            let subject = declared
                .map(|n| format!("`{n}: {}<…>`", t.text))
                .unwrap_or_else(|| format!("`{}<…>` in type position", t.text));
            out.push(Finding {
                rule: Rule::UnorderedIter,
                line: t.line,
                message: format!(
                    "{subject}: {} iteration order is nondeterministic and may differ \
                     across shards — use BTreeMap/BTreeSet, iterate via sorted keys, \
                     or annotate why key order cannot leak into results",
                    t.text
                ),
            });
        } else if next.is_some_and(|n| n.is_punct("::")) {
            // Constructor form: register `let [mut] name = …HashMap::new()`.
            if toks[s].is_ident("let") {
                let mut k = s + 1;
                if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(k + 1).is_some_and(|t| t.is_punct("="))
                {
                    names.push(toks[k].text.clone());
                }
            }
        }
    }
    names.sort_unstable();
    names.dedup();
    let is_tracked = |t: &Tok| t.kind == TokKind::Ident && names.binary_search(&t.text).is_ok();

    // Pass 2: iteration over a tracked name.
    for i in 0..toks.len() {
        let t = &toks[i];
        // `map.iter()` / `map.drain(..)` / …
        if is_tracked(t)
            && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
            && toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && ITER_METHODS.contains(&m.text.as_str())
            })
            && toks.get(i + 3).is_some_and(|p| p.is_punct("("))
        {
            out.push(Finding {
                rule: Rule::UnorderedIter,
                line: toks[i + 2].line,
                message: format!(
                    "`{}.{}()` iterates a hash-ordered container — visit order is \
                     nondeterministic; sort first, use a BTree container, or annotate",
                    t.text,
                    toks[i + 2].text
                ),
            });
        }
        // `for x in [&[mut]] path.to.map { … }`
        if t.is_ident("for") {
            let mut j = i + 1;
            let mut depth = 0i32;
            // Find the `in` of this `for` (patterns may contain parens).
            while j < toks.len() {
                let p = &toks[j];
                if p.is_punct("(") || p.is_punct("[") {
                    depth += 1;
                } else if p.is_punct(")") || p.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && p.is_ident("in") {
                    break;
                } else if depth == 0 && (p.is_punct("{") || p.is_punct(";")) {
                    j = toks.len(); // not a `for … in` (e.g. `impl … for`)
                }
                j += 1;
            }
            if j >= toks.len() {
                continue;
            }
            // Expression tokens up to the body `{`.
            let mut k = j + 1;
            let mut expr: Vec<&Tok> = Vec::new();
            while k < toks.len() && !toks[k].is_punct("{") {
                expr.push(&toks[k]);
                k += 1;
            }
            let mut e = expr.as_slice();
            while e
                .first()
                .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
            {
                e = &e[1..];
            }
            // Only plain paths (`self.fas.voqs`, `map`): anything with
            // calls or indexing already matched pass-2 method form or is
            // out of scope for a syntactic pass.
            let plain = !e.is_empty()
                && e.iter()
                    .all(|t| t.kind == TokKind::Ident || t.is_punct("."));
            if plain && e.last().is_some_and(|t| is_tracked(t)) {
                out.push(Finding {
                    rule: Rule::UnorderedIter,
                    line: toks[i].line,
                    message: format!(
                        "`for … in {}{}` iterates a hash-ordered container — visit \
                         order is nondeterministic; sort first, use a BTree container, \
                         or annotate",
                        if expr.len() != e.len() { "&" } else { "" },
                        e.last().unwrap().text
                    ),
                });
            }
        }
    }
}

// --- D2: float time accumulation --------------------------------------------

/// Does `name` look like it holds simulated time / an arrival offset?
fn time_like(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    const STEMS: [&str; 9] = [
        "time", "arrival", "offset", "delay", "latency", "deadline", "elapsed", "rtt", "stamp",
    ];
    const SUFFIXES: [&str; 7] = ["_s", "_ns", "_us", "_ms", "_ps", "_sec", "_secs"];
    STEMS.iter().any(|s| lower.contains(s)) || SUFFIXES.iter().any(|s| lower.ends_with(s))
}

/// Is this numeric literal a float?
fn float_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0b") || lower.starts_with("0o") {
        return false;
    }
    lower.contains('.') || lower.ends_with("f64") || lower.ends_with("f32") || lower.contains('e')
}

fn float_time_accum(toks: &[Tok], out: &mut Vec<Finding>) {
    // Pass 1: names with a declared float type, or `let`-bound to a
    // float literal.
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("f64") || t.is_ident("f32") {
            // `name: f64` (fields, params, lets; `&f64` / `mut` allowed).
            let mut j = i;
            while j >= 1 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
                j -= 1;
            }
            if j >= 2 && toks[j - 1].is_punct(":") && toks[j - 2].kind == TokKind::Ident {
                names.push(toks[j - 2].text.clone());
            }
        }
        if t.kind == TokKind::Num && float_literal(&t.text) && i >= 2 && toks[i - 1].is_punct("=") {
            // `let [mut] name = 0.0;`
            let s = stmt_start(toks, i);
            if toks[s].is_ident("let") {
                let mut k = s + 1;
                if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                    k += 1;
                }
                if k + 1 == i - 1 && toks[k].kind == TokKind::Ident {
                    names.push(toks[k].text.clone());
                }
            }
        }
    }
    names.sort_unstable();
    names.dedup();

    // Pass 2: accumulation on a float, time-like name.
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && time_like(&t.text)
            && names.binary_search(&t.text).is_ok()
            && toks
                .get(i + 1)
                .is_some_and(|op| op.is_punct("+=") || op.is_punct("-="))
        {
            out.push(Finding {
                rule: Rule::FloatTimeAccum,
                line: t.line,
                message: format!(
                    "`{} {}= …` accumulates simulated time in floating point — repeated \
                     f64 accumulation drifts (the PR 6 arrival-offset bug class); hold \
                     integer picoseconds and convert at the edges, or annotate",
                    t.text,
                    &toks[i + 1].text[..1],
                ),
            });
        }
    }
}

// --- D3: ambient nondeterminism ---------------------------------------------

fn ambient_nondet(toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let what: Option<&str> = match t.text.as_str() {
            "Instant" => Some("std::time::Instant (wall clock)"),
            "SystemTime" => Some("std::time::SystemTime (wall clock)"),
            "RandomState" => Some("RandomState (per-process random hash seed)"),
            "env" => {
                // `std::env` / `env::var(…)` — but not the compile-time
                // `env!(…)` macro, which is a constant.
                let prev_std = i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("std");
                let next_path = toks.get(i + 1).is_some_and(|n| n.is_punct("::"));
                let is_macro = toks.get(i + 1).is_some_and(|n| n.is_punct("!"));
                (!is_macro && (prev_std || next_path)).then_some("std::env (process environment)")
            }
            _ => None,
        };
        if let Some(what) = what {
            out.push(Finding {
                rule: Rule::AmbientNondet,
                line: t.line,
                message: format!(
                    "{what} in an engine crate — runs must be a pure function of \
                     (config, seed); read such inputs in the bench/CLI layer and pass \
                     them in, or annotate"
                ),
            });
        }
    }
}

// --- D4: RNG stream-label collisions ----------------------------------------

fn rng_label_dup(toks: &[Tok], out: &mut Vec<Finding>) {
    // A "constructing scope" is a `fn` body (top-level code counts as one
    // scope per file). Within a scope, a repeated literal label handed to
    // `split` / `split_u64` / `from_label` constructs the *same* stream
    // twice — the hazard PR 4's collision tests probe dynamically.
    struct Scope {
        body_depth: i32,
        labels: std::collections::BTreeMap<String, u32>,
    }
    let mut scopes = vec![Scope {
        body_depth: -1, // file scope, never popped
        labels: Default::default(),
    }];
    let mut depth = 0i32;
    let mut pending_fn = false;

    let mut record = |scopes: &mut Vec<Scope>, label: String, pretty: &str, line: u32| {
        let scope = scopes.last_mut().expect("file scope");
        match scope.labels.get(&label) {
            Some(first) => out.push(Finding {
                rule: Rule::RngLabelDup,
                line,
                message: format!(
                    "DetRng stream label {pretty} already constructed in this scope \
                     (line {first}) — equal labels yield identical streams (the PR 4 \
                     collision hazard); make labels unique per scope, or annotate"
                ),
            }),
            None => {
                scope.labels.insert(label, line);
            }
        }
    };

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("fn") {
            pending_fn = true;
        } else if t.is_punct(";") {
            // `fn f();` in a trait: no body arrived.
            pending_fn = false;
        } else if t.is_punct("{") {
            depth += 1;
            if pending_fn {
                scopes.push(Scope {
                    body_depth: depth,
                    labels: Default::default(),
                });
                pending_fn = false;
            }
        } else if t.is_punct("}") {
            if scopes.last().is_some_and(|s| s.body_depth == depth) {
                scopes.pop();
            }
            depth -= 1;
        } else if t.kind == TokKind::Ident {
            match t.text.as_str() {
                // `.split("label")`
                "split"
                    if i >= 1
                        && toks[i - 1].is_punct(".")
                        && toks.get(i + 1).is_some_and(|p| p.is_punct("("))
                        && toks.get(i + 2).is_some_and(|s| s.kind == TokKind::Str)
                        && toks.get(i + 3).is_some_and(|p| p.is_punct(")")) =>
                {
                    let lit = &toks[i + 2];
                    record(
                        &mut scopes,
                        format!("s:{}", lit.text),
                        &format!("\"{}\"", lit.text),
                        lit.line,
                    );
                }
                // `.split_u64(42)`
                "split_u64"
                    if toks.get(i + 1).is_some_and(|p| p.is_punct("("))
                        && toks.get(i + 2).is_some_and(|s| s.kind == TokKind::Num)
                        && toks.get(i + 3).is_some_and(|p| p.is_punct(")")) =>
                {
                    let lit = &toks[i + 2];
                    let norm = lit.text.replace('_', "").to_ascii_lowercase();
                    record(
                        &mut scopes,
                        format!("n:{norm}"),
                        &lit.text.clone(),
                        lit.line,
                    );
                }
                // `DetRng::from_label(seed, "label")` — the label is the
                // last string literal in the argument list.
                "from_label" if toks.get(i + 1).is_some_and(|p| p.is_punct("(")) => {
                    let mut j = i + 2;
                    let mut d = 1i32;
                    let mut last_str: Option<&Tok> = None;
                    while j < toks.len() && d > 0 {
                        let p = &toks[j];
                        if p.is_punct("(") {
                            d += 1;
                        } else if p.is_punct(")") {
                            d -= 1;
                        } else if p.kind == TokKind::Str {
                            last_str = Some(p);
                        }
                        j += 1;
                    }
                    if let Some(lit) = last_str {
                        record(
                            &mut scopes,
                            format!("s:{}", lit.text),
                            &format!("\"{}\"", lit.text),
                            lit.line,
                        );
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
}

// --- D5: float fields behind Eq ---------------------------------------------

fn float_eq_field(toks: &[Tok], out: &mut Vec<Finding>) {
    // Structs with any f64/f32 field, by name.
    struct FloatField {
        field: String,
        line: u32,
    }
    let mut float_fields: std::collections::BTreeMap<String, Vec<FloatField>> = Default::default();
    let mut derives_eq: std::collections::BTreeMap<String, bool> = Default::default();

    let mut pending_derive_eq = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            // Record whether a derive(… Eq …) is pending for the next item.
            let mut j = i + 2;
            let mut d = 1i32;
            let mut idents: Vec<&str> = Vec::new();
            while j < toks.len() && d > 0 {
                let p = &toks[j];
                if p.is_punct("[") {
                    d += 1;
                } else if p.is_punct("]") {
                    d -= 1;
                } else if p.kind == TokKind::Ident {
                    idents.push(&p.text);
                }
                j += 1;
            }
            if idents.first() == Some(&"derive") && idents.contains(&"Eq") {
                pending_derive_eq = true;
            }
            i = j;
            continue;
        }
        if t.is_ident("struct") {
            let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            let name = name_tok.text.clone();
            derives_eq.insert(name.clone(), pending_derive_eq);
            pending_derive_eq = false;
            // Skip generics to the body.
            let mut j = i + 2;
            if toks.get(j).is_some_and(|t| t.is_punct("<")) {
                let mut d = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct("<") {
                        d += 1;
                    } else if toks[j].is_punct(">") {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let fields = float_fields.entry(name).or_default();
            match toks.get(j) {
                // Record struct: fields are `name: Type,` at depth 1.
                Some(t) if t.is_punct("{") => {
                    let mut d = 1i32;
                    let mut k = j + 1;
                    while k < toks.len() && d > 0 {
                        let p = &toks[k];
                        if p.is_punct("{") || p.is_punct("(") {
                            d += 1;
                        } else if p.is_punct("}") || p.is_punct(")") {
                            d -= 1;
                        } else if d == 1
                            && (p.is_ident("f64") || p.is_ident("f32"))
                            && k >= 1
                            && !toks[k - 1].is_punct("<")
                        {
                            // Find the field name: scan back to the `:`
                            // that opened this field's type.
                            let mut b = k;
                            while b > j && !toks[b].is_punct(":") {
                                b -= 1;
                            }
                            if b > j && toks[b - 1].kind == TokKind::Ident {
                                fields.push(FloatField {
                                    field: toks[b - 1].text.clone(),
                                    line: p.line,
                                });
                            }
                        } else if d == 2
                            && (p.is_ident("f64") || p.is_ident("f32"))
                            && k >= 1
                            && toks[k - 1].is_punct("<")
                        {
                            // `Vec<f64>` — the `<` bumped depth? No:
                            // angles are not tracked. Handled below.
                        }
                        k += 1;
                    }
                    // Also catch floats nested in generic args at depth 1
                    // (`hist: Vec<f64>`): the loop above already matches
                    // them unless directly preceded by `<`; include those
                    // too — a float anywhere in an Eq field is a hazard.
                    let mut d2 = 1i32;
                    let mut k2 = j + 1;
                    while k2 < toks.len() && d2 > 0 {
                        let p = &toks[k2];
                        if p.is_punct("{") || p.is_punct("(") {
                            d2 += 1;
                        } else if p.is_punct("}") || p.is_punct(")") {
                            d2 -= 1;
                        } else if d2 == 1
                            && (p.is_ident("f64") || p.is_ident("f32"))
                            && k2 >= 1
                            && toks[k2 - 1].is_punct("<")
                        {
                            let mut b = k2;
                            while b > j && !toks[b].is_punct(":") {
                                b -= 1;
                            }
                            if b > j && toks[b - 1].kind == TokKind::Ident {
                                fields.push(FloatField {
                                    field: toks[b - 1].text.clone(),
                                    line: p.line,
                                });
                            }
                        }
                        k2 += 1;
                    }
                }
                // Tuple struct: `struct X(f64);`
                Some(t) if t.is_punct("(") => {
                    let mut d = 1i32;
                    let mut k = j + 1;
                    while k < toks.len() && d > 0 {
                        let p = &toks[k];
                        if p.is_punct("(") {
                            d += 1;
                        } else if p.is_punct(")") {
                            d -= 1;
                        } else if p.is_ident("f64") || p.is_ident("f32") {
                            fields.push(FloatField {
                                field: format!(".{}", 0), // positional
                                line: p.line,
                            });
                        }
                        k += 1;
                    }
                }
                _ => {}
            }
            i = j;
            continue;
        }
        // Manual `impl Eq for Name`.
        if t.is_ident("impl") {
            let mut j = i + 1;
            // Skip generics.
            if toks.get(j).is_some_and(|t| t.is_punct("<")) {
                let mut d = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct("<") {
                        d += 1;
                    } else if toks[j].is_punct(">") {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            if toks.get(j).is_some_and(|t| t.is_ident("Eq"))
                && toks.get(j + 1).is_some_and(|t| t.is_ident("for"))
            {
                if let Some(name) = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident) {
                    derives_eq.insert(name.text.clone(), true);
                }
            }
        }
        if t.kind == TokKind::Ident && t.text != "struct" {
            pending_derive_eq =
                pending_derive_eq && matches!(t.text.as_str(), "pub" | "crate" | "super" | "in");
        }
        i += 1;
    }

    for (name, fields) in &float_fields {
        if !derives_eq.get(name).copied().unwrap_or(false) {
            continue;
        }
        for f in fields {
            out.push(Finding {
                rule: Rule::FloatEqField,
                line: f.line,
                message: format!(
                    "struct `{name}` is `Eq` (it backs bit-identity assertions) but field \
                     `{}` holds a float — floats break `Eq` semantics and make \
                     \"bit-identical\" claims meaningless; store scaled integers, or \
                     annotate",
                    f.field
                ),
            });
        }
    }
}
