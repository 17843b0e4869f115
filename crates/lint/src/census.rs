//! U1, "reached only by tests": a workspace-wide identifier census.
//!
//! Every `pub`/`pub(crate)` `fn`, `const` and `static` defined in the
//! non-test tokens of `crates/*/src` must be named at least once more by
//! non-test code somewhere in the workspace. A definition whose name
//! appears nowhere else — or only in test items, test files, comments
//! or strings — is reached only by tests: delete it, move it under
//! `#[cfg(test)]`, or keep it with `det-lint: allow(U1, <reason>)`
//! naming the test or figure that needs it.
//!
//! The census works on tokens, never on text: a comment that names a
//! function is not a call, and a `#[cfg(test)]` written inside a doc
//! comment does not hide the code below it. Nor is an import a call: the
//! names in a `use` item do not count, so a `pub use` re-export reaches
//! nothing by itself (a name renamed with `as` does count, since the
//! code calls it by the new one). It is a *name* census, so a dead
//! function that shares its name with a live one goes unreported, but a
//! function's own name in its body is no reference to it.

use crate::rules::{self, Rule};
use crate::token::{self, Tok, TokKind};
use crate::{collect_rs, directives, Diagnostic};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Caller roots outside `crates/*/`. `benchmark/src` is the frozen
/// benchmark's simulator surface: read, never edited, and a caller like
/// any other, so nothing it reaches can be reported dead.
const OUTER_ROOTS: [&str; 3] = ["src", "examples", "benchmark/src"];

/// Per-crate caller directories; only `src` also holds definitions.
const CRATE_DIRS: [&str; 3] = ["src", "benches", "examples"];

/// One public definition: where it is and what it is called.
struct Def {
    file: PathBuf,
    line: u32,
    name: String,
    allowed: bool,
}

/// The name tokens of the `pub` `fn`/`const`/`static` items in `toks`.
fn definitions(toks: &[Tok]) -> Vec<&Tok> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") {
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)`, `pub(super)`, `pub(in path)`.
        if toks.get(j).is_some_and(|t| t.is_punct("(")) {
            while toks.get(j).is_some_and(|t| !t.is_punct(")")) {
                j += 1;
            }
            j += 1;
        }
        let name = match toks.get(j..).unwrap_or_default() {
            [k, n, ..] if k.is_ident("fn") => n,
            [k, f, n, ..] if k.is_ident("const") && f.is_ident("fn") => n,
            [k, n, c, ..] if (k.is_ident("const") || k.is_ident("static")) && c.is_punct(":") => n,
            [k, m, n, c, ..] if k.is_ident("static") && m.is_ident("mut") && c.is_punct(":") => n,
            _ => continue,
        };
        if name.kind == TokKind::Ident {
            out.push(name);
        }
    }
    out
}

/// The identifier tokens of `toks` that can reach a definition: all but
/// those inside `use` items, where only a name renamed with `as` counts,
/// and a function's own name in its body (a test-only wrapper around a
/// same-named layer function reaches neither).
fn references(toks: &[Tok]) -> Vec<&Tok> {
    let mut out = Vec::new();
    let mut in_use = false;
    // Per open brace, the function whose body it opens, if any; `sig` is
    // a function between its name and its body.
    let (mut braces, mut sig): (Vec<Option<&str>>, _) = (Vec::new(), None);
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            braces.push(sig.take());
        } else if t.is_punct("}") {
            braces.pop();
        } else if t.is_punct(";") {
            (in_use, sig) = (false, None);
        } else if t.is_ident("use") {
            in_use = true;
        } else if t.kind == TokKind::Ident
            && (!in_use || toks.get(i + 1).is_some_and(|n| n.is_ident("as")))
        {
            if i > 0 && toks[i - 1].is_ident("fn") {
                sig = Some(t.text.as_str());
            } else if braces.iter().flatten().any(|&f| f == t.text) {
                continue;
            }
            out.push(t);
        }
    }
    out
}

/// Run U1 over the workspace at `root`. Paths in the diagnostics are
/// relative to `root`. Directive errors are not reported here: for the
/// engine roots [`crate::lint_source`] reports them, and elsewhere a
/// reasonless allow simply excuses nothing.
pub fn unreached(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    // (directory, does it hold definitions?)
    let mut dirs: Vec<(PathBuf, bool)> =
        OUTER_ROOTS.iter().map(|r| (root.join(r), false)).collect();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crates: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
        crates.sort();
        for c in crates {
            dirs.extend(CRATE_DIRS.iter().map(|d| (c.join(d), *d == "src")));
        }
    }
    // Occurrences of every identifier in non-test code, less the name
    // tokens of the definitions themselves.
    let mut refs: BTreeMap<String, usize> = BTreeMap::new();
    let mut defs: Vec<Def> = Vec::new();
    for (dir, defining) in dirs {
        let mut files = Vec::new();
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
        for path in files {
            let src = std::fs::read_to_string(&path)?;
            let all = token::tokenize(&src);
            let toks = rules::strip_test_items(&all);
            for t in references(&toks) {
                *refs.entry(t.text.clone()).or_default() += 1;
            }
            if !defining {
                continue;
            }
            let file = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let code_lines: BTreeSet<u32> = all.iter().map(|t| t.line).collect();
            let allows = directives::parse(&file, &src, &code_lines);
            for name in definitions(&toks) {
                *refs.get_mut(&name.text).expect("counted above") -= 1;
                defs.push(Def {
                    allowed: allows.allows(name.line, Rule::TestOnly),
                    file: file.clone(),
                    line: name.line,
                    name: name.text.clone(),
                });
            }
        }
    }
    // A name nothing but tests, comments and strings reaches has no
    // occurrence left.
    Ok(defs
        .iter()
        .filter(|d| !d.allowed && refs[&d.name] == 0)
        .map(|d| Diagnostic {
            file: d.file.clone(),
            line: d.line,
            rule: Rule::TestOnly,
            message: format!(
                "`{}` is reached only by tests: no non-test code in the workspace names it; \
                 delete it, move it under #[cfg(test)], or annotate which test or figure needs it",
                d.name
            ),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_public_item_form_is_a_definition() {
        let src = "pub fn a() {} pub(crate) const fn b() {} pub const C: u8 = 0; \
                   pub(crate) static D: u8 = 0; pub static mut E: u8 = 0; \
                   fn private() {} pub struct S; pub mod m {} pub use x::y;";
        let toks = token::tokenize(src);
        let names: Vec<&str> = definitions(&toks).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(names, ["a", "b", "C", "D", "E"]);
    }

    #[test]
    fn a_use_item_references_only_what_it_renames() {
        let src = "pub use a::{b, c as d}; use e; fn f() { use g::h; b(); }";
        let toks = token::tokenize(src);
        let names: Vec<&str> = references(&toks).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(names, ["pub", "c", "fn", "f", "b"]);
    }

    #[test]
    fn a_function_body_does_not_reference_its_own_name() {
        let src =
            "fn f() { f(); g(); } fn g() -> [u8; 2] { f() } trait T { fn h(); } fn k() { h() }";
        let toks = token::tokenize(src);
        let names: Vec<&str> = references(&toks).iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            names,
            ["fn", "f", "g", "fn", "g", "u8", "f", "trait", "T", "fn", "h", "fn", "k", "h"]
        );
    }
}
