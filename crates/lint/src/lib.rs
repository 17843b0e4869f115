//! `stardust-lint`: a static determinism auditor for the Stardust
//! reproduction workspace.
//!
//! The repo's headline claim — bit-identical results across engines,
//! shard counts, and streaming windows — is checked *dynamically* by the
//! conformance suites, which can only sample seeds. This crate enforces
//! the underlying invariants *statically*, so the recurring hazard
//! classes (hash-iteration order leaks, f64 time drift, ambient
//! nondeterminism, RNG stream collisions, floats behind `Eq`) fail CI
//! instead of waiting for an unlucky seed. See `DESIGN.md`
//! ("Determinism invariants") for the rule catalogue.
//!
//! The crate is self-contained by design: the container has no crates.io
//! access, so it ships its own minimal Rust tokenizer ([`token`]) rather
//! than depending on `syn`.

pub mod census;
pub mod directives;
pub mod rules;
pub mod token;

pub use rules::Rule;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One diagnostic: a rule finding that no allow-directive excuses, or a
/// malformed directive (`D0`).
#[derive(Debug)]
pub struct Diagnostic {
    /// Source file the diagnostic points at.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A malformed-directive diagnostic (rule `D0`, never allowable).
    pub fn bad_directive(path: &Path, line: u32, message: String) -> Self {
        Diagnostic {
            file: path.to_path_buf(),
            line,
            rule: Rule::BadDirective,
            message,
        }
    }

    /// `file:line: D1(unordered-iter): message` — the grep-able one-line
    /// form printed by the binary.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}({}): {}",
            self.file.display(),
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

/// Lint one file's source text. Returns only the diagnostics that no
/// reason-carrying allow-directive excuses (plus directive errors).
pub fn lint_source(path: &Path, src: &str) -> Vec<Diagnostic> {
    let toks = token::tokenize(src);
    let code_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let mut dirs = directives::parse(path, src, &code_lines);
    let stripped = rules::strip_test_items(&toks);
    let mut out = std::mem::take(&mut dirs.errors);
    for f in rules::run_all(&stripped) {
        if !dirs.allows(f.line, f.rule) {
            out.push(Diagnostic {
                file: path.to_path_buf(),
                line: f.line,
                rule: f.rule,
                message: f.message,
            });
        }
    }
    out.sort_by_key(|d| (d.line, d.rule));
    out
}

/// The source roots the determinism rules apply to, relative to the
/// workspace root. Engine crates only: the bench/CLI layer is *supposed*
/// to read clocks, environment variables, and filesystems.
pub const ENGINE_ROOTS: [&str; 8] = [
    "crates/sim/src",
    "crates/topo/src",
    "crates/fabric/src",
    "crates/baseline/src",
    "crates/transport/src",
    "crates/workload/src",
    "crates/mc/src",
    "src",
];

/// Is this file exempt wholesale? Separate test modules (`shard_tests.rs`
/// and friends) are included via `#[cfg(test)] mod …;` from their parent,
/// which in-file attribute scanning cannot see — so test-named files are
/// skipped at the walk level.
fn test_file(path: &Path) -> bool {
    path.file_stem()
        .and_then(|s| s.to_str())
        .is_some_and(|s| s == "tests" || s.ends_with("_tests"))
}

/// Outcome of linting a workspace tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned (exempt test files not counted).
    pub files_scanned: usize,
    /// All diagnostics, ordered by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// True when nothing fired.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Recursively collect `.rs` files under `dir`, sorted by path so the
/// auditor's own output order is deterministic.
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") && !test_file(&p) {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint every engine-crate source file under `root` (the workspace
/// root) with D1–D5, and the whole workspace with U1. Errors if `root`
/// contains none of the expected source trees — the usual sign of a
/// wrong `--root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    let mut found_any_root = false;
    for rel in ENGINE_ROOTS {
        let dir = root.join(rel);
        if dir.is_dir() {
            found_any_root = true;
            collect_rs(&dir, &mut files)?;
        }
    }
    if !found_any_root {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "no engine source roots under {:?} (expected e.g. crates/sim/src); \
                 pass the workspace root via --root",
                root
            ),
        ));
    }
    let mut report = Report::default();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        // Report paths relative to the workspace root: stable across
        // machines, and what CI annotations expect.
        let display = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        report.diagnostics.extend(lint_source(&display, &src));
        report.files_scanned += 1;
    }
    report.diagnostics.extend(census::unreached(root)?);
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_yields_no_diagnostics() {
        let src = "pub fn add(a: u64, b: u64) -> u64 { a + b }\n";
        assert!(lint_source(Path::new("x.rs"), src).is_empty());
    }

    #[test]
    fn allowed_finding_is_suppressed_but_directive_errors_are_not() {
        let src = "\
// det-lint: allow(unordered-iter, keyed access only)
pub struct S { m: std::collections::HashMap<u32, u32> }
// det-lint: allow(unordered-iter)
pub struct T { n: std::collections::HashMap<u32, u32> }
";
        let diags = lint_source(Path::new("x.rs"), src);
        // Line 2 is excused; line 3's directive is malformed (no reason),
        // so it produces D0 *and* fails to excuse line 4's D1.
        let ids: Vec<(&str, u32)> = diags.iter().map(|d| (d.rule.id(), d.line)).collect();
        assert_eq!(ids, vec![("D0", 3), ("D1", 4)]);
    }

    #[test]
    fn test_named_files_are_exempt() {
        assert!(test_file(Path::new("crates/fabric/src/shard_tests.rs")));
        assert!(test_file(Path::new("src/tests.rs")));
        assert!(!test_file(Path::new("crates/fabric/src/engine.rs")));
        assert!(!test_file(Path::new("src/contests.rs")));
    }

    #[test]
    fn render_is_grepable() {
        let d = Diagnostic {
            file: PathBuf::from("a/b.rs"),
            line: 7,
            rule: Rule::FloatTimeAccum,
            message: "m".into(),
        };
        assert_eq!(d.render(), "a/b.rs:7: D2(float-time-accum): m");
    }
}
