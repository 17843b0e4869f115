//! Fixture corpus: one known-bad and one allow-annotated snippet per
//! rule (a small tree for the workspace-wide U1), asserting exact rule
//! IDs and line numbers.

use std::path::{Path, PathBuf};

use stardust_lint::lint_source;

/// Lint a fixture, returning `(rule_id, line)` pairs in report order.
fn lint_fixture(name: &str) -> Vec<(&'static str, u32)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    lint_source(Path::new(name), &src)
        .into_iter()
        .map(|d| (d.rule.id(), d.line))
        .collect()
}

#[test]
fn d1_bad_flags_declaration_and_both_iteration_forms() {
    assert_eq!(
        lint_fixture("d1_bad.rs"),
        vec![("D1", 5), ("D1", 10), ("D1", 13)]
    );
}

#[test]
fn d1_allowed_is_clean() {
    assert_eq!(lint_fixture("d1_allowed.rs"), vec![]);
}

#[test]
fn d1_hasher_bad_flags_three_parameter_type_and_hasher_constructors() {
    assert_eq!(
        lint_fixture("d1_hasher_bad.rs"),
        vec![("D1", 10), ("D1", 15), ("D1", 19), ("D1", 23)]
    );
}

#[test]
fn d1_hasher_allowed_is_clean() {
    assert_eq!(lint_fixture("d1_hasher_allowed.rs"), vec![]);
}

#[test]
fn d2_bad_flags_float_time_accumulation() {
    assert_eq!(lint_fixture("d2_bad.rs"), vec![("D2", 5)]);
}

#[test]
fn d2_allowed_is_clean() {
    assert_eq!(lint_fixture("d2_allowed.rs"), vec![]);
}

#[test]
fn d3_bad_flags_wall_clock_and_env() {
    assert_eq!(lint_fixture("d3_bad.rs"), vec![("D3", 3), ("D3", 8)]);
}

#[test]
fn d3_allowed_is_clean() {
    assert_eq!(lint_fixture("d3_allowed.rs"), vec![]);
}

#[test]
fn d4_bad_flags_each_duplicated_label_form() {
    assert_eq!(
        lint_fixture("d4_bad.rs"),
        vec![("D4", 4), ("D4", 6), ("D4", 9)]
    );
}

#[test]
fn d4_allowed_is_clean() {
    assert_eq!(lint_fixture("d4_allowed.rs"), vec![]);
}

#[test]
fn d5_bad_flags_float_field_behind_eq() {
    assert_eq!(lint_fixture("d5_bad.rs"), vec![("D5", 5)]);
}

#[test]
fn d5_allowed_is_clean() {
    assert_eq!(lint_fixture("d5_allowed.rs"), vec![]);
}

/// U1 is workspace-wide, so its fixture is a tree (`fixtures/u1`): a
/// definition crate, a sibling caller and a `benchmark/src` stand-in.
/// Only the test-only call, the comment-and-string mention, the
/// reasonless allow, the re-export only a test calls and both halves of
/// a test-only same-named chain (`layers.rs`) fire.
#[test]
fn u1_fires_where_only_tests_comments_or_strings_reach() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/u1");
    let report = stardust_lint::lint_workspace(&root).expect("walk fixture tree");
    let got: Vec<(String, &str, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.display().to_string(), d.rule.id(), d.line))
        .collect();
    let lib = "crates/sim/src/lib.rs".to_string();
    let layers = "crates/sim/src/layers.rs".to_string();
    assert_eq!(
        got,
        vec![
            (layers.clone(), "U1", 13),
            (layers, "U1", 25),
            (lib.clone(), "U1", 10),
            (lib.clone(), "U1", 20),
            (lib.clone(), "D0", 34),
            (lib, "U1", 35),
            ("crates/sim/src/sibling.rs".to_string(), "U1", 11),
        ]
    );
}

/// The auditor's reason for existing: the real workspace must stay clean.
/// This is the same check CI gates on, reachable from plain `cargo test`.
#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = stardust_lint::lint_workspace(&root).expect("walk workspace");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.clean(),
        "determinism findings in the workspace:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
}
