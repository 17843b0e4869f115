//! `stardust-lint` — static determinism auditor for the workspace.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use stardust_lint::lint_workspace;

const USAGE: &str = "\
stardust-lint: static determinism auditor (rules D1-D5, U1)

USAGE:
    stardust-lint [--root <workspace-root>] [--json]

OPTIONS:
    --root <dir>   Workspace root to scan (default: .)
    --json         Emit machine-readable JSON instead of file:line text

D1-D5 scan the engine crates (crates/{sim,topo,fabric,baseline,transport,
workload,mc}/src and src/) for determinism hazards. U1 reports every pub
fn, const and static in crates/*/src that no non-test code names (callers:
crates/*/{src,benches,examples}, src/, examples/ and benchmark/src).
Suppress a finding with a reason-carrying directive on or above the
offending line:

    // det-lint: allow(unordered-iter, keyed access only; never iterated)
    // det-lint: allow(U1, <the test or figure that needs it>)
";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("error: --root needs a directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stardust-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        // Tiny hand-rolled emitter: the lint crate depends on nothing.
        let findings: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"file\":{},\"line\":{},\"rule\":{},\"name\":{},\"message\":{}}}",
                    json_str(&d.file.display().to_string()),
                    d.line,
                    json_str(d.rule.id()),
                    json_str(d.rule.name()),
                    json_str(&d.message)
                )
            })
            .collect();
        println!(
            "{{\"tool\":\"stardust-lint\",\"root\":{},\"files_scanned\":{},\"findings\":[{}],\"clean\":{}}}",
            json_str(&root.display().to_string()),
            report.files_scanned,
            findings.join(","),
            report.clean()
        );
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
        if report.clean() {
            println!(
                "stardust-lint: clean ({} files scanned)",
                report.files_scanned
            );
        } else {
            eprintln!(
                "stardust-lint: {} finding(s) in {} scanned files",
                report.diagnostics.len(),
                report.files_scanned
            );
        }
    }

    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}
