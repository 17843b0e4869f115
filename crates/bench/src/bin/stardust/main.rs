//! `stardust` — the experiment CLI: spec runs and the paper's figures.
//!
//! `run` expands [`ExperimentSpec`] TOML files into their engines ×
//! seeds run matrices over the generic `FlowEngine` surface, prints FCT
//! tables, evaluates the specs' pass/fail checks, and optionally emits
//! results as JSON. `fig` prints one table or figure of the paper's
//! evaluation (see [`figs`]).
//!
//! ```text
//! stardust run <spec.toml | dir>...  [--json out.json] [--quiet]
//! stardust check <spec.toml | dir>...     # parse + validate only
//! stardust preset <name>                  # print a built-in spec
//! stardust presets                        # list built-in spec names
//! stardust fig [<name> [flags]]           # a paper figure; alone: list them
//! stardust mc [--json out.json] [--quiet] [--seed N] [--depth N]
//!             [--max-states N]
//! ```
//!
//! `run` on a directory executes every `*.toml` inside (sorted by file
//! name). The process exits 1 if any spec fails to parse or any check
//! fails — this is the single CI entry point that replaced the
//! per-figure smoke steps (`stardust run specs/ci_smoke`) — and 2, with
//! the usage text, on a command line it cannot read.

use stardust_bench::spec::ExperimentSpec;
use stardust_bench::FlagKind::{Int, Switch, Text};
use stardust_bench::{json::Json, presets, runner, Args, Flag};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod figs;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  stardust run <spec.toml | dir>... [--json out.json] [--quiet] \
         [--max-rss-mb N] [--threads N]\n  \
         stardust check <spec.toml | dir>...\n  stardust preset <name>\n  stardust presets\n  \
         stardust fig [<name> [flags]]\n  \
         stardust mc [--json out.json] [--quiet] [--seed N] [--depth N] [--max-states N]"
    );
    ExitCode::from(2)
}

/// A subcommand's parsed arguments, or which one was bad and why above
/// the usage text.
fn or_usage(cmd: &str, parsed: Result<Args, String>) -> Result<Args, ExitCode> {
    parsed.map_err(|e| {
        eprintln!("stardust {cmd}: {e}");
        usage()
    })
}

/// Peak resident-set size in kB: the `VmHWM` line of a Linux
/// `/proc/<pid>/status` text (`None` if it has none).
fn vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// The `--max-rss-mb` gate, compared in kB so that a peak a fraction of
/// a MB over the cap fails it.
fn exceeds_cap(peak_kb: u64, cap_mb: u64) -> bool {
    peak_kb > cap_mb.saturating_mul(1024)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..], false),
        Some("check") => run(&argv[1..], true),
        Some("preset") => preset(&argv[1..]),
        Some("fig") => figs::main(&argv[1..]),
        Some("mc") => mc(&argv[1..]),
        Some("presets") => {
            for name in presets::names() {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn preset(args: &[String]) -> ExitCode {
    let [name] = args else { return usage() };
    match presets::text(name) {
        Some(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            let names: Vec<&str> = presets::names().collect();
            eprintln!("unknown preset {name:?}; available: {}", names.join(", "));
            ExitCode::FAILURE
        }
    }
}

/// `stardust mc`: the exhaustive control-plane model checker over the
/// deterministic fabric engine (invariants I1–I3, see `stardust-mc`).
/// Explores the 4-FA Clos exhaustively (the ≥10⁴-state acceptance
/// configuration, seconds in release) plus one zoo fabric at the
/// bounded smoke depth; `--depth` and `--max-states` bound both
/// searches. Exits non-zero on any invariant violation.
fn mc(args: &[String]) -> ExitCode {
    use stardust_mc::{clos4, mc_config, Mc, McConfig};
    use stardust_topo::DragonflyParams;

    const FLAGS: &[Flag] = &[
        ("quiet", Switch),
        ("json", Text),
        ("seed", Int(0)),
        ("depth", Int(0)),
        ("max-states", Int(0)),
    ];
    let args = match or_usage("mc", Args::parse(args, FLAGS)) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let quiet = args.has("quiet");
    let seed = args.get_u64("seed", 11);

    let bound = |mut c: McConfig| {
        c.max_depth = args.get_u64("depth", c.max_depth as u64) as usize;
        c.max_states = args.get_u64("max-states", c.max_states as u64) as usize;
        c
    };
    let clos_cfg = bound(McConfig::exhaustive());
    // The zoo fabric always runs the bounded smoke search: the point is
    // that the same invariants hold beyond Clos, not state-count volume.
    let zoo_cfg = bound(McConfig::smoke());

    let runs = [
        (
            "clos4",
            "exhaustive",
            Mc::new(clos4(), mc_config(seed), clos_cfg).explore(),
        ),
        (
            "dragonfly_zoo",
            "smoke",
            Mc::new(
                DragonflyParams::zoo().build_fabric(),
                mc_config(seed),
                zoo_cfg,
            )
            .explore(),
        ),
    ];

    let mut pass = true;
    for (fabric, mode, r) in &runs {
        match &r.violation {
            None => {
                if !quiet {
                    println!(
                        "mc {fabric} [{mode}]: {} distinct states, {} transitions, \
                         depth {}{} — invariants I1–I3 hold",
                        r.distinct_states,
                        r.transitions,
                        r.max_depth_reached,
                        if r.truncated { " (bounded)" } else { "" },
                    );
                }
            }
            Some(v) => {
                pass = false;
                eprintln!(
                    "mc {fabric} [{mode}]: INVARIANT {} VIOLATED after {} states\n  {}\n  \
                     trace: {:?}",
                    v.invariant, r.distinct_states, v.detail, v.trace
                );
            }
        }
    }

    if let Some(out) = args.get_str("json").map(Path::new) {
        let doc = Json::Obj(vec![
            ("tool".into(), Json::str("stardust-mc")),
            ("seed".into(), Json::num(seed as f64)),
            (
                "runs".into(),
                Json::Arr(
                    runs.iter()
                        .map(|(fabric, mode, r)| {
                            Json::Obj(vec![
                                ("fabric".into(), Json::str(*fabric)),
                                ("mode".into(), Json::str(*mode)),
                                (
                                    "distinct_states".into(),
                                    Json::num(r.distinct_states as f64),
                                ),
                                ("transitions".into(), Json::num(r.transitions as f64)),
                                (
                                    "max_depth_reached".into(),
                                    Json::num(r.max_depth_reached as f64),
                                ),
                                ("truncated".into(), Json::Bool(r.truncated)),
                                (
                                    "violation".into(),
                                    r.violation.as_ref().map_or(Json::Null, |v| {
                                        Json::Obj(vec![
                                            ("invariant".into(), Json::str(v.invariant)),
                                            ("detail".into(), Json::str(v.detail.clone())),
                                            ("trace".into(), Json::str(format!("{:?}", v.trace))),
                                        ])
                                    }),
                                ),
                                ("ok".into(), Json::Bool(r.ok())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("pass".into(), Json::Bool(pass)),
        ]);
        if let Err(e) = std::fs::write(out, doc.render() + "\n") {
            eprintln!("stardust: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }

    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Expand file-or-directory arguments into the sorted spec file list.
fn collect_specs(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut in_dir: Vec<PathBuf> = std::fs::read_dir(p)
                .map_err(|e| format!("{}: {e}", p.display()))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "toml"))
                .collect();
            in_dir.sort();
            if in_dir.is_empty() {
                return Err(format!("{}: no *.toml specs inside", p.display()));
            }
            files.extend(in_dir);
        } else if p.is_file() {
            files.push(p.clone());
        } else {
            return Err(format!("{}: no such file or directory", p.display()));
        }
    }
    if files.is_empty() {
        return Err("no spec files given".into());
    }
    Ok(files)
}

fn load(path: &Path) -> Result<ExperimentSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ExperimentSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String], check_only: bool) -> ExitCode {
    const FLAGS: &[Flag] = &[
        ("json", Text),
        ("quiet", Switch),
        ("max-rss-mb", Int(1)),
        ("threads", Int(1)),
    ];
    let cmd = if check_only { "check" } else { "run" };
    let args = match or_usage(cmd, Args::parse_with_paths(args, FLAGS)) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let quiet = args.has("quiet");
    let threads = args
        .get_int("threads")
        .map(|t| u32::try_from(t).unwrap_or(u32::MAX));
    let paths: Vec<PathBuf> = args.paths().iter().map(PathBuf::from).collect();
    let files = match collect_specs(&paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("stardust: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut outcomes = Vec::new();
    let mut failed = false;
    for file in &files {
        let mut spec = match load(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("stardust: {e}");
                failed = true;
                continue;
            }
        };
        if let Some(t) = threads {
            // CLI override beats the spec's `threads` field. Results are
            // identical at any thread count (pinned by the conformance
            // suite); oversubscribing the host only costs wall time.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
            if t > cores && !quiet {
                eprintln!(
                    "stardust: --threads {t} exceeds available parallelism ({cores}); \
                     results are unaffected but wall time may suffer"
                );
            }
            spec.threads = Some(t);
        }
        if check_only {
            println!(
                "{}: ok ({} engines × {} seeds, {} link events)",
                file.display(),
                spec.engines.len(),
                spec.seeds.len(),
                spec.failures.events().len()
            );
            continue;
        }
        if !quiet {
            println!(
                "\n### {} ({} engines × {} seeds, horizon {} µs)",
                file.display(),
                spec.engines.len(),
                spec.seeds.len(),
                spec.horizon_us
            );
        }
        let outcome = runner::run_spec(&spec);
        if quiet {
            for f in &outcome.check_failures {
                eprintln!("{}: CHECK FAILED: {f}", file.display());
            }
        } else {
            outcome.print();
        }
        failed |= !outcome.check_failures.is_empty();
        outcomes.push((file.clone(), outcome));
    }

    if let Some(out) = args.get_str("json").map(Path::new) {
        let doc = Json::Arr(
            outcomes
                .iter()
                .map(|(file, o)| {
                    let Json::Obj(mut fields) = o.to_json() else {
                        unreachable!("outcomes render as objects")
                    };
                    fields.insert(
                        0,
                        ("spec_file".into(), Json::str(file.display().to_string())),
                    );
                    Json::Obj(fields)
                })
                .collect(),
        );
        if let Err(e) = std::fs::write(out, doc.render() + "\n") {
            eprintln!("stardust: writing {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        if !quiet {
            println!(
                "\nwrote {} ({} spec results)",
                out.display(),
                outcomes.len()
            );
        }
    }

    // The memory gate covers the whole invocation: VmHWM is the
    // process-wide high-water mark, so running a directory of specs
    // under one cap bounds every run in it.
    if let Some(cap) = args.get_int("max-rss-mb") {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        match vmhwm_kb(&status) {
            Some(peak_kb) => {
                let peak = peak_kb as f64 / 1024.0;
                if !quiet {
                    println!("peak RSS: {peak:.1} MB (cap {cap} MB)");
                }
                if exceeds_cap(peak_kb, cap) {
                    eprintln!("stardust: peak RSS {peak:.1} MB exceeds the {cap} MB cap");
                    failed = true;
                }
            }
            None => {
                eprintln!("stardust: --max-rss-mb ignored — /proc/self/status has no VmHWM here")
            }
        }
    }

    if failed {
        eprintln!("stardust: FAILED (spec errors or failed checks above)");
        ExitCode::FAILURE
    } else {
        if !check_only && !quiet {
            println!("\nstardust: all specs ran, all checks passed");
        }
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(peak_kb: u64) -> String {
        format!("Name:\tstardust\nVmPeak:\t  99999 kB\nVmHWM:\t   {peak_kb} kB\nVmRSS:\t  1 kB\n")
    }

    #[test]
    fn rss_cap_is_compared_in_kb() {
        let over = vmhwm_kb(&status(24 * 1024 + 1)).unwrap();
        assert!(exceeds_cap(over, 24), "24 MB + 1 kB must fail a 24 MB cap");
        let at = vmhwm_kb(&status(24 * 1024)).unwrap();
        assert!(!exceeds_cap(at, 24), "exactly 24 MB passes a 24 MB cap");
        assert_eq!(vmhwm_kb("VmRSS:\t 1 kB\n"), None);
    }
}
