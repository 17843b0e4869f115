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
//! stardust mc [--smoke] [--json out.json] [--quiet] [--seed N]
//!             [--depth N] [--max-states N]
//! ```
//!
//! `run` on a directory executes every `*.toml` inside (sorted by file
//! name). The process exits non-zero if any spec fails to parse or any
//! check fails — this is the single CI entry point that replaced the
//! per-figure smoke steps (`stardust run specs/ci_smoke`).

use stardust_bench::spec::ExperimentSpec;
use stardust_bench::{json::Json, presets, runner};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod figs;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  stardust run <spec.toml | dir>... [--json out.json] [--quiet] \
         [--max-rss-mb N] [--threads N]\n  \
         stardust check <spec.toml | dir>...\n  stardust preset <name>\n  stardust presets\n  \
         stardust fig [<name> [flags]]\n  \
         stardust mc [--smoke] [--json out.json] [--quiet] [--seed N] [--depth N] \
         [--max-states N]"
    );
    ExitCode::FAILURE
}

/// Peak resident-set size of this process in MB, from Linux's
/// `VmHWM` line in `/proc/self/status` (`None` where unavailable).
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024)
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
    match presets::by_name(name) {
        Some(spec) => {
            print!("{}", spec.to_text());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "unknown preset {name:?}; available: {}",
                presets::names().join(", ")
            );
            ExitCode::FAILURE
        }
    }
}

/// `stardust mc`: the exhaustive control-plane model checker over the
/// deterministic fabric engine (invariants I1–I3, see `stardust-mc`).
/// Explores the 4-FA Clos plus one zoo fabric; `--smoke` bounds the
/// Clos search to the CI depth, the default runs it exhaustively (the
/// ≥10⁴-state acceptance configuration). Exits non-zero on any
/// invariant violation.
fn mc(args: &[String]) -> ExitCode {
    use stardust_mc::{clos4, mc_config, Mc, McConfig};
    use stardust_topo::{DragonflyParams, TopologyBuilder};

    let mut smoke = false;
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut seed = 11u64;
    let mut depth: Option<usize> = None;
    let mut max_states: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let num = |j: usize| args.get(j).and_then(|s| s.parse::<u64>().ok());
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--quiet" => {
                quiet = true;
                i += 1;
            }
            "--json" => {
                let Some(out) = args.get(i + 1) else {
                    return usage();
                };
                json_out = Some(PathBuf::from(out));
                i += 2;
            }
            "--seed" => {
                let Some(n) = num(i + 1) else { return usage() };
                seed = n;
                i += 2;
            }
            "--depth" => {
                let Some(n) = num(i + 1) else { return usage() };
                depth = Some(n as usize);
                i += 2;
            }
            "--max-states" => {
                let Some(n) = num(i + 1) else { return usage() };
                max_states = Some(n as usize);
                i += 2;
            }
            _ => return usage(),
        }
    }

    let bound = |mut c: McConfig| {
        if let Some(d) = depth {
            c.max_depth = d;
        }
        if let Some(m) = max_states {
            c.max_states = m;
        }
        c
    };
    let clos_cfg = bound(if smoke {
        McConfig::smoke()
    } else {
        McConfig::exhaustive()
    });
    let clos_mode = if smoke { "smoke" } else { "exhaustive" };
    // The zoo fabric always runs the bounded smoke search: the point is
    // that the same invariants hold beyond Clos, not state-count volume.
    let zoo_cfg = bound(McConfig::smoke());

    let runs = [
        (
            "clos4",
            clos_mode,
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

    if let Some(out) = json_out {
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
        if let Err(e) = std::fs::write(&out, doc.render() + "\n") {
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
    let mut paths = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut max_rss_mb: Option<u64> = None;
    let mut threads: Option<u32> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let Some(out) = args.get(i + 1) else {
                    return usage();
                };
                json_out = Some(PathBuf::from(out));
                i += 2;
            }
            "--max-rss-mb" => {
                let Some(cap) = args.get(i + 1).and_then(|s| s.parse().ok()) else {
                    return usage();
                };
                max_rss_mb = Some(cap);
                i += 2;
            }
            "--threads" => {
                let Some(t) = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t > 0)
                else {
                    return usage();
                };
                threads = Some(t);
                i += 2;
            }
            "--quiet" => {
                quiet = true;
                i += 1;
            }
            flag if flag.starts_with("--") => return usage(),
            path => {
                paths.push(PathBuf::from(path));
                i += 1;
            }
        }
    }
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

    if let Some(out) = json_out {
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
        if let Err(e) = std::fs::write(&out, doc.render() + "\n") {
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
    if let Some(cap) = max_rss_mb {
        match peak_rss_mb() {
            Some(peak) => {
                if !quiet {
                    println!("peak RSS: {peak} MB (cap {cap} MB)");
                }
                if peak > cap {
                    eprintln!("stardust: peak RSS {peak} MB exceeds the {cap} MB cap");
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
