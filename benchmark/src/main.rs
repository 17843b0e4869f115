//! `stardust-benchmark run | compare` — see `README.md` beside this
//! package's manifest.

use stardust_benchmark::json::Json;
use stardust_benchmark::runner::{self, Budget, RunConfig};
use stardust_benchmark::workloads::{self, Exec, RepOpts, Workload, WORKLOADS};
use stardust_benchmark::{child, compare, host};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  stardust-benchmark run [--workload W] [--reps N | --seconds S] [--seed S]
                         [--trace [0|1]] [--smoke] [--out FILE]
  stardust-benchmark compare A.json B.json

run      every workload (or W): N untraced repetitions each (default 5), or
         as many as start within S seconds; --trace adds one traced
         repetition and the per-layer metrics; --smoke runs everything at
         1/20 size once. With one workload, the last line printed is its
         result as one JSON object.
compare  judge result B against result A by the benchmark's bounds; exits
         non-zero when a metric or the failed share got worse.";

/// `--key value` arguments after the subcommand. `--trace` and `--smoke`
/// may stand alone.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0
            .get(i + 1)
            .map(String::as_str)
            .filter(|v| !v.starts_with("--"))
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.value(key) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot read {v:?}")),
            None if self.has(key) => Err(format!("{key} needs a value")),
            None => Ok(None),
        }
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        match self.value("--workload") {
            Some(name) => workloads::by_name(name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?} (known: {})", known.join(", "))
            }),
            None if self.has("--workload") => Err("--workload needs a value".into()),
            None => Ok(None),
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let one = args.workload()?;
    let smoke = args.has("--smoke");
    let budget = match (
        args.parsed::<f64>("--seconds")?,
        args.parsed::<usize>("--reps")?,
    ) {
        (Some(_), Some(_)) => return Err("give --reps or --seconds, not both".into()),
        (Some(s), None) if s > 0.0 => Budget::Seconds(s),
        (Some(_), None) => return Err("--seconds must be positive".into()),
        (None, Some(n)) if n >= 1 => Budget::Reps(n),
        (None, Some(_)) => return Err("--reps must be at least 1".into()),
        (None, None) => Budget::Reps(if smoke { 1 } else { 5 }),
    };
    let trace = match args.value("--trace") {
        Some("1") => true,
        Some("0") => false,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        None => args.has("--trace"),
    };
    let cfg = RunConfig {
        workloads: one.map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]),
        seed: args.parsed("--seed")?.unwrap_or(42),
        scale: if smoke { 20 } else { 1 },
        budget,
        trace,
        out: args
            .value("--out")
            .map_or_else(runner::default_out, PathBuf::from),
    };
    let results = runner::run(&cfg)?;
    if let [only] = results.as_slice() {
        println!("{}", only.contract_line().render());
    }
    Ok(if results.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child_main(args: &Args, start_epoch_ns: f64) -> Result<ExitCode, String> {
    let w = args.workload()?.ok_or("child needs --workload")?;
    let mode = args.value("--mode").ok_or("child needs --mode")?;
    let o = RepOpts {
        seed: args.parsed("--seed")?.unwrap_or(42),
        scale: args.parsed("--scale")?.unwrap_or(1),
        traced: mode == "traced",
        exec: Exec::Inline,
    };
    let doc = match mode {
        "rep" | "traced" => {
            let trace_out = args.value("--trace-out").map(PathBuf::from);
            child::rep(w, &o, trace_out.as_deref(), start_epoch_ns)
        }
        "check" => child::check(w, &o, start_epoch_ns),
        other => return Err(format!("unknown child mode {other:?}")),
    };
    println!("{}", doc.render());
    Ok(ExitCode::SUCCESS)
}

fn compare_main(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    Ok(if compare::compare(&read(a)?, &read(b)?)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let start_epoch_ns = host::epoch_ns();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args(rest.to_vec());
    let outcome = match cmd.as_str() {
        "run" => run(&args),
        "compare" => compare_main(rest),
        "child" => child_main(&args, start_epoch_ns),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
