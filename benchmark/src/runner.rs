//! The parent side: spawn one child process per repetition, check the
//! children against each other, summarize, print and write the result.

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// How many untraced repetitions a workload gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many.
    Reps(usize),
    /// As many as start within this many seconds, but at least three
    /// (two when a traced run follows, which gets half the time).
    Seconds(f64),
}

/// One `run` invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workloads to run, in order.
    pub workloads: Vec<&'static Workload>,
    /// The workload seed.
    pub seed: u64,
    /// Size divisor (1 = full, 20 = smoke).
    pub scale: u64,
    /// Untraced repetitions per workload.
    pub budget: Budget,
    /// Add one traced repetition per workload and report per-layer
    /// metrics.
    pub trace: bool,
    /// Where the result document goes; trace files go beside it.
    pub out: PathBuf,
}

impl RunConfig {
    /// The directory of the result document.
    fn out_dir(&self) -> &Path {
        self.out
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
            .unwrap_or(Path::new("."))
    }
}

/// The default result document: `out/result.json` in this package.
pub fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out/result.json")
}

/// What a `run` found for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload's name.
    pub name: &'static str,
    /// How the engine executed (`sequential`, `sharded:2 threads=2`, ...).
    pub exec: String,
    /// Every correctness check passed.
    pub correct: bool,
    /// The checks that failed.
    pub problems: Vec<String>,
    /// Operations offered over all repetitions.
    pub attempted: u64,
    /// Operations failed over all repetitions (all of them when a
    /// correctness check failed).
    pub failed: u64,
    /// One summary per end-to-end metric, in declaration order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// One value per per-layer metric, when a traced run was made.
    pub per_layer: Option<Vec<(&'static str, f64)>>,
    /// Fingerprint of the engine's full statistics.
    pub stats_fp: String,
    /// How late the children started after they were due, in ms.
    pub late_ms: Summary,
    /// The latest start among them, in ms.
    pub late_ms_max: f64,
}

struct Child {
    doc: Json,
    late_ms: f64,
}

/// Run this executable again as `child <mode>` and read the JSON line it
/// prints last.
fn spawn(
    w: &Workload,
    cfg: &RunConfig,
    mode: &str,
    trace_out: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--mode", mode])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--scale", &cfg.scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let due = host::epoch_ns();
    // `output` waits for the child to end before returning.
    let output = cmd
        .output()
        .map_err(|e| format!("{}: cannot start {mode} child: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!(
            "{}: {mode} child ended with {}",
            w.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: {mode} child printed nothing", w.name))?;
    let doc = Json::parse(line).map_err(|e| format!("{}: {mode} child output: {e}", w.name))?;
    let late_ms = (doc.num("start_epoch_ns").unwrap_or(due) - due) / 1e6;
    Ok(Child { doc, late_ms })
}

fn str_of<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

fn layer_value(doc: &Json, name: &str) -> Option<f64> {
    doc.get("per_layer").and_then(|l| l.num(name))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Run every repetition of `w` and check them against each other.
pub fn run_workload(w: &'static Workload, cfg: &RunConfig) -> WorkloadResult {
    let started = Instant::now();
    let mut problems: Vec<String> = Vec::new();
    let mut late: Vec<f64> = Vec::new();
    let mut keep = |c: Result<Child, String>, problems: &mut Vec<String>| match c {
        Ok(c) => {
            late.push(c.late_ms);
            problems.extend(
                c.doc
                    .get("problems")
                    .map_or(&[][..], Json::items)
                    .iter()
                    .filter_map(Json::as_str)
                    .map(|p| format!("{}: {p}", w.name)),
            );
            Some(c.doc)
        }
        Err(e) => {
            problems.push(e);
            None
        }
    };

    let (min_reps, seconds) = match cfg.budget {
        Budget::Reps(n) => (n.max(1), None),
        Budget::Seconds(s) if cfg.trace => (2, Some(s / 2.0)),
        Budget::Seconds(s) => (3, Some(s)),
    };
    let mut reps: Vec<Json> = Vec::new();
    loop {
        let t = Instant::now();
        let Some(doc) = keep(spawn(w, cfg, "rep", None), &mut problems) else {
            break;
        };
        reps.push(doc);
        let enough = reps.len() >= min_reps;
        let out_of_time =
            seconds.is_none_or(|s| (started.elapsed() + t.elapsed()).as_secs_f64() > s);
        if enough && out_of_time {
            break;
        }
    }
    let traced = cfg.trace.then(|| {
        let path = cfg.out_dir().join(format!("trace_{}.json", w.name));
        keep(spawn(w, cfg, "traced", Some(&path)), &mut problems)
    });
    let traced = traced.flatten();
    let check = w
        .spec
        .and_then(|_| keep(spawn(w, cfg, "check", None), &mut problems));

    // Every run of one seed must produce the same statistics, traced or
    // not, threaded, inline or sequential, through the benchmark's drive
    // loop or the simulator's own runner.
    let stats_fp = reps
        .first()
        .map_or("", |r| str_of(r, "stats_fp"))
        .to_string();
    let flows_fp = reps
        .first()
        .map_or("", |r| str_of(r, "flows_fp"))
        .to_string();
    for (i, r) in reps.iter().chain(traced.iter()).enumerate() {
        if str_of(r, "stats_fp") != stats_fp {
            problems.push(format!(
                "{}: run {i} has stats_fp {} but run 0 has {stats_fp}",
                w.name,
                str_of(r, "stats_fp")
            ));
        }
    }
    if let Some(c) = &check {
        if str_of(c, "run_spec_flows_fp") != flows_fp {
            problems.push(format!(
                "{}: run_spec and the benchmark's drive loop produced different flow books",
                w.name
            ));
        }
        for key in ["seq_stats_fp", "threaded_stats_fp"] {
            if c.get(key).is_some() && str_of(c, key) != stats_fp {
                problems.push(format!(
                    "{}: {key} {} differs from the repetitions' {stats_fp}",
                    w.name,
                    str_of(c, key)
                ));
            }
        }
    }
    if w.spec.is_some() && check.is_none() {
        problems.push(format!("{}: no check run", w.name));
    }
    if reps.is_empty() {
        problems.push(format!("{}: no repetition finished", w.name));
    }

    let end_to_end: Vec<(&'static str, Summary)> = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.get("end_to_end").and_then(|e| e.num(m.name)))
                .collect();
            if values.len() != reps.len() {
                problems.push(format!("{}: a repetition lacks {}", w.name, m.name));
            }
            let values = if values.is_empty() { vec![0.0] } else { values };
            (m.name, Summary::of(&values))
        })
        .collect();
    let median_of = |name: &str| {
        end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.median)
    };

    let per_layer = traced.as_ref().map(|t| {
        let sharded = check.as_ref().and_then(|c| c.num("seq_wall_s")).is_some();
        let from_check = |key: &str| check.as_ref().and_then(|c| c.num(key)).unwrap_or(0.0);
        let (seq, threaded) = (from_check("seq_wall_s"), from_check("threaded_wall_s"));
        let inline = if sharded { median_of("wall_s") } else { 0.0 };
        let windows = layer_value(t, "fabric.shard.windows").unwrap_or(0.0);
        let traced_wall = t
            .get("end_to_end")
            .and_then(|e| e.num("wall_s"))
            .unwrap_or(0.0);
        let hold_s = layer_value(t, "sim.event.hold_ns_per_op").unwrap_or(0.0)
            * layer_value(t, "fabric.engine.events").unwrap_or(0.0)
            / 1e9;
        let computed = [
            ("fabric.shard.seq_run_s", seq),
            ("fabric.shard.inline_run_s", inline),
            ("fabric.shard.threaded_run_s", threaded),
            ("fabric.shard.us_per_window", ratio(threaded * 1e6, windows)),
            ("fabric.shard.inline_over_seq", ratio(inline, seq)),
            ("fabric.shard.threaded_over_inline", ratio(threaded, inline)),
            ("fabric.shard.speedup", ratio(seq, threaded)),
            ("bench.runner.overhead_s", from_check("runner_overhead_s")),
            (
                "trace.overhead_pct",
                ratio(traced_wall - median_of("wall_s"), median_of("wall_s")) * 100.0,
            ),
            // An estimate: the hold model's cost per event times the
            // run's event count, over the run's time.
            (
                "sim.event.est_core_share",
                ratio(hold_s, layer_value(t, "fabric.engine.run_s").unwrap_or(0.0)),
            ),
        ];
        PER_LAYER
            .iter()
            .map(|m| {
                let v = computed
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map(|(_, v)| *v)
                    .or_else(|| layer_value(t, m.name));
                if v.is_none() {
                    problems.push(format!("{}: the traced run lacks {}", w.name, m.name));
                }
                (m.name, v.unwrap_or(0.0))
            })
            .collect::<Vec<_>>()
    });
    if cfg.trace && per_layer.is_none() {
        problems.push(format!("{}: no traced run", w.name));
    }

    let count = |key: &str| -> u64 {
        reps.iter()
            .chain(traced.iter())
            .filter_map(|r| r.num(key))
            .sum::<f64>() as u64
    };
    let attempted = count("attempted").max(1);
    let correct = problems.is_empty();
    let late = if late.is_empty() { vec![0.0] } else { late };
    WorkloadResult {
        name: w.name,
        exec: reps.first().map_or("", |r| str_of(r, "exec")).to_string(),
        correct,
        attempted,
        failed: if correct { count("failed") } else { attempted },
        problems,
        end_to_end,
        per_layer,
        stats_fp,
        late_ms_max: late.iter().copied().fold(f64::MIN, f64::max),
        late_ms: Summary::of(&late),
    }
}

impl WorkloadResult {
    /// Print every metric by name, with its unit.
    pub fn print(&self) {
        println!(
            "\n== {} ({}; {} repetitions; children started {:.1} ms late at the median, {:.1} ms at most)",
            self.name,
            self.exec,
            self.end_to_end.first().map_or(0, |(_, s)| s.n),
            self.late_ms.median,
            self.late_ms_max
        );
        println!(
            "   {:<16} {:>14} {:>14} {:>14}  {:>7}  unit",
            "end-to-end", "median", "q1", "q3", "IQR/med"
        );
        for (m, (name, s)) in END_TO_END.iter().zip(&self.end_to_end) {
            let over = if !m.simulated && s.spread() > m.bound {
                "  spread exceeds the bound"
            } else {
                ""
            };
            println!(
                "   {name:<16} {:>14.6} {:>14.6} {:>14.6}  {:>6.2}%  {}{over}",
                s.median,
                s.q1,
                s.q3,
                s.spread() * 100.0,
                m.unit
            );
        }
        if let Some(layers) = &self.per_layer {
            println!("   per-layer (traced run)");
            for (m, (name, v)) in PER_LAYER.iter().zip(layers) {
                println!("   {name:<36} {v:>18.6}  {}", m.unit);
            }
        }
        println!(
            "   stats_fp {}  attempted {}  failed {}  {}",
            self.stats_fp,
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for p in &self.problems {
            println!("   CHECK FAILED: {p}");
        }
    }

    /// This workload's entry in the result document.
    pub fn to_json(&self) -> Json {
        let mut e2e = Json::obj();
        for (m, (name, s)) in END_TO_END.iter().zip(&self.end_to_end) {
            e2e.set(name, s.to_json().with("unit", m.unit));
        }
        let mut doc = Json::obj()
            .with("name", self.name)
            .with("exec", self.exec.as_str())
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("stats_fp", self.stats_fp.as_str())
            .with(
                "child_start_late_ms",
                Json::obj()
                    .with("median", self.late_ms.median)
                    .with("max", self.late_ms_max),
            )
            .with("end_to_end", e2e);
        if let Some(layers) = &self.per_layer {
            let mut l = Json::obj();
            for (name, v) in layers {
                l.set(name, *v);
            }
            doc.set("per_layer", l);
        }
        doc.with(
            "problems",
            Json::Arr(
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        )
    }

    /// The one-line result the benchmark contract asks for: end-to-end
    /// metrics of an untraced run, per-layer metrics of a traced one.
    pub fn contract_line(&self) -> Json {
        let mut metrics = Json::obj();
        match &self.per_layer {
            Some(layers) => {
                for (m, (name, v)) in PER_LAYER.iter().zip(layers) {
                    metrics.set(name, Json::obj().with("value", *v).with("unit", m.unit));
                }
            }
            None => {
                for (m, (name, s)) in END_TO_END.iter().zip(&self.end_to_end) {
                    metrics.set(
                        name,
                        Json::obj().with("value", s.median).with("unit", m.unit),
                    );
                }
            }
        }
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// Run every configured workload, print each as it finishes, write the
/// result document and return the results.
pub fn run(cfg: &RunConfig) -> Result<Vec<WorkloadResult>, String> {
    std::fs::create_dir_all(cfg.out_dir())
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir().display()))?;
    let results: Vec<WorkloadResult> = cfg
        .workloads
        .iter()
        .map(|w| {
            let r = run_workload(w, cfg);
            r.print();
            r
        })
        .collect();
    let doc = Json::obj()
        .with("schema", 1u64)
        .with("host", host::describe())
        .with("seed", cfg.seed)
        .with("scale", cfg.scale)
        .with("traced", cfg.trace)
        .with(
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        );
    std::fs::write(&cfg.out, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", cfg.out.display()))?;
    println!("\nwrote {}", cfg.out.display());
    Ok(results)
}
