//! What runs inside a child process. Every repetition gets a fresh
//! process — a clean peak-RSS mark, clean CPU counters, a cold allocator
//! — and prints one JSON line for the parent to read.

use crate::host;
use crate::json::Json;
use crate::workloads::{self, fingerprint, Exec, Rep, RepOpts, Workload};
use stardust_bench::runner::run_spec;
use stardust_bench::spec::EngineSpec;
use std::path::Path;
use std::time::Instant;

fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::from(s.as_str())).collect())
}

/// Run one repetition and describe it. A traced repetition also writes
/// its spans to `trace_out`.
pub fn rep(w: &Workload, o: &RepOpts, trace_out: Option<&Path>, start_epoch_ns: f64) -> Json {
    let r: Rep = workloads::run_rep(w, o);
    let mut problems = r.problems.clone();
    // The spans under the root must account for the repetition: time
    // outside them is time no layer metric can explain.
    // (At smoke size the region is milliseconds and reading `/proc`
    // between the spans is not negligible, so only full size is held to
    // it.)
    if o.traced && o.scale == 1 && r.top_level_cover < 0.95 {
        problems.push(format!(
            "top-level spans cover {:.1} % of the traced run",
            r.top_level_cover * 100.0
        ));
    }
    if let Some(path) = trace_out {
        let doc = r.tracer.to_json(w.name).render_pretty();
        if let Err(e) = std::fs::write(path, doc) {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }
    let end_to_end = Json::obj()
        .with("wall_s", r.wall_s)
        .with("cpu_s", r.host.cpu_s())
        .with("setup_s", r.setup_s)
        .with("peak_rss_mb", host::peak_rss_mb())
        .with("fct_p50_us", r.sim.fct_p50_us)
        .with("fct_p99_us", r.sim.fct_p99_us)
        .with("completed_frac", r.sim.completed_frac);
    let mut per_layer = Json::obj()
        .with("cells_dropped", r.sim.cells_dropped)
        .with("loss_window_us", r.sim.loss_window_us)
        .with("convergence_us", r.sim.convergence_us);
    for (k, v) in &r.layer {
        per_layer.set(k, *v);
    }
    Json::obj()
        .with("kind", "rep")
        .with("start_epoch_ns", start_epoch_ns)
        .with("exec", r.exec_note.as_str())
        .with("attempted", r.attempted)
        .with("failed", r.failed)
        .with("stats_fp", hex(r.stats_fp))
        .with("flows_fp", hex(r.flows_fp))
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
        .with("problems", strings(&problems))
}

/// The once-per-run correctness pass of a spec-driven workload.
///
/// * `run_spec` — the simulator's own runner — executes the spec: its
///   `[checks]` verdicts are the spec-level correctness result, its flow
///   book must equal the one the benchmark's own drive loop produces
///   (the parent compares fingerprints), and its total minus the timed
///   part of its runs is the runner's overhead.
/// * On a sharded workload the same flows run on the sequential engine
///   and on the sharded engine with OS threads; the two `FabricStats`
///   must be equal here, and equal — by fingerprint — to the inline
///   repetitions. `run_spec` is told to run inline too, so the one
///   threaded run is the one that is timed.
pub fn check(w: &Workload, o: &RepOpts, start_epoch_ns: f64) -> Json {
    let mut out = Json::obj()
        .with("kind", "check")
        .with("start_epoch_ns", start_epoch_ns);
    let mut problems = Vec::new();
    let Some(text) = w.spec else {
        return out.with("problems", strings(&problems));
    };
    let mut spec = workloads::load_spec(text, o.seed, o.scale).expect("benchmark spec must parse");
    let sharded = matches!(spec.engines[0], EngineSpec::Sharded { .. });
    if sharded {
        spec.threads = Some(1);
    }

    let t = Instant::now();
    let outcome = run_spec(&spec);
    let total_s = t.elapsed().as_secs_f64();
    let timed_s: f64 = outcome.runs.iter().map(|r| r.wall_s).sum();
    problems.extend(
        outcome
            .check_failures
            .iter()
            .map(|f| format!("spec check failed: {f}")),
    );
    out.set("runner_overhead_s", total_s - timed_s);
    out.set(
        "run_spec_flows_fp",
        hex(fingerprint(&outcome.runs[0].flows)),
    );

    if sharded {
        let run = |exec| {
            workloads::run_rep(
                w,
                &RepOpts {
                    traced: false,
                    exec,
                    ..*o
                },
            )
        };
        let seq = run(Exec::Sequential);
        let threaded = run(Exec::Threads);
        if seq.fabric != threaded.fabric {
            problems.push("sequential and threaded FabricStats differ".into());
        }
        for r in [&seq, &threaded] {
            problems.extend(r.problems.iter().map(|p| format!("{}: {p}", r.exec_note)));
        }
        out.set("seq_wall_s", seq.wall_s);
        out.set("threaded_wall_s", threaded.wall_s);
        out.set("threaded_exec", threaded.exec_note.as_str());
        out.set("seq_stats_fp", hex(seq.stats_fp));
        out.set("threaded_stats_fp", hex(threaded.stats_fp));
    }
    out.with("problems", strings(&problems))
}
