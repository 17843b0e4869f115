//! Drive the real binary at smoke size: the whole set finishes quickly,
//! emits exactly the declared metrics, repeats its statistics exactly,
//! and prints the one-line result the benchmark contract asks for.

use stardust_benchmark::json::Json;
use stardust_benchmark::metrics::{END_TO_END, PER_LAYER};
use stardust_benchmark::workloads::WORKLOADS;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_stardust-benchmark");

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn keys(j: &Json) -> Vec<&str> {
    j.fields().iter().map(|(k, _)| k.as_str()).collect()
}

fn smoke_set(out: &PathBuf) -> Json {
    let (ok, stdout) = run(&["run", "--smoke", "--trace", "--out", out.to_str().unwrap()]);
    assert!(ok, "smoke run failed:\n{stdout}");
    Json::parse(&std::fs::read_to_string(out).unwrap()).expect("result document is JSON")
}

#[test]
fn smoke_set_emits_exactly_the_declared_metrics_and_repeats() {
    let (a, b) = (
        smoke_set(&tmp("smoke_a/result.json")),
        smoke_set(&tmp("smoke_b/result.json")),
    );
    let declared_e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let declared_layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let (wa, wb) = (
        a.get("workloads").unwrap().items(),
        b.get("workloads").unwrap().items(),
    );
    assert_eq!(wa.len(), WORKLOADS.len());
    for ((ra, rb), w) in wa.iter().zip(wb).zip(&WORKLOADS) {
        assert_eq!(ra.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(
            ra.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            ra.render()
        );
        assert_eq!(
            keys(ra.get("end_to_end").unwrap()),
            declared_e2e,
            "{}",
            w.name
        );
        assert_eq!(
            keys(ra.get("per_layer").unwrap()),
            declared_layers,
            "{}",
            w.name
        );
        // Same seed, same statistics, run to run and process to process.
        assert_eq!(ra.get("stats_fp"), rb.get("stats_fp"), "{}", w.name);
        for m in END_TO_END.iter().filter(|m| m.simulated) {
            let read = |r: &Json| {
                r.get("end_to_end")
                    .unwrap()
                    .get(m.name)
                    .unwrap()
                    .num("median")
            };
            assert_eq!(read(ra), read(rb), "{} {}", w.name, m.name);
        }
        assert!(ra.num("attempted").unwrap() >= 1.0);
        // The storm is the only workload with link events.
        let link_events = ra.get("per_layer").unwrap().num("fabric.reach.link_events");
        assert_eq!(
            link_events != Some(0.0),
            w.name == "clos_storm",
            "{}",
            w.name
        );
        // A traced run leaves its spans beside the result.
        let trace = tmp("smoke_a").join(format!("trace_{}.json", w.name));
        let trace = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let spans = trace.get("spans").unwrap().items();
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(
            spans
                .iter()
                .filter(|s| s
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap()
                    .starts_with("slice."))
                .count(),
            20
        );
    }
    // The set compares equal to itself.
    let (ok, report) = run(&[
        "compare",
        tmp("smoke_a/result.json").to_str().unwrap(),
        tmp("smoke_a/result.json").to_str().unwrap(),
    ]);
    assert!(ok, "{report}");
    assert!(!report.contains("worse") && report.contains("stats_fp equal"));
}

#[test]
fn one_workload_prints_the_contract_line() {
    for (trace, declared) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let out = tmp(&format!("contract_{trace}/result.json"));
        let (ok, stdout) = run(&[
            "run",
            "--smoke",
            "--workload",
            "dfly_perm_sh2",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}");
        let line = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.num("failed"), Some(0.0));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics), declared);
        for (name, m) in metrics.fields() {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert!(m.num("value").unwrap().is_finite(), "{name}");
        }
    }
}

#[test]
fn compare_flags_a_regression_and_bad_arguments_fail() {
    let out = tmp("cmp/result.json");
    let (ok, stdout) = run(&[
        "run",
        "--smoke",
        "--workload",
        "clos_perm_sh2",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    let text = std::fs::read_to_string(&out).unwrap();
    let a = Json::parse(&text).unwrap();
    let wall = a.get("workloads").unwrap().items()[0]
        .get("end_to_end")
        .unwrap()
        .get("wall_s")
        .unwrap();
    // Double every wall_s figure of the copy.
    let mut slower = text.clone();
    for key in ["median", "q1", "q3"] {
        let v = wall.num(key).unwrap();
        slower = slower.replacen(
            &format!("\"{key}\": {v}"),
            &format!("\"{key}\": {}", v * 2.0),
            1,
        );
    }
    let b = tmp("cmp/slower.json");
    std::fs::write(&b, slower).unwrap();
    let (ok, report) = run(&["compare", out.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(
        !ok,
        "a 2x slower wall_s must fail the comparison:\n{report}"
    );
    assert!(report.contains("worse"), "{report}");

    assert!(!run(&["run", "--workload", "nope"]).0);
    assert!(!run(&["run", "--reps", "0"]).0);
    assert!(!run(&["compare", "only-one.json"]).0);
    assert!(!run(&[]).0);
}
