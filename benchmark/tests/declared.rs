//! `BENCHMARK.json` at the repository root and the tables in
//! `src/metrics.rs` / `src/workloads.rs` declare the same benchmark.

use stardust_benchmark::json::Json;
use stardust_benchmark::metrics::{Metric, END_TO_END, PER_LAYER};
use stardust_benchmark::workloads::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {}", j.render()))
}

fn assert_same(declared: &Json, table: &[Metric], bounded: bool) {
    let items = declared.items();
    assert_eq!(items.len(), table.len());
    for (d, m) in items.iter().zip(table) {
        assert_eq!(text(d, "name"), m.name);
        assert_eq!(text(d, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(d, "better"), m.better.as_str(), "{}", m.name);
        if bounded {
            assert_eq!(d.num("bound"), Some(m.bound), "{}", m.name);
            assert!(
                m.bound <= 0.25,
                "{}: the contract caps bounds at 0.25",
                m.name
            );
            assert_eq!(d.fields().len(), 4, "{}", m.name);
        } else {
            assert_eq!(
                d.fields().len(),
                3,
                "{}: a layer metric has no bound",
                m.name
            );
        }
    }
}

#[test]
fn metrics_and_workloads_match_the_manifest() {
    let doc = manifest();
    assert_same(doc.get("end_to_end").unwrap(), &END_TO_END, true);
    assert_same(doc.get("per_layer").unwrap(), &PER_LAYER, false);
    let workloads = doc.get("workloads").unwrap().items();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (d, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(d, "name"), w.name);
        assert_eq!(text(d, "why"), w.why);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn names_are_unique_and_the_command_stays_inside_paths() {
    let doc = manifest();
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");

    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    for arg in doc.get("command").unwrap().items() {
        let arg = arg.as_str().unwrap();
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(arg.starts_with("benchmark/"), "{arg} is outside paths");
        }
    }
}
