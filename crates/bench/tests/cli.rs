//! `stardust` from the outside: the figure table, the model-only
//! figures' paper-pinned values, one simulated figure at its smallest
//! setting, the usage errors (exit 2, never a panic) against the failed
//! runs (exit 1), and a mistyped spec failing `stardust run`.

use std::process::{Command, Output};

fn stardust(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stardust"))
        .args(args)
        .output()
        .expect("stardust binary runs")
}

fn fig(args: &[&str]) -> Output {
    stardust(&[&["fig"], args].concat())
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn fig_alone_lists_every_figure() {
    let out = fig(&[]);
    assert!(out.status.success());
    let listing = stdout(&out);
    for name in [
        "fig2_scalability",
        "fig3_parallelism",
        "fig7_push_vs_pull",
        "fig8_packing",
        "fig9_queueing",
        "fig10a_permutation",
        "fig10b_fct",
        "fig10c_incast",
        "fig10d_area",
        "fig11_cost_power",
        "sec61_system",
        "ablation_packing",
        "ablation_credit_spray",
        "appendix_e_resilience",
        "fabric_scale",
    ] {
        assert!(
            listing.lines().any(|l| l.starts_with(name)),
            "{name} missing from:\n{listing}"
        );
    }
}

#[test]
fn model_figures_print_their_paper_values() {
    // Each pin is a value the paper states (or, for fig 2, the 1M-host
    // Stardust row `tests/golden_model.rs` locks).
    for (name, pins) in [
        ("fig2_scalability", &["48,438", "4,000,000"][..]),
        ("fig3_parallelism", &["(paper: 19.047)", "(paper: 41%)"]),
        ("fig8_packing", &["85.0% of line rate (15% below Stardust)"]),
        ("fig10d_area", &["(paper: 66.6%)", "(paper: 64.8%)"]),
        ("fig11_cost_power", &["112,120,888", "cut toward half"]),
    ] {
        let out = fig(&[name]);
        assert!(out.status.success(), "{name} failed");
        let text = stdout(&out);
        for pin in pins {
            assert!(text.contains(pin), "{name}: {pin:?} missing from:\n{text}");
        }
    }
}

#[test]
fn simulated_figure_runs_at_its_smallest_setting() {
    // Fig 7 is the cheapest simulated figure (5 nodes, 3 CBR flows, two
    // engines): ~1 s in the debug profile at 1 ms.
    let out = fig(&["fig7_push_vs_pull", "--ms", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let stardust = text
        .lines()
        .find(|l| l.starts_with("Stardust (pull)"))
        .unwrap_or_else(|| panic!("no Stardust row in:\n{text}"));
    let cols: Vec<&str> = stardust.split_whitespace().collect();
    assert_eq!(cols[cols.len() - 2..], ["0", "lossless"], "{stardust}");
}

#[test]
fn bad_fig_input_is_a_usage_error_not_a_panic() {
    for (args, names) in [
        // An unknown figure names the figures.
        (&["fig9"][..], "fig9_queueing"),
        // An unknown flag, a non-number, an out-of-range count and a
        // missing value each name the flags the figure accepts.
        (
            &["fig9_queueing", "--smok"],
            "[--full] [--scale N] [--ms N]",
        ),
        (&["fig9_queueing", "--ms", "x"], "--ms expects an integer"),
        (
            &["fabric_scale", "--shards", "0"],
            "--shards expects an integer >= 1",
        ),
        (&["ablation_packing", "--util"], "--util needs a value"),
        (
            &["fig3_parallelism", "--full"],
            "usage: stardust fig fig3_parallelism",
        ),
        // A scale the two-tier builder cannot divide by used to reach its
        // assert on the figure that builds without a spec.
        (
            &["fig9_queueing", "--scale", "3"],
            "--scale 3 does not divide the paper populations [256, 32, 128, 64, 64, 64, 128]\n\
             usage: stardust fig fig9_queueing [--full] [--scale N] [--ms N]",
        ),
        // Well-formed values the spec rules reject, once laid over the
        // figure's preset — these used to reach a builder's assert.
        (
            &["fig10a_permutation", "--k", "3"],
            "spec error: engine \"transport:mptcp\": [topology] kary_k must be even",
        ),
        (
            &["appendix_e_resilience", "--shards", "99"],
            "spec error: engine \"sharded:99\": more shards than the fabric's 16",
        ),
    ] {
        let out = fig(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(names), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
    }
}

#[test]
fn bad_command_line_is_exit_2_and_a_failed_run_is_exit_1() {
    // A well-formed spec whose median-FCT gate cannot pass.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exit_codes.toml");
    let preset = stardust(&["preset", "zoo_dragonfly"]);
    assert!(preset.status.success());
    let gated = stdout(&preset).replace("[checks]", "[checks]\nfct_median_ms_max = 1e-9");
    std::fs::write(&path, gated).unwrap();
    let spec = path.to_str().unwrap();
    // What the command line got wrong, above the usage text: exit 2,
    // like `stardust fig` and `stardust-lint`.
    for (args, names) in [
        (&["run", spec, "--threads", "0"][..], "--threads expects"),
        (&["run", "--bogus"], "--bogus"),
        (&["check", spec, "--json"], "--json needs a value"),
        (&["mc", "--depth", "x"], "--depth expects an integer"),
        (&["preset"], "usage:"),
        (&["bogus"], "usage:"),
        (&[], "usage:"),
    ] {
        let out = stardust(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(names), "{args:?}: {err}");
        assert!(err.contains("stardust run <spec.toml | dir>"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    // A well-formed command line whose run fails stays exit 1: an
    // unknown preset name, a missing file, a failed `[checks]` gate.
    for (args, names) in [
        (&["preset", "no_such_preset"][..], "unknown preset"),
        (&["run", "/no/such/spec.toml"], "no such file"),
        (&["run", spec, "--quiet"], "CHECK FAILED"),
    ] {
        let out = stardust(args);
        let text = stdout(&out) + &String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {text}");
        assert!(text.contains(names), "{args:?}: {text}");
        assert!(!text.contains("usage:"), "{args:?}: {text}");
    }
}

#[test]
fn mistyped_spec_section_fails_the_run() {
    // `[check]` for `[checks]` used to run with every gate off and
    // exit 0 with "all checks passed".
    let text = stardust(&["preset", "zoo_dragonfly"]);
    assert!(text.status.success());
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mistyped_section.toml");
    std::fs::write(&path, stdout(&text).replace("[checks]", "[check]")).unwrap();
    let out = stardust(&["run", path.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("spec error: unknown section \"check\""),
        "{err}"
    );
    assert!(!stdout(&out).contains("all checks passed"));
}

#[test]
fn hostile_failure_values_are_spec_errors_not_panics() {
    // One value edited in the failure-churn preset: an error rate past 1
    // and a link the 64-link fabric does not have. Both used to reach
    // the engine and panic mid-run (exit 101).
    let preset = stardust(&["preset", "failure_churn"]);
    assert!(preset.status.success());
    for (name, from, to, names) in [
        (
            "ppm.toml",
            "ppm = 40000",
            "ppm = 2000000",
            "[[failure]] at_us = 4000, link = 4: ppm = 2000000 is past 1000000",
        ),
        (
            "link.toml",
            "link = 4",
            "link = 99999",
            "[[failure]] at_us = 4000, link = 99999: link 99999 out of range: \
             the fabric has 64 links",
        ),
    ] {
        let text = stdout(&preset);
        assert!(text.contains(from), "stale mutation target {from:?}");
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, text.replace(from, to)).unwrap();
        let out = stardust(&["run", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{to}: {err}");
        assert!(err.contains(&format!("spec error: {names}")), "{to}: {err}");
        assert!(!err.contains("panicked"), "{to}: {err}");
    }
}

#[test]
fn hostile_durations_are_spec_errors_not_panics() {
    // A horizon past u64::MAX picoseconds used to wrap silently and run
    // (exit 0); a zero node gap panicked the Poisson arrivals (exit 101).
    let mix = stdout(&stardust(&["preset", "fig10b"]));
    let service = stdout(&stardust(&["preset", "service"]));
    for (name, text, from, to, names) in [
        (
            "horizon.toml",
            &mix,
            "horizon_us = 100000",
            "horizon_us = 20000000000000",
            "[experiment] horizon_us = 20000000000000 is past 18446744073709 µs",
        ),
        (
            "mix_gap.toml",
            &mix,
            "node_gap_us = 800",
            "node_gap_us = 0",
            "node_gap_us must be positive",
        ),
        (
            "shuffle_gap.toml",
            &mix,
            "dist = \"web\"\nflows = 50\nkind = \"mix\"\nnode_gap_us = 800",
            "bytes_per_pair = 4096\nkind = \"shuffle\"\nnode_gap_us = 0",
            "node_gap_us must be positive",
        ),
        (
            "service_gap.toml",
            &service,
            "node_gap_us = 300",
            "node_gap_us = 0",
            "node_gap_us must be positive",
        ),
    ] {
        assert!(text.contains(from), "stale mutation target {from:?}");
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, text.replace(from, to)).unwrap();
        let out = stardust(&["run", path.to_str().unwrap()]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{to}: {err}");
        assert!(
            err.contains("spec error: ") && err.contains(names),
            "{to}: {err}"
        );
        assert!(!err.contains("panicked"), "{to}: {err}");
    }
    // The same horizon from a figure's flag is a usage error, also where
    // the flag's conversion to µs saturates.
    for (ms, horizon_us) in [
        ("20000000000", "20000000000000"),
        ("20000000000000000", "18446744073709551615"),
    ] {
        let out = fig(&["fig10b_fct", "--smoke", "--ms", ms]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(
            err.contains(&format!("horizon_us = {horizon_us} is past")),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
    // A node gap past u64::MAX picoseconds used to wrap below 1 µs and
    // run (exit 0).
    let out = fig(&["fig10b_fct", "--smoke", "--gap-us", "18446744073710"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("--gap-us 18446744073710 is past 18446744073709 µs"),
        "{err}"
    );
    assert!(err.contains("usage: stardust fig fig10b_fct"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run");
}
