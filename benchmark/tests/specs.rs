//! Every workload's inputs parse and validate, at full and at smoke
//! size, under the default and an unseen seed.

use stardust_benchmark::workloads::{cbr_params, load_spec, CBR_FAS, WORKLOADS};

#[test]
fn the_five_workloads_are_the_declared_ones() {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        names,
        [
            "clos_cbr",
            "clos_service",
            "clos_storm",
            "dfly_perm_sh2",
            "clos_perm_sh2"
        ]
    );
}

#[test]
fn every_spec_parses_and_validates_at_both_sizes() {
    let mut spec_driven = 0;
    for w in &WORKLOADS {
        let Some(text) = w.spec else {
            // clos_cbr drives the engine API directly: its input is a
            // topology parameter set, checked by the builder's own rules.
            let p = cbr_params();
            p.validate();
            assert_eq!(p.num_fa, CBR_FAS);
            continue;
        };
        spec_driven += 1;
        for seed in [42, 7] {
            for scale in [1, 20] {
                let spec = load_spec(text, seed, scale)
                    .unwrap_or_else(|e| panic!("{} seed {seed} scale {scale}: {e}", w.name));
                assert_eq!(spec.name, w.name, "the spec names its workload");
                assert_eq!(spec.seeds, vec![seed], "--seed replaces the spec's seed");
                assert_eq!(spec.engines.len(), 1, "{}: one engine per workload", w.name);
                assert!(
                    spec.failures.events().iter().all(|e| e.at < spec.horizon()),
                    "{}: every link event lies inside the horizon at scale {scale}",
                    w.name
                );
            }
        }
        let (full, smoke) = (
            load_spec(text, 42, 1).unwrap(),
            load_spec(text, 42, 20).unwrap(),
        );
        assert_eq!(smoke.horizon_us, full.horizon_us / 20);
        assert_eq!(smoke.failures.events().len(), full.failures.events().len());
    }
    assert_eq!(spec_driven, 4);
}

#[test]
fn a_broken_spec_is_an_error_not_a_panic() {
    assert!(load_spec("[experiment]\nname = \"x\"\n", 42, 1).is_err());
    assert!(load_spec("not toml at all", 42, 1).is_err());
}
