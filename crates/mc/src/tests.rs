//! Model-checker self-tests: bounded exploration holds all invariants
//! on the Clos and zoo fabrics, the search actually closes (steady state
//! is a hash fixpoint), and a deliberately-injected spray-eligibility
//! bug is caught by I1 — the mutation test proving the checker has
//! teeth.

use super::*;
use stardust_topo::DragonflyParams;

const SEED: u64 = 11;

/// An 8-FA two-tier folded Clos (4 aggregation, 2 spine FEs).
fn clos8() -> Built {
    TwoTierParams {
        num_fa: 8,
        fa_uplinks: 2,
        t1_count: 4,
        t1_down: 4,
        t1_up: 2,
        t2_count: 2,
        t2_down: 4,
        near_meters: 10,
        far_meters: 100,
    }
    .build_fabric()
}

fn tiny(links: Vec<LinkId>, depth: usize) -> McConfig {
    McConfig {
        max_depth: depth,
        max_states: 500,
        max_concurrent_failures: 2,
        links,
    }
}

#[test]
fn clos4_smoke_holds_all_invariants() {
    let mc = Mc::new(clos4(), mc_config(SEED), McConfig::smoke());
    let r = mc.explore();
    assert!(r.ok(), "violation: {:?}", r.violation);
    assert!(
        r.distinct_states >= 100,
        "a 7-deep smoke run must visit a real state space, got {}",
        r.distinct_states
    );
    assert!(r.transitions >= r.distinct_states as u64);
}

#[test]
fn exploration_is_deterministic() {
    let mc = Mc::new(clos4(), mc_config(SEED), tiny(vec![LinkId(0)], 6));
    let a = mc.explore();
    let b = mc.explore();
    assert_eq!(a.distinct_states, b.distinct_states);
    assert_eq!(a.transitions, b.transitions);
    assert!(a.ok() && b.ok());
}

#[test]
fn steady_state_is_a_step_fixpoint() {
    // With failures forbidden the only transition is Step, and the
    // relative-time hash must close the loop after a bounded number of
    // quanta instead of chasing the absolute clock to max_depth.
    let cfg = McConfig {
        max_concurrent_failures: 0,
        ..tiny(vec![LinkId(0)], 64)
    };
    let mc = Mc::new(clos4(), mc_config(SEED), cfg);
    let r = mc.explore();
    assert!(r.ok());
    assert!(
        !r.truncated,
        "pure Step chains must dedup into a fixpoint, not run to the depth cap \
         (visited {} states, depth {})",
        r.distinct_states, r.max_depth_reached
    );
}

#[test]
fn dragonfly_zoo_smoke_holds_all_invariants() {
    let built = DragonflyParams::zoo().build_fabric();
    let links = vec![LinkId(0), LinkId(built.topo.num_links() as u32 - 1)];
    let mc = Mc::new(built, mc_config(SEED), tiny(links, 7));
    let r = mc.explore();
    assert!(r.ok(), "violation: {:?}", r.violation);
    assert!(r.distinct_states >= 50, "got {}", r.distinct_states);
}

#[test]
fn injected_spray_eligibility_bug_is_caught_by_i1() {
    // The mutation: a buggy spray layer that keeps offering link 0's
    // a-end direction (dir 0) to every destination that has any
    // eligible direction — i.e. it ignores exclusion and the plan's
    // candidate sets. I1 must refuse it.
    fn buggy(snap: &mut stardust_fabric::EligibilitySnapshot) {
        for per_dst in snap.iter_mut() {
            for dirs in per_dst.iter_mut() {
                if !dirs.is_empty() && !dirs.contains(&0) {
                    dirs.push(0);
                }
            }
        }
    }
    let mut mc = Mc::new(clos4(), mc_config(SEED), tiny(vec![LinkId(0)], 8));
    mc.mutator = Some(buggy);
    let r = mc.explore();
    let v = r.violation.expect("the injected bug must be detected");
    assert_eq!(v.invariant, "I1", "caught by the wrong invariant: {v:?}");
}

#[test]
fn clos8_bounded_run_holds_invariants() {
    let mc = Mc::new(
        clos8(),
        mc_config(SEED),
        tiny(vec![LinkId(0), LinkId(9)], 5),
    );
    let r = mc.explore();
    assert!(r.ok(), "violation: {:?}", r.violation);
}

#[test]
#[ignore = "adds about 9 s to a debug test run; CI runs the same search in release via `stardust mc`"]
fn exhaustive_clos4_exceeds_ten_thousand_states() {
    let mc = Mc::new(clos4(), mc_config(SEED), McConfig::exhaustive());
    let r = mc.explore();
    assert!(r.ok(), "violation: {:?}", r.violation);
    assert!(
        r.distinct_states >= 10_000,
        "exhaustive 4-FA exploration must cover ≥10⁴ states, got {}",
        r.distinct_states
    );
}
