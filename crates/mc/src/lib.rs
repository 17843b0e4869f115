//! # stardust-mc — exhaustive small-scale model checking
//!
//! The conformance suites sample seeds; this crate *enumerates*. On
//! fabrics small enough to close the state space (a 4–8 FA folded Clos,
//! the CI-scale topology-zoo kinds), it drives the deterministic engine
//! through every interleaving of link-failure, link-restore and
//! protocol-step actions up to a bounded depth, and asserts the
//! control-plane invariants after **every** transition:
//!
//! * **I1 — exclusion safety.** No device's spray-eligible direction set
//!   ever contains a direction outside the route plan's candidate set
//!   for that destination, and a link that has been administratively
//!   failed for at least the detection bound (`th` missed reachability
//!   intervals plus a propagation margin) is excluded from every
//!   eligible set in the fabric.
//! * **I2 — reconvergence.** From any reachable state in which every
//!   link has been restored, running the protocol for the settle bound
//!   (revival streak + propagation margin, cf. §5.10 and Appendix E)
//!   returns every eligibility table to the pristine converged view.
//! * **I3 — lookahead discipline.** Every in-flight reachability message
//!   is scheduled strictly in the future and no further out than the
//!   fabric's maximum propagation delay — the protocol never "time
//!   travels" past its one-hop lookahead window.
//!
//! ## Why depth-first replay over the deterministic engine is sound
//!
//! [`stardust_fabric::FabricEngine`] is not cloneable (its layers derive
//! no `Clone`, and a frontier of whole-engine copies would cost a full
//! state per search node), so the checker is *stateless*: a search node
//! is an action sequence, and visiting it rebuilds a fresh engine and
//! replays the sequence. The engine's total event order is a pure function of
//! (topology, config, action sequence) — the workspace's determinism
//! contract, enforced statically by `stardust-lint` and dynamically by
//! the conformance suites — so replaying a prefix always reproduces the
//! exact state first observed for it, and two sequences that fold to the
//! same canonical hash really are the same control-plane state. Visited
//! states are deduplicated by an FNV-1a hash over the *relative-time*
//! view of the state (reachability tables with `now − last_heard`,
//! pending messages with `deliver_at − now`, administrative link state,
//! and the eligibility snapshot), so the converged steady state is a
//! fixpoint under `Step` and the search closes instead of chasing the
//! absolute clock forever.

use std::collections::{BTreeMap, BTreeSet};

use stardust_fabric::{EligibilitySnapshot, FabricConfig, FabricEngine};
use stardust_sim::hash::Fnv1a;
use stardust_sim::{SimDuration, SimTime};
use stardust_topo::{Built, LinkId, TwoTierParams};

#[cfg(test)]
mod tests;

/// One transition of the model: an administrative link action, or one
/// reachability quantum (`reach_interval`) of protocol execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Administratively fail a link (both directions).
    Fail(LinkId),
    /// Administratively restore a link (both directions).
    Restore(LinkId),
    /// Run the engine for one reachability interval.
    Step,
}

/// Search bounds for one exploration.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum actions per path.
    pub max_depth: usize,
    /// Budget of distinct canonical states; exploration stops expanding
    /// (and reports `truncated`) once reached.
    pub max_states: usize,
    /// Maximum simultaneously-failed links.
    pub max_concurrent_failures: usize,
    /// Links the checker may fail/restore. Empty = derive from the
    /// topology (every link on small fabrics, a spread of three
    /// otherwise).
    pub links: Vec<LinkId>,
}

/// Reachability quanta the pristine engine runs before exploration
/// starts (enough to converge the initial tables).
const WARMUP_STEPS: u64 = 20;

impl McConfig {
    /// CI-scale bounds: shallow depth, small state budget; finishes in
    /// well under a second per topology even in debug builds.
    pub fn smoke() -> Self {
        McConfig {
            max_depth: 7,
            max_states: 2_000,
            max_concurrent_failures: 2,
            links: Vec::new(),
        }
    }

    /// The full bounded-exhaustive run: deep enough to cover
    /// fail→detect→restore→revive cycles and pairs of overlapping
    /// failures on a 4-FA Clos (≥ 10⁴ distinct states).
    pub fn exhaustive() -> Self {
        McConfig {
            max_depth: 16,
            max_states: 200_000,
            max_concurrent_failures: 2,
            links: Vec::new(),
        }
    }
}

/// A counterexample: which invariant broke, how, and the action
/// sequence (from the converged pristine state) that reaches it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `"I1"`, `"I2"` or `"I3"`.
    pub invariant: &'static str,
    /// Human-readable description of the broken assertion.
    pub detail: String,
    /// The action sequence reproducing the violation.
    pub trace: Vec<Action>,
}

/// Outcome of one exploration.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Distinct canonical states visited.
    pub distinct_states: usize,
    /// Transitions executed (= search nodes replayed, minus the root).
    pub transitions: u64,
    /// Deepest action sequence reached.
    pub max_depth_reached: usize,
    /// True when a bound (depth or state budget) cut the search before
    /// the reachable space closed.
    pub truncated: bool,
    /// The first invariant violation found, if any (search stops on it).
    pub violation: Option<Violation>,
}

impl McReport {
    /// True when every explored transition upheld all invariants.
    pub fn ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// The model checker: a fabric, its config, search bounds, and the
/// pristine reference state.
pub struct Mc {
    built: Built,
    cfg: FabricConfig,
    mc: McConfig,
    /// One protocol quantum = the reachability interval.
    quantum: SimDuration,
    /// `Step`s after which a continuously-failed link must be excluded
    /// from every eligible set: `th` missed intervals to detect plus a
    /// propagation margin across the fabric's tiers.
    exclusion_bound_steps: u64,
    /// `Step`-equivalents run when checking I2: the §5.10 revival streak
    /// plus detection and propagation margins.
    settle_steps: u64,
    alphabet: Vec<LinkId>,
    pristine: EligibilitySnapshot,
    /// Test hook: a fault injected into the eligibility snapshot before
    /// the I1 check, simulating a buggy spray-eligibility computation.
    /// The mutation tests prove I1 actually catches such bugs.
    pub mutator: Option<fn(&mut EligibilitySnapshot)>,
}

impl Mc {
    /// Build a checker over `built` with the engine config `cfg` (which
    /// must run the dynamic reachability protocol: `reach_interval` set).
    pub fn new(built: Built, cfg: FabricConfig, mc: McConfig) -> Mc {
        let quantum = cfg
            .reach_interval
            .expect("model checking needs the dynamic protocol: set reach_interval");
        let th = u64::from(cfg.reach_miss_threshold);
        let alphabet = if mc.links.is_empty() {
            let n = built.topo.num_links() as u32;
            if n <= 16 {
                (0..n).map(LinkId).collect()
            } else {
                vec![LinkId(0), LinkId(n / 2), LinkId(n - 1)]
            }
        } else {
            mc.links.clone()
        };
        let mut mc_ = Mc {
            built,
            cfg,
            mc,
            quantum,
            // th+1 intervals until the receiver's expiry fires, plus a
            // margin for the withdrawal to advertise across the tiers.
            exclusion_bound_steps: th + 6,
            // Revival needs th good adverts (§5.10) on top of detection
            // and propagation; 4·th + 8 quanta bounds the whole cycle
            // with slack (the zoo suite converges well inside this).
            settle_steps: 4 * th + 8,
            alphabet,
            pristine: Vec::new(),
            mutator: None,
        };
        let reference = mc_.fresh().eligible_dir_snapshot();
        mc_.pristine = reference;
        mc_
    }

    /// A fresh engine advanced to the converged pristine state.
    fn fresh(&self) -> FabricEngine {
        let mut e: FabricEngine = FabricEngine::with_plan(
            self.built.topo.clone(),
            self.cfg.clone(),
            self.built.plan.clone(),
        );
        e.run_until(SimTime::ZERO + self.quantum * WARMUP_STEPS);
        e
    }

    /// Apply one action, tracking the admin-down set and the per-link
    /// `Step`s-since-fail ages the I1 exclusion bound needs.
    fn apply(
        &self,
        e: &mut FabricEngine,
        a: Action,
        down: &mut Vec<LinkId>,
        ages: &mut BTreeMap<u32, u64>,
    ) {
        match a {
            Action::Fail(l) => {
                e.fail_link(l);
                down.push(l);
                ages.insert(l.0, 0);
            }
            Action::Restore(l) => {
                e.restore_link(l);
                down.retain(|x| *x != l);
                ages.remove(&l.0);
            }
            Action::Step => {
                e.run_for(self.quantum);
                for v in ages.values_mut() {
                    *v += 1;
                }
            }
        }
    }

    /// Canonical FNV-1a hash of the control-plane state, with every
    /// timestamp made relative to `now` so the converged steady state is
    /// a fixpoint under `Step`.
    fn canon_hash(&self, e: &FabricEngine) -> u64 {
        let now = e.now();
        let mut h = Fnv1a::default();
        for l in 0..self.built.topo.num_links() as u32 {
            h.u64(u64::from(e.link_up(LinkId(l))));
        }
        for dev in e.reach_snapshot() {
            h.u64(dev.len() as u64);
            for (up, streak, last_heard, fas) in dev {
                h.u64(u64::from(up));
                h.u64(u64::from(streak));
                h.u64(now.saturating_since(last_heard).as_ps());
                h.u64(fas.len() as u64);
                for f in fas {
                    h.u64(u64::from(f));
                }
            }
        }
        for per_dst in e.eligible_dir_snapshot() {
            h.u64(per_dst.len() as u64);
            for dirs in per_dst {
                h.u64(dirs.len() as u64);
                for d in dirs {
                    h.u64(u64::from(d));
                }
            }
        }
        for (at, node, port, faulty, fas) in e.pending_reach_msgs() {
            h.u64(at.saturating_since(now).as_ps());
            h.u64(u64::from(node));
            h.u64(u64::from(port));
            h.u64(u64::from(faulty));
            h.u64(fas.len() as u64);
            for f in fas {
                h.u64(u64::from(f));
            }
        }
        h.finish()
    }

    /// I1: every eligible direction is a plan candidate for its
    /// destination, and links failed at least `exclusion_bound_steps`
    /// ago appear in no eligible set.
    fn check_i1(&self, e: &FabricEngine, ages: &BTreeMap<u32, u64>) -> Option<String> {
        let mut snap = e.eligible_dir_snapshot();
        if let Some(m) = self.mutator {
            m(&mut snap);
        }
        let excluded: Vec<u32> = ages
            .iter()
            .filter(|&(_, &age)| age >= self.exclusion_bound_steps)
            .flat_map(|(&l, _)| [l * 2, l * 2 + 1])
            .collect();
        for (dev, per_dst) in snap.iter().enumerate() {
            for (dst, dirs) in per_dst.iter().enumerate() {
                for &d in dirs {
                    let candidate = self
                        .built
                        .plan
                        .dir_dsts
                        .get(d as usize)
                        .is_some_and(|s| s.contains(dst as u32));
                    if !candidate {
                        return Some(format!(
                            "device {dev} sprays dst {dst} over dir {d}, \
                             not a route-plan candidate"
                        ));
                    }
                    if excluded.contains(&d) {
                        return Some(format!(
                            "device {dev} sprays dst {dst} over dir {d} of link {}, \
                             failed {} quanta ago (bound {})",
                            d / 2,
                            ages[&(d / 2)],
                            self.exclusion_bound_steps
                        ));
                    }
                }
            }
        }
        None
    }

    /// I3: every pending reachability message is strictly in the future
    /// and within one propagation delay of `now`.
    fn check_i3(&self, e: &FabricEngine) -> Option<String> {
        let now = e.now();
        let horizon = now + e.max_prop_delay();
        for (at, node, port, _, _) in e.pending_reach_msgs() {
            if at <= now || at > horizon {
                return Some(format!(
                    "reach msg to node {node} port {port} scheduled at {}ps, \
                     outside ({}ps, {}ps]",
                    at.as_ps(),
                    now.as_ps(),
                    horizon.as_ps()
                ));
            }
        }
        None
    }

    /// Exhaustive DFS over action sequences, deduplicated by canonical
    /// state hash, invariants checked after every transition. Returns on
    /// the first violation.
    pub fn explore(&self) -> McReport {
        let mut visited: BTreeSet<u64> = BTreeSet::new();
        let mut stack: Vec<Vec<Action>> = vec![Vec::new()];
        let mut report = McReport {
            distinct_states: 0,
            transitions: 0,
            max_depth_reached: 0,
            truncated: false,
            violation: None,
        };
        while let Some(prefix) = stack.pop() {
            let depth = prefix.len();
            report.max_depth_reached = report.max_depth_reached.max(depth);
            if depth > 0 {
                report.transitions += 1;
            }
            let mut e = self.fresh();
            let mut down: Vec<LinkId> = Vec::new();
            let mut ages: BTreeMap<u32, u64> = BTreeMap::new();
            for &a in &prefix {
                self.apply(&mut e, a, &mut down, &mut ages);
            }
            // Invariants are path-sensitive (I1's exclusion ages), so
            // check before the visited-state dedup.
            if let Some(detail) = self.check_i1(&e, &ages) {
                report.violation = Some(Violation {
                    invariant: "I1",
                    detail,
                    trace: prefix,
                });
                break;
            }
            if let Some(detail) = self.check_i3(&e) {
                report.violation = Some(Violation {
                    invariant: "I3",
                    detail,
                    trace: prefix,
                });
                break;
            }
            if !visited.insert(self.canon_hash(&e)) {
                continue;
            }
            if visited.len() >= self.mc.max_states || depth >= self.mc.max_depth {
                report.truncated = true;
                continue;
            }
            // Children, pushed in reverse so exploration order follows
            // the alphabet: fail/restore per link, then a protocol step.
            let child = |a: Action| {
                let mut p = prefix.clone();
                p.push(a);
                p
            };
            stack.push(child(Action::Step));
            for &l in self.alphabet.iter().rev() {
                if down.contains(&l) {
                    stack.push(child(Action::Restore(l)));
                } else if down.len() < self.mc.max_concurrent_failures {
                    stack.push(child(Action::Fail(l)));
                }
            }
            // I2, checked at every state the last restore just left
            // all-links-up: settle, then the tables must equal pristine.
            // (Children were generated above from the pre-settle state;
            // each child replays from scratch, so `e` is free to run on.)
            if down.is_empty() && matches!(prefix.last(), Some(Action::Restore(_))) {
                e.run_for(self.quantum * self.settle_steps);
                if e.eligible_dir_snapshot() != self.pristine {
                    report.violation = Some(Violation {
                        invariant: "I2",
                        detail: format!(
                            "tables did not reconverge to the pristine view within \
                             {} quanta of the last restore",
                            self.settle_steps
                        ),
                        trace: prefix,
                    });
                    break;
                }
            }
        }
        report.distinct_states = visited.len();
        report
    }
}

/// A 4-FA two-tier folded Clos, the smallest fabric with genuine
/// aggregation/spine path diversity (2 uplinks per FA, 2+2 FEs).
pub fn clos4() -> Built {
    TwoTierParams {
        num_fa: 4,
        fa_uplinks: 2,
        t1_count: 2,
        t1_down: 4,
        t1_up: 2,
        t2_count: 2,
        t2_down: 2,
        near_meters: 10,
        far_meters: 100,
    }
    .build_fabric()
}

/// The engine configuration model checking runs under: the dynamic
/// reachability protocol at a 10µs interval, miss threshold 3 (the
/// zoo-suite settings).
pub fn mc_config(seed: u64) -> FabricConfig {
    FabricConfig {
        seed,
        reach_interval: Some(SimDuration::from_micros(10)),
        reach_miss_threshold: 3,
        ..FabricConfig::default()
    }
}
