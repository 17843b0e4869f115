//! Shared scaffolding for the Fig 10 a–c experiments: the two engine
//! presets and the FCT table printers.
//!
//! The fat-tree transport simulator models the paper's §6.3 htsim setup
//! (k-ary fat-tree, one 10G NIC per host, per-protocol transports). The
//! fabric engine is the cell-accurate §6.2 Stardust model (VOQs, credit
//! scheduling, packing, spraying); to keep the comparison one-NIC-per-
//! node it runs with a single 10G host port per Fabric Adapter. The two
//! topologies differ — that is the point: the same workload spec lands on
//! the paper's comparison network and on the Stardust fabric proper.
//!
//! The experiment driving itself lives in [`crate::runner`], which
//! expands an [`ExperimentSpec`](crate::spec::ExperimentSpec) over the
//! generic `FlowEngine` surface; the fig10 figures are thin preset +
//! figure-specific-printing shells over it.

use crate::header;
use stardust_fabric::FabricConfig;
use stardust_sim::{units, FlowStats};
use stardust_topo::builders::{KaryParams, TwoTierParams};
use stardust_transport::TransportSim;

/// Label used for the cell-accurate fabric column.
pub const FABRIC_LABEL: &str = "SD-fabric";

/// Percentiles printed by [`print_fct_table`].
pub const PCTS: [u32; 8] = [10, 25, 50, 75, 90, 95, 99, 100];

/// Fabric Adapter population of the `factor`-scaled §6.2 two-tier
/// fabric (16 gives 16 FAs, 4 gives 64) — one source of truth with
/// `TwoTierParams::paper_scaled`, so the figures' printed populations
/// and backend clamps can never drift from the topology actually built.
pub fn fabric_fas(factor: u32) -> usize {
    TwoTierParams::paper_scaled(factor).num_fa as usize
}

/// Host population of [`transport_sim`]`(k, _)` (k³/4 for a k-ary
/// fat-tree).
pub fn kary_hosts(k: u32) -> usize {
    (k * k * k / 4) as usize
}

/// The Fig 10 fabric-engine configuration: one 10G host port per Fabric
/// Adapter (one-NIC hosts, like the transport topology). Shared by the
/// experiment [`runner`](crate::runner) and hand-built engines, so a
/// spec preset and a hand-built engine can never drift apart.
pub fn fabric_config(seed: u64) -> FabricConfig {
    FabricConfig {
        host_ports: 1,
        host_port_bps: units::gbps(10),
        seed,
        ..FabricConfig::default()
    }
}

/// The §6.3 k-ary fat-tree transport simulator (k³/4 hosts, 10G links).
pub fn transport_sim(k: u32, seed: u64) -> TransportSim {
    let ft = KaryParams {
        k,
        ..KaryParams::paper_6_3()
    }
    .build_fabric();
    TransportSim::new(ft, seed)
}

/// Print an FCT-percentile table, one column per labelled result, in ms.
/// Each column's quantiles come from one
/// [`FlowStats::fct_quantiles`] call — the per-flow table is sorted
/// once, not per percentile, and sketch-mode stats (which keep no
/// table) print their sketch quantiles.
pub fn print_fct_table(title: &str, results: &[(String, FlowStats)]) {
    let w = column_width(results);
    let cols: String = results
        .iter()
        .map(|(l, _)| format!(" {l:>width$}", width = w))
        .collect();
    header(title, &format!("{:>6}{cols}", "pct"));
    let qs: Vec<f64> = PCTS.iter().map(|&p| p as f64 / 100.0).collect();
    let columns: Vec<_> = results
        .iter()
        .map(|(_, fs)| fs.fct_quantiles(&qs))
        .collect();
    for (i, &pct) in PCTS.iter().enumerate() {
        print!("{pct:>6}");
        for col in &columns {
            match col[i] {
                Some(d) => print!(" {:>width$.3}", d.as_secs_f64() * 1e3, width = w),
                None => print!(" {:>width$}", "-", width = w),
            }
        }
        println!();
    }
}

/// Column width that fits every result label (12 minimum).
fn column_width(results: &[(String, FlowStats)]) -> usize {
    results
        .iter()
        .map(|(l, _)| l.len())
        .max()
        .unwrap_or(0)
        .max(12)
}

/// Print the completion/median/tail summary for each labelled result.
pub fn print_fct_summary(results: &[(String, FlowStats)]) {
    let w = column_width(results);
    header(
        "summary",
        &format!(
            "{:>w$} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "engine",
            "completed",
            "mean ms",
            "median ms",
            "p99 ms",
            "max ms",
            w = w
        ),
    );
    for (label, fs) in results {
        let ms = |d: Option<stardust_sim::SimDuration>| {
            d.map_or("-".to_string(), |d| format!("{:.3}", d.as_secs_f64() * 1e3))
        };
        let qs = fs.fct_quantiles(&[0.5, 0.99, 1.0]);
        println!(
            "{:>w$} {:>12} {:>12} {:>12} {:>12} {:>12}",
            label,
            format!("{}/{}", fs.completed(), fs.len()),
            ms(fs.fct_mean()),
            ms(qs[0]),
            ms(qs[1]),
            ms(qs[2]),
            w = w
        );
    }
}

/// Per-flow goodputs in Gbps (bytes / FCT) over completed flows,
/// ascending — the paper's Fig 10(a) "flow rank" series.
pub fn goodputs_gbps(fs: &FlowStats) -> Vec<f64> {
    let mut v: Vec<f64> = fs
        .records()
        .iter()
        .filter_map(|r| {
            r.fct()
                .map(|d| r.bytes as f64 * 8.0 / d.as_secs_f64() / 1e9)
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

/// Print the survivor-bias note for any engine that left flows
/// unfinished at the horizon (goodput = bytes / FCT exists only for
/// completed flows, so rank series cover only the faster survivors).
pub fn print_unfinished_notes(results: &[(String, FlowStats)]) {
    for (label, fs) in results {
        let unfinished = fs.len() - fs.completed();
        if unfinished > 0 {
            println!(
                "note: {label} left {unfinished}/{} flows unfinished at the horizon — its \
                 goodput columns cover only the {} completed (faster) flows",
                fs.len(),
                fs.completed()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_sim::{SimDuration, SimTime};
    use stardust_workload::{FlowEngine, Scenario, ScenarioKind};

    #[test]
    fn engine_presets_drive_one_spec_side_by_side() {
        let scn = Scenario {
            name: "fig10-helper-test".into(),
            seed: 5,
            kind: ScenarioKind::Permutation {
                flow_bytes: 200_000,
            },
        };
        // Both populations sized by their own engine: k=4 → 16 hosts,
        // factor=16 → 16 FAs.
        let tt = stardust_topo::builders::two_tier(TwoTierParams::paper_scaled(16));
        let mut fab = stardust_fabric::FabricEngine::new(tt.topo, fabric_config(scn.seed));
        assert_eq!(FlowEngine::num_nodes(&fab), 16);
        let fs = scn.run(&mut fab, SimTime::from_millis(50));
        assert_eq!(fs.len(), 16);
        assert_eq!(fs.completed(), 16);
        assert_eq!(fab.stats().cells_dropped.get(), 0);
        let g = goodputs_gbps(&fs);
        assert_eq!(g.len(), 16);
        assert!(g[0] > 0.0 && g[g.len() - 1] <= 10.5, "goodputs {g:?}");
        assert!(fs.fct_quantile(0.5).unwrap() > SimDuration::ZERO);
        assert_eq!(kary_hosts(4), 16);
        assert_eq!(fabric_fas(16), 16);
    }
}
