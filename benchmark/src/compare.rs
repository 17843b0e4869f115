//! `compare A.json B.json`: set two result documents side by side and
//! judge B against A, per workload and end-to-end metric, by the bounds
//! the benchmark fixed.

use crate::json::Json;
use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats::Summary;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's quartile range lies wholly on the better side of A's, and the
    /// medians differ by more than either side's own spread.
    Better,
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is worse by more than the bound, but the run-to-run
    /// spread exceeds the bound and the quartile ranges overlap: the
    /// runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
pub fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    let d = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if d == 0.0 {
            0.0
        } else {
            d.signum() * f64::INFINITY
        }
    } else {
        d / a.abs()
    }
}

/// Judge `b` against `a` under `bound`.
pub fn judge(m: &Metric, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    let b_on_better_side = match m.better {
        Better::Lower => b.q3 < a.q1,
        Better::Higher => b.q1 > a.q3,
    };
    let w = worsening(m, a.median, b.median);
    if w > bound {
        if a.spread().max(b.spread()) > bound && overlap {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if b_on_better_side && -w > a.spread().max(b.spread()) {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn failed_share(w: &Json) -> f64 {
    w.num("failed").unwrap_or(0.0) / w.num("attempted").unwrap_or(1.0).max(1.0)
}

/// Print the comparison; `Ok(true)` when nothing got worse.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let same_seed = a.num("seed").is_some() && a.num("seed") == b.num("seed");
    let names: Vec<&str> = a
        .get("workloads")
        .ok_or("A has no workloads")?
        .items()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let mut ok = true;
    for name in names {
        let wa = workload(a, name).expect("name came from A");
        let Some(wb) = workload(b, name) else {
            println!("\n== {name}: missing from B");
            ok = false;
            continue;
        };
        println!("\n== {name}");
        println!(
            "   {:<16} {:>34} {:>34} {:>9} {:>7}  verdict",
            "metric", "A median [q1, q3] n", "B median [q1, q3] n", "delta", "bound"
        );
        for m in &END_TO_END {
            let read = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (read(wa), read(wb)) else {
                println!("   {:<16} missing from one side", m.name);
                ok = false;
                continue;
            };
            // A simulated-time result repeats exactly for a seed, so
            // between two runs of one seed any worsening is real.
            let bound = if m.simulated && same_seed {
                0.0
            } else {
                m.bound
            };
            let v = judge(m, bound, &sa, &sb);
            ok &= v != Verdict::Worse;
            let show = |s: &Summary| format!("{:.5} [{:.5}, {:.5}] {}", s.median, s.q1, s.q3, s.n);
            println!(
                "   {:<16} {:>34} {:>34} {:>+8.2}% {:>6.1}%  {}",
                m.name,
                show(&sa),
                show(&sb),
                worsening(m, sa.median, sb.median) * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        if fb > fa {
            println!("   failed share rose from {fa:.6} to {fb:.6}: worse");
            ok = false;
        }
        if same_seed {
            let fp = |w: &Json| {
                w.get("stats_fp")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            println!(
                "   stats_fp {}",
                if fp(wa) == fp(wb) {
                    "equal".to_string()
                } else {
                    format!(
                        "differs ({} vs {}): the simulated behaviour changed",
                        fp(wa),
                        fp(wb)
                    )
                }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static Metric> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let wall = end_to_end("wall_s").unwrap();
        let a = s(1.0, 0.99, 1.01);
        assert_eq!(judge(wall, 0.1, &a, &s(1.05, 1.04, 1.06)), Verdict::Within);
        assert_eq!(judge(wall, 0.1, &a, &s(1.2, 1.19, 1.21)), Verdict::Worse);
        assert_eq!(judge(wall, 0.1, &a, &s(0.8, 0.79, 0.81)), Verdict::Better);
        // Wholly on the better side, but by less than B's own spread.
        assert_eq!(judge(wall, 0.1, &a, &s(0.96, 0.93, 0.98)), Verdict::Within);
        // Worse by the median, but B's runs are all over the place and
        // overlap A's.
        assert_eq!(judge(wall, 0.1, &a, &s(1.2, 0.9, 1.5)), Verdict::Unresolved);
        // A higher-is-better metric flips the direction.
        let done = end_to_end("completed_frac").unwrap();
        let full = s(1.0, 1.0, 1.0);
        assert_eq!(judge(done, 0.0, &full, &s(0.9, 0.9, 0.9)), Verdict::Worse);
        assert_eq!(judge(done, 0.0, &full, &full), Verdict::Within);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        let wall = end_to_end("wall_s").unwrap();
        let done = end_to_end("completed_frac").unwrap();
        assert!((worsening(wall, 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening(done, 1.0, 0.9) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(wall, 0.0, 0.0), 0.0);
    }
}
