//! `stardust fig <name> [flags]` — the paper's tables and figures.
//!
//! One table, [`FIGURES`], holds every figure: its name, what it
//! reproduces, the flags it accepts and the function that prints it.
//! `stardust fig` alone lists the table. Arguments are checked against
//! the row before the figure runs, so a mistyped flag or value is a
//! usage error (exit 2) and never a multi-minute default run or a panic.

use stardust_bench::spec::ExperimentSpec;
use stardust_bench::FlagKind::{Int, Num, Switch, Text};
use stardust_bench::{Args, Flag};
use std::process::ExitCode;

mod ablation_credit_spray;
mod ablation_packing;
mod appendix_e_resilience;
mod fabric_scale;
mod fig10a_permutation;
mod fig10b_fct;
mod fig10c_incast;
mod fig10d_area;
mod fig11_cost_power;
mod fig2_scalability;
mod fig3_parallelism;
mod fig7_push_vs_pull;
mod fig8_packing;
mod fig9_queueing;
mod sec61_system;

struct Figure {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> ExitCode,
}

const FIGURES: &[Figure] = &[
    Figure {
        name: "fig2_scalability",
        about: "Fig 2 + Table 2: hosts, devices and links vs tiers under link bundling (model)",
        flags: &[],
        run: fig2_scalability::run,
    },
    Figure {
        name: "fig3_parallelism",
        about: "Fig 3: required parallelism, standard switch vs Fabric Element (model)",
        flags: &[],
        run: fig3_parallelism::run,
    },
    Figure {
        name: "fig7_push_vs_pull",
        about: "Fig 7 / Fig 12: push fabric vs Stardust pull fabric",
        flags: &[("traffic-classes", Switch), ("ms", Int(1))],
        run: fig7_push_vs_pull::run,
    },
    Figure {
        name: "fig8_packing",
        about: "Fig 8: packet packing throughput on the NetFPGA-style platform (model)",
        flags: &[],
        run: fig8_packing::run,
    },
    Figure {
        name: "fig9_queueing",
        about: "Fig 9: fabric latency and last-stage queue distributions vs M/D/1",
        flags: &[("full", Switch), ("scale", Int(1)), ("ms", Int(1))],
        run: fig9_queueing::run,
    },
    Figure {
        name: "fig10a_permutation",
        about: "Fig 10(a): per-flow goodput under a permutation, transports vs fabric",
        flags: &[
            ("smoke", Switch),
            ("full", Switch),
            ("k", Int(2)),
            ("ms", Int(1)),
            ("seed", Int(0)),
            ("bytes", Int(1)),
        ],
        run: fig10a_permutation::run,
    },
    Figure {
        name: "fig10b_fct",
        about: "Fig 10(b): FCT percentiles of a heavy-tailed Web/Hadoop mix",
        flags: &[
            ("smoke", Switch),
            ("full", Switch),
            ("k", Int(2)),
            ("ms", Int(1)),
            ("seed", Int(0)),
            ("flows", Int(1)),
            ("gap-us", Int(1)),
            ("workload", Text),
        ],
        run: fig10b_fct::run,
    },
    Figure {
        name: "fig10c_incast",
        about: "Fig 10(c): incast first/last completion time vs backend count",
        flags: &[
            ("smoke", Switch),
            ("full", Switch),
            ("k", Int(2)),
            ("ms", Int(1)),
            ("seed", Int(0)),
        ],
        run: fig10c_incast::run,
    },
    Figure {
        name: "fig10d_area",
        about: "Fig 10(d) + Appendix C: relative silicon area, power and table sizes (model)",
        flags: &[],
        run: fig10d_area::run,
    },
    Figure {
        name: "fig11_cost_power",
        about: "Fig 11: DCN cost and power relative to fat-trees (model)",
        flags: &[],
        run: fig11_cost_power::run,
    },
    Figure {
        name: "sec61_system",
        about: "§6.1.2: single-tier system throughput and latency vs packet size",
        flags: &[("full", Switch), ("ms", Int(1))],
        run: sec61_system::run,
    },
    Figure {
        name: "ablation_packing",
        about: "§3.4 ablation: packet packing on vs off inside the fabric",
        flags: &[("ms", Int(1)), ("util", Num)],
        run: ablation_packing::run,
    },
    Figure {
        name: "ablation_credit_spray",
        about: "§4.1 / §5.3 ablations: credit size, spray refresh period, credit speedup",
        flags: &[("ms", Int(1)), ("util", Num)],
        run: ablation_credit_spray::run,
    },
    Figure {
        name: "appendix_e_resilience",
        about: "Appendix E / Table 4: recovery model, live self-healing, failure churn",
        flags: &[
            ("scale", Int(1)),
            ("interval-us", Int(1)),
            ("threshold", Int(1)),
            ("churn-ms", Int(1)),
            ("seed", Int(0)),
            ("shards", Int(1)),
        ],
        run: appendix_e_resilience::run,
    },
    Figure {
        name: "fabric_scale",
        about: "engine events/sec from 64 to 1024 FAs; --shards N adds sequential vs sharded",
        flags: &[
            ("full", Switch),
            ("us", Int(1)),
            ("seed", Int(0)),
            ("shards", Int(1)),
        ],
        run: fabric_scale::run,
    },
];

/// What the spec-driven figures call once their flags are laid over a
/// preset: a value the spec rules reject (odd `--k`, more `--shards`
/// than Fabric Adapters, a `--scale` that does not divide the paper
/// populations) is a usage error — the spec error on stderr, exit 2,
/// before anything prints or a builder asserts.
fn usage_error(spec: &ExperimentSpec) -> Option<ExitCode> {
    let e = spec.validate().err()?;
    eprintln!("stardust fig: {e}");
    Some(ExitCode::from(2))
}

/// A row's flags as a usage string: `[--full] [--ms N] …`.
fn flag_usage(flags: &[Flag]) -> String {
    let parts: Vec<String> = flags
        .iter()
        .map(|&(name, kind)| match kind {
            Switch => format!("[--{name}]"),
            Int(_) => format!("[--{name} N]"),
            Num => format!("[--{name} X]"),
            Text => format!("[--{name} S]"),
        })
        .collect();
    parts.join(" ")
}

/// `stardust fig [<name> [flags]]`.
pub fn main(argv: &[String]) -> ExitCode {
    let Some(name) = argv.first() else {
        println!("usage: stardust fig <name> [flags]\n");
        for f in FIGURES {
            println!("{:<22} {}", f.name, f.about);
            if !f.flags.is_empty() {
                println!("{:<22}   {}", "", flag_usage(f.flags));
            }
        }
        return ExitCode::SUCCESS;
    };
    let Some(fig) = FIGURES.iter().find(|f| f.name == name) else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        eprintln!(
            "stardust fig: unknown figure {name:?}; available: {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    match Args::parse(&argv[1..], fig.flags) {
        Ok(args) => (fig.run)(&args),
        Err(e) => bad_args(fig, &e),
    }
}

/// The usage error of figure `fig`: what was wrong, the flags the figure
/// accepts, exit 2.
fn bad_args(fig: &Figure, what: &str) -> ExitCode {
    let usage = format!("stardust fig {} {}", fig.name, flag_usage(fig.flags));
    eprintln!(
        "stardust fig {}: {what}\nusage: {}",
        fig.name,
        usage.trim_end()
    );
    ExitCode::from(2)
}

/// [`bad_args`] for the figure called `name`.
fn bad_flag(name: &str, what: &str) -> ExitCode {
    let fig = FIGURES.iter().find(|f| f.name == name).expect("a figure");
    bad_args(fig, what)
}

/// A `--scale` the two-tier builder would reject is a usage error of the
/// figure `name`, by the rule the spec layer applies to `two_tier_factor`.
fn bad_scale(name: &str, scale: u32) -> Option<ExitCode> {
    let e = stardust_topo::TwoTierParams::check_paper_scale(scale).err()?;
    Some(bad_flag(name, &format!("--scale {e}")))
}
