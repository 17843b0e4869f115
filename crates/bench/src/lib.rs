//! # stardust-bench — the experiment pipeline
//!
//! The library is the declarative experiment pipeline — [`spec`],
//! [`presets`], [`runner`] over the generic `FlowEngine` surface, with
//! the dependency-free [`toml`] and [`json`] codecs — plus the small
//! helpers the paper's figures share ([`fig10`], [`Args`], [`header`],
//! [`commas`]). The one binary, `stardust`, drives it: `stardust run`
//! executes spec files and `stardust fig <name>` prints one table or
//! figure of the paper (the figure code lives with the binary, in
//! `src/bin/stardust/figs/`).
//!
//! Figures accept `--scale <n>` (topology scale-down divisor where
//! applicable), `--ms <n>` (simulated milliseconds) and `--full` (run
//! the paper-size configuration) — each figure's row in the `stardust
//! fig` table lists exactly the flags it takes. Defaults are sized to
//! finish in seconds on a laptop; EXPERIMENTS.md records results from
//! both the default and the larger settings.

use std::collections::HashMap;

pub mod fig10;
pub mod json;
pub mod presets;
pub mod runner;
pub mod spec;
pub mod toml;

/// What a figure flag takes, checked by [`Args::parse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlagKind {
    /// A bare `--flag`, no value.
    Switch,
    /// `--flag <integer>`, at least the given minimum.
    Int(u64),
    /// `--flag <number>`.
    Num,
    /// `--flag <text>`.
    Text,
}

/// One accepted flag: its name (without the `--`) and what it takes.
pub type Flag = (&'static str, FlagKind);

#[derive(Debug)]
enum Value {
    Int(u64),
    Num(f64),
    Text(String),
}

/// Minimal `--key value` / `--flag` arguments (no dependency), checked
/// against the list of flags the caller accepts.
#[derive(Debug, Default)]
pub struct Args {
    kv: HashMap<&'static str, Value>,
    flags: Vec<&'static str>,
    paths: Vec<String>,
}

impl Args {
    /// Parse `argv` against `accepted`. A flag outside the list, a
    /// missing or malformed value, or a stray positional argument is an
    /// error naming what was expected — the getters below cannot fail.
    pub fn parse(argv: &[String], accepted: &[Flag]) -> Result<Self, String> {
        let args = Self::parse_with_paths(argv, accepted)?;
        match args.paths.first() {
            Some(a) => Err(format!("unexpected argument {a:?}")),
            None => Ok(args),
        }
    }

    /// As [`Args::parse`], for a command that also takes positional
    /// arguments (`stardust run`'s spec paths): every argument that is
    /// not a `--flag` or a flag's value is kept, in order, for
    /// [`Args::paths`].
    pub fn parse_with_paths(argv: &[String], accepted: &[Flag]) -> Result<Self, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(flag) = a.strip_prefix("--") else {
                args.paths.push(a.clone());
                continue;
            };
            let Some(&(name, kind)) = accepted.iter().find(|(name, _)| *name == flag) else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if kind == FlagKind::Switch {
                args.flags.push(name);
                continue;
            }
            let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            let value = match kind {
                FlagKind::Int(min) => v
                    .parse()
                    .ok()
                    .filter(|&n| n >= min)
                    .map(Value::Int)
                    .ok_or_else(|| format!("--{name} expects an integer >= {min}, got {v:?}"))?,
                FlagKind::Num => v
                    .parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite())
                    .map(Value::Num)
                    .ok_or_else(|| format!("--{name} expects a number, got {v:?}"))?,
                _ => Value::Text(v.clone()),
            };
            args.kv.insert(name, value);
        }
        Ok(args)
    }

    /// The positional arguments [`Args::parse_with_paths`] kept.
    pub fn paths(&self) -> &[String] {
        &self.paths
    }

    /// A `--key value` as u64, if present.
    pub fn get_int(&self, key: &str) -> Option<u64> {
        match self.kv.get(key) {
            Some(&Value::Int(n)) => Some(n),
            _ => None,
        }
    }

    /// A `--key value` as u64, with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get_int(key).unwrap_or(default)
    }

    /// A `--key value` as f64, with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        match self.kv.get(key) {
            Some(&Value::Num(x)) => x,
            _ => default,
        }
    }

    /// A `--key value` as a string, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.kv.get(key) {
            Some(Value::Text(s)) => Some(s),
            _ => None,
        }
    }

    /// Presence of a bare `--flag`.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }
}

/// Print a table header with a rule line.
pub fn header(title: &str, cols: &str) {
    println!("\n=== {title} ===");
    println!("{cols}");
    println!("{}", "-".repeat(cols.len().min(100)));
}

/// Format a large count with thousands separators.
pub fn commas(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commas_formatting() {
        assert_eq!(commas(1), "1");
        assert_eq!(commas(1234), "1,234");
        assert_eq!(commas(1234567), "1,234,567");
    }
}
