//! A tiny self-contained TOML-subset parser.
//!
//! The workspace builds with no crates.io access (see DESIGN.md), so the
//! experiment-spec files under `specs/` are parsed by this module instead
//! of a real TOML crate. The supported subset is exactly what
//! [`ExperimentSpec`](crate::spec::ExperimentSpec) needs:
//!
//! * `key = value` pairs with bare keys (`[A-Za-z0-9_-]+`);
//! * values: basic strings (`"…"` with `\" \\ \n \t \r` escapes),
//!   integers (optional sign, `_` separators), floats (`.` or exponent),
//!   booleans, and single-line arrays of those;
//! * `[table]` and `[dotted.table]` headers;
//! * `[[array-of-tables]]` headers;
//! * `#` comments and blank lines.
//!
//! Out of scope (rejected, never silently misread): multi-line strings
//! and arrays, literal/quoted keys, inline tables, and dates.
//!
//! There is no formatter: spec files are written by hand (comments and
//! all) and only ever read.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float (any value with a `.` or exponent).
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<Value>),
    /// A nested table (`[header]`) or one element of an
    /// `[[array-of-tables]]` (which parses as `Array` of `Table`s).
    Table(Table),
}

/// A table: key → value, sorted by key.
pub type Table = BTreeMap<String, Value>;

/// A parse error with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TomlError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        msg: msg.into(),
    })
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Parse a document into its root [`Table`].
pub fn parse(text: &str) -> Result<Table, TomlError> {
    let mut root = Table::new();
    // Path of the table currently receiving `key = value` lines; empty
    // means the root table. The final path segment may address the last
    // element of an array-of-tables.
    let mut current: Vec<String> = Vec::new();
    // Explicit `[header]` paths already opened — a repeat (e.g. two
    // `[checks]` sections from a copy-paste) would otherwise silently
    // merge, which real TOML rejects.
    let mut opened: std::collections::HashSet<Vec<String>> = std::collections::HashSet::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[") {
            let Some(path) = header.strip_suffix("]]") else {
                return err(lineno, "unterminated [[array-of-tables]] header");
            };
            let path = parse_path(path, lineno)?;
            push_array_table(&mut root, &path, lineno)?;
            // A fresh array element gets a fresh sub-table namespace:
            // `[x.y]` may legitimately reappear under each `[[x]]`.
            opened.retain(|p| !(p.len() > path.len() && p[..path.len()] == path[..]));
            current = path;
        } else if let Some(header) = line.strip_prefix('[') {
            let Some(path) = header.strip_suffix(']') else {
                return err(lineno, "unterminated [table] header");
            };
            let path = parse_path(path, lineno)?;
            if !opened.insert(path.clone()) {
                return err(lineno, format!("duplicate table [{}]", path.join(".")));
            }
            if names_array(&root, &path) {
                // `[[x]]` then `[x]` would silently merge keys into the
                // last array element; real TOML rejects the redefinition.
                return err(
                    lineno,
                    format!("[{}] already defined as an array of tables", path.join(".")),
                );
            }
            // Creating the table now keeps empty sections visible.
            resolve_table(&mut root, &path, lineno)?;
            current = path;
        } else {
            let Some(eq) = line.find('=') else {
                return err(lineno, format!("expected `key = value`, got {line:?}"));
            };
            let key = line[..eq].trim();
            if key.is_empty() || !key.chars().all(is_bare_key_char) {
                return err(lineno, format!("invalid bare key {key:?}"));
            }
            let (value, rest) = parse_value(line[eq + 1..].trim(), lineno)?;
            if !rest.trim().is_empty() {
                return err(lineno, format!("trailing input after value: {rest:?}"));
            }
            let table = resolve_table(&mut root, &current, lineno)?;
            if table.insert(key.to_string(), value).is_some() {
                return err(lineno, format!("duplicate key {key:?}"));
            }
        }
    }
    Ok(root)
}

/// Strip a `#` comment, respecting `#` inside basic strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn parse_path(path: &str, lineno: usize) -> Result<Vec<String>, TomlError> {
    let segs: Vec<String> = path
        .trim()
        .split('.')
        .map(|s| s.trim().to_string())
        .collect();
    if segs
        .iter()
        .any(|s| s.is_empty() || !s.chars().all(is_bare_key_char))
    {
        return err(lineno, format!("invalid table path {path:?}"));
    }
    Ok(segs)
}

/// Whether `path`'s final segment currently holds an array (walking
/// intermediate segments through tables and last array elements, the
/// same way [`resolve_table`] does — but read-only and non-creating).
fn names_array(root: &Table, path: &[String]) -> bool {
    let Some((last, parents)) = path.split_last() else {
        return false;
    };
    let mut t = root;
    for seg in parents {
        t = match t.get(seg) {
            Some(Value::Table(sub)) => sub,
            Some(Value::Array(items)) => match items.last() {
                Some(Value::Table(sub)) => sub,
                _ => return false,
            },
            _ => return false,
        };
    }
    matches!(t.get(last), Some(Value::Array(_)))
}

/// Walk (creating as needed) to the table at `path`; the last element of
/// an array-of-tables counts as that path segment's table.
fn resolve_table<'a>(
    root: &'a mut Table,
    path: &[String],
    lineno: usize,
) -> Result<&'a mut Table, TomlError> {
    let mut t = root;
    for seg in path {
        let entry = t
            .entry(seg.clone())
            .or_insert_with(|| Value::Table(Table::new()));
        t = match entry {
            Value::Table(sub) => sub,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(sub)) => sub,
                _ => return err(lineno, format!("{seg:?} is not a table of tables")),
            },
            _ => return err(lineno, format!("{seg:?} already holds a non-table value")),
        };
    }
    Ok(t)
}

/// Append a fresh table to the array-of-tables at `path`.
fn push_array_table(root: &mut Table, path: &[String], lineno: usize) -> Result<(), TomlError> {
    let (last, parents) = path.split_last().expect("paths are non-empty");
    let parent = resolve_table(root, parents, lineno)?;
    match parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()))
    {
        Value::Array(items) => {
            if items.iter().any(|v| !matches!(v, Value::Table(_))) {
                return err(lineno, format!("{last:?} mixes tables and plain values"));
            }
            items.push(Value::Table(Table::new()));
            Ok(())
        }
        _ => err(lineno, format!("{last:?} already holds a non-array value")),
    }
}

/// Parse one value at the start of `s`; return it and the rest of `s`.
fn parse_value(s: &str, lineno: usize) -> Result<(Value, &str), TomlError> {
    let s = s.trim_start();
    let Some(first) = s.chars().next() else {
        return err(lineno, "missing value");
    };
    match first {
        '"' => parse_string(s, lineno),
        '[' => parse_array(s, lineno),
        't' | 'f' => {
            if let Some(rest) = s.strip_prefix("true") {
                Ok((Value::Bool(true), rest))
            } else if let Some(rest) = s.strip_prefix("false") {
                Ok((Value::Bool(false), rest))
            } else {
                err(lineno, format!("unrecognized value {s:?}"))
            }
        }
        c if c.is_ascii_digit() || c == '-' || c == '+' => parse_number(s, lineno),
        _ => err(lineno, format!("unrecognized value {s:?}")),
    }
}

fn parse_string(s: &str, lineno: usize) -> Result<(Value, &str), TomlError> {
    debug_assert!(s.starts_with('"'));
    let mut out = String::new();
    let mut chars = s[1..].char_indices();
    while let Some((idx, c)) = chars.next() {
        match c {
            '"' => return Ok((Value::Str(out), &s[1 + idx + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                other => {
                    return err(
                        lineno,
                        format!("unsupported string escape \\{:?}", other.map(|(_, c)| c)),
                    )
                }
            },
            _ => out.push(c),
        }
    }
    err(lineno, "unterminated string")
}

fn parse_array(s: &str, lineno: usize) -> Result<(Value, &str), TomlError> {
    debug_assert!(s.starts_with('['));
    let mut rest = s[1..].trim_start();
    let mut items = Vec::new();
    loop {
        if let Some(r) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), r));
        }
        if rest.is_empty() {
            return err(lineno, "unterminated array (arrays must be single-line)");
        }
        let (v, r) = parse_value(rest, lineno)?;
        items.push(v);
        rest = r.trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.starts_with(']') && !rest.is_empty() {
            return err(lineno, "expected `,` or `]` in array");
        }
    }
}

fn parse_number(s: &str, lineno: usize) -> Result<(Value, &str), TomlError> {
    let end = s
        .char_indices()
        .find(|&(i, c)| {
            !(c.is_ascii_digit()
                || c == '_'
                || c == '.'
                || c == 'e'
                || c == 'E'
                || ((c == '+' || c == '-')
                    && (i == 0 || matches!(s.as_bytes()[i - 1], b'e' | b'E'))))
        })
        .map_or(s.len(), |(i, _)| i);
    let (tok, rest) = s.split_at(end);
    let clean: String = tok.chars().filter(|&c| c != '_').collect();
    if clean.contains('.') || clean.contains('e') || clean.contains('E') {
        match clean.parse::<f64>() {
            Ok(f) => Ok((Value::Float(f), rest)),
            Err(_) => err(lineno, format!("invalid float {tok:?}")),
        }
    } else {
        match clean.parse::<i64>() {
            Ok(n) => Ok((Value::Int(n), rest)),
            Err(_) => err(lineno, format!("invalid integer {tok:?}")),
        }
    }
}

/// Typed accessors used by the spec layer, with path-aware messages.
impl Value {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an i64, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an f64 (integers widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a table, if it is one.
    pub fn as_table(&self) -> Option<&Table> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = parse(
            r#"
# a comment
name = "ci_smoke"   # trailing comment
count = 42
ratio = 1.5
on = true
seeds = [1, 2, 3]
labels = ["a", "b # not a comment"]

[scenario]
kind = "mix"
gap_us = 800

[scenario.nested]
deep = -7

[[failure]]
at_us = 500
action = "fail"

[[failure]]
at_us = 1500
action = "restore"
"#,
        )
        .expect("parse");
        assert_eq!(doc["name"], Value::Str("ci_smoke".into()));
        assert_eq!(doc["count"], Value::Int(42));
        assert_eq!(doc["ratio"], Value::Float(1.5));
        assert_eq!(doc["on"], Value::Bool(true));
        assert_eq!(
            doc["seeds"],
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            doc["labels"],
            Value::Array(vec![
                Value::Str("a".into()),
                Value::Str("b # not a comment".into())
            ])
        );
        let scn = doc["scenario"].as_table().unwrap();
        assert_eq!(scn["kind"], Value::Str("mix".into()));
        assert_eq!(scn["nested"].as_table().unwrap()["deep"], Value::Int(-7));
        let Value::Array(failures) = &doc["failure"] else {
            panic!("[[failure]] parses as an array");
        };
        assert_eq!(failures.len(), 2);
        assert_eq!(
            failures[1].as_table().unwrap()["action"],
            Value::Str("restore".into())
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let text = "s = \"quote \\\" slash \\\\ nl \\n tab \\t\"\n";
        let doc = parse(text).unwrap();
        assert_eq!(
            doc["s"],
            Value::Str("quote \" slash \\ nl \n tab \t".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for (bad, needle) in [
            ("key", "expected `key = value`"),
            ("k = ", "missing value"),
            ("k = \"open", "unterminated string"),
            ("k = [1, 2", "unterminated array"),
            ("[t", "unterminated [table]"),
            ("k = 1\nk = 2", "duplicate key"),
            ("bad key = 1", "invalid bare key"),
            ("k = 12x", "trailing input"),
            ("k = nope", "unrecognized value"),
        ] {
            let e = parse(bad).expect_err(bad);
            assert!(
                e.msg.contains(needle),
                "{bad:?}: expected {needle:?} in {:?}",
                e.msg
            );
        }
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse("a = 1\nb = 2\noops\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn array_of_tables_key_cannot_be_scalar() {
        assert!(parse("x = 1\n[[x]]\n").is_err());
        assert!(parse("[[x]]\n[x.y]\nk = 1\n").is_ok());
    }

    #[test]
    fn duplicate_table_headers_are_rejected() {
        let e = parse("[checks]\na = 1\n[checks]\nb = 2\n").unwrap_err();
        assert!(e.msg.contains("duplicate table"), "{:?}", e.msg);
        // A single-bracket reopen of an array of tables must not merge
        // into the last element.
        let e =
            parse("[[failure]]\naction = \"fail\"\n[failure]\naction = \"restore\"\n").unwrap_err();
        assert!(e.msg.contains("array of tables"), "{:?}", e.msg);
        // …but the same sub-table name under successive array elements
        // is a fresh namespace each time (real-TOML semantics).
        let doc = parse("[[runs]]\n[runs.cfg]\na = 1\n[[runs]]\n[runs.cfg]\na = 2\n").unwrap();
        assert!(matches!(&doc["runs"], Value::Array(runs) if runs.len() == 2));
    }
}
