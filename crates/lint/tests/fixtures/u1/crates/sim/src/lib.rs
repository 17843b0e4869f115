//! U1 fixture tree: every definition lives here. `sibling.rs` and the
//! `benchmark/src` stand-in are the only non-test callers.

#[cfg(test)]
mod tests;

pub mod sibling;

/// Called only from `#[cfg(test)]` modules (`tests.rs`, `inline`): fires.
pub fn only_tested() -> u32 {
    1
}

/// Called from `sibling.rs`: clean.
pub(crate) fn called_by_sibling() -> u32 {
    2
}

/// Named only here — `named_in_comment()` — and in a string: fires.
pub fn named_in_comment() -> u32 {
    3
}

/// Called only from the `benchmark/src` stand-in: clean.
pub const BENCHMARK_SURFACE: u32 = 4;

/// Kept for a named test: clean.
// det-lint: allow(U1, read by the tests.rs round-trip check)
pub fn allowed() -> u32 {
    5
}

/// A reasonless allow excuses nothing: D0 on the directive, U1 below it.
// det-lint: allow(U1)
pub fn reasonless() -> u32 {
    6
}

#[cfg(test)]
mod inline {
    #[test]
    fn also_calls_only_tested() {
        assert_eq!(super::only_tested(), 1);
    }
}

/// Re-exported, called only from `tests.rs`: `reexported` fires in
/// `sibling.rs`. Renamed and called by the new name: clean.
pub use sibling::{reexported, renamed_away as renamed};

pub mod layers;
