//! The sibling caller. A doc comment that spells `#[cfg(test)]` hides
//! nothing below it.

/// Calls into the crate root; mentions "named_in_comment" in a string.
pub fn run() -> u32 {
    let _label = "named_in_comment";
    crate::called_by_sibling()
}

/// Re-exported by the crate root; only a test calls it.
pub fn reexported() -> u32 {
    7
}

/// Re-exported under another name, which the benchmark calls.
pub fn renamed_away() -> u32 {
    8
}
