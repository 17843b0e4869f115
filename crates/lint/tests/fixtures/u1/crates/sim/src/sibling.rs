//! The sibling caller. A doc comment that spells `#[cfg(test)]` hides
//! nothing below it.

/// Calls into the crate root; mentions "named_in_comment" in a string.
pub fn run() -> u32 {
    let _label = "named_in_comment";
    crate::called_by_sibling()
}
