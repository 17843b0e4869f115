//! Test-named file: skipped by the walker, so its calls do not count.

use super::*;

#[test]
fn round_trip() {
    assert_eq!(only_tested() + allowed() + reasonless() + reexported(), 19);
}
