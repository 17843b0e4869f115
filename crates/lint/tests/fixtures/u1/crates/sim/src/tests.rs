//! Test-named file: skipped by the walker, so its calls do not count.

use super::*;

#[test]
fn round_trip() {
    assert_eq!(only_tested() + allowed() + reasonless() + reexported(), 19);
}

#[test]
fn layered_depth() {
    let e = layers::Engine {
        wire: layers::Wire { depths: vec![3] },
    };
    assert_eq!(e.dir_depth(0), 3);
}
