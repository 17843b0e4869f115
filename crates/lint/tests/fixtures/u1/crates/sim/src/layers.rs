//! A same-named chain through two layers. Only `tests.rs` calls the
//! outer `Engine::dir_depth`, whose body calls `Wire::dir_depth`: the
//! inner call is in the outer function's own body, so it reaches
//! nothing, and both fire.

/// The outer layer.
pub struct Engine {
    wire: Wire,
}

impl Engine {
    /// Test-only wrapper: fires.
    pub fn dir_depth(&self, dir: usize) -> usize {
        self.wire.dir_depth(dir)
    }
}

/// The inner layer.
pub struct Wire {
    depths: Vec<usize>,
}

impl Wire {
    /// Called only from the wrapper above: fires.
    pub fn dir_depth(&self, dir: usize) -> usize {
        self.depths[dir]
    }
}
