//! The benchmark of the Stardust simulator: five named workloads, the
//! end-to-end metrics a user of `stardust run` sees, and a per-layer
//! trace recorded from outside the workspace. See `README.md`.

pub mod child;
pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod micro;
pub mod probe;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
