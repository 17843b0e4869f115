//! # stardust-fabric — the paper's core contribution
//!
//! A faithful, event-driven implementation of the Stardust architecture
//! (§3–§5 of the paper):
//!
//! * [`cell`] — cells, bursts and packets: the fixed-size data units the
//!   Fabric Adapter chops credit-worth bursts into ([`cell::Cell`]).
//! * [`packing`] — packet packing (§3.4): a credit-worth of packets is
//!   treated as one unit and chopped into cells, so only burst tails are
//!   short.
//! * [`voq`] — virtual output queues (§3.3): per (destination Fabric
//!   Adapter, port, traffic class) ingress queues with credit-balance
//!   accounting.
//! * [`spray`] — dynamic cell forwarding (§3.2, §5.3): round-robin
//!   spraying over a periodically re-randomized permutation of the links
//!   that reach the destination.
//! * [`sched`] — the egress credit scheduler (§4.1): per-port credit
//!   pacing slightly above port rate, strict priority across traffic
//!   classes, round-robin within, FCI throttling, egress-buffer
//!   backpressure.
//! * [`reach`] — the self-healing reachability protocol (§4.2, §5.9):
//!   periodic hardware reachability messages, failure detection by missed
//!   updates, automatic table repair.
//! * [`engine`] — the discrete-event network engine tying Fabric Adapters
//!   and Fabric Elements together over a `stardust-topo` topology, with
//!   the measurement hooks behind Figure 9 and §6. It is a dispatch shell
//!   over four private layers, each owning its state and its event
//!   kinds: `wire` (link directions and the cells on them), `device` (the
//!   reach-table-plus-spray half shared by every FA and FE), `ingress`
//!   and `egress` (the source and destination halves of an FA).
//!
//! The crate deliberately contains no Ethernet/push-fabric code — that
//! baseline lives in `stardust-baseline` so the two architectures can be
//! compared like-for-like from the benches.

pub mod cell;
pub mod config;
mod device;
mod egress;
pub mod engine;
mod ev;
mod ingress;
pub mod packing;
pub mod partition;
mod probe;
pub mod reach;
pub mod sched;
pub mod shard;
#[cfg(test)]
mod shard_tests;
pub mod spray;
mod stats;
pub mod voq;
mod wire;
#[cfg(test)]
mod zoo_tests;

pub use cell::{Burst, BurstId, Cell, Packet, PacketId};
pub use config::FabricConfig;
pub use engine::{EligibilitySnapshot, FabricEngine, FabricStats};
pub use partition::Partition;
pub use probe::EventCounts;
pub use shard::{ExecMode, ShardedFabricEngine};
pub use voq::VoqKey;
