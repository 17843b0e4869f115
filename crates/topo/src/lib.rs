//! # stardust-topo — Clos / fat-tree topology construction
//!
//! One way to build a fabric: every `*Params` type has an inherent
//! `build_fabric(&self) -> `[`Built`], which returns the link-level
//! [`Topology`] and its [`RoutePlan`]. The shapes the paper evaluates:
//!
//! * [`TwoTierParams`] — the §6.2 simulation topology: Fabric Adapters at
//!   the edge, two tiers of Fabric Elements (aggregation with half links
//!   down / half up, spine with all links down), including the exact
//!   published 256 FA × (128+64) FE configuration and scaled-down
//!   variants.
//! * [`SingleTierParams`] — the §6.1.2 Arista-7500E-like system: 24
//!   Fabric Adapters, one tier of 12 Fabric Elements.
//! * [`KaryParams`] — the k-ary fat-tree (Al-Fares) with hosts, used by
//!   the htsim-style transport comparison of §6.3 (k = 12 → 432 hosts).
//! * [`ThreeTierParams`] — a folded Clos with a third FE tier (§5.1).
//!
//! Beyond the paper's shapes, the "topology zoo" adds structurally
//! different rivals under the same surface:
//!
//! * [`DragonflyParams`] — balanced dragonfly (groups of fully-meshed
//!   routers, palmtree global wiring).
//! * [`SpaceShuffleParams`] — Space Shuffle (arXiv:1405.4697): seeded
//!   ring coordinate spaces with greedy next-hop sets.
//! * [`ExpanderParams`] — random regular expander from superposed seeded
//!   Hamiltonian cycles.
//!
//! A build returns no lists of node ids: a node's role is its
//! [`NodeKind`] and tier level in the graph, which is where the engines
//! read it (`Devices::new`, `Partition::with_groups`). The one exception
//! is [`two_tier`], which still returns a [`builders::TwoTier`] with its
//! FA and FE lists, because the benchmark package calls
//! `two_tier(…).topo` and changes only in a benchmark-only change of its
//! own; both go in that change (ROADMAP item 6).
//!
//! The [`Topology`] type is engine-agnostic: it records nodes, levels and
//! full-duplex links with fiber lengths. Dynamic state — queues, failures,
//! reachability tables — lives in the engines (`stardust-fabric`,
//! `stardust-baseline`, `stardust-transport`), which consume a topology
//! plus a [`RoutePlan`]: per-direction candidate destination sets derived
//! from the graph (see [`route`]), not from positional tier arithmetic.
//! Every engine indexes per-direction state by [`Topology::dir`].

pub mod builders;
pub mod graph;
pub mod route;

pub use builders::{
    two_tier, DragonflyParams, ExpanderParams, KaryParams, SingleTierParams, SpaceShuffleParams,
    ThreeTierParams, TwoTierParams,
};
pub use graph::{LinkId, Node, NodeId, NodeKind, Topology};
pub use route::{Built, DstSet, RoutePlan};
