//! # stardust-baseline — the push-fabric Ethernet baseline
//!
//! The comparison fabric of §5.2/§5.4 and Appendix F: a network of
//! autonomous, output-queued Ethernet packet switches that *push* traffic
//! toward destinations and make only local decisions. Key contrasts with
//! the Stardust scheduled ("pull") fabric:
//!
//! * traffic enters the fabric unconditionally — congestion shows up as
//!   queue build-up inside the fabric and is resolved by tail drops;
//! * switches spray each packet onto a random next hop of the
//!   topology's [`RoutePlan`](stardust_topo::RoutePlan) (ECMP flow-hash
//!   collisions are modelled by `stardust-transport`, where §6.3
//!   measures them);
//! * a congested port damages innocent traffic sharing its queues — the
//!   paper's Figure 7 scenario, where one of B's thirds is dropped even
//!   though B's own egress port is idle;
//! * with strict-priority traffic classes the damage is worse (Figure 12 /
//!   Appendix F): low-class traffic sharing a congested fabric queue is
//!   starved entirely.
//!
//! The engine reuses `stardust-topo` topologies so the same scenarios run
//! on both fabrics from the benches.

pub mod engine;

pub use engine::{PushConfig, PushEngine, PushStats};
