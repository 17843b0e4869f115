//! Point-to-point serial link modelling.
//!
//! Stardust's fabric uses *independent* serial links rather than bundles
//! (§2.2) — each link is a single serialization resource with a fixed
//! propagation delay. The engines model the serializer themselves: the
//! fabric wire works out each cell's departure when the cell is queued,
//! and the push baseline and the transport simulator keep an in-service
//! slot plus a departure event per link direction. What they share is
//! the fiber rule of thumb below and [`crate::units::serialization_time`].

use crate::time::SimDuration;

/// Propagation delay of `meters` of fiber at ~2/3 c (5 ns/m), matching the
/// paper's 100 m = 0.5 µs rule of thumb (§5.6: "every 100m of fiber
/// translates to a half microsecond").
pub fn fiber_delay(meters: u64) -> SimDuration {
    SimDuration::from_nanos(5 * meters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_rule_of_thumb() {
        assert_eq!(fiber_delay(100).as_nanos_f64(), 500.0);
        assert_eq!(fiber_delay(10).as_nanos_f64(), 50.0);
    }
}
