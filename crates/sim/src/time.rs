//! Picosecond-resolution simulated time.
//!
//! All simulated clocks in Stardust are integer picoseconds. This resolution
//! is dictated by the paper's link technology: the fabric uses independent
//! 50 Gb/s serial links (link bundle of one, §2.2), on which one 256 B cell
//! serializes in exactly 40.96 ns — not representable in integer nanoseconds
//! without accumulating drift across the billions of cells a run transmits.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in picoseconds since t=0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant (used as an "infinite" timeout).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }
    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Time expressed in (fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// Time expressed in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Time expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Duration elapsed since `earlier`; panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }
    /// Duration elapsed since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
    /// Saturating addition of a duration (useful near [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }
    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Duration in (fractional) nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// Duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }
    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
    /// Multiply by an integer factor, saturating at the maximum.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}
impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

/// Render a picosecond count with a human-friendly unit.
fn format_ps(ps: u64) -> String {
    if ps >= PS_PER_SEC {
        format!("{:.3}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_nanos(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_micros(5).as_ps(), 5_000_000);
        assert_eq!(SimTime::from_millis(5).as_ps(), 5_000_000_000);
        assert_eq!(SimDuration::from_nanos(3).as_nanos_f64(), 3.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_ps(), 140_000);
        assert_eq!((t - d).as_ps(), 60_000);
        assert_eq!(((t + d) - t).as_ps(), d.as_ps());
        assert_eq!((d * 3).as_nanos_f64(), 120.0);
        assert_eq!((d / 4).as_nanos_f64(), 10.0);
    }

    #[test]
    fn since_and_saturating() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(25);
        assert_eq!(b.since(a).as_ps(), 15_000);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_millis(1_000)),
            SimTime::MAX
        );
    }

    #[test]
    fn cell_serialization_needs_picoseconds() {
        // 256B at 50Gbps = 40.96ns: the motivating example for ps resolution.
        let bits = 256u64 * 8;
        let ps = bits * PS_PER_SEC / 50_000_000_000;
        assert_eq!(ps, 40_960);
        assert_eq!(SimDuration::from_ps(ps).as_nanos_f64(), 40.96);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_ps(999)), "999ps");
        assert_eq!(format!("{}", SimDuration::from_nanos(41)), "41.000ns");
        assert_eq!(format!("{}", SimDuration::from_micros(13)), "13.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_millis(2_000)), "2.000s");
    }
}
