//! Bandwidth and size units used throughout the workspace.
//!
//! The paper quotes link speeds in Gb/s (decimal: 1 Gb/s = 1e9 bit/s) and
//! buffer/cell sizes in bytes; these helpers keep the conversions in one
//! audited place.

use crate::time::{SimDuration, PS_PER_SEC};

/// Bits per second, as used for link and port rates.
pub type BitsPerSec = u64;

/// Convenience constructor: `gbps(50)` is a 50 Gb/s rate.
pub const fn gbps(g: u64) -> BitsPerSec {
    g * 1_000_000_000
}

/// Convenience constructor: `mbps(100)` is a 100 Mb/s rate.
pub const fn mbps(m: u64) -> BitsPerSec {
    m * 1_000_000
}

/// Kibibytes → bytes (credit sizes such as 4 KB are binary in the paper's
/// hardware: a 4 KB credit is 4096 B).
pub const fn kib(k: u64) -> u64 {
    k * 1024
}

/// Mebibytes → bytes.
pub const fn mib(m: u64) -> u64 {
    m * 1024 * 1024
}

/// Exact serialization time of `bytes` at `rate` bits/s, in picoseconds.
///
/// Uses 128-bit intermediate math so that multi-gigabyte transfers at
/// tens of Tb/s cannot overflow.
pub fn serialization_time(bytes: u64, rate: BitsPerSec) -> SimDuration {
    assert!(rate > 0, "zero-rate link");
    let bits = (bytes as u128) * 8;
    let ps = bits * (PS_PER_SEC as u128) / (rate as u128);
    SimDuration::from_ps(ps as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_constructors() {
        assert_eq!(gbps(50), 50_000_000_000);
        assert_eq!(mbps(150), 150_000_000);
        assert_eq!(kib(4), 4096);
        assert_eq!(mib(32), 33_554_432);
    }

    #[test]
    fn serialization_exact_cases() {
        // The motivating case: 256B cell on 50G link = 40.96ns.
        assert_eq!(serialization_time(256, gbps(50)).as_ps(), 40_960);
        // 9000B jumbo at 10G = 7.2us.
        assert_eq!(serialization_time(9_000, gbps(10)).as_micros_f64(), 7.2);
        // 64B at 100G = 5.12ns.
        assert_eq!(serialization_time(64, gbps(100)).as_ps(), 5_120);
    }

    #[test]
    fn serialization_no_overflow_at_scale() {
        // 1 TiB at 12.8 Tb/s must not overflow.
        let t = serialization_time(1 << 40, gbps(12_800));
        assert!((t.as_secs_f64() - 0.687) < 0.01);
    }

    #[test]
    #[should_panic(expected = "zero-rate")]
    fn zero_rate_panics() {
        serialization_time(1, 0);
    }
}
