//! A deterministic hasher for maps keyed by the simulator's own small
//! integer ids (flow ids, burst ids, VOQ addresses).
//!
//! The standard library's default is SipHash behind a per-process random
//! seed: protection against keys crafted to collide, which ids minted by
//! the engine never are, at several times the cost of the lookup it
//! guards — and the engines look a key up per cell and per credit. One
//! fold-multiply per written integer is enough to spread such ids over
//! both ends of the word hashbrown reads (low bits pick the bucket, the
//! top seven tag it). No seed: the same key hashes alike in every process
//! and on every shard. Not for keys that come from outside the program.
//!
//! [`Fnv1a`] is the workspace's one stable fingerprint: stream labels
//! mixed into a seed, the model checker's state hashes and the golden
//! pins all fold through it.

use std::hash::{BuildHasherDefault, Hasher};

/// The `S` of a `HashMap<K, V, S>` keyed by engine-minted ids.
pub type IdHash = BuildHasherDefault<IdHasher>;

/// Fold-multiply hasher state; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, v: u64) {
        // 2^64 / golden ratio, odd: the full 128-bit product carries every
        // input bit into both halves, which the xor folds back together.
        let m = u128::from(self.0 ^ v) * 0x9E37_79B9_7F4A_7C15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v.into());
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v.into());
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

/// FNV-1a, 64-bit, over explicit bytes. Integers go in as little-endian
/// bytes, so a fingerprint does not depend on the host's byte order —
/// which is why this is not a [`Hasher`], whose integer writes are
/// native-endian. Formatting into it (`write!`) hashes the text.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.bytes(bytes);
        h.finish()
    }

    /// Fold `bytes`, in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold the eight little-endian bytes of `v`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}
