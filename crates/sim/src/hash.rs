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
