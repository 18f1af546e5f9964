//! A fast, deterministic hasher for small integer keys.
//!
//! The simulator's hot maps — the medium's id→slot map, the core's stream
//! index — are keyed by small integers (transmission ids, stream ids)
//! produced internally, so SipHash's DoS resistance buys nothing and its
//! per-lookup cost shows up directly in event throughput. This is the
//! Fx/rustc-style multiply-xor hash: one rotate, one xor, one multiply per
//! word.
//!
//! The hash is fully deterministic (no per-process random state), which
//! also removes a source of run-to-run variation in any code that might
//! ever iterate one of these maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style hasher: `state = (state.rotate_left(5) ^ word) * SEED` per word.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `HashMap` with the deterministic fast hasher.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, "v");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn hash_is_deterministic_across_instances() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b: BuildHasherDefault<FastHasher> = Default::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(b.hash_one(42u64), b.hash_one(43u64));
    }
}
