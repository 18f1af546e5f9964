//! Hash-once, flat memo and path keys for canonical states.
//!
//! Each visit looks its canonical state up on the current path and in the
//! memo, then stores it in both. A [`StateKey`] encodes the state once into
//! one contiguous byte buffer and carries the hash of those bytes, so
//! lookups and memo-table growth read one stored `u64` instead of
//! re-walking a tree of vectors, equality is a slice compare, and a memo
//! entry is one allocation, freed in one piece.
//!
//! The encoding is the value stream the state's `Hash` impl writes,
//! recorded instead of mixed ([`Recorder`]). It is injective: `Hash` must
//! write distinct, prefix-free value sequences for unequal values, and the
//! recorder writes each value in a prefix-free form (an integer as a LEB128
//! varint, a byte slice as its varint length and then its bytes), so
//! unequal states record unequal byte strings. Equal keys therefore mean
//! equal canonical states, and the explorer's statistics do not depend on
//! the encoding. Varints keep the small values that dominate a state
//! (station indices, lengths, enum tags) to one byte each.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use macaw_sim::FastHasher;

/// A canonical state, flattened to bytes, with the hash of those bytes.
pub(crate) struct StateKey {
    hash: u64,
    bytes: Box<[u8]>,
}

impl StateKey {
    /// Encode `state` (through `scratch`, reused across calls so encoding
    /// allocates only the key's own buffer) and hash it once.
    pub(crate) fn new<T: Hash>(state: &T, scratch: &mut Vec<u8>) -> StateKey {
        scratch.clear();
        state.hash(&mut Recorder(scratch));
        let mut h = FastHasher::default();
        h.write(scratch);
        StateKey {
            // Fx-style mixing leaves its best bits at the top; the table
            // indexes buckets by the low bits.
            hash: h.finish().rotate_left(26),
            bytes: scratch.as_slice().into(),
        }
    }
}

impl PartialEq for StateKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for StateKey {}

impl Hash for StateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hasher for [`KeyMap`]: a [`StateKey`] writes its stored hash, which
/// passes through unchanged.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("state keys hash as their stored u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A map keyed by [`StateKey`] that never re-hashes a state.
pub(crate) type KeyMap<V> = HashMap<StateKey, V, BuildHasherDefault<KeyHasher>>;

/// Records every value a `Hash` impl writes, each in a prefix-free form.
/// Integer widths without an override arrive through `write` as their
/// length-prefixed bytes, which is prefix-free too.
struct Recorder<'a>(&'a mut Vec<u8>);

impl Recorder<'_> {
    /// LEB128: seven bits per byte, high bit set on all but the last.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }
}

impl Hasher for Recorder<'_> {
    fn finish(&self) -> u64 {
        unreachable!("the recorder encodes a state; StateKey hashes the bytes");
    }

    fn write(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.0.extend_from_slice(bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn write_u32(&mut self, v: u32) {
        self.varint(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.varint(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.varint(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::world::tests::{small, visits};
    use crate::world::{CanonState, FaultClass};
    use macaw_mac::{MacConfig, WMacSnapshot};

    /// The symmetry-minimal canonical state of every visit of an
    /// exhaustive search over the reduced choice set, revisits included:
    /// a world reached along two paths, or a relabeling of one already
    /// seen, contributes an equal state.
    fn reachable(topo: Topology, fault: FaultClass) -> Vec<CanonState<WMacSnapshot>> {
        visits(topo, fault, small(MacConfig::macaw()))
            .iter()
            .map(|w| w.canon_min().0)
            .collect()
    }

    /// `key(a) == key(b)` exactly when the canonical states are equal:
    /// over every state of a run, the key → state and state → key maps
    /// are both functions.
    fn assert_keys_match_states(topo: Topology, fault: FaultClass) {
        let states = reachable(topo, fault);
        assert!(states.len() > 100, "a non-trivial space: {}", states.len());
        let mut scratch = Vec::new();
        let mut by_key: KeyMap<usize> = KeyMap::default();
        let mut by_state = std::collections::HashMap::new();
        for (i, c) in states.iter().enumerate() {
            let k = StateKey::new(c, &mut scratch);
            let same_key = *by_key.entry(k).or_insert(i);
            let same_state = *by_state.entry(c).or_insert(i);
            assert!(states[same_key] == *c, "two states share a key");
            assert_eq!(same_key, same_state, "equal states, different keys");
        }
        assert!(by_key.len() < states.len(), "some states repeat");
        assert_eq!(by_key.len(), by_state.len());
    }

    #[test]
    fn keys_are_exact_on_a_symmetric_family() {
        assert_keys_match_states(
            Topology::mirrored_chain_burst(),
            FaultClass::Loss { budget: 1 },
        );
    }

    #[test]
    fn keys_are_exact_on_a_family_without_symmetry() {
        assert_keys_match_states(
            Topology::exposed_terminal(),
            FaultClass::Noise { budget: 1 },
        );
    }
}
