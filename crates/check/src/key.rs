//! Memo and path keys for canonical states, hashed as they are encoded
//! into one arena.
//!
//! Each visit looks its canonical state up on the current path and in the
//! memo, then stores it in both. [`KeyMap::encode`] records the state's
//! bytes at the tail of the map's arena and mixes each recorded value
//! into the key's hash as it goes, so a state is walked once. A
//! [`StateKey`] is that hash and the place of the bytes: the path holds
//! keys, lookups compare stored hashes before bytes, equality is a slice
//! compare, and a key costs no heap block of its own. A key that is not
//! kept (a memo hit, or a state already stored) is released from the
//! arena's tail. Dropping a memo frees its arena chunks, its entry and
//! index vectors and its few non-empty sleep sets, not one block per key.
//!
//! The encoding is the value stream the state's `Hash` impl writes,
//! recorded instead of mixed ([`Recorder`]). It is injective: `Hash` must
//! write distinct, prefix-free value sequences for unequal values, and the
//! recorder writes each value in a prefix-free form (an integer as a LEB128
//! varint, a byte slice as its varint length and then its bytes), so
//! unequal states record unequal byte strings. Equal keys therefore mean
//! equal canonical states, and the explorer's statistics do not depend on
//! the encoding. Varints keep the small values that dominate a state
//! (station indices, lengths, enum tags) to one byte each. The hash is
//! mixed from the value stream, which equal states share, so equal bytes
//! always carry equal hashes; nothing iterates the map, so no statistic
//! depends on the hash function.

use std::hash::{Hash, Hasher};

use macaw_sim::FastHasher;

/// A canonical state encoded in a [`KeyMap`]'s arena: the hash of its
/// value stream and the place of its bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StateKey {
    hash: u64,
    chunk: u32,
    start: u32,
    len: u32,
}

/// The first arena chunk's capacity; each later chunk doubles it, up to
/// [`MAX_CHUNK`].
const FIRST_CHUNK: usize = 4 << 10;
/// The largest arena chunk: the arena over-allocates at most about this
/// much, and no key bytes are ever copied to grow it.
const MAX_CHUNK: usize = 64 << 10;

/// Canonical states mapped to `V`, with every key's bytes in one arena
/// and an open-addressing index over the entries.
pub(crate) struct KeyMap<V> {
    /// Every stored key's bytes, then those of keys encoded but not yet
    /// stored or released (the visits on the path, the newest last). A
    /// key lies within one chunk, and chunks never grow once a later one
    /// exists.
    arena: Vec<Vec<u8>>,
    /// The longest key encoded so far: a chunk with less room left is
    /// not written to again.
    longest: usize,
    entries: Vec<(StateKey, V)>,
    /// Linear probing by the hash's top bits: 0 is an empty slot, `i + 1`
    /// names entry `i`. The length is a power of two, at most half used.
    slots: Vec<u32>,
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap {
            arena: vec![Vec::with_capacity(FIRST_CHUNK)],
            longest: 0,
            entries: Vec::new(),
            slots: vec![0; 16],
        }
    }
}

impl<V> KeyMap<V> {
    /// Encode `state` at the arena's tail, hashing it in the same walk.
    /// The bytes stay until [`KeyMap::release`], or for good once the key
    /// is stored.
    pub(crate) fn encode<T: Hash>(&mut self, state: &T) -> StateKey {
        let last = self.arena.last().expect("the arena has a chunk");
        if last.capacity() - last.len() < self.longest {
            let cap = (2 * last.capacity()).clamp(FIRST_CHUNK, MAX_CHUNK);
            let cap = cap.max(2 * self.longest);
            self.arena.push(Vec::with_capacity(cap));
        }
        let chunk = self.arena.len() - 1;
        let out = &mut self.arena[chunk];
        let start = out.len();
        let mut rec = Recorder {
            out,
            hash: FastHasher::default(),
        };
        state.hash(&mut rec);
        let hash = rec.hash.finish();
        let len = out.len() - start;
        self.longest = self.longest.max(len);
        let narrow = |v: usize| u32::try_from(v).expect("arena offsets fit in u32");
        StateKey {
            hash,
            chunk: narrow(chunk),
            start: narrow(start),
            len: narrow(len),
        }
    }

    /// Drop the bytes of `key`, the newest key encoded and not stored.
    pub(crate) fn release(&mut self, key: StateKey) {
        let chunk = &mut self.arena[key.chunk as usize];
        debug_assert_eq!(
            (key.start + key.len) as usize,
            chunk.len(),
            "release the newest key"
        );
        chunk.truncate(key.start as usize);
    }

    fn bytes(&self, key: StateKey) -> &[u8] {
        let start = key.start as usize;
        &self.arena[key.chunk as usize][start..start + key.len as usize]
    }

    /// `true` iff the two keys encode equal states.
    pub(crate) fn same(&self, a: StateKey, b: StateKey) -> bool {
        a.hash == b.hash && self.bytes(a) == self.bytes(b)
    }

    /// The first slot probed for `hash` in an index of `slots` slots: the
    /// hash's top bits, where Fx-style mixing leaves its best ones.
    fn home(hash: u64, slots: usize) -> usize {
        (hash >> (64 - slots.trailing_zeros())) as usize
    }

    /// The slot of the entry equal to `key`, or of the empty slot where it
    /// would go.
    fn probe(&self, key: StateKey) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = Self::home(key.hash, self.slots.len());
        loop {
            match self.slots[i] {
                0 => return i,
                e if self.same(self.entries[e as usize - 1].0, key) => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The stored key equal to `key`, with its value.
    pub(crate) fn get(&self, key: StateKey) -> Option<(StateKey, &V)> {
        match self.slots[self.probe(key)] {
            0 => None,
            e => {
                let (k, v) = &self.entries[e as usize - 1];
                Some((*k, v))
            }
        }
    }

    /// Store `value` under `key`, replacing the value of an equal stored
    /// key. A new key's bytes must still be in the arena.
    pub(crate) fn insert(&mut self, key: StateKey, value: V) {
        let slot = self.probe(key);
        match self.slots[slot] {
            0 => {
                self.entries.push((key, value));
                self.slots[slot] =
                    u32::try_from(self.entries.len()).expect("at most u32::MAX - 1 keys");
                if self.entries.len() * 2 > self.slots.len() {
                    self.grow();
                }
            }
            e => self.entries[e as usize - 1].1 = value,
        }
    }

    /// Double the index and re-place every entry by its stored hash.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for (e, (key, _)) in self.entries.iter().enumerate() {
            let mut i = Self::home(key.hash, self.slots.len());
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = e as u32 + 1;
        }
    }
}

/// Records every value a `Hash` impl writes, each in a prefix-free form,
/// and mixes the value into `hash` as it is written: one word per value
/// (most values are one-byte varints; packing the bytes into words as
/// they are written measured slower). Integer widths without an override
/// arrive through `write` as their length-prefixed bytes, which is
/// prefix-free too.
struct Recorder<'a> {
    out: &'a mut Vec<u8>,
    hash: FastHasher,
}

impl Recorder<'_> {
    /// LEB128: seven bits per byte, high bit set on all but the last.
    fn varint(&mut self, mut v: u64) {
        self.hash.write_u64(v);
        while v >= 0x80 {
            self.out.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }
}

impl Hasher for Recorder<'_> {
    fn finish(&self) -> u64 {
        unreachable!("the recorder encodes a state; KeyMap::encode takes its hash");
    }

    fn write(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.hash.write(bytes);
        self.out.extend_from_slice(bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.hash.write_u8(v);
        self.out.push(v);
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
    use crate::proof_wmac;
    use crate::topology::Topology;
    use crate::world::tests::visits;
    use crate::world::{CanonState, FaultClass};
    use macaw_mac::{MacConfig, WMacSnapshot};

    /// The symmetry-minimal canonical state of every visit of an
    /// exhaustive search over the reduced choice set, revisits included:
    /// a world reached along two paths, or a relabeling of one already
    /// seen, contributes an equal state.
    fn reachable(topo: Topology, fault: FaultClass) -> Vec<CanonState<WMacSnapshot>> {
        visits(topo, fault, proof_wmac(MacConfig::macaw()))
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
        let mut by_key: KeyMap<usize> = KeyMap::default();
        let mut by_state = std::collections::HashMap::new();
        for (i, c) in states.iter().enumerate() {
            let k = by_key.encode(c);
            let same_key = match by_key.get(k) {
                Some((_, &j)) => {
                    by_key.release(k);
                    j
                }
                None => {
                    by_key.insert(k, i);
                    i
                }
            };
            let same_state = *by_state.entry(c).or_insert(i);
            assert!(states[same_key] == *c, "two states share a key");
            assert_eq!(same_key, same_state, "equal states, different keys");
        }
        assert!(by_key.entries.len() < states.len(), "some states repeat");
        assert_eq!(by_key.entries.len(), by_state.len());
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
