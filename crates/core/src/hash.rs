//! A fast, non-cryptographic hasher for the simulator's hot-path maps, and
//! the stateless [`splitmix64`] mixer its seeded decisions hash with.
//!
//! The engine's and the checkers' side tables key hash maps by small
//! integer ids — `TxId`, `(ObjectId, Key)`.  `std`'s default SipHash is
//! DoS-resistant but costs a large fraction of the step loop on such keys;
//! none of these maps hold attacker-controlled keys, so the resistance buys
//! nothing.  [`FxHasher`] is the multiply-xor scheme used by rustc's
//! `FxHashMap`: one rotate, one xor and one multiply per word.
//!
//! Determinism note: swapping the hasher never changes observable
//! behaviour here — the hot-path maps are only ever accessed by key, never
//! iterated in an order that reaches output (golden histories pin this).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit multiply-xor hasher (the rustc `FxHash` scheme).  Not
/// collision-resistant against adversarial keys; use only for internal
/// integer-keyed maps.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 2⁶⁴ / φ multiplier: odd, with well-mixed high bits.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// SplitMix64's output function: the stateless mixer behind every seeded
/// per-message decision in the simulators (topology latency draws, fault
/// gates).  The one definition in the workspace — the golden fixtures are a
/// function of its exact output.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — for internal integer-keyed maps
/// on hot paths.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_published_vector() {
        // First output of the reference generator seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1_000u64 {
            map.insert(i, "v");
        }
        assert_eq!(map.len(), 1_000);
        assert!(map.contains_key(&999));
        map.remove(&999);
        assert!(!map.contains_key(&999));
    }

    #[test]
    fn distinct_small_keys_rarely_collide() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let mut hashes: FxHashSet<u64> = FxHashSet::default();
        for i in 0..10_000u64 {
            hashes.insert(build.hash_one(i));
        }
        assert_eq!(hashes.len(), 10_000, "sequential u64 keys must not collide");
    }

    #[test]
    fn byte_stream_hashing_covers_tails() {
        let build = FxBuildHasher::default();
        use std::hash::BuildHasher;
        let mut a = build.build_hasher();
        a.write(b"hello world"); // 8-byte chunk + 3-byte tail
        let mut b = build.build_hasher();
        b.write(b"hello worle");
        assert_ne!(a.finish(), b.finish());
    }
}
