//! A fast, non-cryptographic hasher for the simulator's hot-path maps, the
//! stateless [`splitmix64`] mixer its seeded decisions hash with, and
//! [`SplitMix`], the one seeded stream over that mixer.
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
//! The mixer and the stream are another matter: per-message latencies and
//! fault gates hash with [`splitmix64`], and workload bodies, open-loop
//! arrival gaps and the random scheduler's picks are [`SplitMix`] draws, so
//! the golden fixtures are a function of their exact output.

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

/// SplitMix64's increment γ: 2⁶⁴ / φ, rounded to odd.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: the stateless mixer behind every seeded
/// per-message decision in the simulators (topology latency draws, fault
/// gates).  The one definition in the workspace — the golden fixtures are a
/// function of its exact output.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014): output n of
/// `SplitMix::new(s)` is `splitmix64(s + n·γ)`.  The one seeded stream in
/// the workspace — workload bodies, arrival gaps, the random scheduler and
/// the tests' random plans all draw from it.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream whose draws are a pure function of `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }

    /// A draw in `0..n`, by remainder.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.  For `p ≤ 0` or `p ≥ 1` it answers
    /// without drawing, so a stream asked only certain questions never
    /// moves.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }
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
    fn stream_output_n_is_the_mixer_at_seed_plus_n_gamma() {
        for seed in [0, 42, u64::MAX] {
            let mut stream = SplitMix::new(seed);
            for n in 0..8u64 {
                let at = seed.wrapping_add(n.wrapping_mul(GAMMA));
                assert_eq!(stream.next_u64(), splitmix64(at));
            }
        }
    }

    #[test]
    fn stream_continues_the_retired_shims_seed_42_outputs() {
        // The first eight draws of the former vendored `rand` shim's
        // `StdRng::seed_from_u64(42)`, which seeded the workload bodies and
        // arrival gaps: the goldens were written from this stream.
        let mut stream = SplitMix::new(42);
        let draws: Vec<u64> = (0..8).map(|_| stream.next_u64()).collect();
        assert_eq!(
            draws,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394,
                0x09bc_585a_2448_23f2,
                0xde44_31fa_3c80_db06,
                0x37e9_671c_4537_6d5d,
                0xccf6_35ee_9e9e_2fa4,
            ]
        );
        assert_ne!(SplitMix::new(43).next_u64(), draws[0]);
    }

    #[test]
    fn unit_is_the_top_53_bits_in_zero_one() {
        let (mut a, mut b) = (SplitMix::new(9), SplitMix::new(9));
        for _ in 0..1_000 {
            let u = a.unit();
            assert_eq!(u, (b.next_u64() >> 11) as f64 / (1u64 << 53) as f64);
            assert!((0.0..1.0).contains(&u), "{u}");
        }
        assert_eq!(SplitMix::new(42).unit(), 0.741_564_878_771_823_3);
    }

    #[test]
    fn chance_at_the_ends_does_not_draw() {
        let (mut a, mut b) = (SplitMix::new(5), SplitMix::new(5));
        for p in [-1.0, 0.0, 1.0, 2.0] {
            assert_eq!(a.chance(p), p >= 1.0);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "a certain answer moved the stream");
        let hits = (0..10_000).filter(|_| a.chance(0.25)).count();
        assert!((2_300..2_700).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn below_stays_below_its_bound() {
        let mut stream = SplitMix::new(7);
        for n in 1..200u64 {
            assert!(stream.below(n) < n);
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        SplitMix::new(0).below(0);
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
