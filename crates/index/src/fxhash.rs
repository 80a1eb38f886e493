//! A hand-rolled Fx-style hasher.
//!
//! The workspace restricts itself to the approved offline dependency set, so
//! instead of pulling `rustc-hash` we implement the same multiply-rotate
//! construction here (~30 lines). It is a low-quality but very fast hash —
//! ideal for the integer-keyed maps this workspace uses, per the guidance in
//! the Rust Performance Book's Hashing chapter. Not HashDoS-resistant; never
//! expose it to untrusted keys.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;
/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash word-at-a-time multiply-rotate hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The state with its high half folded into the low one. A product's
    /// low bits depend only on its operands' low bits, and `HashMap` picks
    /// buckets by the low bits, so the raw state would ignore the high
    /// half of a key's last word.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_works() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn deterministic() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_tail_handled() {
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 4]);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn low_bits_see_the_high_half() {
        // keys differing only in the high half of their last word must
        // not share their low (bucket) bits
        let low = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish() & 0xffff
        };
        let lows: std::collections::HashSet<u64> = (0..64u64).map(|k| low(k << 40)).collect();
        assert!(lows.len() > 32, "{} distinct low halves", lows.len());
    }

    #[test]
    fn set_works() {
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        s.insert((1, 2));
        assert!(s.contains(&(1, 2)));
        assert!(!s.contains(&(2, 1)));
    }
}
