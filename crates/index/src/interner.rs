//! Slice interning for allocation-free hot-path keys.
//!
//! The enumeration and testing hot paths of the engine key several maps by
//! *short variable-length sequences* — the forbidden set `V` of a `skip`
//! probe, the cluster tuple `b̄` of a `forward` probe. Hashing an owned
//! `Vec` per probe puts a heap allocation inside the constant-delay loop
//! that Theorem 2.7 is about. A [`SliceInterner`] removes it:
//!
//! * every *distinct* slice is copied once into a flat arena and assigned a
//!   dense `u32` id;
//! * repeat probes resolve the id by a borrowed-slice hash lookup
//!   (`Box<[T]>: Borrow<[T]>`) — **zero allocations**;
//! * downstream maps key on the packed `u32` id (usually combined with
//!   another `u32` into one `u64`), so their probes are integer-keyed.
//!
//! Ids are assigned in first-intern order, so any structure built from them
//! is deterministic in the probe sequence — never in hash iteration order.

use crate::fxhash::FxHashMap;
use std::hash::Hash;

/// An arena interning short slices of `T` to dense `u32` ids.
///
/// `intern` allocates only on the first occurrence of a distinct slice;
/// `lookup` and `get` never allocate.
#[derive(Debug, Clone, Default)]
pub struct SliceInterner<T> {
    /// Distinct slice → id. Owned keys double as the id-order arena index
    /// via `spans`.
    ids: FxHashMap<Box<[T]>, u32>,
    /// All interned slices concatenated, in id order.
    flat: Vec<T>,
    /// `spans[id] .. spans[id + 1]` indexes `flat` (length `len() + 1`).
    spans: Vec<u32>,
}

impl<T: Copy + Eq + Hash> SliceInterner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        SliceInterner {
            ids: FxHashMap::default(),
            flat: Vec::new(),
            spans: vec![0],
        }
    }

    /// An empty interner with room for `slices` distinct entries of mean
    /// length `mean_len` before any rehash or arena regrowth. Hot loops
    /// that would otherwise pay their first doubling mid-probe (the lazy
    /// skip memo) pre-size through this.
    pub fn with_capacity(slices: usize, mean_len: usize) -> Self {
        let mut ids = FxHashMap::default();
        ids.reserve(slices);
        let mut spans = Vec::with_capacity(slices + 1);
        spans.push(0);
        SliceInterner {
            ids,
            flat: Vec::with_capacity(slices * mean_len),
            spans,
        }
    }

    /// The id of `slice`, interning it first if unseen. Allocates only on
    /// the first occurrence of each distinct slice.
    pub fn intern(&mut self, slice: &[T]) -> u32 {
        if let Some(&id) = self.ids.get(slice) {
            return id;
        }
        let id = (self.spans.len() - 1) as u32;
        self.flat.extend_from_slice(slice);
        self.spans.push(self.flat.len() as u32);
        self.ids.insert(slice.into(), id);
        id
    }

    /// The id of `slice` if already interned. Never allocates.
    #[inline]
    pub fn lookup(&self, slice: &[T]) -> Option<u32> {
        self.ids.get(slice).copied()
    }

    /// The interned slice for `id`.
    ///
    /// # Panics
    /// If `id` was not returned by this interner.
    #[inline]
    pub fn get(&self, id: u32) -> &[T] {
        let i = id as usize;
        &self.flat[self.spans[i] as usize..self.spans[i + 1] as usize]
    }

    /// Number of distinct slices interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len() - 1
    }

    /// Whether nothing has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arena, dropping the id map: all interned slices concatenated
    /// in id order, and the offsets of each (`len() + 1` of them, slice
    /// `id` spanning `offsets[id]..offsets[id + 1]`).
    pub fn into_parts(self) -> (Vec<T>, Vec<u32>) {
        (self.flat, self.spans)
    }

    /// Entries the id map can hold before its next rehash (memory-growth
    /// diagnostics: the enumerator reports the peak per traversal).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ids.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = SliceInterner::new();
        let a = it.intern(&[1u32, 2, 3]);
        let b = it.intern(&[]);
        let c = it.intern(&[1, 2, 3]);
        let d = it.intern(&[2, 3]);
        assert_eq!((a, b, c, d), (0, 1, 0, 2));
        assert_eq!(it.len(), 3);
        assert_eq!(it.get(0), &[1, 2, 3]);
        assert_eq!(it.get(1), &[] as &[u32]);
        assert_eq!(it.get(2), &[2, 3]);
        assert_eq!(it.into_parts(), (vec![1, 2, 3, 2, 3], vec![0, 3, 3, 5]));
    }

    #[test]
    fn lookup_never_interns() {
        let mut it = SliceInterner::new();
        it.intern(&[7u32]);
        assert_eq!(it.lookup(&[7]), Some(0));
        assert_eq!(it.lookup(&[8]), None);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn empty_slice_is_a_valid_entry() {
        let mut it = SliceInterner::<u32>::new();
        assert!(it.is_empty());
        let e = it.intern(&[]);
        assert_eq!(e, 0);
        assert_eq!(it.lookup(&[]), Some(0));
        assert!(!it.is_empty());
    }

    #[test]
    fn prefix_and_suffix_do_not_collide() {
        // the flat arena must not let adjacent entries alias
        let mut it = SliceInterner::new();
        let ab = it.intern(&[1u32, 2]);
        let b = it.intern(&[2u32]);
        let a = it.intern(&[1u32]);
        assert_eq!(it.get(ab), &[1, 2]);
        assert_eq!(it.get(b), &[2]);
        assert_eq!(it.get(a), &[1]);
        assert_eq!(it.len(), 3);
    }
}
