//! A short list of `Copy` items kept in place.
//!
//! The `OT` transactions of §7.1 name a handful of distinct objects, and
//! B/C's `update-coor` carries the same handful.  [`InlineList`] holds up to
//! `N` items inside the value itself — so a transaction body, its record's
//! copy, a client's pending state and a message payload are each a copy of
//! a few words, not a heap allocation — and a longer list through one heap
//! pointer.  It derefs to a slice, and compares and prints exactly as the
//! `Vec` it replaces (goldens print specs with `{:?}`).

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` items in place, more on the heap.
///
/// The spilled form is a boxed `Vec`: one thin pointer, so a list of three
/// `u32`s with its tag and length is 16 bytes.  The unused tail of the
/// in-place array holds `T::default()`, never read.
#[derive(Clone)]
pub struct InlineList<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u8, items: [T; N] },
    // A `Vec` in place would be 24 bytes and widen every list to 32.
    #[allow(clippy::box_collection, reason = "one thin pointer keeps a spilled list small")]
    Heap(Box<Vec<T>>),
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    /// `N` must fit the in-place length byte.
    const FITS: () = assert!(N <= u8::MAX as usize, "an inline list holds at most 255 items in place");

    /// An empty list, in place.
    pub fn new() -> Self {
        let () = Self::FITS;
        InlineList(Repr::Inline { len: 0, items: [T::default(); N] })
    }

    /// A copy of `items`: in place if there are at most `N`.
    fn from_slice(items: &[T]) -> Self {
        if items.len() > N {
            return InlineList(Repr::Heap(Box::new(items.to_vec())));
        }
        let mut list = Self::new();
        if let Repr::Inline { len, items: slots } = &mut list.0 {
            slots[..items.len()].copy_from_slice(items);
            *len = items.len() as u8;
        }
        list
    }

    /// Appends `item`, moving the list to the heap when it outgrows `N`.
    fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N + 1);
                spilled.extend_from_slice(items);
                spilled.push(item);
                self.0 = Repr::Heap(Box::new(spilled));
            }
            Repr::Heap(items) => items.push(item),
        }
    }

    /// The items, as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }

    /// The items, as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineList<T, N> {
    fn from(items: &[T]) -> Self {
        Self::from_slice(items)
    }
}

/// A `Vec` that fits is copied in place and freed; a longer one keeps its
/// allocation.
impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineList<T, N> {
    fn from(items: Vec<T>) -> Self {
        if items.len() > N {
            InlineList(Repr::Heap(Box::new(items)))
        } else {
            Self::from_slice(&items)
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineList<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix;
    use crate::ids::ObjectId;
    use crate::value::Value;
    use proptest::prelude::*;

    /// Checks `list` against the `Vec` it stands for, through every view.
    fn agrees<const N: usize>(list: &InlineList<u32, N>, reference: &[u32]) {
        assert_eq!(list.as_slice(), reference);
        assert_eq!(list.len(), reference.len());
        let spilled = matches!(list.0, Repr::Heap(_));
        assert_eq!(spilled, reference.len() > N, "in place iff at most {N} items");
        assert_eq!(format!("{list:?}"), format!("{:?}", reference.to_vec()));
        assert_eq!(format!("{list:#?}"), format!("{:#?}", reference.to_vec()));
        let mut walked = Vec::new();
        for &item in list {
            walked.push(item);
        }
        assert_eq!(walked, reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every way in — `from_iter`, `From<Vec>`, a slice, `push` — gives
        /// the same list as the `Vec`, in place up to N and spilled past
        /// it; swaps and writes through `DerefMut` act as on the `Vec`;
        /// equality is the slices' equality.
        #[test]
        fn an_inline_list_behaves_as_the_vec_it_replaces(
            seed in 0u64..u64::MAX,
            len in 0usize..9,
            swaps in 0usize..6,
        ) {
            let mut rng = SplitMix::new(seed);
            let reference: Vec<u32> = (0..len).map(|_| rng.below(5) as u32).collect();
            let collected: InlineList<u32, 4> = reference.iter().copied().collect();
            let converted = InlineList::<u32, 4>::from(reference.clone());
            let sliced = InlineList::<u32, 4>::from(&reference[..]);
            let mut pushed = InlineList::<u32, 4>::new();
            for (i, &item) in reference.iter().enumerate() {
                agrees(&pushed, &reference[..i]);
                pushed.push(item);
            }
            for list in [&collected, &converted, &sliced, &pushed] {
                agrees(list, &reference);
                prop_assert_eq!(list, &collected);
            }

            // The same items under a smaller N: other representation, equal
            // contents.
            let narrow: InlineList<u32, 2> = reference.iter().copied().collect();
            agrees(&narrow, &reference);

            let (mut list, mut model) = (collected.clone(), reference.clone());
            for _ in 0..swaps.min(len) {
                let (a, b) = (rng.below(len as u64) as usize, rng.below(len as u64) as usize);
                list.swap(a, b);
                model.swap(a, b);
                prop_assert_eq!(list.as_mut_slice().len(), len);
                agrees(&list, &model);
            }
            prop_assert_eq!(list == collected, model == reference);
            if len > 0 {
                list[0] += 1;
                model[0] += 1;
                agrees(&list, &model);
                prop_assert!(list != collected);
            }
        }
    }

    #[test]
    fn an_empty_list_prints_and_compares_as_an_empty_vec() {
        let empty = InlineList::<u32, 4>::default();
        agrees(&empty, &[]);
        assert_eq!(empty, InlineList::from(Vec::new()));
        assert_eq!(empty, InlineList::from_slice(&[]));
    }

    #[test]
    fn a_clone_is_independent_of_its_source() {
        let mut spilled: InlineList<u32, 2> = (0..5).collect();
        let copy = spilled.clone();
        spilled[4] = 9;
        agrees(&copy, &[0, 1, 2, 3, 4]);
        agrees(&spilled, &[0, 1, 2, 3, 9]);
    }

    /// What the transaction types pay for keeping their lists in place:
    /// a READ's four objects in a `Vec`'s 24 bytes, a WRITE's object list
    /// in 16 (the `update-coor` payload's budget), a WRITE's two pairs in 40.
    #[test]
    fn the_lists_keep_their_sizes() {
        use std::mem::size_of;
        assert_eq!(size_of::<InlineList<ObjectId, 4>>(), 24);
        assert_eq!(size_of::<InlineList<ObjectId, 3>>(), 16);
        assert_eq!(size_of::<InlineList<(ObjectId, Value), 2>>(), 40);
        assert_eq!(size_of::<Option<InlineList<ObjectId, 4>>>(), 24);
    }
}
