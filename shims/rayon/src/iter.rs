//! Index-addressable parallel iterators.
//!
//! Every source here knows its exact length and can produce the element at
//! any index independently, so `map(...).collect::<Vec<_>>()` writes result
//! `i` into slot `i` no matter which worker computed it.  That is the
//! determinism contract the sweep binaries rely on: parallel output is
//! byte-identical to a single-threaded run, elements merely *arrive* in a
//! different order.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ops::Range;

use crate::parallel_for_index;

/// A finite, index-addressable parallel iterator.
pub trait ParallelIterator: Send + Sync + Sized {
    /// Element type.
    type Item: Send;

    /// Exact number of elements.
    fn len(&self) -> usize;

    /// Whether the iterator has no elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce the element at `index`.
    ///
    /// # Safety
    ///
    /// `index` must be in `0..self.len()` and each index must be produced
    /// at most once across the iterator's lifetime (sources that move
    /// elements out, like [`VecParIter`], rely on this).
    unsafe fn produce(&self, index: usize) -> Self::Item;

    /// Transform each element with `op`.
    fn map<F, R>(self, op: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Send + Sync,
        R: Send,
    {
        Map { base: self, op }
    }

    /// Pair each element with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Run `op` on every element, in parallel.
    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let len = self.len();
        // SAFETY: parallel_for_index visits each index in 0..len once.
        parallel_for_index(len, &|i| op(unsafe { self.produce(i) }));
    }

    /// Sum the elements.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        let results: Vec<Self::Item> = self.collect();
        results.into_iter().sum()
    }

    /// Collect into `C`, preserving index order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

/// Types a [`ParallelIterator`] can collect into.
pub trait FromParallelIterator<T: Send> {
    /// Build the collection from the iterator, preserving index order.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

/// Slots shared across workers during an order-preserving collect.  Each
/// index is written by exactly one `parallel_for_index` call, so the
/// aliasing is disjoint by construction.
struct SyncSlots<T>(UnsafeCell<Vec<Option<T>>>);

// SAFETY: disjoint index writes only (see above).
unsafe impl<T: Send> Sync for SyncSlots<T> {}

impl<T> SyncSlots<T> {
    /// Write slot `index`.
    ///
    /// # Safety
    ///
    /// Each index must be written by at most one thread, at most once.
    unsafe fn write(&self, index: usize, value: T) {
        let slots: &mut Vec<Option<T>> = &mut *self.0.get();
        slots[index] = Some(value);
    }
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        let len = iter.len();
        let mut slots = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        let slots = SyncSlots(slots.into());
        let slots_ref = &slots;
        parallel_for_index(len, &move |i| {
            // SAFETY: each index is produced and written exactly once, and
            // distinct indices touch distinct slots.
            unsafe {
                let item = iter.produce(i);
                slots_ref.write(i, item);
            }
        });
        slots
            .0
            .into_inner()
            .into_iter()
            .map(|slot| slot.expect("parallel collect missed an index"))
            .collect()
    }
}

/// `map` adaptor.
pub struct Map<I, F> {
    base: I,
    op: F,
}

impl<I, F, R> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    unsafe fn produce(&self, index: usize) -> R {
        (self.op)(self.base.produce(index))
    }
}

/// `enumerate` adaptor.
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn len(&self) -> usize {
        self.base.len()
    }

    unsafe fn produce(&self, index: usize) -> (usize, I::Item) {
        (index, self.base.produce(index))
    }
}

/// Parallel iterator over `&[T]`.
pub struct SliceParIter<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceParIter<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn produce(&self, index: usize) -> &'a T {
        self.slice.get_unchecked(index)
    }
}

/// Parallel iterator over non-overlapping `&mut [T]` chunks.  Stored as a
/// raw pointer so each produced chunk is independent; disjointness follows
/// from the at-most-once index contract.
pub struct ParChunksMut<'a, T: Send> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: chunks at distinct indices are disjoint, and each index is
// produced at most once, so no two live `&mut` chunks alias.
unsafe impl<T: Send> Send for ParChunksMut<'_, T> {}
unsafe impl<T: Send> Sync for ParChunksMut<'_, T> {}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }

    unsafe fn produce(&self, index: usize) -> &'a mut [T] {
        let start = index * self.chunk;
        let end = (start + self.chunk).min(self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

/// Owning parallel iterator over a `Vec<T>`; elements are moved out slot by
/// slot.
pub struct VecParIter<T: Send> {
    vec: ManuallyDrop<Vec<T>>,
}

// SAFETY: `produce` reads each slot at most once (iterator contract), so
// shared access across workers never aliases a move.
unsafe impl<T: Send> Sync for VecParIter<T> {}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.vec.len()
    }

    unsafe fn produce(&self, index: usize) -> T {
        std::ptr::read(self.vec.as_ptr().add(index))
    }
}

impl<T: Send> Drop for VecParIter<T> {
    fn drop(&mut self) {
        // Elements were moved out by `produce`; free only the allocation.
        // (If a consumer panicked mid-drive, unproduced elements leak —
        // the price of not tracking per-slot state; allocation is still
        // freed.)
        // SAFETY: setting the length to zero before the Vec drops makes the
        // drop free the allocation without touching the moved-out elements.
        unsafe {
            let mut vec = ManuallyDrop::take(&mut self.vec);
            vec.set_len(0);
        }
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct RangeParIter {
    start: usize,
    end: usize,
}

impl ParallelIterator for RangeParIter {
    type Item = usize;

    fn len(&self) -> usize {
        self.end - self.start
    }

    unsafe fn produce(&self, index: usize) -> usize {
        self.start + index
    }
}

/// Conversion into a [`ParallelIterator`] (the `into_par_iter()` entry
/// point).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// The iterator produced.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;

    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter {
            vec: ManuallyDrop::new(self),
        }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeParIter;

    fn into_par_iter(self) -> RangeParIter {
        RangeParIter {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;

    fn into_par_iter(self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = SliceParIter<'a, T>;

    fn into_par_iter(self) -> SliceParIter<'a, T> {
        SliceParIter { slice: self }
    }
}

/// Parallel views of shared slices (`par_iter`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over the elements.
    fn par_iter(&self) -> SliceParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> SliceParIter<'_, T> {
        SliceParIter { slice: self }
    }
}

/// Parallel views of mutable slices (`par_chunks_mut`).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint mutable `chunk_size`-sized chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        ParChunksMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk: chunk_size,
            _marker: PhantomData,
        }
    }
}

/// The traits user code imports (`use rayon::prelude::*`).
pub mod prelude {
    pub use super::{
        FromParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}
