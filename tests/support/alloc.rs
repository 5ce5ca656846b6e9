//! The counting allocator `tests/dispatch_hot_path.rs` and
//! `tests/stream_hot_path.rs` share (each includes this file by path and
//! installs its own `#[global_allocator] static` of [`Counting`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the counting allocator saw one thread do inside [`counted`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Heap allocations, reallocations included.
    pub allocs: u64,
    /// Requested bytes allocated minus bytes freed (negative after freeing
    /// more than was allocated inside: memory from before).
    pub live: i64,
    /// The most `live` ever was.  A reallocation counts its new block
    /// before it frees the old one, as a moving reallocation holds both:
    /// a vector that doubles shows as the transient it is.
    pub peak: i64,
}

thread_local! {
    /// `Some` while the current thread is counting.  Per thread, so the
    /// tests of a binary can run in parallel without seeing each other.
    static COUNTS: Cell<Option<Counts>> = const { Cell::new(None) };
}

/// `System`, counting what the threads inside [`counted`] do.
pub struct Counting;

/// Notes one event: `grown` bytes allocated (and counted as an allocation
/// if `allocates`), then `freed` bytes freed.
fn note(allocates: bool, grown: usize, freed: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.  The cell has no destructor and its access never allocates.
    let _ = COUNTS.try_with(|c| {
        if let Some(mut n) = c.get() {
            n.allocs += u64::from(allocates);
            n.live += grown as i64;
            n.peak = n.peak.max(n.live);
            n.live -= freed as i64;
            c.set(Some(n));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches one thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size, layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, 0, layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f`, returning its result and what this thread allocated inside
/// it; `live` is read after `f` returns, with the result still held.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|c| c.set(Some(Counts::default())));
    let result = f();
    (result, COUNTS.with(|c| c.replace(None)).expect("counting was on"))
}
