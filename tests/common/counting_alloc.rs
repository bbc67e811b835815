//! The counting global allocator of the allocation-budget tests.
//!
//! A test binary takes it in with
//! `#[path = "<up to the repository root>/tests/common/counting_alloc.rs"]
//! pub mod counting_alloc;` (public, so a binary that reads only some of
//! what a window reports warns of nothing), and so gets its
//! `#[global_allocator]`: every allocation and reallocation goes to
//! `System` unchanged and is counted **per thread** — the harness runs a
//! file's tests on parallel threads, and a process-wide count would charge
//! one test for its neighbour's allocations.  [`counted`] runs a closure
//! in a window of the calling thread and says what it allocated: how
//! often, the largest allocation, the sizes of the first [`SEEN`], and how
//! many had the size [`watch`] named.  Windows do not nest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt;

/// How many allocation sizes a window records.
pub const SEEN: usize = 128;

thread_local! {
    /// The current window's allocations, the largest of them, those of
    /// the watched size and the sizes of the first [`SEEN`]; and the
    /// watched size (0: none).  Const-initialised and without
    /// destructors, so touching them from inside the allocator neither
    /// allocates nor trips thread teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static WATCHED: Cell<u64> = const { Cell::new(0) };
    static SIZES: [Cell<usize>; SEEN] = const { [const { Cell::new(0) }; SEEN] };
    static WATCHED_SIZE: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| {
        let _ = SIZES.try_with(|sizes| sizes.get(n.get()).map(|seen| seen.set(size)));
        n.set(n.get() + 1);
    });
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    if WATCHED_SIZE.try_with(Cell::get) == Ok(size) {
        let _ = WATCHED.try_with(|n| n.set(n.get() + 1));
    }
}

/// Forwards to `System`, counting on the way.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a few thread-local cell updates that do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count the allocations of `size` bytes apart in every later window of
/// the calling thread ([`Counted::watched`]).
pub fn watch(size: usize) {
    WATCHED_SIZE.with(|s| s.set(size));
}

/// What a window allocated.
pub struct Counted {
    /// Allocations and reallocations.
    pub allocs: u64,
    /// The largest of them, in bytes.
    pub largest: usize,
    /// Those of the size [`watch`] named.
    pub watched: u64,
    /// The sizes of the first [`SEEN`], in order.
    pub sizes: Vec<usize>,
}

impl fmt::Display for Counted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocations (largest {} B; sizes {:?}",
            self.allocs, self.largest, self.sizes
        )?;
        if self.allocs > SEEN as u64 {
            write!(f, " and {} more", self.allocs - SEEN as u64)?;
        }
        write!(f, ")")
    }
}

/// What `f` returned, and what it allocated on this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    ALLOCATIONS.with(|n| n.set(0));
    LARGEST.with(|l| l.set(0));
    WATCHED.with(|n| n.set(0));
    let out = f();
    let (allocs, largest) = (ALLOCATIONS.with(Cell::get), LARGEST.with(Cell::get));
    let watched = WATCHED.with(Cell::get);
    let sizes = SIZES.with(|sizes| sizes[..allocs.min(SEEN)].iter().map(Cell::get).collect());
    (out, Counted { allocs: allocs as u64, largest, watched, sizes })
}
