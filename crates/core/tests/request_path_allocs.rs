//! Allocation budget of the storage manager's request path.
//!
//! `NoFtl::execute` runs reads and writes through one windowed pipeline.
//! A write's payload is borrowed all the way down to the device; every read
//! of a call lands in one page buffer the call reuses and is handed to the
//! caller's closure; the in-flight deque exists only once the window binds.
//! So on a device whose blocks have each held a payload once (an erased
//! block keeps its buffer), a write-only `execute` — the WAL force of every
//! writing commit, through `NoFtlBackend::write_batch` — allocates nothing,
//! and an N-page read `execute` with window W allocates one page buffer,
//! plus the deque when N > W.  A counting global allocator (per thread, as
//! in `crates/flash/tests/page_path_allocs.rs`) holds the path to that.
//! CI runs this in `--release`, where the claim matters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dbms_engine::{NoFtlBackend, StorageBackend};
use flash_sim::{
    BlockAddr, DeviceBuilder, FlashBackend, FlashCommand, FlashGeometry, IoTag, PageMetadata,
    SimTime, TimingModel,
};
use noftl_core::{IoRequest, NoFtl, NoFtlConfig, ObjectId, PlacementConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread and the largest of them.
    /// Const-initialised and without destructors, so touching them from
    /// inside the allocator neither allocates nor trips thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a pair of thread-local cell updates that do not allocate.
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

/// Allocations `f` made on this thread, and the largest of them.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, usize) {
    LARGEST.with(|l| l.set(0));
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before, LARGEST.with(Cell::get))
}

/// Logical pages of the object: four per die of its region.
const PAGES: u64 = 16;

/// The payload of one write round of logical page `p`.
fn payload(round: u8, p: u64) -> Vec<u8> {
    vec![round.wrapping_mul(31).wrapping_add(p as u8); 4096]
}

/// A backend whose region spans the four dies of a device on which every
/// block has held a payload once and been erased, and one object of
/// [`PAGES`] pages written over three rounds: each die has filled its
/// first block and written half its second, so the measured round below
/// fills the second without opening a third.
#[expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "cycles the bare device before a manager owns it; a failed step fails the test"
)]
fn cycled_stack() -> (NoFtlBackend, ObjectId, SimTime) {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
    );
    let geo = *device.geometry();
    let page = vec![0xC3; geo.page_size as usize];
    let mut now = SimTime::ZERO;
    for die in geo.dies() {
        let planes = 0..geo.planes_per_die;
        let blocks = planes.flat_map(|plane| (0..geo.blocks_per_plane).map(move |b| (plane, b)));
        for block in blocks.map(|(plane, b)| BlockAddr::new(die, plane, b)) {
            let meta = PageMetadata::new(1, 0);
            let program = FlashCommand::Program { addr: block.page(0), data: &page, meta };
            now = device.execute(program, now, IoTag::default()).unwrap().outcome.completed_at;
            let erase = FlashCommand::Erase { block };
            now = device.execute(erase, now, IoTag::default()).unwrap().outcome.completed_at;
        }
    }
    let noftl = Arc::new(NoFtl::new(device, NoFtlConfig::default()));
    let placement = PlacementConfig::traditional(geo.total_dies(), ["t".to_string()]);
    let backend = NoFtlBackend::new(noftl, &placement).unwrap();
    let obj = backend.create_object("t").unwrap();
    for round in 0..3 {
        let writes: Vec<_> = (0..PAGES).map(|p| (obj, p, payload(round, p))).collect();
        now = backend.write_batch(&writes, now).unwrap();
    }
    (backend, obj, now)
}

#[test]
fn write_only_execute_and_write_batch_allocate_nothing() {
    for window in [usize::MAX, PAGES as usize] {
        let (backend, obj, now) = cycled_stack();
        let writes: Vec<_> = (0..PAGES).map(|p| (obj, p, payload(3, p))).collect();
        let requests = writes.iter().map(|(obj, p, data)| IoRequest::write(*obj, *p, data));
        let (done, allocs, _) =
            counted(|| backend.noftl().execute(requests, now, window, |_, _| Ok(())));
        assert!(done.unwrap() > now);
        assert_eq!(allocs, 0, "allocations of a write-only execute, window {window}");
    }
    let (backend, obj, now) = cycled_stack();
    let writes: Vec<_> = (0..PAGES).map(|p| (obj, p, payload(3, p))).collect();
    let (done, allocs, _) = counted(|| backend.write_batch(&writes, now));
    assert!(done.unwrap() > now);
    assert_eq!(allocs, 0, "allocations of NoFtlBackend::write_batch");
}

#[test]
fn a_read_execute_allocates_one_page_and_the_deque_once_the_window_binds() {
    let page_size = FlashGeometry::small_test().page_size as usize;
    let expected: Vec<Vec<u8>> = (0..PAGES).map(|p| payload(2, p)).collect();
    for (window, budget) in [(PAGES as usize, 1), (usize::MAX, 1), (4, 2), (1, 2)] {
        let (backend, obj, now) = cycled_stack();
        let requests = (0..PAGES).map(|p| IoRequest::read(obj, p));
        let mut matched = 0;
        let (done, allocs, largest) = counted(|| {
            backend.noftl().execute(requests, now, window, |req, data| {
                matched += usize::from(data == expected[req.page as usize]);
                Ok(())
            })
        });
        assert!(done.unwrap() > now);
        assert_eq!(matched, PAGES as usize, "every page reaches the closure, window {window}");
        assert_eq!(allocs, budget, "allocations of a {PAGES}-page read, window {window}");
        assert_eq!(largest, page_size, "the largest is the page buffer, window {window}");
    }
}
