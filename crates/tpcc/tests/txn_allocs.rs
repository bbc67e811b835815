//! Allocation budget of the TPC-C transactions.
//!
//! A transaction reads its rows where their buffer frames hold them
//! (`Database::read` / `index_read`), updates them there
//! (`Database::update_with`), and every scan it makes fills the one
//! vector of record ids it keeps.  Index keys are arrays, and B+-tree
//! splits write from page buffers the tree keeps.  What a transaction
//! still allocates is what it inserts, the inputs it formats and what it
//! collects into — so, after the load and a warm-up, each transaction of
//! a standard-mix run is held to its type's budget, in allocations:
//!
//! * NewOrder — each of its at most 15 order lines: the ORDERLINE
//!   `Record`, the `OL_DIST_INFO` string in it and its encoding (3 · 15);
//!   the ORDER `Record`, its `O_ENTRY_D` string and encoding (3); the
//!   NEW_ORDER `Record` and encoding (2); the vectors of its lines and
//!   their item prices (2).  [`NEW_ORDER`] = 52.
//! * Payment — the HISTORY `Record`, its two strings and encoding (4);
//!   the last name of a by-name selection, formatted into a buffer that
//!   grows once (2); the scan for it (1: the loader names customer `c`
//!   `last_name(c − 1)`, so at [`CUSTOMERS`] per district no two share a
//!   name and the scan finds one id at most); the new `C_DATA` string of
//!   a bad-credit customer (1).  [`PAYMENT`] = 8.
//! * OrderStatus — the last name (2) and its scan vector ([`SCAN`]).
//!   [`ORDER_STATUS`] = 12.
//! * Delivery — its scan vector ([`SCAN`]).  [`DELIVERY`] = 10.
//! * StockLevel — its scan vector ([`SCAN`]) and the `BTreeSet` of the
//!   items on the lines of 20 orders: at most 300 items, in nodes of
//!   5 to 11 keys below the root, so at most 60 leaves and 11 inner
//!   nodes (72).  [`STOCK_LEVEL`] = 82.
//!
//! [`SCAN`] bounds a scan vector: it grows by doubling from 4 ids, and
//! no scan at this scale returns more than a district's orders — its
//! loaded [`ORDERS`] plus one per NewOrder of the [`RUN`] — so
//! capacities 4, 8, …, 2 048 are all it can pass: 10 allocations.
//!
//! Besides, any transaction can be the first to program a block since
//! the device was built (a dirty eviction, the log force, a GC
//! relocation), which allocates that block's payload buffer.  Those
//! allocations are counted apart and must not outnumber the blocks the
//! device programmed for the first time during the run.
//!
//! The counting allocator is per thread, as in
//! `crates/dbms/tests/page_path_allocs.rs`, and records the sizes of the
//! first allocations of each transaction, so a budget that fails says
//! what it saw.  CI runs this in `--release`, where the claim matters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dbms_engine::{Database, DatabaseConfig, NoFtlBackend};
use flash_sim::{
    BlockAddr, DeviceBuilder, DieId, FlashBackend, FlashGeometry, NandDevice, SimTime, TimingModel,
};
use noftl_core::{NoFtl, NoFtlConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpcc_workload::{placement, transactions, Loader, ScaleConfig, TxnMix, TxnType};

struct CountingAlloc;

/// How many allocation sizes a counted window records.
const SEEN: usize = 128;

/// The payload buffer of a block of `FlashGeometry::example()`.
const BLOCK_BYTES: usize = 32 * 4096;

thread_local! {
    /// Allocations made by the current thread since the counted window
    /// opened, those of a block's payload buffer, and the sizes of the
    /// first [`SEEN`].  Const-initialised and without destructors, so
    /// touching them from inside the allocator neither allocates nor
    /// trips thread teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BLOCK_BUFFERS: Cell<usize> = const { Cell::new(0) };
    static SIZES: [Cell<usize>; SEEN] = const { [const { Cell::new(0) }; SEEN] };
}

fn count(size: usize) {
    let _ = ALLOCATIONS.try_with(|n| {
        let _ = SIZES.try_with(|sizes| sizes.get(n.get()).map(|seen| seen.set(size)));
        n.set(n.get() + 1);
    });
    if size == BLOCK_BYTES {
        let _ = BLOCK_BUFFERS.try_with(|n| n.set(n.get() + 1));
    }
}

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

/// Customers per district.
const CUSTOMERS: i64 = 60;
/// Orders loaded per district.
const ORDERS: i64 = 60;
/// Transactions run after the load: warm-up and measured.
const RUN: u64 = 1_000;
/// Transactions of the warm-up.
const WARM_UP: u64 = 300;

const SCAN: u64 = 10;
const NEW_ORDER: u64 = 3 * 15 + 3 + 2 + 2;
const PAYMENT: u64 = 4 + 2 + 1 + 1;
const ORDER_STATUS: u64 = 2 + SCAN;
const DELIVERY: u64 = SCAN;
const STOCK_LEVEL: u64 = SCAN + 72;

fn budget(kind: TxnType) -> u64 {
    match kind {
        TxnType::NewOrder => NEW_ORDER,
        TxnType::Payment => PAYMENT,
        TxnType::OrderStatus => ORDER_STATUS,
        TxnType::Delivery => DELIVERY,
        TxnType::StockLevel => STOCK_LEVEL,
    }
}

/// The blocks `device` has programmed since it was built.
fn programmed_blocks(device: &NandDevice) -> usize {
    let g = device.geometry();
    let blocks = (0..g.total_dies()).flat_map(|die| {
        (0..g.planes_per_die)
            .flat_map(move |plane| (0..g.blocks_per_plane).map(move |b| (die, plane, b)))
    });
    blocks
        .filter(|&(die, plane, block)| {
            let info = device.block_info(BlockAddr::new(DieId(die), plane, block)).unwrap();
            info.write_ptr > 0 || info.erase_count > 0
        })
        .count()
}

#[test]
fn standard_mix_transactions_stay_within_their_allocation_budgets() {
    let geometry = FlashGeometry::example();
    assert_eq!(geometry.pages_per_block as usize * geometry.page_size as usize, BLOCK_BYTES);
    let device = Arc::new(DeviceBuilder::new(geometry).timing(TimingModel::mlc_2015()).build());
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = placement::traditional(geometry.total_dies());
    let backend = Arc::new(NoFtlBackend::new(noftl, &placement).unwrap());
    // A pool well below the database, so reads miss and evictions write.
    let config = DatabaseConfig { buffer_pages: 256, ..DatabaseConfig::default() };
    let db = Database::open(backend, config).unwrap();
    let scale = ScaleConfig {
        warehouses: 1,
        districts_per_warehouse: 10,
        customers_per_district: CUSTOMERS,
        items: 1_000,
        initial_orders_per_district: ORDERS,
    };
    let (_, mut now) = Loader::new(scale, 1).load(&db, SimTime::ZERO).unwrap();
    let (mix, mut rng) = (TxnMix::standard(), StdRng::seed_from_u64(7));
    let mut run = |counted: bool| {
        let kind = mix.pick(&mut rng);
        let mut txn = db.begin(now);
        ALLOCATIONS.with(|n| n.set(0));
        BLOCK_BUFFERS.with(|n| n.set(0));
        let outcome = match kind {
            TxnType::NewOrder => transactions::new_order(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::Payment => transactions::payment(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::OrderStatus => transactions::order_status(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::Delivery => transactions::delivery(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::StockLevel => transactions::stock_level(&db, &scale, &mut rng, &mut txn, 1),
        };
        let (allocs, blocks) = (ALLOCATIONS.with(Cell::get), BLOCK_BUFFERS.with(Cell::get));
        let sizes: Vec<usize> =
            SIZES.with(|sizes| sizes[..allocs.min(SEEN)].iter().map(Cell::get).collect());
        outcome.unwrap();
        now = txn.now;
        let others = (allocs - blocks) as u64;
        assert!(
            !counted || others <= budget(kind),
            "a {} allocated {allocs} times, {blocks} of them block buffers, against a budget of \
             {}; sizes {sizes:?}",
            kind.name(),
            budget(kind)
        );
        (others, blocks)
    };
    for _ in 0..WARM_UP {
        run(false);
    }
    let blocks_before = programmed_blocks(&device);
    let (mut allocs, mut block_buffers) = (0, 0);
    for _ in WARM_UP..RUN {
        let (others, blocks) = run(true);
        allocs += others;
        block_buffers += blocks;
    }
    let fresh = programmed_blocks(&device) - blocks_before;
    assert!(block_buffers <= fresh, "{block_buffers} block buffers for {fresh} fresh blocks");
    let measured = RUN - WARM_UP;
    eprintln!(
        "{measured} transactions: {:.1} allocations each, and {block_buffers} block buffers for \
         {fresh} blocks programmed for the first time",
        allocs as f64 / measured as f64
    );
}
