//! Allocation budget of the TPC-C transactions: none.
//!
//! A transaction reads its rows where their buffer frames hold them
//! (`Database::read` / `index_read`) and updates them there
//! (`Database::update_with`).  It sets the columns of each row it inserts
//! over zeroed bytes on the stack and lends them to `Database::insert`
//! (`schema::insert_row`).  Its scans hand each record id to a closure,
//! which keeps the few the transaction needs in an array, and its inputs
//! are formatted into stack buffers (`random::Text`).  Index keys are
//! arrays, and B+-tree splits write from page buffers the tree keeps.  So,
//! after the load and a warm-up, every transaction of a standard-mix run
//! is held to 0 allocations:
//!
//! * NewOrder — its at most 15 lines and their item prices are arrays;
//!   its ORDER, NEW_ORDER and ORDERLINE rows are built on the stack.
//! * Payment — the last name of a by-name selection is a `Text`, and its
//!   scan keeps up to 16 ids in place (the loader names customer `c`
//!   `last_name(c − 1)`, so at [`CUSTOMERS`] per district no two share a
//!   name); a bad-credit customer's new `C_DATA` is formatted into a
//!   `Text` of the column's size; the HISTORY row is built on the stack.
//! * OrderStatus — the same selection; the customer's newest order is the
//!   last id its scan hands out, and the order's lines fit an array of 15.
//! * Delivery — a district's oldest new order is the first id its scan
//!   hands out, and the order's lines fit an array of 15.
//! * StockLevel — the lines of 20 orders, and their items, fit arrays of
//!   300; sorted, with repeats skipped, the items come in the order a
//!   `BTreeSet` gave them.
//!
//! An array a scan outgrows moves into a vector, which would show here.
//!
//! A commit that finds the log's segment past its page budget takes a
//! checkpoint, and is held to the same budget.  The buffer pool writes
//! its dirty pages back from their frames, lending each frame's buffer to
//! one batch sized at construction; the catalog snapshot and the storage
//! manager's directory are encoded into buffers their owners keep, from
//! borrowed names; the log is truncated in place.  The default segment
//! budget never fills during the run, so a second run with a budget of
//! 16 log pages checkpoints during the warm-up and at least three times
//! in the measured window.
//!
//! Besides, two structures grow with the data, and any transaction can
//! make them grow (a dirty eviction, the log force, a checkpoint, a GC
//! relocation), and one buffer comes with a large write-back.
//! The first program of a block since the device was built allocates
//! that block's payload buffer; those allocations are counted apart and
//! must not outnumber the blocks the device programmed for the first time
//! during the run.  And the storage manager's page map of an object, a
//! vector, grows when a write first maps a page past its capacity; such a
//! growth is told by its size, a whole number of map entries above the
//! object's extent before the transaction and below twice its extent
//! after it.  And a checkpoint that writes back more pages than its
//! window ([`DEFAULT_FLUSH_WINDOW`]) holds in flight allocates the
//! storage manager's queue of their completions, a deque of that many
//! instants; the pool's count of flushed pages bounds how many of the
//! transaction's checkpoints can have done so.  A measured transaction
//! allocates exactly its block buffers, its page-map growths and the
//! completion queue of each checkpoint that outran its window.
//!
//! The counting allocator (`tests/common/counting_alloc.rs`, per thread)
//! watches the size of a block's payload buffer and records the sizes of
//! the first allocations of each transaction, which tell the page-map
//! growths apart and let one that allocates say what it saw.  CI runs
//! this in `--release`, where the claim matters.

#[path = "../../../tests/common/counting_alloc.rs"]
pub mod counting_alloc;

use std::sync::Arc;

use counting_alloc::{counted, watch};
use dbms_engine::buffer::DEFAULT_FLUSH_WINDOW;
use dbms_engine::{Database, DatabaseConfig, NoFtlBackend};
use flash_sim::{
    BlockAddr, DeviceBuilder, DieId, FlashBackend, FlashGeometry, NandDevice, PageAddr, SimTime,
    TimingModel,
};
use noftl_core::{NoFtl, NoFtlConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpcc_workload::{placement, transactions, Loader, ScaleConfig, TxnMix, TxnType};

/// The payload buffer of a block of `FlashGeometry::example()`.
const BLOCK_BYTES: usize = 32 * 4096;

/// An entry of the storage manager's page map of an object.
const MAP_ENTRY: usize = std::mem::size_of::<Option<PageAddr>>();

/// The storage manager's queue of the completions a write-back holds in
/// flight.
const FLUSH_QUEUE: usize = DEFAULT_FLUSH_WINDOW * std::mem::size_of::<SimTime>();

/// Customers per district.
const CUSTOMERS: i64 = 60;
/// Orders loaded per district.
const ORDERS: i64 = 60;
/// Transactions run after the load: warm-up and measured.
const RUN: u64 = 1_000;
/// Transactions of the warm-up.
const WARM_UP: u64 = 300;

/// The blocks `device` has programmed since it was built.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
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

/// Is an allocation of `size` bytes the growth of the page map of an
/// object whose extent went from `before` to `after` pages?  The map is at
/// least as long as the extent, and a vector grows to twice its capacity,
/// to the length it needs or to 4 entries, whichever is largest.
fn grows_page_map(size: usize, before: u64, after: u64) -> bool {
    let entries = (size / MAP_ENTRY) as u64;
    size.is_multiple_of(MAP_ENTRY) && before < entries && (entries < 2 * after || entries == 4)
}

/// Run the standard mix on a database whose log checkpoints once its
/// segment passes `wal_segment_pages` pages, and hold every measured
/// transaction to its budget.  Returns the checkpoints taken during the
/// warm-up and during the measured window.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn run_standard_mix(wal_segment_pages: u64) -> (u64, u64) {
    let geometry = FlashGeometry::example();
    assert_eq!(geometry.pages_per_block as usize * geometry.page_size as usize, BLOCK_BYTES);
    let device = Arc::new(DeviceBuilder::new(geometry).timing(TimingModel::mlc_2015()).build());
    let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
    let placement = placement::traditional(geometry.total_dies());
    let backend = Arc::new(NoFtlBackend::new(noftl.clone(), &placement).unwrap());
    // A pool well below the database, so reads miss and evictions write.
    let config =
        DatabaseConfig { buffer_pages: 256, wal_segment_pages, ..DatabaseConfig::default() };
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
    let objects: Vec<_> = noftl.all_object_stats().iter().map(|o| o.object_id).collect();
    let extents =
        || -> Vec<u64> { objects.iter().map(|&obj| noftl.object_extent(obj).unwrap()).collect() };
    let checkpoints = || db.wal_stats().truncations;
    watch(BLOCK_BYTES);
    let mut run = |measured: bool| {
        let kind = mix.pick(&mut rng);
        let mut txn = db.begin(now);
        let (before, took, flushed) = (extents(), checkpoints(), db.buffer_stats().flushed);
        let (outcome, used) = counted(|| match kind {
            TxnType::NewOrder => transactions::new_order(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::Payment => transactions::payment(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::OrderStatus => transactions::order_status(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::Delivery => transactions::delivery(&db, &scale, &mut rng, &mut txn, 1),
            TxnType::StockLevel => transactions::stock_level(&db, &scale, &mut rng, &mut txn, 1),
        });
        let (allocs, blocks) = (used.allocs as usize, used.watched as usize);
        let sizes = used.sizes;
        outcome.unwrap();
        now = txn.now;
        let grown: Vec<(u64, u64)> =
            before.into_iter().zip(extents()).filter(|(before, after)| after > before).collect();
        let maps = sizes
            .iter()
            .filter(|&&size| grown.iter().any(|&(b, a)| grows_page_map(size, b, a)))
            .count();
        // Each checkpoint whose write-back outran its window: no more than
        // the checkpoints taken, nor than the pages flushed can fill.
        let flushed = db.buffer_stats().flushed - flushed;
        let overflows = (checkpoints() - took).min(flushed / (DEFAULT_FLUSH_WINDOW as u64 + 1));
        let queues = sizes.iter().filter(|&&size| size == FLUSH_QUEUE).count();
        let queues = queues.min(overflows as usize);
        assert!(
            !measured || allocs == blocks + maps + queues,
            "a {} allocated {allocs} times, {blocks} of them block buffers, {maps} page-map \
             growths and {queues} completion queues, and grew the extents {grown:?}; sizes \
             {sizes:?}",
            kind.name()
        );
        (blocks, maps, queues)
    };
    for _ in 0..WARM_UP {
        run(false);
    }
    let (warm_up_checkpoints, blocks_before) = (checkpoints(), programmed_blocks(&device));
    let (mut block_buffers, mut page_maps, mut completion_queues) = (0, 0, 0);
    for _ in WARM_UP..RUN {
        let (blocks, maps, queues) = run(true);
        block_buffers += blocks;
        page_maps += maps;
        completion_queues += queues;
    }
    let fresh = programmed_blocks(&device) - blocks_before;
    assert!(block_buffers <= fresh, "{block_buffers} block buffers for {fresh} fresh blocks");
    let measured_checkpoints = checkpoints() - warm_up_checkpoints;
    eprintln!(
        "{} transactions, {measured_checkpoints} checkpoints: {block_buffers} block buffers for \
         {fresh} blocks programmed for the first time, {page_maps} page maps grown, \
         {completion_queues} completion queues, and no other allocation",
        RUN - WARM_UP
    );
    (warm_up_checkpoints, measured_checkpoints)
}

#[test]
fn standard_mix_transactions_stay_within_their_allocation_budgets() {
    // The default segment budget: no checkpoint during the run.
    assert_eq!(run_standard_mix(DatabaseConfig::default().wal_segment_pages), (0, 0));
}

#[test]
fn checkpointing_commits_stay_within_the_same_budget() {
    // A segment of 16 log pages: commits checkpoint every few dozen
    // transactions, in the warm-up and in the measured window.
    let (warm_up, measured) = run_standard_mix(16);
    assert!(warm_up >= 1, "the warm-up checkpointed {warm_up} times");
    assert!(measured >= 3, "the measured window checkpointed {measured} times");
}
