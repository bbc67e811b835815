//! Allocation budget of the device's page path.
//!
//! A read copies its page into the buffer the caller lends, a copyback
//! moves its payload between blocks of one die, and an erased block keeps
//! its payload buffer for the next program; the die and channel timelines
//! are sized once.  So a device whose blocks have each held a payload once
//! erases, reprograms, copies back and reads them through
//! `FlashBackend::execute` without allocating.  The counting global
//! allocator of `tests/common/counting_alloc.rs` (per thread) holds the
//! path to that.  CI runs this in `--release`, where the claim matters.

#[path = "../../../tests/common/counting_alloc.rs"]
pub mod counting_alloc;

use counting_alloc::counted;
use flash_sim::{
    BlockAddr, DeviceBuilder, DieId, FlashBackend, FlashCommand, FlashGeometry, IoTag, NandDevice,
    PageMetadata, SimTime,
};

/// Issue `command` at `*now` and move `*now` to its completion.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn run(device: &NandDevice, now: &mut SimTime, command: FlashCommand<'_>) {
    *now = device.execute(command, *now, IoTag::default()).unwrap().outcome.completed_at;
}

/// Program every page of `block` with `fill`.
fn fill(device: &NandDevice, now: &mut SimTime, block: BlockAddr, fill: &[u8]) {
    for page in 0..device.geometry().pages_per_block {
        let meta = PageMetadata::new(1, u64::from(page));
        run(device, now, FlashCommand::Program { addr: block.page(page), data: fill, meta });
    }
}

#[test]
fn a_block_cycled_once_erases_reprograms_and_reads_without_allocating() {
    let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
    let geo = *device.geometry();
    let (data, copy) = (BlockAddr::new(DieId(0), 0, 0), BlockAddr::new(DieId(0), 0, 1));
    let old = vec![0x11; geo.page_size as usize];
    let new = vec![0x5A; geo.page_size as usize];
    let mut page = vec![0; geo.page_size as usize];
    let mut now = SimTime::ZERO;
    // Both blocks hold a payload once: the only time they allocate one.
    fill(&device, &mut now, data, &old);
    run(&device, &mut now, FlashCommand::Copyback { src: data.page(0), dst: copy.page(0) });

    let (read_back, window) = counted(|| {
        run(&device, &mut now, FlashCommand::Erase { block: copy });
        run(&device, &mut now, FlashCommand::Erase { block: data });
        fill(&device, &mut now, data, &new);
        let last = data.page(geo.pages_per_block - 1);
        run(&device, &mut now, FlashCommand::Copyback { src: last, dst: copy.page(0) });
        let mut read_back = 0;
        for addr in (0..geo.pages_per_block).map(|p| data.page(p)).chain([copy.page(0)]) {
            page.fill(0);
            run(&device, &mut now, FlashCommand::Read { addr, data: &mut page });
            read_back += usize::from(page == new);
        }
        read_back
    });

    assert_eq!(read_back, geo.pages_per_block as usize + 1, "every page reads the new payload");
    assert_eq!(window.allocs, 0, "allocations on the steady-state page path");
}
