//! Micro-benchmarks of the native flash command path (simulator overhead
//! per READ PAGE / PROGRAM PAGE / ERASE BLOCK / COPYBACK).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use flash_sim::{
    BlockAddr, DeviceBuilder, DieId, FlashBackend, FlashGeometry, PageMetadata, SimTime,
    TimingModel,
};

fn bench_flash_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("flash_ops");
    group.sample_size(20);

    group.bench_function("program_page", |b| {
        let dev =
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build();
        let geo = *dev.geometry();
        let data = vec![0xA5u8; geo.page_size as usize];
        let mut next: u64 = 0;
        b.iter(|| {
            let total = geo.total_pages();
            let page_no = next % total;
            next += 1;
            // Walk pages in physical order so programming stays sequential.
            let pages_per_die = geo.pages_per_die();
            let die = (page_no / pages_per_die) as u32;
            let within = page_no % pages_per_die;
            let block = (within / geo.pages_per_block as u64) as u32;
            let page = (within % geo.pages_per_block as u64) as u32;
            let plane = block / geo.blocks_per_plane;
            let addr =
                flash_sim::PageAddr::new(DieId(die), plane, block % geo.blocks_per_plane, page);
            // Re-erase the block when wrapping around.
            if page == 0 && next > total {
                let _ = dev.erase_block(addr.block(), SimTime::ZERO);
            }
            let _ = black_box(dev.program_page(
                addr,
                &data,
                PageMetadata::new(1, page_no),
                SimTime::ZERO,
            ));
        });
    });

    group.bench_function("read_page", |b| {
        let dev =
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build();
        let data = vec![0x5Au8; dev.geometry().page_size as usize];
        let addr = flash_sim::PageAddr::new(DieId(0), 0, 0, 0);
        dev.program_page(addr, &data, PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        b.iter(|| black_box(dev.read_page(addr, SimTime::ZERO).unwrap()));
    });

    group.bench_function("copyback_and_erase", |b| {
        let dev =
            DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::instant()).build();
        let geo = *dev.geometry();
        let data = vec![1u8; geo.page_size as usize];
        let src_block = BlockAddr::new(DieId(0), 0, 0);
        let dst_block = BlockAddr::new(DieId(0), 0, 1);
        b.iter(|| {
            let _ = dev.erase_block(src_block, SimTime::ZERO);
            let _ = dev.erase_block(dst_block, SimTime::ZERO);
            dev.program_page(src_block.page(0), &data, PageMetadata::new(1, 0), SimTime::ZERO)
                .unwrap();
            black_box(dev.copyback(src_block.page(0), dst_block.page(0), SimTime::ZERO).unwrap());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_flash_ops);
criterion_main!(benches);
