//! Throughput vs queue depth: how many commands a host keeps in flight.
//!
//! Two questions:
//!
//! 1. **Simulated time** — how long (device time) does a fixed batch of
//!    programs take when the host keeps 1, 4, 8 or `dies` commands in
//!    flight?  Depth 1 reproduces the strictly sequential legacy pattern
//!    (issue, wait, issue); deeper windows let the per-die queues overlap
//!    the dies, and a queued `NoFtl::write_batch` over a 4-die region
//!    must complete in less simulated time than sequential submission of
//!    the same pages.
//! 2. **Wall-clock overhead** — what does one `execute`, and one
//!    per-die fan-out of them, cost on the host (criterion numbers)?
//!
//! Run with `cargo bench -p noftl-bench --bench queue_depth`.  The
//! simulated-time comparison and the utilization report (summary *and*
//! per-die busy fractions) are printed before the criterion samples.  The
//! headline measurements themselves live in `noftl_bench::smoke`, shared
//! with the CI `perf_smoke` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use flash_sim::{
    DeviceBuilder, DieId, FlashBackend, FlashCommand, FlashGeometry, IoTag, NandDevice, PageAddr,
    PageMetadata, SimTime, TimingModel, UtilizationSummary,
};
use noftl_bench::smoke;
use noftl_obs::MetricsSnapshot;

fn device() -> Arc<NandDevice> {
    Arc::new(DeviceBuilder::new(FlashGeometry::example()).timing(TimingModel::mlc_2015()).build())
}

/// Render the per-die busy fractions, so skew between dies is visible
/// (not just the mean/min/max aggregate).  The fractions come out of the
/// stack's metrics registry (`flash.die<i>.busy_ns` over the quiesce
/// gauge) rather than a bespoke bench-side counter pass; the aggregate
/// line still uses the device's [`UtilizationSummary`].
fn per_die_report(label: &str, util: &UtilizationSummary, snap: &MetricsSnapshot) {
    println!(
        "  {label} utilization: mean {:.2} min {:.2} max {:.2}, depth hwm {}",
        util.mean, util.min, util.max, util.queue_depth_hwm,
    );
    print!("    per die:");
    for (die, busy) in smoke::per_die_busy_fractions(snap).iter().enumerate() {
        print!(" d{die}={busy:.2}");
    }
    println!();
}

fn simulated_reports() {
    let dies = FlashGeometry::example().total_dies() as usize;
    let total = 64u32;
    println!("simulated completion time of {total} striped programs vs queue depth:");
    let mut depth1 = SimTime::ZERO;
    for depth in [1usize, 4, 8, dies] {
        let (done, util) = smoke::run_at_depth(total, depth);
        if depth == 1 {
            depth1 = done;
        }
        println!(
            "  depth {depth:>2}: {:>10.1} us  (util mean {:.2}, die queue hwm {})",
            done.as_secs_f64() * 1e6,
            util.mean,
            util.queue_depth_hwm,
        );
        assert!(done <= depth1, "deeper queues must never be slower than depth 1");
    }

    let pages = 64u64;
    let cmp = smoke::write_batch_comparison(pages);
    println!("write_batch over a 4-die region, {pages} pages:");
    println!("  queued:     {:>10.1} us simulated", cmp.queued.as_secs_f64() * 1e6);
    per_die_report("queued", &cmp.queued_util, &cmp.queued_metrics);
    println!("  sequential: {:>10.1} us simulated", cmp.sequential.as_secs_f64() * 1e6);
    per_die_report("sequential", &cmp.sequential_util, &cmp.sequential_metrics);
    println!("  speedup: {:.2}x", cmp.speedup());
    assert!(
        cmp.queued < cmp.sequential,
        "queued write_batch must beat sequential submission ({:?} vs {:?})",
        cmp.queued,
        cmp.sequential
    );
}

fn bench_queue_depth(c: &mut Criterion) {
    // Simulated-time report (printed once, independent of criterion).
    simulated_reports();

    // Wall-clock cost of the command path itself.
    let mut group = c.benchmark_group("queue_depth");
    group.sample_size(20);

    group.bench_function("execute_program", |b| {
        let dev = device();
        let geo = *dev.geometry();
        let data = vec![0x11u8; geo.page_size as usize];
        let mut i = 0u32;
        let span = geo.total_dies() * geo.pages_per_block;
        b.iter(|| {
            let addr = smoke::striped_addr(&geo, i % span);
            if i >= span && addr.page == 0 {
                let _ = dev.erase_block(addr.block(), SimTime::ZERO);
            }
            i += 1;
            let program = FlashCommand::Program {
                addr,
                data: &data,
                meta: PageMetadata::new(1, u64::from(i)),
            };
            black_box(dev.execute(program, SimTime::ZERO, IoTag::default()).unwrap());
        });
    });

    group.bench_function("fanout_batch_per_die", |b| {
        let dev = device();
        let geo = *dev.geometry();
        let data = vec![0x22u8; geo.page_size as usize];
        let mut round = 0u32;
        b.iter(|| {
            if round >= geo.pages_per_block {
                for die in 0..geo.total_dies() {
                    let _ =
                        dev.erase_block(flash_sim::BlockAddr::new(DieId(die), 0, 0), SimTime::ZERO);
                }
                round = 0;
            }
            let page = round;
            round += 1;
            for die in 0..geo.total_dies() {
                let program = FlashCommand::Program {
                    addr: PageAddr::new(DieId(die), 0, 0, page),
                    data: &data,
                    meta: PageMetadata::new(1, u64::from(die)),
                };
                black_box(dev.execute(program, SimTime::ZERO, IoTag::default()).unwrap());
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_queue_depth);
criterion_main!(benches);
