//! Golden test of the device's command path.
//!
//! One seeded stream of native commands — all five kinds, valid ones and
//! every rule violation the device rejects — is run over
//! `FlashGeometry::small_test()` three ways: with the arbiter off, with
//! the arbiter on (all tag shapes plus a `Background` burst that the
//! budget defers), and under a sweep of power-cut instants aimed into
//! in-flight programs, copybacks and erases on both sides of the
//! half-way OOB rule.  Each run is folded into two digests:
//!
//! * **state** — everything that is not an instant: each result's
//!   `Ok` / `Err` variant with payload and metadata, the operation /
//!   byte / error counts of `DeviceStats`, and the device's `NFLIMG03`
//!   image (every block, the epoch);
//! * **timing** — everything that is: each outcome's start and
//!   completion, the latency sums and queue depths of `DeviceStats`, the
//!   per-die statistics, `quiesce_time`, the registry tracer's events
//!   (the device's command trace: one `flash.op` span per completed
//!   command, one `error` instant per rejected one) and the
//!   `flash.arbiter.*` counters.
//!
//! A refactor keeps both.  A deliberate change to the timing model keeps
//! the state digests and re-records the timing ones — which is what PR 18
//! did when first-fit occupancy timelines replaced `busy_until`:
//! `GOLDEN_STATE` was recorded **on its parent tree** (where
//! `GOLDEN_PLAIN` / `GOLDEN_ARBITER` of PR 17 still held) and holds on the
//! change; the two `GOLDEN_*_TIMING` constants and the power-cut sweep
//! were re-recorded (the sweep's cut instants are derived from the uncut
//! run's spans, so which commands it tears legitimately moves with them).
//! Deleting the device's second command trace, which the timing digests
//! folded, took the same protocol: on the parent tree that term was
//! replaced by the registry tracer's events and the three timing goldens
//! were re-recorded there, then held unchanged on the change
//! (`GOLDEN_STATE` did not move).  Folding the device image instead of
//! its blocks' fields, once the image became the device's one persisted
//! form, took it again with the roles swapped: on the parent tree the
//! block fields were replaced by the bytes of the image that tree wrote,
//! `GOLDEN_STATE` and `GOLDEN_CUTS` (which folds the cut runs' state)
//! were re-recorded there, and both hold on the change; the two
//! `GOLDEN_*_TIMING` constants did not move.
//!
//! Every golden must hold through the `FlashBackend` verbs (adapters),
//! through `FlashBackend::execute` on the device, and through a backend that forwards
//! verb by verb and inherits the trait's provided `execute` — the shape
//! of the benchmark's tracing decorator.  Print fresh values with `NOFTL_PRINT_GOLDEN=1 cargo
//! test -p flash-sim --test command_path -- --nocapture`.

use std::sync::Arc;

use flash_sim::{
    ArbiterConfig, BadBlockPolicy, BlockAddr, BlockInfo, BlockState, DeviceBuilder, DeviceStats,
    DieId, DieLoad, DieStats, Duration, FlashBackend, FlashCommand, FlashError, FlashGeometry,
    IoTag, NandDevice, OpKind, OpOutcome, PageAddr, PageMetadata, PageState, ServiceClass, SimTime,
    TimingModel, WearSummary,
};
use noftl_obs::MetricsRegistry;

/// One value for the arbiter-off and the arbiter-on run: the arbiter
/// moves instants, never state.  Re-recorded with the image term on the
/// parent tree of the image's becoming the device's one persisted form
/// (folding the block fields: 14_091_992_286_656_848_606, recorded on
/// PR 18's parent tree).
const GOLDEN_STATE: u64 = 4_039_417_071_969_857_716;
/// Re-recorded with the tracer term on the parent tree of the trace's
/// deletion (folding the deleted trace: 15_872_030_341_653_916_134).
const GOLDEN_PLAIN_TIMING: u64 = 2_623_791_418_031_635_320;
/// Re-recorded likewise (folding the deleted trace:
/// 6_140_367_934_666_672_634).
const GOLDEN_ARBITER_TIMING: u64 = 2_019_465_470_576_111_629;
/// Re-recorded with the image term like `GOLDEN_STATE`, whose cut runs
/// it folds (folding the block fields: 2_680_319_460_121_286_272; before
/// that, folding the deleted trace: 10_789_030_694_904_977_424).
const GOLDEN_CUTS: u64 = 13_071_127_773_244_043_789;

const STREAM_SEED: u64 = 0x5EED_C0DE_2016;
const STREAM_LEN: usize = 2_400;
const BURST_AT: usize = 400;
const BURST_LEN: usize = 150;
const ENDURANCE: u64 = 4;

// ---------------------------------------------------------------------
// Digest and randomness
// ---------------------------------------------------------------------

/// FNV-1a, 64 bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold the `Debug` form of a value, terminated so adjacent values
    /// cannot run into each other.
    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
        self.bytes(&[0xff]);
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix(state) % n
}

// ---------------------------------------------------------------------
// The stream
// ---------------------------------------------------------------------

/// Payload of a program: a full page derived from a fill byte, no
/// payload at all (an all-zero page), or a buffer of the wrong size.
#[derive(Debug, Clone, Copy)]
enum Payload {
    Fill(u8),
    Empty,
    Short,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read(PageAddr),
    MetadataRead(PageAddr),
    Program(PageAddr, Payload, PageMetadata),
    Erase(BlockAddr),
    Copyback(PageAddr, PageAddr),
}

#[derive(Debug, Clone, Copy)]
struct Cmd {
    op: Op,
    at: SimTime,
    tag: IoTag,
}

fn page_bytes(fill: u8, geo: &FlashGeometry) -> Vec<u8> {
    (0..geo.page_size).map(|i| (i as u8).wrapping_mul(31) ^ fill).collect()
}

/// Host-side model of the block states the stream has produced so far,
/// so that most commands are legal and the illegal ones break exactly
/// the rule they aim at.
struct Model {
    geo: FlashGeometry,
    write_ptr: Vec<u32>,
    erases: Vec<u64>,
    bad: Vec<bool>,
}

impl Model {
    fn slot(&self, b: BlockAddr) -> usize {
        (b.die.0 * self.geo.blocks_per_plane + b.block) as usize
    }

    fn random_block(&self, rng: &mut u64) -> BlockAddr {
        let die = below(rng, u64::from(self.geo.total_dies())) as u32;
        BlockAddr::new(DieId(die), 0, below(rng, u64::from(self.geo.blocks_per_plane)) as u32)
    }

    /// A random block satisfying `want`, or any random block after a few
    /// misses (the command then simply fails on the device).
    fn pick(&self, rng: &mut u64, want: impl Fn(&Model, BlockAddr) -> bool) -> BlockAddr {
        for _ in 0..12 {
            let b = self.random_block(rng);
            if want(self, b) {
                return b;
            }
        }
        self.random_block(rng)
    }

    fn programmed(&mut self, b: BlockAddr) {
        let s = self.slot(b);
        if !self.bad[s] && self.write_ptr[s] < self.geo.pages_per_block {
            self.write_ptr[s] += 1;
        }
    }

    fn erased(&mut self, b: BlockAddr) {
        let s = self.slot(b);
        if self.bad[s] {
        } else if self.erases[s] >= ENDURANCE {
            self.bad[s] = true;
        } else {
            self.erases[s] += 1;
            self.write_ptr[s] = 0;
        }
    }
}

fn builder() -> DeviceBuilder {
    DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).bad_blocks(
        BadBlockPolicy {
            factory_bad_fraction: 0.05,
            endurance_cycles: ENDURANCE,
            seed: 0x0bad_b10c,
        },
    )
}

fn random_tag(rng: &mut u64) -> IoTag {
    match below(rng, 4) {
        0 => IoTag::new(ServiceClass::Latency, Some(1)),
        1 => IoTag::default(),
        2 => IoTag::background(Some(2)),
        _ => IoTag::durability(ServiceClass::Throughput, Some(1)),
    }
}

#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn build_stream() -> Vec<Cmd> {
    let probe = builder().build();
    let geo = *probe.geometry();
    let ppb = geo.pages_per_block;
    let blocks = (geo.total_dies() * geo.blocks_per_plane) as usize;
    let mut model = Model {
        geo,
        write_ptr: vec![0; blocks],
        erases: vec![0; blocks],
        bad: vec![false; blocks],
    };
    for die in 0..geo.total_dies() {
        for block in 0..geo.blocks_per_plane {
            let b = BlockAddr::new(DieId(die), 0, block);
            let s = model.slot(b);
            model.bad[s] = probe.block_info(b).unwrap().state == BlockState::Bad;
        }
    }
    let mut seed = STREAM_SEED;
    let rng = &mut seed;
    let mut at = SimTime::ZERO;
    let mut next_lpn = 0u64;
    let mut stream = Vec::with_capacity(STREAM_LEN + BURST_LEN);
    while stream.len() < STREAM_LEN + BURST_LEN {
        if stream.len() == BURST_AT {
            // The burst: same-instant Background reads of one written
            // page, enough to overdraw the region's channel budget.
            let b = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] > 0 && !m.bad[m.slot(b)]);
            assert!(model.write_ptr[model.slot(b)] > 0, "burst needs a written page");
            let cmd = Cmd { op: Op::Read(b.page(0)), at, tag: IoTag::background(Some(7)) };
            stream.extend(std::iter::repeat_n(cmd, BURST_LEN));
            continue;
        }
        if below(rng, 10) >= 3 {
            at += Duration(below(rng, 500_000));
        }
        let tag = random_tag(rng);
        let mut meta = |rng: &mut u64, data: &[u8]| {
            next_lpn += 1;
            let meta = if below(rng, 6) == 0 {
                // Caller-assigned epoch (what a mirror stamps): ratchets
                // the device counter instead of drawing from it.
                PageMetadata::with_epoch(3, next_lpn, 10_000 + next_lpn * 3)
            } else {
                PageMetadata::new(1 + (next_lpn % 3) as u32, next_lpn)
            };
            meta.with_payload_checksum(data)
        };
        let op = match below(rng, 100) {
            0..=31 => {
                let b = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] < ppb && !m.bad[m.slot(b)]);
                let page = model.write_ptr[model.slot(b)].min(ppb - 1);
                let (payload, m) = if below(rng, 8) == 0 {
                    (Payload::Empty, meta(rng, &[]))
                } else {
                    let fill = below(rng, 256) as u8;
                    (Payload::Fill(fill), meta(rng, &page_bytes(fill, &geo)))
                };
                model.programmed(b);
                Op::Program(b.page(page), payload, m)
            }
            32..=51 => {
                let b = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] > 0);
                let wp = model.write_ptr[model.slot(b)];
                // One read in ten aims past the write pointer.
                let page =
                    if below(rng, 10) == 0 { wp } else { below(rng, u64::from(wp.max(1))) as u32 };
                Op::Read(b.page(page.min(ppb - 1)))
            }
            52..=59 => {
                Op::MetadataRead(model.random_block(rng).page(below(rng, u64::from(ppb)) as u32))
            }
            60..=71 => {
                let src = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] > 0);
                let src_page =
                    below(rng, u64::from(model.write_ptr[model.slot(src)].max(1))) as u32;
                let dst = model.pick(rng, |m, b| {
                    b.die == src.die
                        && b != src
                        && m.write_ptr[m.slot(b)] < ppb
                        && !m.bad[m.slot(b)]
                });
                let dst = BlockAddr::new(src.die, 0, dst.block);
                let dst_page = model.write_ptr[model.slot(dst)].min(ppb - 1);
                model.programmed(dst);
                Op::Copyback(src.page(src_page), dst.page(dst_page))
            }
            72..=81 => {
                let b = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] == ppb);
                model.erased(b);
                Op::Erase(b)
            }
            82..=85 => {
                // Non-sequential: skip ahead of the write pointer.
                let b = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] < ppb - 1);
                let page = (model.write_ptr[model.slot(b)] + 1).min(ppb - 1);
                Op::Program(b.page(page), Payload::Fill(0xEE), meta(rng, &[]))
            }
            86..=88 => {
                // In place: a page already behind the write pointer.
                let b = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] > 0);
                Op::Program(b.page(0), Payload::Fill(0xDD), meta(rng, &[]))
            }
            89..=91 => match below(rng, 4) {
                0 => Op::Read(PageAddr::new(DieId(99), 0, 0, 0)),
                1 => Op::Erase(BlockAddr::new(DieId(0), 0, 999)),
                2 => {
                    Op::Program(PageAddr::new(DieId(1), 0, 0, ppb), Payload::Empty, meta(rng, &[]))
                }
                _ => {
                    Op::Copyback(model.random_block(rng).page(0), PageAddr::new(DieId(0), 7, 0, 0))
                }
            },
            92..=94 => {
                let b = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] < ppb);
                Op::Program(
                    b.page(model.write_ptr[model.slot(b)].min(ppb - 1)),
                    Payload::Short,
                    meta(rng, &[]),
                )
            }
            95..=97 => {
                let src = model.pick(rng, |m, b| m.write_ptr[m.slot(b)] > 0);
                let dst = BlockAddr::new(DieId((src.die.0 + 1) % geo.total_dies()), 0, src.block);
                Op::Copyback(src.page(0), dst.page(0))
            }
            _ => Op::MetadataRead(PageAddr::new(DieId(2), 0, geo.blocks_per_plane, 0)),
        };
        stream.push(Cmd { op, at, tag });
    }
    stream
}

// ---------------------------------------------------------------------
// Three ways to issue a command
// ---------------------------------------------------------------------

/// Every driver reports a command the same way.
type Outcome = Result<(Vec<u8>, Option<PageMetadata>, OpOutcome), FlashError>;

/// The per-command verbs of `FlashBackend`, untagged where the tag is
/// the default one so that all eight are exercised.
fn via_verbs(dev: &dyn FlashBackend, cmd: FlashCommand<'_>, at: SimTime, tag: IoTag) -> Outcome {
    let plain = tag == IoTag::default();
    match cmd {
        FlashCommand::Read { addr, .. } if plain => dev.read_page(addr, at),
        FlashCommand::Read { addr, .. } => dev.read_page_tagged(addr, at, tag),
        FlashCommand::MetadataRead { addr } if plain => {
            dev.read_metadata(addr, at).map(|(m, o)| (Vec::new(), m, o))
        }
        FlashCommand::MetadataRead { addr } => {
            dev.read_metadata_tagged(addr, at, tag).map(|(m, o)| (Vec::new(), m, o))
        }
        FlashCommand::Program { addr, data, meta } if plain => {
            dev.program_page(addr, data, meta, at).map(|o| (Vec::new(), None, o))
        }
        FlashCommand::Program { addr, data, meta } => {
            dev.program_page_tagged(addr, data, meta, at, tag).map(|o| (Vec::new(), None, o))
        }
        FlashCommand::Erase { block } => dev.erase_block(block, at).map(|o| (Vec::new(), None, o)),
        FlashCommand::Copyback { src, dst } => {
            dev.copyback(src, dst, at).map(|o| (Vec::new(), None, o))
        }
    }
}

/// `execute`; a read's payload is in the buffer the command lent, not in
/// the outcome.
fn via_execute(dev: &dyn FlashBackend, cmd: FlashCommand<'_>, at: SimTime, tag: IoTag) -> Outcome {
    dev.execute(cmd, at, tag).map(|out| (Vec::new(), out.meta, out.outcome))
}

/// A backend that forwards every method the trait had before `execute`
/// existed and inherits the provided `execute`.
struct ForwardOnly(Arc<NandDevice>);

impl FlashBackend for ForwardOnly {
    fn geometry(&self) -> &FlashGeometry {
        FlashBackend::geometry(&*self.0)
    }
    fn timing(&self) -> &TimingModel {
        FlashBackend::timing(&*self.0)
    }
    fn metrics(&self) -> &Arc<MetricsRegistry> {
        FlashBackend::metrics(&*self.0)
    }
    fn read_page(&self, addr: PageAddr, at: SimTime) -> Outcome {
        FlashBackend::read_page(&*self.0, addr, at)
    }
    fn read_page_tagged(&self, addr: PageAddr, at: SimTime, tag: IoTag) -> Outcome {
        FlashBackend::read_page_tagged(&*self.0, addr, at, tag)
    }
    fn read_metadata(
        &self,
        addr: PageAddr,
        at: SimTime,
    ) -> Result<(Option<PageMetadata>, OpOutcome), FlashError> {
        FlashBackend::read_metadata(&*self.0, addr, at)
    }
    fn read_metadata_tagged(
        &self,
        addr: PageAddr,
        at: SimTime,
        tag: IoTag,
    ) -> Result<(Option<PageMetadata>, OpOutcome), FlashError> {
        FlashBackend::read_metadata_tagged(&*self.0, addr, at, tag)
    }
    fn program_page(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> Result<OpOutcome, FlashError> {
        FlashBackend::program_page(&*self.0, addr, data, meta, at)
    }
    fn program_page_tagged(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
        tag: IoTag,
    ) -> Result<OpOutcome, FlashError> {
        FlashBackend::program_page_tagged(&*self.0, addr, data, meta, at, tag)
    }
    fn erase_block(&self, addr: BlockAddr, at: SimTime) -> Result<OpOutcome, FlashError> {
        FlashBackend::erase_block(&*self.0, addr, at)
    }
    fn copyback(&self, src: PageAddr, dst: PageAddr, at: SimTime) -> Result<OpOutcome, FlashError> {
        FlashBackend::copyback(&*self.0, src, dst, at)
    }
    fn mark_invalid(&self, addr: PageAddr) -> Result<(), FlashError> {
        FlashBackend::mark_invalid(&*self.0, addr)
    }
    fn retire_block(&self, addr: BlockAddr) -> Result<(), FlashError> {
        FlashBackend::retire_block(&*self.0, addr)
    }
    fn block_info(&self, addr: BlockAddr) -> Result<BlockInfo, FlashError> {
        FlashBackend::block_info(&*self.0, addr)
    }
    fn page_state(&self, addr: PageAddr) -> Result<PageState, FlashError> {
        FlashBackend::page_state(&*self.0, addr)
    }
    fn stats(&self) -> DeviceStats {
        FlashBackend::stats(&*self.0)
    }
    fn die_stats(&self) -> Vec<DieStats> {
        FlashBackend::die_stats(&*self.0)
    }
    fn wear_summary(&self) -> WearSummary {
        FlashBackend::wear_summary(&*self.0)
    }
    fn quiesce_time(&self) -> SimTime {
        FlashBackend::quiesce_time(&*self.0)
    }
    fn die_busy_until(&self, die: DieId) -> SimTime {
        FlashBackend::die_busy_until(&*self.0, die)
    }
    fn die_load(&self, die: DieId, at: SimTime) -> DieLoad {
        FlashBackend::die_load(&*self.0, die, at)
    }
    fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        FlashBackend::die_loads(&*self.0, at)
    }
    fn current_epoch(&self) -> u64 {
        FlashBackend::current_epoch(&*self.0)
    }
    fn stores_data(&self) -> bool {
        FlashBackend::stores_data(&*self.0)
    }
    fn die_touched(&self, die: DieId) -> bool {
        FlashBackend::die_touched(&*self.0, die)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// How a run issues its commands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Way {
    Verbs,
    Execute,
    ForwardOnly,
}

const WAYS: [Way; 3] = [Way::Verbs, Way::Execute, Way::ForwardOnly];

// ---------------------------------------------------------------------
// Running and digesting
// ---------------------------------------------------------------------

const ARBITER_COUNTERS: [&str; 8] = [
    "flash.arbiter.class.latency.ops",
    "flash.arbiter.class.throughput.ops",
    "flash.arbiter.class.background.ops",
    "flash.arbiter.deferred",
    "flash.arbiter.deferral_ns",
    "flash.arbiter.aging_capped",
    "flash.arbiter.backfills",
    "flash.arbiter.exempt",
];

/// The name of an error's variant, without its fields.
fn variant(e: &FlashError) -> String {
    format!("{e:?}").split([' ', '{']).next().unwrap_or_default().to_string()
}

/// What one run of the stream produced, beyond its digest.
struct Run {
    /// Digest of everything that is not an instant (see the module docs).
    state: u64,
    /// Digest of every instant, latency and depth.
    timing: u64,
    /// `(kind, started_at, completed_at)` of every successful command.
    spans: Vec<(OpKind, SimTime, SimTime)>,
    /// `Debug` name of every error variant seen, with its count.
    errors: std::collections::BTreeMap<String, usize>,
    device: Arc<NandDevice>,
}

fn run(device: NandDevice, stream: &[Cmd], way: Way) -> Run {
    let device = Arc::new(device);
    device.metrics().tracer().set_enabled(true);
    let geo = *device.geometry();
    let forwarder = ForwardOnly(Arc::clone(&device));
    let (mut state, mut timing) = (Digest::new(), Digest::new());
    let mut spans = Vec::new();
    let mut errors = std::collections::BTreeMap::new();
    let mut buf;
    let mut page = vec![0; geo.page_size as usize];
    for cmd in stream {
        let command = match cmd.op {
            Op::Read(addr) => FlashCommand::Read { addr, data: &mut page },
            Op::MetadataRead(addr) => FlashCommand::MetadataRead { addr },
            Op::Program(addr, payload, meta) => {
                buf = match payload {
                    Payload::Fill(fill) => page_bytes(fill, &geo),
                    Payload::Empty => Vec::new(),
                    Payload::Short => vec![1, 2, 3],
                };
                FlashCommand::Program { addr, data: &buf, meta }
            }
            Op::Erase(block) => FlashCommand::Erase { block },
            Op::Copyback(src, dst) => FlashCommand::Copyback { src, dst },
        };
        let kind = command.kind();
        let outcome = match way {
            Way::Verbs => via_verbs(&*device, command, cmd.at, cmd.tag),
            Way::Execute => via_execute(&*device, command, cmd.at, cmd.tag),
            Way::ForwardOnly => via_execute(&forwarder, command, cmd.at, cmd.tag),
        };
        match &outcome {
            Ok((data, meta, out)) => {
                state.bytes(b"ok");
                let lent = way != Way::Verbs && kind == OpKind::Read;
                state.bytes(if lent { &page } else { data });
                state.debug(meta);
                timing.debug(out);
                spans.push((kind, out.started_at, out.completed_at));
            }
            Err(e) => {
                // No error carries an instant of the device's choosing
                // (`PowerLoss::at` is the armed cut, an input).
                state.debug(e);
                *errors.entry(variant(e)).or_insert(0) += 1;
            }
        }
    }
    let stats = device.stats();
    // The counts of `DeviceStats` are state; its latency sums and queue
    // depth are timing.
    let counts = DeviceStats {
        read_latency_sum: Duration::ZERO,
        program_latency_sum: Duration::ZERO,
        erase_latency_sum: Duration::ZERO,
        copyback_latency_sum: Duration::ZERO,
        queue_depth_hwm: 0,
        ..stats.clone()
    };
    state.debug(&counts);
    state.bytes(&device.image());
    timing.debug(&stats);
    timing.debug(&device.die_stats());
    timing.debug(&device.quiesce_time());
    timing.debug(&device.metrics().tracer().events());
    for name in ARBITER_COUNTERS {
        timing.debug(&device.metrics().counter(name).get());
    }
    Run { state: state.0, timing: timing.0, spans, errors, device }
}

/// Cut instants aimed into in-flight commands of the uncut run: for three
/// commands of each kind that changes the array, one instant a quarter of
/// the way through (the OOB area is lost) and one three quarters through
/// (it survives).
fn cut_instants(uncut: &Run) -> Vec<SimTime> {
    let mut seed = STREAM_SEED ^ 0xC07;
    let rng = &mut seed;
    let mut cuts = Vec::new();
    for kind in [OpKind::Program, OpKind::Copyback, OpKind::Erase] {
        let of_kind: Vec<_> = uncut.spans.iter().filter(|s| s.0 == kind).collect();
        assert!(of_kind.len() >= 3, "{kind:?} is rare in the stream");
        for _ in 0..3 {
            let (_, start, done) = of_kind[below(rng, of_kind.len() as u64) as usize];
            let span = done.as_nanos() - start.as_nanos();
            cuts.push(SimTime(start.as_nanos() + span / 4));
            cuts.push(SimTime(start.as_nanos() + span * 3 / 4));
        }
    }
    cuts
}

fn plain_digest(stream: &[Cmd], way: Way) -> Run {
    run(builder().build(), stream, way)
}

fn arbiter_digest(stream: &[Cmd], way: Way) -> Run {
    run(builder().arbiter(ArbiterConfig::default()).build(), stream, way)
}

fn cuts_digest(stream: &[Cmd], cuts: &[SimTime], way: Way) -> u64 {
    let mut digest = Digest::new();
    for cut in cuts {
        let device = builder().build();
        device.arm_power_cut(*cut);
        let cut_run = run(device, stream, way);
        assert!(cut_run.errors.contains_key("PowerLoss"), "cut at {cut:?} hit nothing");
        digest.debug(&(cut_run.state, cut_run.timing));
    }
    digest.0
}

/// Compare a digest with its golden — or, under `NOFTL_PRINT_GOLDEN`,
/// print it instead.
fn check(name: &str, way: Way, got: u64, golden: u64) {
    if std::env::var("NOFTL_PRINT_GOLDEN").is_ok() {
        println!("{name} ({way:?}): {got}");
    } else {
        assert_eq!(got, golden, "{name} through {way:?}");
    }
}

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn the_stream_covers_every_kind_and_every_rejection() {
    let stream = build_stream();
    assert!(stream.len() >= 2_000);
    let plain = plain_digest(&stream, Way::Verbs);
    for kind in
        [OpKind::Read, OpKind::MetadataRead, OpKind::Program, OpKind::Erase, OpKind::Copyback]
    {
        let n = plain.spans.iter().filter(|s| s.0 == kind).count();
        assert!(n >= 50, "only {n} successful {kind:?} commands");
    }
    for variant in [
        "OutOfBounds",
        "BadPageSize",
        "CopybackCrossDie",
        "UnwrittenPage",
        "PageNotErased",
        "NonSequentialProgram",
        "BadBlock",
        "WornOut",
    ] {
        assert!(plain.errors.contains_key(variant), "no {variant} in {:?}", plain.errors);
    }
    let arbiter = arbiter_digest(&stream, Way::Verbs);
    let counter = |name: &str| arbiter.device.metrics().counter(name).get();
    assert!(counter("flash.arbiter.deferred") > 0, "the Background burst must defer");
    assert!(counter("flash.arbiter.backfills") > 0);
    assert!(counter("flash.arbiter.exempt") > 0);
    assert!(counter("flash.arbiter.class.latency.ops") > 0);
    assert!(cut_instants(&plain).len() >= 16);
}

#[test]
fn arbiter_off_digest_is_golden_every_way() {
    let stream = build_stream();
    for way in WAYS {
        let run = plain_digest(&stream, way);
        check("GOLDEN_STATE (arbiter off)", way, run.state, GOLDEN_STATE);
        check("GOLDEN_PLAIN_TIMING", way, run.timing, GOLDEN_PLAIN_TIMING);
    }
}

#[test]
fn arbiter_on_digest_is_golden_every_way() {
    let stream = build_stream();
    for way in WAYS {
        let run = arbiter_digest(&stream, way);
        check("GOLDEN_STATE (arbiter on)", way, run.state, GOLDEN_STATE);
        check("GOLDEN_ARBITER_TIMING", way, run.timing, GOLDEN_ARBITER_TIMING);
    }
}

#[test]
fn power_cut_sweep_digest_is_golden_every_way() {
    let stream = build_stream();
    let cuts = cut_instants(&plain_digest(&stream, Way::Verbs));
    for way in WAYS {
        check("GOLDEN_CUTS", way, cuts_digest(&stream, &cuts, way), GOLDEN_CUTS);
    }
}

/// `DeviceStats::errors`, the `Err` results `execute` hands back and the
/// `error` instants on the tracer's die tracks count the same thing:
/// every rejected command, whether it was turned away before the die was locked (bad address,
/// bad payload size, cross-die copyback), by a NAND rule, by a bad or
/// worn-out block, or by the power cut.
#[test]
fn every_rejection_is_counted_once() {
    let device = Arc::new(
        DeviceBuilder::new(FlashGeometry::small_test())
            .timing(TimingModel::mlc_2015())
            .bad_blocks(BadBlockPolicy { factory_bad_fraction: 0.0, endurance_cycles: 1, seed: 0 })
            .build(),
    );
    device.metrics().tracer().set_enabled(true);
    let issue = |cmd, at| device.execute(cmd, at, IoTag::default());
    let page = |die, block, page| PageAddr::new(DieId(die), 0, block, page);
    let full = vec![7u8; 4096];
    let meta = PageMetadata::new(1, 0);
    let retired = BlockAddr::new(DieId(3), 0, 0);
    device.retire_block(retired).unwrap();
    let worn = BlockAddr::new(DieId(2), 0, 0);
    let t0 = SimTime::ZERO;
    let mut results = vec![
        // Accepted: a program to read back, and the one erase `worn` has.
        issue(FlashCommand::Program { addr: page(0, 0, 0), data: &full, meta }, t0),
        issue(FlashCommand::Erase { block: worn }, t0),
        // Turned away before the die is locked.
        issue(FlashCommand::Read { addr: page(99, 0, 0), data: &mut [] }, t0),
        issue(FlashCommand::Program { addr: page(0, 0, 1), data: &[1, 2, 3], meta }, t0),
        issue(FlashCommand::Copyback { src: page(0, 0, 0), dst: page(1, 0, 0) }, t0),
        // NAND rules.
        issue(FlashCommand::Read { addr: page(1, 0, 0), data: &mut [] }, t0),
        issue(FlashCommand::Program { addr: page(1, 1, 5), data: &full, meta }, t0),
        // Bad and worn-out blocks.
        issue(FlashCommand::Program { addr: retired.page(0), data: &full, meta }, t0),
        issue(FlashCommand::Erase { block: worn }, t0),
    ];
    // The cut lands inside the second program; the read is issued after it.
    let idle = device.quiesce_time();
    let cut = idle + Duration::from_us(100);
    device.arm_power_cut(cut);
    results.push(issue(FlashCommand::Program { addr: page(0, 0, 1), data: &full, meta }, idle));
    results.push(issue(FlashCommand::Read { addr: page(0, 0, 0), data: &mut [] }, cut));

    let variants: Vec<String> =
        results.iter().filter_map(|r| r.as_ref().err()).map(variant).collect();
    assert_eq!(
        variants,
        [
            "OutOfBounds",
            "BadPageSize",
            "CopybackCrossDie",
            "UnwrittenPage",
            "NonSequentialProgram",
            "BadBlock",
            "WornOut",
            "PowerLoss",
            "PowerLoss",
        ]
    );
    assert_eq!(device.stats().errors, variants.len() as u64);
    let events = device.metrics().tracer().events();
    let instants = events.iter().filter(|e| e.cat == "flash.op" && e.dur_ns.is_none());
    assert_eq!(instants.count(), variants.len());
    // The two accepted commands are the only spans.
    assert_eq!(events.iter().filter(|e| e.dur_ns.is_some()).count(), 2);
}
