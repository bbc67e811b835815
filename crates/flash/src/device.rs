//! The simulated NAND device and its native command interface.
//!
//! [`NandDevice`] is what the NoFTL storage manager (`noftl-core`) — and
//! the mirror that fronts several devices — drives.  It enforces NAND
//! programming rules, models per-die/per-channel timing, tracks wear and
//! maintains the statistics needed to reproduce the paper's evaluation.
//!
//! ## One command path
//!
//! [`NandDevice`] is spelled once: every method the storage manager calls
//! is a method of its [`FlashBackend`] implementation, and the inherent
//! methods are only what a plain device has beyond the trait (power
//! cuts, images, replica programs).
//!
//! Every timed command — the five [`FlashCommand`] variants — enters
//! through [`FlashBackend::execute`] and runs the same phases, each
//! written once: static checks against the geometry → power check →
//! arbiter admission (commands that move data) → validation → epoch
//! stamp → one reservation of die and channel time ([`crate::sched`]) →
//! tear, if an armed power cut catches the command in flight, else apply
//! → accounting (the device's [`DeviceStats`], the registry's metrics and
//! its tracer's `flash.op` span — the device's one command trace).
//! [`NandDevice::program_replica`] is the one named exception: the same
//! path with the epoch ratchet off.  The per-command verbs of
//! [`FlashBackend`] are adapters over `execute`.
//!
//! ## Concurrency model
//!
//! All of a device's mutable state — the dies (planes, blocks, occupancy
//! timelines), the channel timelines, the arbiter's token buckets, the
//! command ledger, the write epoch and the armed power cut — sits behind
//! one mutex, taken through one choke point (`lock_device`, lock class
//! [`LockClass::Device`]).  A command holds it from its static checks to
//! its accounting, so every command is atomic and the device is `Send +
//! Sync`.  The die- and channel-level parallelism the paper measures is
//! simulated time, claimed on the timelines: where a command lands
//! depends on its issue instant and what is already reserved, never on
//! which host thread called or when.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use noftl_obs::MetricsRegistry;

use crate::addr::{BlockAddr, DieId, PageAddr};
use crate::arbiter::{ArbiterConfig, IoTag, ServiceClass, TokenBucket};
use crate::backend::FlashBackend;
use crate::badblock::BadBlockPolicy;
use crate::block::{Block, BlockInfo, BlockState, PageState};
use crate::command::{CmdOutput, FlashCommand};
use crate::die::Die;
use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::image;
use crate::lockorder::{self, LockClass, TrackedGuard};
use crate::metadata::PageMetadata;
use crate::obs::{ArbiterObs, DeviceObs};
use crate::sched::{self, Scheduled, Shape, Timeline};
use crate::stats::{DeviceStats, DieStats, WearSummary};
use crate::time::{Duration, SimTime};
use crate::timing::TimingModel;
use crate::Result;

/// Where the page a program or copyback writes takes its bytes from: the
/// program's payload (empty for an all-zero page), or a copyback's source
/// page on the same die.
#[derive(Clone, Copy)]
enum Source<'a> {
    Bytes(&'a [u8]),
    Page(PageAddr),
}

/// The one page a program or copyback writes: where, from what, and the
/// OOB metadata.
type PageWrite<'a> = (PageAddr, Source<'a>, Option<PageMetadata>);

/// Result of a successfully scheduled flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// When the operation started executing on the die.
    pub started_at: SimTime,
    /// When the operation completed (result available to the host).
    pub completed_at: SimTime,
}

/// Load of one die as of an observation instant, as reported by
/// [`FlashBackend::die_load`] and [`FlashBackend::die_loads`]: the input of
/// the mirror's read-source selection.  Both fields answer for that
/// instant, not for the end of everything the die has ever been handed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DieLoad {
    /// Where a program's array phase issued at the observation instant
    /// would start: the first idle window of tPROG on the die's timeline
    /// (the observation instant itself on a die with that much room).
    pub busy_until: SimTime,
    /// Commands reserved on the die and unfinished at the observation
    /// instant (0 = idle).
    pub queue_depth: u32,
}

impl DieLoad {
    /// Earliest instant an operation issued at `at` could start on this
    /// die — the key the mirror's read selection ranks replicas by.
    pub fn earliest_start(&self, at: SimTime) -> SimTime {
        self.busy_until.max(at)
    }
}

/// Builder for [`NandDevice`].
#[derive(Debug, Clone)]
pub struct DeviceBuilder {
    geometry: FlashGeometry,
    timing: TimingModel,
    bad_blocks: BadBlockPolicy,
    metrics: Option<Arc<MetricsRegistry>>,
    arbiter: Option<ArbiterConfig>,
}

impl DeviceBuilder {
    /// Start building a device with the given geometry and default timing.
    pub fn new(geometry: FlashGeometry) -> Self {
        DeviceBuilder {
            geometry,
            timing: TimingModel::default(),
            bad_blocks: BadBlockPolicy::none(),
            metrics: None,
            arbiter: None,
        }
    }

    /// Use a specific timing model.
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Use a specific bad-block / endurance policy.
    pub fn bad_blocks(mut self, policy: BadBlockPolicy) -> Self {
        self.bad_blocks = policy;
        self
    }

    /// Enable the cross-region I/O arbiter with the given tuning: per-
    /// region channel-bandwidth budgets that pace `Background`-class
    /// transfers.  Off by default — without it, tagged submissions
    /// schedule byte-identically to untagged ones.
    pub fn arbiter(mut self, config: ArbiterConfig) -> Self {
        self.arbiter = Some(config);
        self
    }

    /// Record metrics into an existing registry (e.g. one shared across
    /// devices).  By default each device gets its own registry, so tests and
    /// benches observe only their own stack.  Turn the registry's tracer
    /// on for a command trace: one `flash.op` span per completed command
    /// on its die's track, one `error` instant per rejected one.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Build the device.
    ///
    /// # Panics
    /// Panics if the geometry fails validation; geometry errors are
    /// programming errors, not runtime conditions.
    #[expect(clippy::panic, reason = "a bad geometry is a programming error, see `# Panics`")]
    pub fn build(self) -> NandDevice {
        self.geometry.validate().unwrap_or_else(|e| panic!("invalid flash geometry: {e}"));
        let g = self.geometry;
        let mut dies: Vec<Die> = (0..g.total_dies())
            .map(|_| Die::new(g.planes_per_die, g.blocks_per_plane, g.pages_per_block))
            .collect();
        // Mark factory-bad blocks.
        for index in self.bad_blocks.factory_bad_blocks(g.total_blocks()) {
            let block = g.block_at(index);
            dies[block.die.0 as usize].block_mut(block).state = BlockState::Bad;
        }
        let registry = self.metrics.unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let arbiter =
            self.arbiter.map(|config| ArbiterSlot { config, obs: ArbiterObs::new(&registry) });
        NandDevice {
            geometry: g,
            timing: self.timing,
            endurance: self.bad_blocks.endurance_cycles,
            state: Mutex::new(DeviceState::new(&g, dies, 0)),
            obs: DeviceObs::new(registry),
            arbiter,
        }
    }
}

/// The arbiter of an enabled device: its tuning and pre-bound decision
/// counters.  Its token buckets are device state.
struct ArbiterSlot {
    config: ArbiterConfig,
    obs: ArbiterObs,
}

/// Everything about a device that changes, behind its one lock.
struct DeviceState {
    /// Planes, blocks, occupancy timeline and counters of each die.
    dies: Vec<Die>,
    /// Per-channel transfer-bus occupancy.
    channels: Vec<Timeline>,
    /// The arbiter's admission state: one token bucket per `(region,
    /// channel)` pair, created on first use.
    buckets: HashMap<(u32, u32), TokenBucket>,
    /// Every command the device completed or rejected.
    stats: DeviceStats,
    /// Device-wide write sequence number, stamped into page metadata when
    /// the caller does not supply an epoch.
    epoch: u64,
    /// When armed, the simulated instant at which the device loses power:
    /// operations issued at or after it fail with `FlashError::PowerLoss`,
    /// and an operation still in flight at that instant is torn.
    power_cut: Option<SimTime>,
}

impl DeviceState {
    /// The state of a device of geometry `g` over `dies`: idle channels,
    /// an empty ledger, write epoch `epoch` and no power cut armed.
    fn new(g: &FlashGeometry, dies: Vec<Die>, epoch: u64) -> DeviceState {
        DeviceState {
            dies,
            channels: (0..g.channels).map(|_| Timeline::default()).collect(),
            buckets: HashMap::new(),
            stats: DeviceStats::default(),
            epoch,
            power_cut: None,
        }
    }

    /// Fail if the device has already lost power at `at`.
    fn check_powered(&self, at: SimTime) -> Result<()> {
        match self.power_cut {
            Some(cut) if at >= cut => Err(FlashError::PowerLoss { at: cut }),
            _ => Ok(()),
        }
    }

    /// Every block of the device in `(die, plane, block)` row-major order.
    fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.dies.iter().flat_map(|d| d.planes.iter()).flat_map(|p| p.blocks.iter())
    }
}

/// The simulated native NAND flash device.
///
/// Every command takes the host's issue time and returns an [`OpOutcome`]
/// carrying the completion time; the device never blocks real threads.
/// The device is `Send + Sync`: its mutable state sits behind one lock,
/// and each command holds it from start to finish (see the module docs).
pub struct NandDevice {
    geometry: FlashGeometry,
    timing: TimingModel,
    endurance: u64,
    state: Mutex<DeviceState>,
    /// Pre-registered metric handles (atomics-only; see `crate::obs`).
    obs: DeviceObs,
    /// Cross-region I/O arbiter (None = disabled, the pre-arbiter path).
    arbiter: Option<ArbiterSlot>,
}

impl std::fmt::Debug for NandDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NandDevice")
            .field("geometry", &self.geometry)
            .field("timing", &self.timing)
            .finish_non_exhaustive()
    }
}

impl NandDevice {
    /// Lock the device's state.  This is the sole acquisition site of the
    /// device lock.
    fn lock_device(&self) -> TrackedGuard<'_, DeviceState> {
        lockorder::lock_tracked(LockClass::Device, &self.state)
    }

    fn check_page(&self, addr: PageAddr) -> Result<()> {
        if self.geometry.contains_page(addr) {
            Ok(())
        } else {
            Err(FlashError::oob(addr))
        }
    }

    fn check_block(&self, addr: BlockAddr) -> Result<()> {
        if self.geometry.contains_block(addr) {
            Ok(())
        } else {
            Err(FlashError::oob(addr))
        }
    }

    /// Decide the issue instant of a tagged transfer op whose channel
    /// occupancy is `xfer`: a `Background` transfer is paced by its
    /// region's token bucket, everything else — and everything with the
    /// arbiter disabled — issues at `at`.  The channel time a deferral
    /// leaves idle is simply free on the timeline.
    fn admit(
        &self,
        buckets: &mut HashMap<(u32, u32), TokenBucket>,
        tag: IoTag,
        region_channel: u32,
        xfer: Duration,
        at: SimTime,
    ) -> SimTime {
        let Some(slot) = &self.arbiter else {
            return at;
        };
        slot.obs.note_class(tag.class);
        if tag.exempt {
            slot.obs.exempt.inc();
            return at;
        }
        if tag.class != ServiceClass::Background {
            return at;
        }
        let key = (tag.region.unwrap_or(u32::MAX), region_channel);
        let bucket = buckets.entry(key).or_insert_with(|| TokenBucket::new(&slot.config));
        let admission = bucket.admit(&slot.config, at, xfer.as_nanos());
        if admission.deferred {
            slot.obs.deferred.inc();
            slot.obs.deferral_ns.add(admission.issue.as_nanos() - at.as_nanos());
            if admission.aged {
                slot.obs.aging_capped.inc();
            }
        }
        admission.issue
    }

    /// Count a transfer that landed before its channel's last reserved
    /// end (arbiter-enabled devices only).
    fn note_backfill(&self, backfilled: bool) {
        if backfilled {
            if let Some(slot) = &self.arbiter {
                slot.obs.backfills.inc();
            }
        }
    }

    /// Program a page as part of a replication rebuild: identical to a
    /// [`FlashCommand::Program`] except that a caller-assigned epoch does
    /// **not** ratchet the device-wide epoch counter.
    ///
    /// The counter is the high-water mark of the *consistent* history
    /// this device holds.  A rebuild replays source pages (with their
    /// original epochs) onto a stale device; until the rebuild commits,
    /// those pages are not part of a consistent history, and advancing
    /// the counter early would let a crash mid-rebuild leave a
    /// half-copied device that claims — by epoch — to be as current as
    /// its source.  The mirror calls [`NandDevice::ratchet_epoch`] once
    /// the rebuild completes.
    pub fn program_replica(
        &self,
        addr: PageAddr,
        data: &[u8],
        meta: PageMetadata,
        at: SimTime,
    ) -> Result<OpOutcome> {
        // Rebuild copies are maintenance traffic: tagged `Background` so
        // an arbiter-enabled device budgets them like GC and compaction.
        let cmd = FlashCommand::Program { addr, data, meta };
        self.run(cmd, at, IoTag::background(None), false).map(|out| out.outcome)
    }

    /// Commit a rebuilt history: advance the epoch counter to `to` (never
    /// backwards).  See [`NandDevice::program_replica`].
    pub fn ratchet_epoch(&self, to: u64) {
        let mut state = self.lock_device();
        state.epoch = state.epoch.max(to);
    }

    /// Take one command through [`Self::phases`] under the device lock;
    /// if any phase rejected it, count it in `errors` and trace the
    /// error instant.
    fn run(
        &self,
        cmd: FlashCommand<'_>,
        at: SimTime,
        tag: IoTag,
        ratchet: bool,
    ) -> Result<CmdOutput> {
        let die = cmd.die();
        let mut state = self.lock_device();
        let result = self.phases(&mut state, cmd, at, tag, ratchet);
        if result.is_err() {
            state.stats.errors += 1;
            self.obs.note_error(die, at);
        }
        result
    }

    /// The command path, every phase once and in this order: static
    /// checks → power check → arbiter admission → validation → epoch
    /// stamp → the one reservation of die and channel time → tear (an
    /// armed power cut catches the command in flight) or apply →
    /// accounting.  `ratchet` is [`Self::program_replica`]'s one
    /// difference.
    #[expect(clippy::disallowed_methods, reason = "the device's one reservation site")]
    fn phases(
        &self,
        state: &mut DeviceState,
        cmd: FlashCommand<'_>,
        at: SimTime,
        tag: IoTag,
        ratchet: bool,
    ) -> Result<CmdOutput> {
        self.check_static(&cmd)?;
        state.check_powered(at)?;
        // Admission: only a command that moves data over the channel is
        // the arbiter's business; a die-only command issues at `at`.
        let (kind, die_id) = (cmd.kind(), cmd.die());
        let shape = Shape::of(kind, &self.timing, &self.geometry);
        let ch = self.geometry.channel_of_die(die_id);
        let DeviceState { dies, channels, buckets, stats, epoch, power_cut } = state;
        let issue = shape.xfer.map_or(at, |(xfer, _)| self.admit(buckets, tag, ch, xfer, at));
        let die = &mut dies[die_id.0 as usize];
        let moved_meta = self.validate(die, &cmd)?;
        // The page this command programs, if any: a program's own payload
        // under its (now stamped) metadata, a copyback's source page under
        // the metadata captured from it.
        let write: Option<PageWrite<'_>> = match cmd {
            FlashCommand::Program { addr, data, mut meta } => {
                if meta.epoch == 0 {
                    *epoch += 1;
                    meta.epoch = *epoch;
                } else if ratchet {
                    // Caller-assigned epoch (a mirror stamping a shared
                    // sequence): ratchet the counter so `current_epoch` —
                    // and the image that persists it — reports the
                    // newest epoch this device has stored as part of its
                    // consistent history.  Rebuild replays
                    // (`program_replica`) deliberately skip this.
                    *epoch = (*epoch).max(meta.epoch);
                }
                Some((addr, Source::Bytes(data), Some(meta)))
            }
            FlashCommand::Copyback { src, dst } => Some((dst, Source::Page(src), moved_meta)),
            _ => None,
        };
        let channel = shape.xfer.map(|_| &mut channels[ch as usize]);
        let sched = sched::schedule(die, channel, &shape, issue);
        self.note_backfill(sched.bus.is_some_and(|bus| bus.backfilled));
        if let Some(cut) = power_cut.filter(|cut| sched.complete > *cut) {
            // Power failed before the command completed.  One that had
            // not started leaves no mark, and a read whose result would
            // only arrive after the cut never reaches the host.
            if sched.start < cut {
                self.tear(die, &cmd, write, &sched, cut);
            }
            return Err(FlashError::PowerLoss { at: cut });
        }
        let out = self.apply(die, cmd, write, &sched);
        self.obs.note_op(kind, die_id, &sched, at);
        let bytes = shape.xfer.map_or(0, |(_, bytes)| u64::from(bytes));
        stats.note(kind, bytes, sched.latency(at), sched.array.depth);
        Ok(out)
    }

    /// Static checks: the command against the geometry, no device state.
    /// A payload — a program's source, a read's destination — is one page
    /// or empty.
    fn check_static(&self, cmd: &FlashCommand<'_>) -> Result<()> {
        let expected = self.geometry.page_size;
        let payload = |len: usize| {
            if len != 0 && len != expected as usize {
                return Err(FlashError::BadPageSize { expected, got: len });
            }
            Ok(())
        };
        match *cmd {
            FlashCommand::Read { addr, ref data } => {
                self.check_page(addr)?;
                payload(data.len())
            }
            FlashCommand::MetadataRead { addr } => self.check_page(addr),
            FlashCommand::Program { addr, data, .. } => {
                self.check_page(addr)?;
                payload(data.len())
            }
            FlashCommand::Erase { block } => self.check_block(block),
            FlashCommand::Copyback { src, dst } => {
                self.check_page(src)?;
                self.check_page(dst)?;
                if src.die != dst.die {
                    return Err(FlashError::CopybackCrossDie { src, dst });
                }
                Ok(())
            }
        }
    }

    /// Validate the command against the die's state.  An erase beyond the
    /// endurance budget fails *and* retires its block.  The OOB metadata a
    /// copyback moves is captured here, before its destination is written
    /// (its payload moves inside the die, in [`Self::write_page`]).
    fn validate(&self, die: &mut Die, cmd: &FlashCommand<'_>) -> Result<Option<PageMetadata>> {
        let mut moved = None;
        match *cmd {
            FlashCommand::Read { addr, .. } => readable(die.block(addr.block()), addr)?,
            FlashCommand::MetadataRead { addr } => usable(die.block(addr.block()), addr.block())?,
            FlashCommand::Program { addr, .. } => programmable(die.block(addr.block()), addr)?,
            FlashCommand::Erase { block: addr } => {
                let block = die.block_mut(addr);
                usable(block, addr)?;
                if block.erase_count >= self.endurance {
                    block.state = BlockState::Bad;
                    return Err(FlashError::WornOut { addr, erase_count: block.erase_count });
                }
            }
            FlashCommand::Copyback { src, dst } => {
                let source = die.block(src.block());
                readable(source, src)?;
                moved = source.meta[src.page as usize];
                programmable(die.block(dst.block()), dst)?;
            }
        }
        Ok(moved)
    }

    /// Power failed at `cut` with the command in flight on the die.
    fn tear(
        &self,
        die: &mut Die,
        cmd: &FlashCommand<'_>,
        write: Option<PageWrite<'_>>,
        sched: &Scheduled,
        cut: SimTime,
    ) {
        let dur = (sched.complete - sched.start).0.max(1);
        let elapsed = (cut - sched.start).0;
        if let Some((addr, payload, meta)) = write {
            // Torn program: the page looks programmed (it consumes its
            // slot in the block's sequential order) but holds only a
            // prefix of the payload; the OOB area is written in the second
            // half of the operation, so an early tear loses the metadata
            // entirely.  Recovery detects the former through the payload
            // checksum and the latter through the missing metadata.  A
            // torn copyback is a torn program of its destination; the
            // source is left untouched — the host died before it could
            // mark the source invalid, so recovery may find both copies
            // and must break the epoch tie.
            let psz = self.geometry.page_size as u128;
            let done = ((psz * elapsed as u128) / dur as u128) as usize;
            let meta = if elapsed * 2 >= dur { meta } else { None };
            self.write_page(die, addr, payload, done, meta);
        } else if let FlashCommand::Erase { block } = *cmd {
            // Interrupted erase: the cells are left in an indeterminate
            // state — payloads and OOB metadata are destroyed, but the
            // block is *not* erased (its write pointer and page states are
            // unchanged, so it must be erased again after reboot before it
            // can be programmed).  The wear counter is not charged for the
            // incomplete cycle.
            let whole = self.geometry.pages_per_block as usize * self.geometry.page_size as usize;
            let block = die.block_mut(block);
            if !block.data.is_empty() {
                block.data.clear();
                block.data.resize(whole, 0xFF);
            }
            block.meta.fill(None);
        }
    }

    /// The command completed: what it reads lands in the read's buffer
    /// and the output, what it programs or erases changes the die.
    fn apply(
        &self,
        die: &mut Die,
        cmd: FlashCommand<'_>,
        write: Option<PageWrite<'_>>,
        sched: &Scheduled,
    ) -> CmdOutput {
        let psz = self.geometry.page_size as usize;
        let outcome = OpOutcome { started_at: sched.start, completed_at: sched.complete };
        let mut out = CmdOutput { meta: None, outcome };
        match cmd {
            FlashCommand::Read { addr, data } => {
                let block = die.block(addr.block());
                let page = addr.page as usize;
                // A readable page was programmed, so the block's payload
                // reaches past it.
                if !data.is_empty() {
                    data.copy_from_slice(&block.data[page * psz..(page + 1) * psz]);
                }
                out.meta = block.meta[page];
            }
            FlashCommand::MetadataRead { addr } => {
                out.meta = die.block(addr.block()).meta[addr.page as usize];
            }
            FlashCommand::Erase { block } => {
                let block = die.block_mut(block);
                block.reset_erased();
                block.erase_count += 1;
            }
            FlashCommand::Program { .. } | FlashCommand::Copyback { .. } => {
                if let Some((addr, payload, meta)) = write {
                    self.write_page(die, addr, payload, psz, meta);
                }
                if let FlashCommand::Copyback { src, .. } = cmd {
                    // Source page becomes invalid.
                    die.block_mut(src.block()).invalidate(src.page);
                }
            }
        }
        out
    }

    /// Program `addr` with the first `len` bytes of `source` (the rest of
    /// the page, or all of it for an empty payload, reads as zeros) and
    /// `meta` in its OOB area: the page turns valid and the block's write
    /// pointer moves past it.  A full program passes the page size, a
    /// torn one how far it got.  A payload that ends before the page
    /// grows to take it in, in the buffer the block kept across erases
    /// (reserved for a whole block on its first program); a copyback's
    /// payload moves from its source block's buffer straight into it.
    fn write_page(
        &self,
        die: &mut Die,
        addr: PageAddr,
        source: Source<'_>,
        len: usize,
        meta: Option<PageMetadata>,
    ) {
        let pages_per_block = self.geometry.pages_per_block;
        let psz = self.geometry.page_size as usize;
        let page = addr.page as usize;
        // Out of its block while the page is written, so a copyback can
        // read its source block (or this one) beside it.
        let mut buf = std::mem::take(&mut die.block_mut(addr.block()).data);
        let at = page * psz;
        if buf.len() < at + psz {
            buf.reserve_exact(pages_per_block as usize * psz - buf.len());
            buf.resize(at + psz, 0);
        }
        let n = match source {
            Source::Bytes(payload) => len.min(payload.len()),
            Source::Page(_) => len.min(psz),
        };
        let from = |src: PageAddr| src.page as usize * psz..src.page as usize * psz + n;
        match source {
            Source::Bytes(payload) => buf[at..at + n].copy_from_slice(&payload[..n]),
            Source::Page(src) if src.block() == addr.block() => buf.copy_within(from(src), at),
            Source::Page(src) => {
                buf[at..at + n].copy_from_slice(&die.block(src.block()).data[from(src)]);
            }
        }
        buf[at + n..at + psz].fill(0);
        let block = die.block_mut(addr.block());
        block.data = buf;
        block.meta[page] = meta;
        block.pages[page] = PageState::Valid;
        block.write_ptr = addr.page + 1;
        block.state =
            if block.write_ptr == pages_per_block { BlockState::Full } else { BlockState::Open };
    }

    fn die_stats_from(die: &Die) -> DieStats {
        let total_erases: u64 =
            die.planes.iter().flat_map(|p| p.blocks.iter()).map(|b| b.erase_count).sum();
        let max_erase_count = die
            .planes
            .iter()
            .flat_map(|p| p.blocks.iter())
            .map(|b| b.erase_count)
            .max()
            .unwrap_or(0);
        DieStats {
            ops: die.ops,
            busy_time: die.busy_time,
            total_erases,
            max_erase_count,
            queue_depth_hwm: die.queue_depth_hwm,
        }
    }

    /// Load of `die` as of `at` (see [`FlashBackend::die_load`]).
    fn load_of(&self, die: &Die, at: SimTime) -> DieLoad {
        let (_, slot) = die.timeline.probe(at, self.timing.program_array_time());
        DieLoad { busy_until: slot.start, queue_depth: die.timeline.pending_at(at) }
    }

    /// Arm a simulated power cut at instant `at`.  Operations issued at or
    /// after `at` fail with [`FlashError::PowerLoss`]; an operation that is
    /// *in flight* at `at` (issued before, completing after) is torn:
    ///
    /// * a torn **program** leaves the page looking programmed but holding
    ///   only a prefix of the payload (detected via the OOB checksum), with
    ///   the OOB metadata itself lost if less than half the operation ran;
    /// * a torn **erase** destroys payloads and metadata without resetting
    ///   the block, so it must be re-erased before reuse;
    /// * a torn **copyback** behaves like a torn program of the destination
    ///   and leaves the source untouched.
    ///
    /// After the cut, image the device with [`NandDevice::image`] and
    /// "reboot" it with [`NandDevice::from_image`].
    pub fn arm_power_cut(&self, at: SimTime) {
        self.lock_device().power_cut = Some(at);
    }

    /// Disarm a previously armed power cut.
    pub fn clear_power_cut(&self) {
        self.lock_device().power_cut = None;
    }

    /// The device's `NFLIMG03` image ([`crate::image`]): the NAND array's
    /// state — every block's pages, payloads, OOB records and wear, the
    /// bad blocks and the write epoch — encoded under the device lock, so
    /// it is a consistent point-in-time image.  Boot it with
    /// [`NandDevice::from_image`].
    pub fn image(&self) -> Vec<u8> {
        let state = self.lock_device();
        image::encode(&self.geometry, state.epoch, self.endurance, state.blocks())
    }

    /// Boot a device from an image — the simulator's power cycle.
    ///
    /// Block contents, wear, bad-block marks and the write-epoch counter
    /// come back exactly; the booted device's counters start from zero,
    /// its die/channel timelines start empty (a rebooted device has no
    /// operations in flight), no power cut is armed, no arbiter runs and
    /// it records into a fresh registry.  The caller supplies the timing
    /// model, which is a property of the simulation rather than of the
    /// persisted state.  A truncated, corrupted or inconsistent image is
    /// a [`FlashError::Image`].
    pub fn from_image(bytes: &[u8], timing: TimingModel) -> Result<NandDevice> {
        let (geometry, epoch, endurance, dies) = image::decode(bytes)?;
        Ok(NandDevice {
            geometry,
            timing,
            endurance,
            state: Mutex::new(DeviceState::new(&geometry, dies, epoch)),
            obs: DeviceObs::new(Arc::new(MetricsRegistry::new())),
            arbiter: None,
        })
    }
}

impl FlashBackend for NandDevice {
    fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The device's metrics registry (shared by the whole stack above:
    /// `NoFtl` and the storage engine record here too).  Snapshot it,
    /// export it, or flip its tracer on.
    fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.obs.registry()
    }

    crate::verbs_over_execute!();

    /// Execute one command of the native interface, issued at `at`: the
    /// device's only timed entry point.  A read copies the page into the
    /// buffer it lent (one page, or empty for none).  Returns the OOB
    /// metadata (reads and metadata reads) and the operation's start and
    /// completion.
    ///
    /// NAND rules are enforced: a page is programmed only when erased and
    /// only as the next sequential page of its block; a copyback stays on
    /// one die; an erase beyond the block's endurance budget fails and
    /// retires the block.  A program whose `meta.epoch` is zero is stamped
    /// with the next device-wide epoch.
    ///
    /// On an arbiter-enabled device the [`IoTag`] drives admission of the
    /// commands that move data over a channel (reads, metadata reads,
    /// programs): a `Background` tag runs the transfer through its
    /// region's bandwidth budget (possibly deferring the command); every
    /// other tag issues at `at`.  With the arbiter disabled the tag is
    /// ignored.
    fn execute(&self, command: FlashCommand<'_>, at: SimTime, tag: IoTag) -> Result<CmdOutput> {
        self.run(command, at, tag, true)
    }

    /// Mark a page as invalid (superseded by an out-of-place update).
    ///
    /// This is host-maintained bookkeeping (no flash command is issued and
    /// no time passes); the simulator keeps it next to the physical page so
    /// that block-level valid-page counts used by GC victim selection stay
    /// consistent.
    fn mark_invalid(&self, addr: PageAddr) -> Result<()> {
        self.check_page(addr)?;
        let mut state = self.lock_device();
        let block = state.dies[addr.die.0 as usize].block_mut(addr.block());
        if block.pages[addr.page as usize] == PageState::Free {
            return Err(FlashError::UnwrittenPage { addr });
        }
        block.invalidate(addr.page);
        Ok(())
    }

    fn retire_block(&self, addr: BlockAddr) -> Result<()> {
        self.check_block(addr)?;
        let mut state = self.lock_device();
        state.dies[addr.die.0 as usize].block_mut(addr).state = BlockState::Bad;
        Ok(())
    }

    fn block_info(&self, addr: BlockAddr) -> Result<BlockInfo> {
        self.check_block(addr)?;
        let state = self.lock_device();
        Ok(BlockInfo::from_block(state.dies[addr.die.0 as usize].block(addr)))
    }

    fn page_state(&self, addr: PageAddr) -> Result<PageState> {
        self.check_page(addr)?;
        let state = self.lock_device();
        Ok(state.dies[addr.die.0 as usize].block(addr.block()).pages[addr.page as usize])
    }

    fn stats(&self) -> DeviceStats {
        self.lock_device().stats.clone()
    }

    fn die_stats(&self) -> Vec<DieStats> {
        self.lock_device().dies.iter().map(Self::die_stats_from).collect()
    }

    fn wear_summary(&self) -> WearSummary {
        let state = self.lock_device();
        let bad = state.blocks().filter(|b| b.state == BlockState::Bad).count() as u64;
        WearSummary::from_counts(state.blocks().map(|b| b.erase_count), bad)
    }

    /// Latest completion time over all dies and channels — i.e. when the
    /// device becomes fully idle given the operations issued so far.
    fn quiesce_time(&self) -> SimTime {
        let state = self.lock_device();
        let dies = state.dies.iter().map(|d| &d.timeline);
        dies.chain(&state.channels).map(Timeline::end).max().unwrap_or(SimTime::ZERO)
    }

    /// End of all work reserved on a single die.  An out-of-range die
    /// reports as idle.
    fn die_busy_until(&self, die: DieId) -> SimTime {
        let state = self.lock_device();
        state.dies.get(die.0 as usize).map_or(SimTime::ZERO, |d| d.timeline.end())
    }

    /// Load of one die as of `at`: where a program's array phase issued
    /// at `at` would start — the first-fit scan a reservation runs, minus
    /// the insert; not the first idle instant, because the few idle
    /// microseconds before an already queued program are of no use to
    /// another one — and how many reserved commands are unfinished at
    /// `at`.  This is the cheap per-die view the mirror's read selection
    /// steers by: one lock, no allocation, purely observational.  An
    /// out-of-range die reports as idle.
    fn die_load(&self, die: DieId, at: SimTime) -> DieLoad {
        let state = self.lock_device();
        state.dies.get(die.0 as usize).map_or(DieLoad::default(), |d| self.load_of(d, at))
    }

    /// Load snapshots of every die as of `at`, indexed by die id, all
    /// read under one acquisition of the device lock.
    fn die_loads(&self, at: SimTime) -> Vec<DieLoad> {
        self.lock_device().dies.iter().map(|d| self.load_of(d, at)).collect()
    }

    /// Current device-wide write epoch (the stamp given to the most recent
    /// program that did not supply its own).  Recovery uses this as the
    /// checkpoint watermark: pages with a larger epoch were written after
    /// the checkpoint was taken.
    fn current_epoch(&self) -> u64 {
        self.lock_device().epoch
    }

    fn stores_data(&self) -> bool {
        true
    }

    fn die_touched(&self, die: DieId) -> bool {
        self.lock_device().dies.get(die.0 as usize).is_some_and(Die::touched)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A block that is not retired (factory-bad, worn out or failed).
fn usable(block: &Block, addr: BlockAddr) -> Result<()> {
    if block.state == BlockState::Bad {
        return Err(FlashError::BadBlock { addr });
    }
    Ok(())
}

/// What a read and a copyback's source need: a usable block and a page
/// programmed since its last erase.
fn readable(block: &Block, addr: PageAddr) -> Result<()> {
    usable(block, addr.block())?;
    if block.pages[addr.page as usize] == PageState::Free {
        return Err(FlashError::UnwrittenPage { addr });
    }
    Ok(())
}

/// What a program and a copyback's destination need: a usable block whose
/// next sequential page is `addr`, still erased.
fn programmable(block: &Block, addr: PageAddr) -> Result<()> {
    usable(block, addr.block())?;
    if block.pages[addr.page as usize] != PageState::Free {
        return Err(FlashError::PageNotErased { addr });
    }
    if addr.page != block.write_ptr {
        return Err(FlashError::NonSequentialProgram { addr, expected_next: block.write_ptr });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NandDevice {
        DeviceBuilder::new(FlashGeometry::small_test()).build()
    }

    fn page(die: u32, block: u32, page: u32) -> PageAddr {
        PageAddr::new(DieId(die), 0, block, page)
    }

    fn payload(byte: u8, dev: &NandDevice) -> Vec<u8> {
        vec![byte; dev.geometry().page_size as usize]
    }

    #[test]
    fn program_then_read_roundtrips_data_and_metadata() {
        let d = dev();
        let p = page(0, 0, 0);
        let data = payload(0xAB, &d);
        let meta = PageMetadata::new(7, 42);
        let out = d.program_page(p, &data, meta, SimTime::ZERO).unwrap();
        assert!(out.completed_at > SimTime::ZERO);
        let (read, rmeta, _) = d.read_page(p, out.completed_at).unwrap();
        assert_eq!(read, data);
        let rmeta = rmeta.unwrap();
        assert_eq!(rmeta.object_id, 7);
        assert_eq!(rmeta.logical_page, 42);
        assert!(rmeta.epoch > 0, "device stamps an epoch");
    }

    #[test]
    fn reading_unwritten_page_fails() {
        let d = dev();
        let err = d.read_page(page(0, 0, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::UnwrittenPage { .. }));
    }

    #[test]
    fn in_place_update_is_rejected() {
        let d = dev();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let err =
            d.program_page(p, &payload(2, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::PageNotErased { .. }));
    }

    #[test]
    fn non_sequential_program_is_rejected() {
        let d = dev();
        let err = d
            .program_page(page(0, 0, 3), &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::NonSequentialProgram { expected_next: 0, .. }));
    }

    #[test]
    fn erase_resets_block_and_counts_wear() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        for i in 0..d.geometry().pages_per_block {
            d.program_page(
                b.page(i),
                &payload(i as u8, &d),
                PageMetadata::new(1, i as u64),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(d.block_info(b).unwrap().state, BlockState::Full);
        d.erase_block(b, SimTime::ZERO).unwrap();
        let info = d.block_info(b).unwrap();
        assert_eq!(info.state, BlockState::Free);
        assert_eq!(info.erase_count, 1);
        assert_eq!(info.valid_pages, 0);
        // Programmable again from page 0.
        d.program_page(b.page(0), &payload(9, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
    }

    #[test]
    fn copyback_moves_data_within_a_die() {
        let d = dev();
        let src = page(1, 0, 0);
        let dst = page(1, 1, 0);
        let data = payload(0x5A, &d);
        d.program_page(src, &data, PageMetadata::new(3, 10), SimTime::ZERO).unwrap();
        let stats_before = d.stats();
        d.copyback(src, dst, SimTime::ZERO).unwrap();
        let stats_after = d.stats();
        // No channel traffic for the copyback itself.
        assert_eq!(stats_after.bytes_transferred, stats_before.bytes_transferred);
        assert_eq!(stats_after.copybacks, 1);
        // Source invalidated, destination valid with the same metadata.
        assert_eq!(d.page_state(src).unwrap(), PageState::Invalid);
        let (read, meta, _) = d.read_page(dst, SimTime::ZERO).unwrap();
        assert_eq!(read, data);
        assert_eq!(meta.unwrap().logical_page, 10);
        // Within one block too: the destination's next page.
        d.copyback(dst, page(1, 1, 1), SimTime::ZERO).unwrap();
        assert_eq!(d.read_page(page(1, 1, 1), SimTime::ZERO).unwrap().0, data);
        assert_eq!(
            d.read_page(dst, SimTime::ZERO).unwrap().0,
            data,
            "the source is left as it was"
        );
    }

    #[test]
    fn copyback_across_dies_is_rejected() {
        let d = dev();
        let src = page(0, 0, 0);
        d.program_page(src, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let err = d.copyback(src, page(1, 0, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::CopybackCrossDie { .. }));
    }

    #[test]
    fn mark_invalid_updates_block_counts() {
        let d = dev();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        assert_eq!(d.block_info(p.block()).unwrap().valid_pages, 1);
        d.mark_invalid(p).unwrap();
        assert_eq!(d.block_info(p.block()).unwrap().valid_pages, 0);
        assert_eq!(d.page_state(p).unwrap(), PageState::Invalid);
        // Idempotent.
        d.mark_invalid(p).unwrap();
        // Marking a free page invalid is an error.
        assert!(d.mark_invalid(page(0, 0, 5)).is_err());
    }

    #[test]
    fn endurance_limit_retires_blocks() {
        let g = FlashGeometry::small_test();
        let d = DeviceBuilder::new(g)
            .bad_blocks(BadBlockPolicy { factory_bad_fraction: 0.0, endurance_cycles: 2, seed: 0 })
            .build();
        let b = BlockAddr::new(DieId(0), 0, 0);
        d.erase_block(b, SimTime::ZERO).unwrap();
        d.erase_block(b, SimTime::ZERO).unwrap();
        let err = d.erase_block(b, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::WornOut { .. }));
        // Block is now bad: programs fail too.
        let err =
            d.program_page(b.page(0), &[], PageMetadata::new(1, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::BadBlock { .. }));
    }

    #[test]
    fn operations_on_different_dies_overlap_in_time() {
        let d = dev();
        let t0 = SimTime::ZERO;
        let a =
            d.program_page(page(0, 0, 0), &payload(1, &d), PageMetadata::new(1, 0), t0).unwrap();
        let b =
            d.program_page(page(2, 0, 0), &payload(2, &d), PageMetadata::new(1, 1), t0).unwrap();
        // Dies 0 and 2 are on different channels in the small_test geometry,
        // so the operations complete at the same simulated time.
        assert_eq!(a.completed_at, b.completed_at);
        // Same die: the second operation queues.
        let c =
            d.program_page(page(0, 0, 1), &payload(3, &d), PageMetadata::new(1, 2), t0).unwrap();
        assert!(c.completed_at > a.completed_at);
    }

    #[test]
    fn stats_track_operations_and_latency() {
        let d = dev();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        // Issue the reads once the device is idle so no queueing delay is
        // included in their latencies.
        let idle = d.quiesce_time();
        d.read_page(p, idle).unwrap();
        d.read_metadata(p, d.quiesce_time()).unwrap();
        let s = d.stats();
        assert_eq!(s.page_programs, 1);
        assert_eq!(s.page_reads, 1);
        assert_eq!(s.metadata_reads, 1);
        assert!(s.avg_read_latency_us() > 0.0);
        assert!(s.avg_program_latency_us() > s.avg_read_latency_us());
        assert!(s.total_ops() >= 3);
        // Every op found its die idle: the high-water mark stays at 1.
        assert_eq!(s.queue_depth_hwm, 1);
    }

    #[test]
    fn queue_depth_high_water_mark_tracks_bursts() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        // Four programs to one die, all issued at t=0: depths 1..4.
        for i in 0..4 {
            d.program_page(
                b.page(i),
                &payload(i as u8, &d),
                PageMetadata::new(1, i as u64),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(d.stats().queue_depth_hwm, 4);
        let ds = d.die_stats();
        assert_eq!(ds[0].queue_depth_hwm, 4);
        assert_eq!(ds[1].queue_depth_hwm, 0, "untouched die never queued");
    }

    #[test]
    fn die_loads_report_busy_until_and_in_flight_depth() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        // Three programs queued on die 0 at t=0; die 1 untouched.
        let mut last = SimTime::ZERO;
        for i in 0..3 {
            last = d
                .program_page(
                    b.page(i),
                    &payload(i as u8, &d),
                    PageMetadata::new(1, i as u64),
                    SimTime::ZERO,
                )
                .unwrap()
                .completed_at;
        }
        let loads = d.die_loads(SimTime::ZERO);
        assert_eq!(loads.len(), 4);
        assert_eq!(loads[0].busy_until, last);
        assert_eq!(loads[0].queue_depth, 3, "all three programs still in flight at t=0");
        assert_eq!(loads[1], DieLoad::default(), "untouched die is idle");
        assert_eq!(loads[0].earliest_start(SimTime::ZERO), last);
        assert_eq!(loads[1].earliest_start(SimTime::from_us(7)), SimTime::from_us(7));
        // Observed as everything drains: depth 0, and a program could
        // start right there.
        let after = d.die_load(DieId(0), last);
        assert_eq!(after.queue_depth, 0);
        assert_eq!(after.busy_until, last);
        // Observation is non-destructive: the timing state is unchanged.
        assert_eq!(d.die_load(DieId(0), SimTime::ZERO).queue_depth, 3);
        // Out-of-range dies report as idle.
        assert_eq!(d.die_load(DieId(99), SimTime::ZERO), DieLoad::default());
    }

    #[test]
    fn die_load_answers_for_the_instant_it_is_asked_about() {
        let d = dev();
        // One program reserved 40 ms ahead (a client stepped a whole
        // transaction before its neighbors); the die is idle until then.
        let ahead = SimTime::from_us(40_000);
        let out =
            d.program_page(page(0, 0, 0), &payload(1, &d), PageMetadata::new(1, 0), ahead).unwrap();
        assert_eq!(d.die_busy_until(DieId(0)), out.completed_at, "end of all reserved work");
        assert_eq!(d.quiesce_time(), out.completed_at);
        // Asked about t = 100 us, with far more than tPROG of room before
        // the reservation: a program could start right away.
        let now = SimTime::from_us(100);
        let load = d.die_load(DieId(0), now);
        assert_eq!(load.earliest_start(now), now);
        assert_eq!(load.queue_depth, 1, "the reservation is unfinished at t = 100 us");
        assert_eq!(d.die_loads(now)[0], load);
        // Asked about an instant with less than tPROG of room before it:
        // the idle sliver is of no use to a program, which would start
        // when the reservation ends.
        let t_prog = d.timing().program_array_time().0;
        let array_start = out.completed_at.0 - t_prog;
        let squeezed = SimTime(array_start - t_prog / 2);
        assert_eq!(d.die_load(DieId(0), squeezed).earliest_start(squeezed), out.completed_at);
        // Exactly tPROG of room still fits.
        let fits = SimTime(array_start - t_prog);
        assert_eq!(d.die_load(DieId(0), fits).earliest_start(fits), fits);
        // Nothing above was perturbed by asking.
        assert_eq!(d.die_load(DieId(0), now), load);
    }

    #[test]
    fn reservations_below_a_forgotten_floor_are_counted() {
        let d = dev();
        let clamped = || d.metrics().counter("flash.timeline.clamped").get();
        let b = BlockAddr::new(DieId(0), 0, 0);
        // More erases on die 0, spaced out, than its timeline remembers.
        for i in 0..5_000u64 {
            d.erase_block(b, SimTime::from_us(i * 10_000)).unwrap();
        }
        assert_eq!(clamped(), 0, "in-order issue never needs forgotten history");
        // The first holes are forgotten: an erase issued at t=0 cannot be
        // placed in them any more, lands later — and says so.
        let late = d.erase_block(b, SimTime::ZERO).unwrap();
        assert!(late.started_at > SimTime::from_us(10_000));
        assert_eq!(clamped(), 1);
        // Other dies' timelines are their own.
        d.erase_block(BlockAddr::new(DieId(1), 0, 0), SimTime::ZERO).unwrap();
        assert_eq!(clamped(), 1);
    }

    #[test]
    fn snapshot_and_wear_summary() {
        let d = dev();
        let b = BlockAddr::new(DieId(0), 0, 0);
        d.erase_block(b, SimTime::ZERO).unwrap();
        let booted = NandDevice::from_image(&d.image(), *d.timing()).unwrap();
        assert_eq!(booted.block_info(b).unwrap().erase_count, 1);
        assert_eq!(d.stats().block_erases, 1);
        assert_eq!(d.wear_summary().total_erases, 1);
        let die_stats = d.die_stats();
        assert_eq!(die_stats.len(), 4);
        assert_eq!(die_stats[0].total_erases, 1);
        assert_eq!(die_stats[1].total_erases, 0);
    }

    #[test]
    fn quiesce_time_tracks_latest_completion() {
        let d = dev();
        assert_eq!(d.quiesce_time(), SimTime::ZERO);
        let out = d
            .program_page(
                page(0, 0, 0),
                &payload(1, &d),
                PageMetadata::new(1, 0),
                SimTime::from_us(50),
            )
            .unwrap();
        assert_eq!(d.quiesce_time(), out.completed_at);
    }

    #[test]
    fn out_of_bounds_addresses_are_rejected() {
        let d = dev();
        assert!(d.read_page(page(99, 0, 0), SimTime::ZERO).is_err());
        assert!(d.erase_block(BlockAddr::new(DieId(0), 0, 999), SimTime::ZERO).is_err());
        assert!(d.block_info(BlockAddr::new(DieId(9), 0, 0)).is_err());
    }

    #[test]
    fn bad_page_size_is_rejected() {
        let d = dev();
        let err = d
            .program_page(page(0, 0, 0), &[1, 2, 3], PageMetadata::new(1, 0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::BadPageSize { .. }));
        // A read lends a page or nothing, too.
        d.program_page(page(0, 0, 0), &[], PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let read = FlashCommand::Read { addr: page(0, 0, 0), data: &mut [0; 3] };
        let err = d.execute(read, SimTime::ZERO, IoTag::default()).unwrap_err();
        assert!(matches!(err, FlashError::BadPageSize { expected: 4096, got: 3 }));
    }

    #[test]
    fn the_registry_tracer_is_the_command_trace() {
        let d = DeviceBuilder::new(FlashGeometry::small_test()).build();
        let tracer = d.metrics().tracer();
        d.read_metadata(page(1, 0, 0), SimTime::ZERO).unwrap();
        assert!(tracer.events().is_empty(), "off by default");
        tracer.set_enabled(true);
        let program =
            d.program_page(page(2, 0, 0), &[], PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let read = d.read_page(page(2, 0, 0), SimTime::ZERO).unwrap().2;
        d.read_page(page(2, 0, 5), SimTime::from_us(3)).unwrap_err();
        let events = tracer.events();
        let shape: Vec<_> =
            events.iter().map(|e| (e.cat, e.name, e.track, e.ts_ns, e.dur_ns)).collect();
        // One span per completed command on its die's track, from issue
        // to completion (the read queues behind the program); one
        // `error` instant per rejected command.
        assert_eq!(
            shape,
            [
                ("flash.op", "program", 2, 0, Some(program.completed_at.as_nanos())),
                ("flash.op", "read", 2, 0, Some(read.completed_at.as_nanos())),
                ("flash.op", "error", 2, 3_000, None),
            ]
        );
        assert!(read.completed_at > program.completed_at);
    }

    #[test]
    fn factory_bad_blocks_reject_operations() {
        let g = FlashGeometry::small_test();
        let d = DeviceBuilder::new(g)
            .bad_blocks(BadBlockPolicy {
                factory_bad_fraction: 1.0,
                endurance_cycles: u64::MAX,
                seed: 1,
            })
            .build();
        // Every block is bad with fraction 1.0.
        let err =
            d.program_page(page(0, 0, 0), &[], PageMetadata::new(1, 0), SimTime::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::BadBlock { .. }));
        assert!(d.wear_summary().bad_blocks > 0);
    }

    /// `die_touched` is read off the blocks, so a device answers as its
    /// power-cycled image does: a die holding only factory-bad blocks is
    /// touched, a die that only saw a rejected program is not.
    #[test]
    fn a_power_cycle_keeps_every_die_touched_answer() {
        let power_cycle = |d: &NandDevice| NandDevice::from_image(&d.image(), *d.timing()).unwrap();
        let all_bad = BadBlockPolicy { factory_bad_fraction: 1.0, endurance_cycles: 9, seed: 1 };
        let bad = DeviceBuilder::new(FlashGeometry::small_test()).bad_blocks(all_bad).build();
        let rejected = dev();
        let err = rejected
            .program_page(page(0, 0, 0), &[0; 7], PageMetadata::new(1, 0), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::BadPageSize { .. }));
        for (d, touched) in [(&bad, true), (&rejected, false)] {
            let rebooted = power_cycle(d);
            for die in d.geometry().dies() {
                assert_eq!(d.die_touched(die), touched, "live, {die:?}");
                assert_eq!(rebooted.die_touched(die), touched, "power-cycled, {die:?}");
            }
        }
    }

    #[test]
    fn retire_block_marks_bad() {
        let d = dev();
        let b = BlockAddr::new(DieId(1), 0, 3);
        d.retire_block(b).unwrap();
        assert_eq!(d.block_info(b).unwrap().state, BlockState::Bad);
    }

    #[test]
    fn snapshot_roundtrip_restores_byte_identical_reads() {
        // Image → boot → byte-identical reads,
        // including bad-block and wear state.
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let mut written = Vec::new();
        for p in 0..6u32 {
            let addr = page(0, 1, p);
            let data: Vec<u8> =
                (0..d.geometry().page_size).map(|i| (i as u8) ^ (p as u8)).collect();
            let meta = PageMetadata::new(2, p as u64).with_payload_checksum(&data);
            d.program_page(addr, &data, meta, SimTime::ZERO).unwrap();
            written.push((addr, data));
        }
        // Wear + bad-block state.
        let worn = BlockAddr::new(DieId(1), 0, 5);
        d.erase_block(worn, SimTime::ZERO).unwrap();
        d.erase_block(worn, SimTime::ZERO).unwrap();
        d.retire_block(BlockAddr::new(DieId(3), 0, 2)).unwrap();
        d.mark_invalid(written[0].0).unwrap();

        let rebooted = NandDevice::from_image(&d.image(), TimingModel::mlc_2015()).unwrap();
        for (addr, data) in &written[1..] {
            let (read, meta, _) = rebooted.read_page(*addr, SimTime::ZERO).unwrap();
            assert_eq!(&read, data);
            assert!(meta.unwrap().payload_matches(&read));
        }
        assert_eq!(rebooted.page_state(written[0].0).unwrap(), PageState::Invalid);
        assert_eq!(rebooted.block_info(worn).unwrap().erase_count, 2);
        assert_eq!(
            rebooted.block_info(BlockAddr::new(DieId(3), 0, 2)).unwrap().state,
            BlockState::Bad
        );
        assert_eq!(rebooted.current_epoch(), d.current_epoch());
        assert_eq!(rebooted.wear_summary(), d.wear_summary());
        // Sequential-programming state survives: the next program of block
        // (0,1) must continue at page 6.
        let next = page(0, 1, 6);
        rebooted.program_page(next, &[], PageMetadata::new(2, 6), SimTime::ZERO).unwrap();
    }

    #[test]
    fn a_rebuilt_device_counts_from_zero_and_keeps_its_wear() {
        let d = dev();
        let p = page(1, 0, 0);
        let worn = BlockAddr::new(DieId(3), 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        d.read_page(p, d.quiesce_time()).unwrap();
        d.erase_block(worn, SimTime::ZERO).unwrap();
        d.retire_block(BlockAddr::new(DieId(2), 0, 1)).unwrap();
        d.read_page(page(0, 0, 0), SimTime::ZERO).unwrap_err();
        assert_eq!((d.stats().total_ops(), d.stats().errors), (3, 1));
        let rebooted = NandDevice::from_image(&d.image(), *d.timing()).unwrap();
        assert_eq!(rebooted.stats(), DeviceStats::default(), "counters are not state");
        let die_stats = rebooted.die_stats();
        assert!(die_stats.iter().all(|s| (s.ops, s.busy_time) == (0, Duration::ZERO)));
        // Wear is: erase counts and bad blocks survive the reboot.
        assert_eq!(die_stats[3].total_erases, 1);
        assert_eq!(rebooted.wear_summary(), d.wear_summary());
        assert_eq!(rebooted.wear_summary().bad_blocks, 1);
        // The rebuilt device counts its own commands only.
        let after = rebooted.read_page(p, SimTime::ZERO).unwrap().2;
        rebooted.read_page(page(0, 0, 0), SimTime::ZERO).unwrap_err();
        let s = rebooted.stats();
        assert_eq!((s.page_reads, s.page_programs, s.block_erases, s.errors), (1, 0, 0, 1));
        assert_eq!(s.read_latency_sum, after.completed_at - SimTime::ZERO);
    }

    #[test]
    fn an_image_round_trip_rebuilds_every_block_info() {
        let timing = TimingModel::mlc_2015();
        let d = DeviceBuilder::new(FlashGeometry::small_test()).timing(timing).build();
        for i in 0..6 {
            let meta = PageMetadata::new(1, u64::from(i));
            d.program_page(page(0, 0, i), &payload(i as u8, &d), meta, SimTime::ZERO).unwrap();
        }
        d.mark_invalid(page(0, 0, 1)).unwrap();
        d.mark_invalid(page(0, 0, 4)).unwrap();
        d.retire_block(BlockAddr::new(DieId(2), 0, 3)).unwrap();
        // A program on an idle die, torn halfway through its array phase.
        let torn = page(1, 0, 0);
        let at = d.quiesce_time();
        d.arm_power_cut(at + Duration::from_us(400));
        let meta = PageMetadata::new(1, 9);
        assert!(d.program_page(torn, &payload(9, &d), meta, at).unwrap_err().is_power_loss());
        d.clear_power_cut();

        let rebuilt = NandDevice::from_image(&d.image(), timing).unwrap();
        let g = *d.geometry();
        for die in 0..g.total_dies() {
            for block in 0..g.blocks_per_plane {
                let b = BlockAddr::new(DieId(die), 0, block);
                assert_eq!(rebuilt.block_info(b).unwrap(), d.block_info(b).unwrap(), "{b:?}");
            }
        }
        assert_eq!(rebuilt.block_info(page(0, 0, 0).block()).unwrap().valid_pages, 4);
    }

    #[test]
    fn operations_after_power_cut_fail() {
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let p = page(0, 0, 0);
        d.program_page(p, &payload(1, &d), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let cut = d.quiesce_time();
        d.arm_power_cut(cut);
        let err = d.read_page(p, cut).unwrap_err();
        assert!(err.is_power_loss());
        assert!(d
            .program_page(page(0, 0, 1), &payload(2, &d), PageMetadata::new(1, 1), cut)
            .is_err());
        assert!(d.erase_block(p.block(), cut).is_err());
        // Reads that complete strictly before the cut still succeed.
        d.clear_power_cut();
        d.read_page(p, cut).unwrap();
    }

    #[test]
    fn torn_program_leaves_partial_payload() {
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let p = page(0, 0, 0);
        let data = payload(0xAB, &d);
        let meta = PageMetadata::new(1, 0).with_payload_checksum(&data);
        // Find when an unimpeded program would complete, then cut in the
        // second half of the operation (metadata survives, payload torn).
        let probe =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let out = probe.program_page(p, &data, meta, SimTime::ZERO).unwrap();
        let span = out.completed_at.as_nanos() - out.started_at.as_nanos();
        let cut = SimTime(out.started_at.as_nanos() + span * 3 / 4);
        d.arm_power_cut(cut);
        let err = d.program_page(p, &data, meta, SimTime::ZERO).unwrap_err();
        assert!(err.is_power_loss());
        // The page is consumed (sequential rule) but torn.
        assert_eq!(d.page_state(p).unwrap(), PageState::Valid);
        d.clear_power_cut();
        let (read, rmeta, _) = d.read_page(p, d.quiesce_time()).unwrap();
        let rmeta = rmeta.expect("late tear keeps metadata");
        assert_ne!(read, data, "payload must be partial");
        assert!(!rmeta.payload_matches(&read), "checksum must expose the torn page");
        // An early tear (first half) loses the metadata entirely.
        let d2 =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let cut_early = SimTime(out.started_at.as_nanos() + span / 4);
        d2.arm_power_cut(cut_early);
        assert!(d2.program_page(p, &data, meta, SimTime::ZERO).is_err());
        d2.clear_power_cut();
        let (_, rmeta, _) = d2.read_page(p, d2.quiesce_time()).unwrap();
        assert!(rmeta.is_none(), "early tear loses the OOB metadata");
    }

    #[test]
    fn interrupted_erase_destroys_metadata_without_resetting_block() {
        let d =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let b = BlockAddr::new(DieId(0), 0, 0);
        let data = |d: &NandDevice| d.lock_device().dies[0].block(b).data.clone();
        let psz = d.geometry().page_size as usize;
        let whole = d.geometry().pages_per_block as usize * psz;
        for i in 0..2 {
            let meta = PageMetadata::new(1, u64::from(i));
            d.program_page(b.page(i), &payload(i as u8, &d), meta, SimTime::ZERO).unwrap();
        }
        assert_eq!(data(&d).len(), 2 * psz, "the payload ends at the write pointer");
        let idle = d.quiesce_time();
        // Cut shortly after the erase starts.
        d.arm_power_cut(idle + crate::time::Duration::from_us(1));
        assert!(d.erase_block(b, idle).unwrap_err().is_power_loss());
        d.clear_power_cut();
        let info = d.block_info(b).unwrap();
        assert_eq!(info.state, BlockState::Open, "interrupted erase does not free the block");
        assert_eq!(info.erase_count, 0, "incomplete erase is not charged to wear");
        let (_, meta, _) = d.read_page(b.page(0), d.quiesce_time()).unwrap();
        assert!(meta.is_none(), "metadata is destroyed");
        assert_eq!(data(&d), vec![0xFF; whole], "the whole block's payload is destroyed");
        // The next page still programs, in place among the destroyed ones.
        let meta = PageMetadata::new(1, 2);
        d.program_page(b.page(2), &payload(0x3C, &d), meta, d.quiesce_time()).unwrap();
        let kept = data(&d);
        assert_eq!(&kept[2 * psz..3 * psz], &payload(0x3C, &d)[..]);
        assert!(kept[..2 * psz].iter().chain(&kept[3 * psz..]).all(|&byte| byte == 0xFF));
        // A full erase after "reboot" makes the block usable again.
        d.erase_block(b, d.quiesce_time()).unwrap();
        assert_eq!(d.block_info(b).unwrap().state, BlockState::Free);
    }

    /// An erase keeps the block's payload buffer, and nothing can tell:
    /// fill a block, erase it, tear an erase of the erased block, program
    /// page 0 — the block then images exactly as on a fresh
    /// device given only the last two commands (the counters of the longer
    /// history aside).
    #[test]
    fn a_kept_payload_buffer_images_as_a_fresh_one() {
        let timing = TimingModel::mlc_2015();
        let build = || DeviceBuilder::new(FlashGeometry::small_test()).timing(timing).build();
        let b = BlockAddr::new(DieId(0), 0, 0);
        let data = |d: &NandDevice| d.lock_device().dies[0].block(b).data.clone();
        // The last two commands, issued on an idle die at `at`.
        let tear_then_program = |d: &NandDevice, at: SimTime| {
            d.arm_power_cut(at + Duration::from_us(1));
            assert!(d.erase_block(b, at).unwrap_err().is_power_loss());
            d.clear_power_cut();
            assert!(data(d).is_empty(), "a torn erase of an erased block writes no payload");
            let meta = PageMetadata::with_epoch(7, 0, 1_000);
            d.program_page(b.page(0), &payload(0x3C, d), meta, d.quiesce_time()).unwrap();
        };

        let d = build();
        for i in 0..d.geometry().pages_per_block {
            let meta = PageMetadata::new(1, u64::from(i));
            d.program_page(b.page(i), &payload(0xEE, &d), meta, SimTime::ZERO).unwrap();
        }
        assert!(!data(&d).is_empty());
        d.erase_block(b, d.quiesce_time()).unwrap();
        assert!(data(&d).is_empty(), "an erased block holds no payload");
        tear_then_program(&d, d.quiesce_time());
        let fresh = build();
        tear_then_program(&fresh, SimTime::ZERO);

        assert_eq!(data(&d), payload(0x3C, &d), "the payload ends at the write pointer");
        d.lock_device().dies[0].block_mut(b).erase_count = 0;
        assert_eq!(d.image(), fresh.image(), "NFLIMG03 bytes");
    }

    /// The device lock is not re-entrant: a device method called with
    /// the lock already held must panic in debug builds before the thread
    /// can block on the mutex.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "recursive acquisition of device")]
    fn re_entering_the_device_lock_panics_in_debug() {
        let d = dev();
        let _state = d.lock_device();
        d.stats();
    }

    #[test]
    fn threads_on_disjoint_dies_do_not_interfere() {
        // Two threads hammering disjoint dies (on disjoint channels in the
        // small_test geometry) must produce exactly the same per-die timing
        // and state as a single-threaded run: a thread's timings depend on
        // the simulated instants of its commands, not on how the host
        // interleaves the threads — and no command goes uncounted.
        use std::sync::Arc;

        /// The last completion, and the thread's own tally of what it
        /// programmed (all issued at t=0, so latency = completion).
        fn run_die(d: &NandDevice, die: u32, rounds: u32) -> (SimTime, DeviceStats) {
            let mut last = SimTime::ZERO;
            let mut tally = DeviceStats::default();
            for b in 0..rounds {
                for p in 0..d.geometry().pages_per_block {
                    let addr = PageAddr::new(DieId(die), 0, b, p);
                    let data = vec![(b ^ p) as u8; d.geometry().page_size as usize];
                    let out = d
                        .program_page(addr, &data, PageMetadata::new(1, p as u64), SimTime::ZERO)
                        .unwrap();
                    last = last.max(out.completed_at);
                    tally.page_programs += 1;
                    tally.program_latency_sum += out.completed_at - SimTime::ZERO;
                    tally.bytes_transferred += data.len() as u64;
                }
            }
            (last, tally)
        }

        let reference =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let (ref0, _) = run_die(&reference, 0, 4);
        let (ref2, _) = run_die(&reference, 2, 4);

        let shared = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build(),
        );
        let d0 = Arc::clone(&shared);
        let t0 = std::thread::spawn(move || run_die(&d0, 0, 4));
        let d2 = Arc::clone(&shared);
        let t2 = std::thread::spawn(move || run_die(&d2, 2, 4));
        let (last0, tally0) = t0.join().unwrap();
        let (last2, tally2) = t2.join().unwrap();
        assert_eq!(last0, ref0);
        assert_eq!(last2, ref2);
        // The device's statistics are the sum of what the threads saw.
        let stats = shared.stats();
        let mut sum = DeviceStats::default();
        sum.accumulate(&tally0);
        sum.accumulate(&tally2);
        assert_eq!(DeviceStats { queue_depth_hwm: 0, ..stats.clone() }, sum);
        assert_eq!(stats, reference.stats());
        // Same per-die busy time and op counts as the single-threaded run.
        let a = reference.die_stats();
        let b = shared.die_stats();
        assert_eq!(a[0].ops, b[0].ops);
        assert_eq!(a[0].busy_time, b[0].busy_time);
        assert_eq!(a[2].ops, b[2].ops);
        assert_eq!(a[2].busy_time, b[2].busy_time);
        // And the data is intact on both dies.
        for die in [0u32, 2] {
            let (read, _, _) = shared.read_page(page(die, 1, 3), shared.quiesce_time()).unwrap();
            assert_eq!(read, vec![1u8 ^ 3; shared.geometry().page_size as usize]);
        }
    }

    mod arbiter {
        use proptest::prelude::*;

        use super::*;

        fn builder() -> DeviceBuilder {
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015())
        }

        fn counter(d: &NandDevice, name: &str) -> u64 {
            d.metrics().counter(name).get()
        }

        /// Program one page per die at t=0 so reads have something to hit.
        fn seed_pages(d: &NandDevice) -> SimTime {
            let mut done = SimTime::ZERO;
            for die in 0..d.geometry().total_dies() {
                let data = vec![die as u8; d.geometry().page_size as usize];
                let out = d
                    .program_page(page(die, 0, 0), &data, PageMetadata::new(1, 0), SimTime::ZERO)
                    .unwrap();
                done = done.max(out.completed_at);
            }
            done
        }

        #[test]
        fn arbiter_off_tagged_path_is_byte_identical_to_untagged() {
            // The PR 9 equivalence guarantee: with no arbiter configured,
            // every tag (any class, exempt or not) schedules exactly like
            // the untagged API.
            let tagged = builder().build();
            let plain = builder().build();
            let t0 = seed_pages(&tagged);
            assert_eq!(t0, seed_pages(&plain));
            let tags = [
                IoTag::new(ServiceClass::Latency, Some(1)),
                IoTag::default(),
                IoTag::background(Some(2)),
                IoTag::durability(ServiceClass::Throughput, None),
            ];
            let mut at = t0;
            for (i, tag) in tags.iter().cycle().take(24).enumerate() {
                let die = (i as u32) % tagged.geometry().total_dies();
                let (da, ma, oa) = tagged.read_page_tagged(page(die, 0, 0), at, *tag).unwrap();
                let (db, mb, ob) = plain.read_page(page(die, 0, 0), at).unwrap();
                assert_eq!((da, ma, oa), (db, mb, ob), "op {i} diverged");
                at += Duration(1_000);
            }
            let a = tagged.stats();
            let b = plain.stats();
            assert_eq!(a.page_reads, b.page_reads);
            assert_eq!(a.read_latency_sum, b.read_latency_sum);
            assert_eq!(a.bytes_transferred, b.bytes_transferred);
            assert_eq!(tagged.quiesce_time(), plain.quiesce_time());
            assert_eq!(counter(&tagged, "flash.arbiter.deferred"), 0);
        }

        #[test]
        fn background_burst_defers_and_foreground_backfills_the_gaps() {
            let d = builder().arbiter(ArbiterConfig::default()).build();
            let t0 = seed_pages(&d);
            // A saturating same-instant background burst on die 0's channel
            // overdraws the region budget: later reads are deferred, and
            // each deferral leaves the channel idle for a while.
            let bg = IoTag::background(Some(7));
            for _ in 0..120 {
                d.read_page_tagged(page(0, 0, 0), t0, bg).unwrap();
            }
            assert!(counter(&d, "flash.arbiter.deferred") > 0, "budget must defer the burst");
            assert!(counter(&d, "flash.arbiter.deferral_ns") > 0);
            assert_eq!(
                counter(&d, "flash.arbiter.class.background.ops"),
                120,
                "every burst read admitted as background"
            );
            // A latency read from the die sharing the channel lands in one
            // of those idle windows instead of queueing behind the burst.
            let before = d.quiesce_time();
            // Die 1 shares channel 0 with the bursting die 0.
            let lat = IoTag::new(ServiceClass::Latency, Some(1));
            let (_, _, out) = d.read_page_tagged(page(1, 0, 0), t0, lat).unwrap();
            assert_eq!(counter(&d, "flash.arbiter.backfills"), 1);
            assert!(
                out.completed_at < before,
                "backfilled read finishes inside the burst window, not after it"
            );
        }

        #[test]
        fn exempt_durability_traffic_is_never_deferred() {
            let d = builder().arbiter(ArbiterConfig::default()).build();
            let t0 = seed_pages(&d);
            // Drain the budget with a background burst first.
            let bg = IoTag::background(Some(3));
            for _ in 0..120 {
                d.read_page_tagged(page(0, 0, 0), t0, bg).unwrap();
            }
            let deferred = counter(&d, "flash.arbiter.deferred");
            assert!(deferred > 0);
            // Durability traffic from the *same* region sails past the
            // drained bucket (no new deferrals), counted as exempt.
            let meta = IoTag::durability(ServiceClass::Throughput, Some(3));
            for _ in 0..8 {
                d.read_page_tagged(page(0, 0, 0), t0, meta).unwrap();
            }
            assert_eq!(counter(&d, "flash.arbiter.exempt"), 8);
            assert_eq!(counter(&d, "flash.arbiter.deferred"), deferred, "exempt ops never metered");
        }

        #[test]
        fn saturating_pressure_trips_the_aging_clip_but_completes_everything() {
            // A tiny budget with a tight aging bound: deferral requests far
            // exceed max_defer_ns, so the clip must engage, and every op
            // still completes within the bound of its issue + backlog.
            let cfg = ArbiterConfig {
                background_fraction: 0.05,
                window_ns: 100_000,
                max_defer_ns: 500_000,
            };
            let d = builder().arbiter(cfg).build();
            let t0 = seed_pages(&d);
            let bg = IoTag::background(Some(1));
            let mut max_start_delay = Duration::ZERO;
            for _ in 0..64 {
                let (_, _, out) = d.read_page_tagged(page(0, 0, 0), t0, bg).unwrap();
                max_start_delay = max_start_delay.max(out.started_at.since(t0));
            }
            assert!(counter(&d, "flash.arbiter.aging_capped") > 0, "clip must engage");
            // Start delay is bounded by admission aging plus the channel
            // backlog the ops themselves create — far below the unclipped
            // deferral the drained bucket would have demanded.
            let per_op =
                d.timing().read_array_time() + d.timing().transfer_time(d.geometry().page_size);
            let backlog = Duration(per_op.as_nanos() * 64);
            assert!(
                max_start_delay.as_nanos() <= cfg.max_defer_ns + backlog.as_nanos(),
                "start delay {max_start_delay:?} exceeds aging bound + backlog"
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Fairness: on any mixed-class read sequence, the arbiter
            /// delays no op's start by more than `max_defer_ns` beyond
            /// where the arbiter-off device would have started it — the
            /// anti-starvation aging window is a hard bound, and exempt
            /// (`__noftl_meta`-style) traffic is never inverted behind
            /// the background budget.
            #[test]
            fn no_op_starts_more_than_the_aging_window_late(
                classes in prop::collection::vec(0u8..4, 1..48),
                gaps in prop::collection::vec(0u64..40_000, 1..48),
            ) {
                let cfg = ArbiterConfig::default();
                let arb = builder().arbiter(cfg).build();
                let off = builder().build();
                let t0 = seed_pages(&arb);
                seed_pages(&off);
                let mut at = t0;
                for (i, class) in classes.iter().enumerate() {
                    let tag = match class {
                        0 => IoTag::new(ServiceClass::Latency, Some(1)),
                        1 => IoTag::default(),
                        2 => IoTag::background(Some(2)),
                        _ => IoTag::durability(ServiceClass::Throughput, Some(1)),
                    };
                    let die = (i as u32) % arb.geometry().total_dies();
                    let (_, _, a) = arb.read_page_tagged(page(die, 0, 0), at, tag).unwrap();
                    let (_, _, b) = off.read_page_tagged(page(die, 0, 0), at, tag).unwrap();
                    prop_assert!(
                        a.started_at.as_nanos() <= b.started_at.as_nanos() + cfg.max_defer_ns,
                        "op {} (class {}) started at {:?}, off-device {:?}: past the aging window",
                        i, class, a.started_at, b.started_at
                    );
                    at += Duration(gaps[i % gaps.len()]);
                }
            }
        }
    }
}
