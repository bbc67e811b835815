//! The mirrored backend: N simulated NAND devices behind one
//! [`FlashBackend`].
//!
//! Writes fan out to every child that is in sync for the targeted
//! segment, all issued at the caller's instant so the children stay
//! page-for-page identical.  Reads are served by any in-sync child,
//! chosen queue-aware (earliest start on the target die) with a
//! round-robin tie-break.  A child is lost the way any device is: it
//! loses power ([`NandDevice::arm_power_cut`]), rejects the commands
//! issued at or after its cut and tears the one in flight.  The mirror
//! learns of it from that child's own [`FlashError::PowerLoss`]: the
//! child goes [`ChildHealth::Faulted`], the survivors keep serving, and
//! the child's dirty set records the segment of every write it misses.
//!
//! # A child's power loss
//!
//! * A write that at least one `Online` child took is acknowledged with
//!   the survivors' merged outcome; each child that failed it with
//!   `PowerLoss` goes `Faulted` at the cut the error carries, stale for
//!   the segments the write reads and writes.  The lost child may have
//!   stored the write's epoch before it tore, so the `Online` survivors'
//!   epoch counters step one past it: after a reboot the highest epoch
//!   still names a child that holds the write.  A write that only a
//!   `Rebuilding` child took returns `PowerLoss`, as does one no child
//!   took; the latter changes no health.
//! * A read tries its candidates in the queue-aware order: a `PowerLoss`
//!   moves on to the next one, and the candidates that failed before the
//!   one that served it go `Faulted`.  A device rejects a command before
//!   reserving any time for it, so a failed attempt costs none.  When
//!   every candidate has lost power, so has the box: the read returns
//!   `PowerLoss`.
//!
//! # The in-sync rule
//!
//! One rule says which children a command may touch, and the timed
//! fan-out (program, erase, copyback), the untimed `mark_invalid` /
//! `retire_block` and the read-candidate filter all ask it.  A command
//! writes one segment `W` (a copyback: its destination) and a copyback
//! also reads one segment `R`, its source, on each child's own array:
//!
//! * an `Online` child takes the command, a `Faulted` one skips it;
//! * a `Rebuilding` child takes it only if every segment of {`R`, `W`}
//!   is clean;
//! * a child that skips goes stale for `W`, and for `R` too: a copyback
//!   invalidates its source page;
//! * a read of a page goes to a child that would take a write of the
//!   page's segment.
//!
//! A child's staleness is one set of segment indices, a segment being
//! one erase block ([`FlashGeometry::block_index`]).  A child whose
//! history is unknown (a child without power at mount, or one a new
//! mirror could not yet verify) has every segment dirty.  A command
//! outside the geometry changes no child, so it marks nothing.
//!
//! # The starting rule
//!
//! [`MirrorDevice::new`] and [`MirrorDevice::restore_replication`] start
//! from one rule: a pristine set, and the source (the child with the
//! highest stored epoch), start `Online` and clean; every other child
//! starts `Faulted` with every segment dirty.  A restore then replaces
//! the dirty set of each such child that has power with the verify
//! scan's.
//!
//! # Locking
//!
//! The mirror has one lock, [`LockClass::Mirror`], over health states,
//! dirty sets, the epoch sequence and the read cursor.  It sits between
//! the manager's and the children's in the workspace's total order
//! `manager < mirror < device`, and every command holds it across the
//! children's `execute`: planning a fan-out and executing it are atomic.
//! A rebuild step holds it across its whole segment copy too, so a
//! foreground command lands either before a copy (the segment is still
//! dirty and the copy brings it over) or after it (the segment is clean
//! and the child takes the command) — never during one.
//!
//! # Epochs
//!
//! The mirror owns the write-epoch sequence: a program arriving with
//! `epoch == 0` is stamped from the mirror's counter before fan-out, so
//! every child stores the *same* epoch for the same logical write and
//! each child's own counter ratchets to the maximum it has stored
//! (persisted in each child's device image).  After a reboot the child with the
//! highest epoch is therefore guaranteed to hold every acknowledged
//! write, which is how [`MirrorDevice::restore_replication`] picks its
//! rebuild source.

use std::any::Any;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use flash_sim::lockorder::{self, LockClass, TrackedGuard};
use flash_sim::{
    BlockAddr, BlockInfo, CmdOutput, DeviceStats, DieId, DieLoad, DieStats, FlashBackend,
    FlashCommand, FlashError, FlashGeometry, IoTag, NandDevice, OpOutcome, PageAddr, PageState,
    Result, SimTime, TimingModel, WearSummary,
};
use noftl_obs::MetricsRegistry;

use crate::health::ChildHealth;
use crate::obs::MirrorObs;

/// Replication state of one child.
#[derive(Debug)]
pub(crate) struct ChildState {
    pub(crate) health: ChildHealth,
    /// Segments this child is stale for: every segment while its history
    /// is unknown (a child attached with data, or without power at
    /// mount), until a rebuild copies them or a restore verifies the
    /// child.
    pub(crate) dirty: BTreeSet<u64>,
    /// When the child left `Online`, for the degraded-mode trace span.
    pub(crate) faulted_at: Option<SimTime>,
}

impl ChildState {
    /// The in-sync rule (module docs): may this child take a command
    /// that reads segment `r` and writes segment `w`?
    fn takes(&self, r: Option<u64>, w: Option<u64>) -> bool {
        match self.health {
            ChildHealth::Online => true,
            ChildHealth::Faulted => false,
            ChildHealth::Rebuilding => [r, w].iter().flatten().all(|s| !self.dirty.contains(s)),
        }
    }

    /// The child lost power at `cut`: it goes `Faulted`, stale for
    /// `segments`.
    fn lose_power(&mut self, cut: SimTime, segments: &[Option<u64>]) {
        // Online -> Faulted and Rebuilding -> Faulted are both legal, and
        // only a child that took a command can fail it, so the transition
        // cannot fail here; were it ever refused, keeping the old health
        // is safer than panicking mid-I/O.
        if let Ok(next) = self.health.check_transition(ChildHealth::Faulted) {
            self.health = next;
        }
        self.faulted_at = Some(cut);
        self.dirty.extend(segments.iter().flatten());
    }
}

#[derive(Debug)]
pub(crate) struct MirrorState {
    pub(crate) children: Vec<ChildState>,
    /// Mirror-owned write-epoch sequence (see module docs).
    pub(crate) epoch: u64,
    /// Round-robin cursor for read tie-breaking.
    rr: usize,
}

/// A nexus-style replicated flash backend over 2+ [`NandDevice`]s.
pub struct MirrorDevice {
    geometry: FlashGeometry,
    children: Vec<Arc<NandDevice>>,
    state: Mutex<MirrorState>,
    pub(crate) obs: MirrorObs,
}

impl std::fmt::Debug for MirrorDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.mirror_shard();
        let healths: Vec<ChildHealth> = state.children.iter().map(|c| c.health).collect();
        f.debug_struct("MirrorDevice")
            .field("children", &self.children.len())
            .field("healths", &healths)
            .field("epoch", &state.epoch)
            .finish_non_exhaustive()
    }
}

impl MirrorDevice {
    /// Assemble a mirror over `children`, which must be at least two
    /// devices of identical geometry.
    ///
    /// The children start by the starting rule (module docs): if any
    /// child already holds data, every child but the source is `Faulted`
    /// with every segment dirty until the verify scan of
    /// [`MirrorDevice::restore_replication`] (or a full rebuild) reads
    /// what it actually holds off the children.
    pub fn new(children: Vec<Arc<NandDevice>>) -> Result<MirrorDevice> {
        if children.len() < 2 {
            return Err(FlashError::MirrorConfig {
                message: format!("a mirror needs at least 2 children, got {}", children.len()),
            });
        }
        let geometry = *children[0].geometry();
        for (i, child) in children.iter().enumerate() {
            if *child.geometry() != geometry {
                return Err(FlashError::MirrorConfig {
                    message: format!("child {i} geometry differs from child 0"),
                });
            }
        }
        let epoch = children.iter().map(|c| c.current_epoch()).max().unwrap_or(0);
        let (_, states) = Self::starting_states(&children);
        let obs = MirrorObs::new(Arc::clone(children[0].metrics()), children.len());
        Ok(MirrorDevice {
            geometry,
            state: Mutex::new(MirrorState { children: states, epoch, rr: 0 }),
            obs,
            children,
        })
    }

    /// Build a mirror of `replicas` fresh devices sharing one metrics
    /// registry (the convenient path for tests and benches).
    pub fn new_fresh(
        replicas: usize,
        geometry: FlashGeometry,
        timing: TimingModel,
    ) -> Result<MirrorDevice> {
        let registry = Arc::new(MetricsRegistry::new());
        let children: Vec<Arc<NandDevice>> = (0..replicas)
            .map(|_| {
                Arc::new(
                    flash_sim::DeviceBuilder::new(geometry)
                        .timing(timing)
                        .metrics(Arc::clone(&registry))
                        .build(),
                )
            })
            .collect();
        MirrorDevice::new(children)
    }

    /// Every child's starting state (module docs), and the source: the
    /// child holding the highest stored write epoch — the only device
    /// guaranteed to hold every acknowledged write (ties prefer the
    /// lowest index).
    fn starting_states(children: &[Arc<NandDevice>]) -> (usize, Vec<ChildState>) {
        let mut source = 0;
        for (i, c) in children.iter().enumerate().skip(1) {
            if c.current_epoch() > children[source].current_epoch() {
                source = i;
            }
        }
        let geometry = children[0].geometry();
        let pristine = geometry.dies().all(|d| children.iter().all(|c| !c.die_touched(d)));
        let states = (0..children.len()).map(|i| {
            let (health, dirty) = if pristine || i == source {
                (ChildHealth::Online, BTreeSet::new())
            } else {
                (ChildHealth::Faulted, (0..geometry.total_blocks()).collect())
            };
            ChildState { health, dirty, faulted_at: None }
        });
        (source, states.collect())
    }

    /// The mirror's children.  Losing child `i` at `t` is
    /// `children()[i].arm_power_cut(t)`, reattaching it
    /// `clear_power_cut()`; crash harnesses image them through this too.
    pub fn children(&self) -> &[Arc<NandDevice>] {
        &self.children
    }

    /// The segment of `block`, its linear index, or `None` outside the
    /// geometry: every child rejects a command there, so none goes stale.
    fn segment_of(&self, block: BlockAddr) -> Option<u64> {
        self.geometry.contains_block(block).then(|| self.geometry.block_index(block))
    }

    /// Current health of `child`.
    pub fn health(&self, child: usize) -> ChildHealth {
        self.mirror_shard().children[child].health
    }

    /// Number of segments `child` is stale for (the full segment count
    /// while its history is unknown).
    pub fn dirty_segments(&self, child: usize) -> u64 {
        self.mirror_shard().children[child].dirty.len() as u64
    }

    /// True when every child is `Online`.
    pub fn fully_online(&self) -> bool {
        self.mirror_shard().children.iter().all(|c| c.health == ChildHealth::Online)
    }

    pub(crate) fn mirror_shard(&self) -> TrackedGuard<'_, MirrorState> {
        lockorder::lock_tracked(LockClass::Mirror, &self.state)
    }

    /// Route a command that reads segment `r` and writes segment `w`
    /// (the same segment unless it is a copyback) by the in-sync rule:
    /// return the children that take it.  Every other child goes stale
    /// for `w` and `r` (a copyback invalidates its source page).
    fn route(state: &mut MirrorState, r: Option<u64>, w: Option<u64>) -> Vec<usize> {
        let mut targets = Vec::new();
        for (i, child) in state.children.iter_mut().enumerate() {
            if child.takes(r, w) {
                targets.push(i);
            } else {
                child.dirty.extend(r.into_iter().chain(w));
            }
        }
        targets
    }

    /// Execute `cmd` (with the caller's arbiter `tag`), which reads
    /// segment `r` and writes segment `w`, on the children that take it,
    /// and fault those that lost power (module docs).  A program whose
    /// `meta.epoch` is zero is stamped from the mirror's sequence first;
    /// one that carries an epoch ratchets the sequence.
    fn fan_out(
        &self,
        r: Option<u64>,
        w: Option<u64>,
        at: SimTime,
        mut cmd: FlashCommand<'_>,
        tag: IoTag,
    ) -> Result<OpOutcome> {
        let mut state = self.mirror_shard();
        if let FlashCommand::Program { meta, .. } = &mut cmd {
            if meta.epoch == 0 {
                state.epoch += 1;
                meta.epoch = state.epoch;
            } else {
                state.epoch = state.epoch.max(meta.epoch);
            }
        }
        let targets = Self::route(&mut state, r, w);
        for i in (0..self.children.len()).filter(|i| !targets.contains(i)) {
            self.obs.note_write_skip(i);
        }
        // Execute while still holding the mirror lock (Mirror < Device):
        // no rebuild step can copy a segment between plan and execution.
        let mut merged: Option<OpOutcome> = None;
        let mut first_err: Option<FlashError> = None;
        let mut cuts = Vec::new();
        for &i in &targets {
            let result = match cmd {
                // A `Rebuilding` child takes programs on the replica path,
                // so its epoch counter — the marker of its consistent
                // history — stays put until the rebuild commits.
                FlashCommand::Program { addr, data, meta }
                    if state.children[i].health == ChildHealth::Rebuilding =>
                {
                    self.children[i].program_replica(addr, data, meta, at)
                }
                _ => self.children[i].execute(cmd.reborrow(), at, tag).map(|out| out.outcome),
            };
            match result {
                Ok(out) => {
                    self.obs.note_program(i);
                    let m = merged.get_or_insert(out);
                    m.started_at = m.started_at.min(out.started_at);
                    m.completed_at = m.completed_at.max(out.completed_at);
                }
                Err(FlashError::PowerLoss { at: cut }) => cuts.push((i, cut)),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let Some(merged) = merged else {
            // No child took it: the box lost power, or no child was in
            // sync.  Nothing is known that was not known before.
            let lost = cuts.first().map(|&(_, cut)| FlashError::PowerLoss { at: cut });
            return Err(first_err.or(lost).unwrap_or(FlashError::NoHealthyChild { at }));
        };
        for &(i, cut) in &cuts {
            state.children[i].lose_power(cut, &[r, w]);
            self.obs.note_fault(i, at);
        }
        if let Some(&(_, cut)) = cuts.first() {
            // A child that lost power in the command may have stored its
            // epoch before tearing it.  The `Online` children, which took
            // it, step one epoch past, so after a reboot the source — the
            // highest epoch — holds the command.  A `Rebuilding` child's
            // counter stays put, so without an `Online` one the command is
            // not acknowledged.
            state.epoch += 1;
            let mut held = false;
            for &i in targets.iter().filter(|&&i| state.children[i].health == ChildHealth::Online) {
                self.children[i].ratchet_epoch(state.epoch);
                held = true;
            }
            if !held {
                return Err(FlashError::PowerLoss { at: cut });
            }
        }
        first_err.map_or(Ok(merged), Err)
    }

    /// Apply an untimed mutation of segment `seg` to the children that
    /// take it.
    fn apply_untimed(
        &self,
        seg: Option<u64>,
        op: impl Fn(&NandDevice) -> Result<()>,
    ) -> Result<()> {
        let mut state = self.mirror_shard();
        for i in Self::route(&mut state, seg, seg) {
            op(&self.children[i])?;
        }
        Ok(())
    }

    /// Serve `read` — a read or metadata read of `addr` — from the best
    /// in-sync child that has power (module docs).
    fn read_from_best(
        &self,
        addr: PageAddr,
        at: SimTime,
        mut read: FlashCommand<'_>,
        tag: IoTag,
    ) -> Result<CmdOutput> {
        let seg = self.segment_of(addr.block());
        let mut state = self.mirror_shard();
        let mut candidates: Vec<usize> =
            (0..self.children.len()).filter(|i| state.children[*i].takes(seg, seg)).collect();
        if candidates.is_empty() {
            return Err(FlashError::NoHealthyChild { at });
        }
        let degraded = candidates.len() < self.children.len();
        // Queue-aware order: earliest start on the target die first; the
        // round-robin cursor rotates the candidates, and the stable sort
        // keeps that rotation among equals, so ties spread over the
        // replica set.
        let rr = state.rr;
        state.rr = rr.wrapping_add(1);
        let n = candidates.len();
        candidates.rotate_left(rr % n);
        candidates.sort_by_key(|&i| self.children[i].die_load(addr.die, at).earliest_start(at));
        let mut cuts: Vec<(usize, SimTime)> = Vec::new();
        for &i in &candidates {
            match self.children[i].execute(read.reborrow(), at, tag) {
                Ok(out) => {
                    for &(j, cut) in &cuts {
                        state.children[j].lose_power(cut, &[]);
                        self.obs.note_fault(j, at);
                    }
                    let degraded = degraded || !cuts.is_empty();
                    self.obs.note_read(i, degraded, at, out.outcome.completed_at);
                    return Ok(out);
                }
                Err(FlashError::PowerLoss { at: cut }) => cuts.push((i, cut)),
                Err(e) => return Err(e),
            }
        }
        // Every candidate lost power: so did the box.
        Err(FlashError::PowerLoss { at: cuts.first().map_or(at, |&(_, cut)| cut) })
    }

    /// The child untimed state probes are served from: the first
    /// `Online` child (there is always at least one in any usable
    /// mirror; falls back to child 0 for a fully-faulted mirror so the
    /// probe itself cannot fail).
    fn canonical_child(&self) -> usize {
        let state = self.mirror_shard();
        state
            .children
            .iter()
            .position(|c| c.health == ChildHealth::Online)
            .or_else(|| state.children.iter().position(|c| c.health == ChildHealth::Rebuilding))
            .unwrap_or(0)
    }

    /// Children whose load the mirror's own die-load probes report:
    /// everything that currently receives writes.
    fn load_children(&self) -> Vec<usize> {
        let state = self.mirror_shard();
        let active: Vec<usize> = state
            .children
            .iter()
            .enumerate()
            .filter(|(_, c)| c.health != ChildHealth::Faulted)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            vec![0]
        } else {
            active
        }
    }

    /// Compare `child` against `source` and return the exact set of
    /// segments where they differ: block shape (state, write pointer,
    /// valid/invalid counts) first, then, for blocks whose shape matches,
    /// per-page OOB metadata and the child's payload against its OOB
    /// checksum.  Erase counts are deliberately ignored — a rebuilt block
    /// has extra erases but identical content.
    ///
    /// Timed reads (the source's metadata, the child's page) advance
    /// `*now`; both devices are probed at the same instants so the scans
    /// overlap like the hardware would.
    fn verify_dirty(
        &self,
        source: usize,
        child: usize,
        now: &mut SimTime,
    ) -> Result<BTreeSet<u64>> {
        let src = self.children[source].as_ref();
        let tgt = self.children[child].as_ref();
        let mut dirty = BTreeSet::new();
        for die in self.geometry.dies() {
            if !src.die_touched(die) && !tgt.die_touched(die) {
                continue;
            }
            for plane in 0..self.geometry.planes_per_die {
                for block in 0..self.geometry.blocks_per_plane {
                    let addr = BlockAddr::new(die, plane, block);
                    let sb = src.block_info(addr)?;
                    let tb = tgt.block_info(addr)?;
                    let shape =
                        |b: &BlockInfo| (b.state, b.write_ptr, b.valid_pages, b.invalid_pages);
                    if shape(&sb) != shape(&tb) {
                        dirty.insert(self.geometry.block_index(addr));
                        continue;
                    }
                    if sb.write_ptr == 0 || sb.state == flash_sim::BlockState::Bad {
                        continue;
                    }
                    for page in 0..sb.write_ptr {
                        let p = addr.page(page);
                        let (sm, so) = src.read_metadata(p, *now)?;
                        let (data, tm, to) = tgt.read_page(p, *now)?;
                        *now = (*now).max(so.completed_at).max(to.completed_at);
                        // Identical OOB (object, page, epoch, checksum)
                        // over a payload that matches its checksum implies
                        // identical payload.  Anything else is stale: a
                        // program torn after its OOB landed keeps the OOB,
                        // and both sides may have torn.
                        if sm != tm || !tm.is_some_and(|m| m.payload_matches(&data)) {
                            dirty.insert(self.geometry.block_index(addr));
                            break;
                        }
                    }
                }
            }
        }
        Ok(dirty)
    }
}

impl FlashBackend for MirrorDevice {
    fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    fn timing(&self) -> &TimingModel {
        self.children[0].timing()
    }

    fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.children[0].metrics()
    }

    // The verbs are adapters over `execute`, the mirror's one command
    // path.
    flash_sim::verbs_over_execute!();

    fn execute(&self, command: FlashCommand<'_>, at: SimTime, tag: IoTag) -> Result<CmdOutput> {
        let written = |outcome| CmdOutput { meta: None, outcome };
        match command {
            FlashCommand::Read { addr, .. } | FlashCommand::MetadataRead { addr } => {
                self.read_from_best(addr, at, command, tag)
            }
            FlashCommand::Program { addr, .. } => {
                let seg = self.segment_of(addr.block());
                self.fan_out(seg, seg, at, command, tag).map(written)
            }
            FlashCommand::Erase { block } => {
                let seg = self.segment_of(block);
                self.fan_out(seg, seg, at, command, tag).map(written)
            }
            FlashCommand::Copyback { src, dst } => {
                let (r, w) = (self.segment_of(src.block()), self.segment_of(dst.block()));
                self.fan_out(r, w, at, command, tag).map(written)
            }
        }
    }

    fn mark_invalid(&self, addr: PageAddr) -> Result<()> {
        self.apply_untimed(self.segment_of(addr.block()), |c| c.mark_invalid(addr))
    }

    fn retire_block(&self, addr: BlockAddr) -> Result<()> {
        self.apply_untimed(self.segment_of(addr), |c| c.retire_block(addr))
    }

    fn block_info(&self, addr: BlockAddr) -> Result<BlockInfo> {
        self.children[self.canonical_child()].block_info(addr)
    }

    fn page_state(&self, addr: PageAddr) -> Result<PageState> {
        self.children[self.canonical_child()].page_state(addr)
    }

    fn stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for child in &self.children {
            total.accumulate(&child.stats());
        }
        total
    }

    fn die_stats(&self) -> Vec<DieStats> {
        let mut merged = vec![DieStats::default(); self.geometry.total_dies() as usize];
        for child in &self.children {
            for (slot, d) in merged.iter_mut().zip(child.die_stats()) {
                slot.ops += d.ops;
                slot.busy_time += d.busy_time;
                slot.total_erases += d.total_erases;
                slot.max_erase_count = slot.max_erase_count.max(d.max_erase_count);
                slot.queue_depth_hwm = slot.queue_depth_hwm.max(d.queue_depth_hwm);
            }
        }
        merged
    }

    fn wear_summary(&self) -> WearSummary {
        // Merge the per-child summaries: totals add, extremes combine,
        // the mean averages (children have identical block counts) and
        // the spread conservatively reports the widest child.
        let summaries: Vec<WearSummary> = self.children.iter().map(|c| c.wear_summary()).collect();
        let n = summaries.len() as f64;
        WearSummary {
            total_erases: summaries.iter().map(|s| s.total_erases).sum(),
            min_erase_count: summaries.iter().map(|s| s.min_erase_count).min().unwrap_or(0),
            max_erase_count: summaries.iter().map(|s| s.max_erase_count).max().unwrap_or(0),
            mean_erase_count: summaries.iter().map(|s| s.mean_erase_count).sum::<f64>() / n,
            stddev_erase_count: summaries.iter().map(|s| s.stddev_erase_count).fold(0.0, f64::max),
            bad_blocks: summaries.iter().map(|s| s.bad_blocks).sum(),
        }
    }

    fn quiesce_time(&self) -> SimTime {
        self.children.iter().map(|c| c.quiesce_time()).max().unwrap_or(SimTime::ZERO)
    }

    fn die_busy_until(&self, die: DieId) -> SimTime {
        self.load_children()
            .into_iter()
            .map(|i| self.children[i].die_busy_until(die))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    fn die_load(&self, die: DieId, at: SimTime) -> DieLoad {
        // Writes fan out to every non-faulted child, so the effective
        // load of a die is the worst over the active replica set.
        let mut load = DieLoad::default();
        for i in self.load_children() {
            let l = self.children[i].die_load(die, at);
            load.busy_until = load.busy_until.max(l.busy_until);
            load.queue_depth = load.queue_depth.max(l.queue_depth);
        }
        load
    }

    fn current_epoch(&self) -> u64 {
        self.mirror_shard().epoch
    }

    fn die_touched(&self, die: DieId) -> bool {
        self.children.iter().any(|c| c.die_touched(die))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    /// Read every child's staleness off the children, from the starting
    /// rule (module docs): a child that starts `Faulted` and has power
    /// gets the verify scan's dirty set, and nothing else, and is `Online`
    /// when that set is empty; one without power stays stale everywhere.
    /// `blob` is ignored: nothing is persisted beside the children.
    fn restore_replication(&self, _blob: Option<&[u8]>, at: SimTime) -> Result<SimTime> {
        let mut now = at;
        let (source, mut plans) = Self::starting_states(&self.children);
        // Compute every child's staleness before mutating any state.
        let mut state = self.mirror_shard();
        for (i, plan) in plans.iter_mut().enumerate() {
            // A child without power cannot be verified: it stays stale
            // everywhere, never silently trusted.
            let unpowered = self.children[i].power_cut().is_some_and(|cut| cut <= at);
            if plan.health == ChildHealth::Online || unpowered {
                continue;
            }
            plan.dirty = self.verify_dirty(source, i, &mut now)?;
            if plan.dirty.is_empty() {
                plan.health = ChildHealth::Online;
            }
        }
        for (child, plan) in state.children.iter_mut().zip(plans) {
            child.health = plan.health;
            child.dirty = plan.dirty;
            if plan.health == ChildHealth::Online {
                child.faulted_at = None;
            }
        }
        Ok(now)
    }
}
