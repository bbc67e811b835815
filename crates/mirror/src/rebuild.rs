//! Online rebuild: drain a faulted child's dirty set while foreground
//! traffic continues.
//!
//! A rebuild copies one segment (erase block) per step and holds the
//! mirror lock for the whole step: it picks the lowest dirty segment,
//! copies it and removes it from the set.  A foreground command waits
//! for a step in flight; between steps it runs under the mirror's in-sync
//! rule, so a write into a segment not yet copied skips the child and
//! leaves the segment dirty, and one into a copied segment lands on the
//! child as on every other.  The stack is driven from one host thread, so
//! nothing ever actually waits.
//!
//! The per-segment copy streams the source block through a window of
//! `READ_WINDOW` (4) reads in flight, programming each page on
//! the target at its read-completion instant with the source's OOB
//! metadata preserved, so after the copy the two blocks compare
//! identical shape and OOB in [the verify scan].  Source pages that are
//! `Invalid` are re-invalidated on the target, and a source block gone
//! `Bad` retires the target block instead of copying.  A source or a
//! target that loses power mid-copy ends the step with its `PowerLoss`,
//! and the segment stays dirty.
//!
//! [the verify scan]: crate::MirrorDevice::restore_replication

use flash_sim::{
    BlockState, CmdOutput, FlashBackend, FlashCommand, FlashError, IoTag, PageMetadata, PageState,
    Result, SimTime,
};

use crate::device::MirrorDevice;
use crate::health::ChildHealth;

/// Source reads in flight while a segment is copied.
const READ_WINDOW: usize = 4;

/// Summary of a full [`MirrorDevice::rebuild`] run.
#[derive(Debug, Clone, Copy)]
pub struct RebuildReport {
    /// Segments whose copy landed and left the dirty set.
    pub segments_copied: u64,
    /// Total pages programmed on the target.
    pub pages_copied: u64,
    /// Simulated instant the child came back online.
    pub completed_at: SimTime,
}

impl MirrorDevice {
    /// Transition a faulted child to `Rebuilding` so
    /// [`MirrorDevice::rebuild`] can drain its dirty set.
    ///
    /// Fails if the child is not `Faulted`, has a power cut armed at or
    /// before `at`, another child is already rebuilding, or no online
    /// source exists.
    pub fn start_rebuild(&self, child: usize, at: SimTime) -> Result<()> {
        let mut state = self.mirror_shard();
        let Some(device) = self.children().get(child) else {
            return Err(FlashError::MirrorConfig {
                message: format!("no child {child} in a {}-way mirror", state.children.len()),
            });
        };
        if device.power_cut().is_some_and(|cut| cut <= at) {
            return Err(FlashError::MirrorConfig {
                message: format!("child {child} has no power; clear its power cut first"),
            });
        }
        if state.children.iter().any(|c| c.health == ChildHealth::Rebuilding) {
            return Err(FlashError::MirrorConfig {
                message: "another rebuild is already in progress".into(),
            });
        }
        if !state
            .children
            .iter()
            .enumerate()
            .any(|(i, c)| i != child && c.health == ChildHealth::Online)
        {
            return Err(FlashError::NoHealthyChild { at });
        }
        let c = &mut state.children[child];
        c.health = c.health.check_transition(ChildHealth::Rebuilding)?;
        Ok(())
    }

    /// Drain `child`'s dirty set to completion, advancing the simulated
    /// clock copy by copy.
    pub fn rebuild(&self, child: usize, at: SimTime) -> Result<RebuildReport> {
        let mut report = RebuildReport { segments_copied: 0, pages_copied: 0, completed_at: at };
        while self.rebuild_step(child, &mut report)? {}
        Ok(report)
    }

    /// Copy the lowest dirty segment of `child` at `report.completed_at`,
    /// holding the mirror lock from choosing the segment to removing it
    /// from the dirty set, and add the copy to `report`.
    ///
    /// Returns `false` once the set is drained — at which point the child
    /// has transitioned back to `Online`.  A failed copy leaves the
    /// segment dirty.
    fn rebuild_step(&self, child: usize, report: &mut RebuildReport) -> Result<bool> {
        let at = report.completed_at;
        let mut state = self.mirror_shard();
        match state.children[child].health {
            ChildHealth::Rebuilding => {}
            ChildHealth::Faulted => {
                // A foreground command found it without power mid-rebuild.
                let cut = state.children[child].faulted_at.unwrap_or(at);
                return Err(FlashError::PowerLoss { at: cut });
            }
            ChildHealth::Online => {
                return Err(FlashError::MirrorConfig {
                    message: format!("child {child} is not rebuilding"),
                });
            }
        }
        let Some(source) = state
            .children
            .iter()
            .enumerate()
            .position(|(i, c)| i != child && c.health == ChildHealth::Online)
        else {
            return Err(FlashError::NoHealthyChild { at });
        };
        let epoch = state.epoch;
        let c = &mut state.children[child];
        let Some(seg) = c.dirty.first().copied() else {
            // Drained: the child is in sync again.  Commit the rebuilt
            // history by ratcheting the child's epoch counter up to the
            // mirror's (replica programs left it at its stale pre-loss
            // value on purpose).
            c.health = c.health.check_transition(ChildHealth::Online)?;
            self.children()[child].ratchet_epoch(epoch);
            let faulted_at = c.faulted_at.take().unwrap_or(SimTime::ZERO);
            self.obs.note_back_online(child, faulted_at, at);
            return Ok(false);
        };
        let (pages, done) = self.copy_segment(source, child, seg, at)?;
        c.dirty.remove(&seg);
        self.obs.note_segment_copied(done.as_nanos().saturating_sub(at.as_nanos()));
        report.segments_copied += 1;
        report.pages_copied += u64::from(pages);
        report.completed_at = at.max(done);
        Ok(true)
    }

    /// Stream one segment from `source` to `child` through the read
    /// window, and return the pages programmed on `child` and the instant
    /// the copy finished.  The caller holds the mirror lock, so this
    /// takes no mirror-level lock itself.
    fn copy_segment(
        &self,
        source: usize,
        child: usize,
        seg: u64,
        at: SimTime,
    ) -> Result<(u32, SimTime)> {
        let block = self.geometry().block_at(seg);
        let src_dev = self.children()[source].as_ref();
        let tgt_dev = self.children()[child].as_ref();
        let sb = src_dev.block_info(block)?;
        let tb = tgt_dev.block_info(block)?;
        if sb.state == BlockState::Bad {
            // The source has no content for this segment; mirror the
            // retirement so allocation skips the block everywhere.
            if tb.state != BlockState::Bad {
                tgt_dev.retire_block(block)?;
            }
            return Ok((0, at));
        }
        if tb.state == BlockState::Bad {
            // The target block wore out: the source alone carries this
            // segment.  Nothing can be copied; the block is unusable on
            // the target, which future foreground programs surface as
            // mirror-wide retirement.
            return Ok((0, at));
        }
        let mut clock = at;
        if tb.state != BlockState::Free {
            let erase = FlashCommand::Erase { block };
            clock = tgt_dev.execute(erase, clock, IoTag::default())?.outcome.completed_at;
        }
        if sb.write_ptr == 0 {
            return Ok((0, clock));
        }
        // Snapshot per-page validity up front: with the mirror lock held
        // no foreground command changes the source block meanwhile.
        let mut invalid_pages = Vec::new();
        for page in 0..sb.write_ptr {
            if src_dev.page_state(block.page(page))? == PageState::Invalid {
                invalid_pages.push(page);
            }
        }
        // Each read in flight fills a page buffer of its own, handed back
        // to `spare` once the page is programmed on the target.
        let mut pending: std::collections::VecDeque<(u32, Vec<u8>, Result<CmdOutput>)> =
            std::collections::VecDeque::with_capacity(READ_WINDOW);
        let mut spare: Vec<Vec<u8>> = Vec::with_capacity(READ_WINDOW);
        let page_size = src_dev.geometry().page_size as usize;
        let mut next = 0u32;
        // `slot_free` paces the window: the first `READ_WINDOW` reads issue
        // at the step time, each further read when a slot frees up.
        let mut slot_free = clock;
        loop {
            while pending.len() < READ_WINDOW && next < sb.write_ptr {
                let mut data = spare.pop().unwrap_or_else(|| vec![0; page_size]);
                let read = FlashCommand::Read { addr: block.page(next), data: &mut data };
                let out = src_dev.execute(read, slot_free, IoTag::default());
                pending.push_back((next, data, out));
                next += 1;
            }
            let Some((page, data, read)) = pending.pop_front() else {
                break;
            };
            let out = read?;
            let read_done = out.outcome.completed_at;
            // A torn source OOB area (power cut mid-program) still gets
            // its payload copied under a placeholder record: its checksum
            // does not match, so a mount discards the copy as torn, as it
            // does the source, and the verify scan finds it stale.
            let meta = out.meta.unwrap_or_else(|| PageMetadata::with_epoch(0, 0, 1));
            // Replica programs preserve the source epoch in OOB without
            // ratcheting the target's epoch counter: until this rebuild
            // commits, the copies are not consistent history, and a crash
            // now must leave a device whose counter still reads stale.
            let programmed = tgt_dev.program_replica(block.page(page), &data, meta, read_done)?;
            spare.push(data);
            clock = clock.max(programmed.completed_at);
            slot_free = slot_free.max(read_done);
        }
        for page in invalid_pages {
            tgt_dev.mark_invalid(block.page(page))?;
        }
        Ok((sb.write_ptr, clock))
    }
}
