//! Per-region page allocation and garbage collection.
//!
//! Under NoFTL garbage collection runs *inside each region*.  Because a
//! region only holds objects with similar update behaviour, the pages of a
//! full block tend to share a temperature: blocks in hot regions are
//! mostly invalid when they are collected (cheap victims), blocks in cold
//! regions are rarely collected at all.  That is the mechanism behind the
//! paper's reduction in COPYBACK and ERASE counts.
//!
//! `Space` is the allocator and collector of one region at work;
//! [`GcCandidate`] and [`select_victim`] are the one victim-selection
//! rule: greedy.
//!
//! Collection is *paced by host writes*: a die between its low and high
//! free-block watermark relocates a quantum of its current victim in
//! front of every page it hands out, instead of reclaiming the whole gap
//! — two blocks, some 30 ms of copybacks and erases on the paper's
//! device — in front of the one write that found it at the low mark.
//! The work is the same; what a host read or write can find queued ahead
//! of it on the die is a few copybacks, not two blocks' worth.
//!
//! A GC step delays no page of its own: each die carries the die time the
//! region has issued on it, the step is charged to the die that runs it,
//! and the page whose allocation ran the step goes to the least-charged
//! die — another one whenever the step's time puts the collecting die
//! ahead.  So a collecting die takes no host page until the other dies of
//! the region have done as much work, and a page never queues behind the
//! copybacks and the erase its own allocation has just issued.

use flash_sim::{
    BlockInfo, BlockState, FlashCommand, IoTag, PageAddr, PageMetadata, PageState, SimTime,
};

use crate::error::NoFtlError;
use crate::manager::{region_slot, Env, Inner};
use crate::object::ObjectState;
use crate::recovery::{MetaDirectory, META_OBJECT_ID};
use crate::region::{RegionId, RegionRuntime, Victim};
use crate::Result;

/// A die starts collecting — one GC quantum in front of each page it
/// allocates — when its free-block count drops to this value.
pub(crate) const GC_LOW_WATERMARK: u32 = 2;
/// A collecting die stops once it has this many free blocks again.
pub(crate) const GC_HIGH_WATERMARK: u32 = 4;

/// A candidate victim block within one region die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcCandidate {
    /// Index of the block in the caller's used-block list.
    pub slot: usize,
    /// Valid pages that would have to be relocated.
    pub valid_pages: u32,
    /// Invalid pages that would be reclaimed.
    pub invalid_pages: u32,
    /// Erase count of the block.
    pub erase_count: u64,
}

impl GcCandidate {
    /// Build a candidate from a block snapshot; returns `None` for blocks
    /// that are not worth collecting (not full, or without invalid pages).
    pub fn from_info(slot: usize, info: &BlockInfo) -> Option<Self> {
        if info.state != BlockState::Full || info.invalid_pages == 0 {
            return None;
        }
        Some(GcCandidate {
            slot,
            valid_pages: info.valid_pages,
            invalid_pages: info.invalid_pages,
            erase_count: info.erase_count,
        })
    }
}

/// Greedy victim selection: the candidate with the fewest valid pages
/// (the fewest copybacks), ties broken toward the less-worn block, then
/// the lower slot.
pub fn select_victim(candidates: impl IntoIterator<Item = GcCandidate>) -> Option<GcCandidate> {
    candidates.into_iter().min_by_key(|c| (c.valid_pages, c.erase_count, c.slot))
}

/// One region's allocator and garbage collector at work: the region's
/// runtime state plus the two translation tables a page move has to keep
/// current, borrowed out of the locked manager state for the duration of
/// one allocation (and the GC it may trigger).
pub(crate) struct Space<'a> {
    env: &'a Env,
    pub(crate) region: &'a mut RegionRuntime,
    objects: &'a mut [Option<ObjectState>],
    meta: &'a mut MetaDirectory,
}

impl Inner {
    /// The allocator/collector view of region `rid`.
    pub(crate) fn space<'a>(&'a mut self, env: &'a Env, rid: RegionId) -> Result<Space<'a>> {
        let region = region_slot(&mut self.regions, rid)?;
        Ok(Space { env, region, objects: &mut self.objects, meta: &mut self.meta })
    }
}

impl Space<'_> {
    /// Allocate the next physical page of the region.  Fails with
    /// `RegionFull` (naming the region) when no die can yield a page.
    ///
    /// Pages are striped over the region's dies by die time.  The dies are
    /// tried least charged first, ties in round-robin order from the stripe
    /// position (`next_die`); the first die tried that is collecting runs
    /// one GC step (`pace_gc`), which is charged to it, and the page then
    /// goes to the least-charged die able to yield one.  That die's charge
    /// is subtracted from every die (a die passed over for want of space
    /// stops at zero: it banks no credit while it cannot take a page) and
    /// the page's program is charged to it.  With no GC step every die is
    /// charged one program per round, so the stripe is round-robin.  A
    /// full or failing die never blocks allocation while any die in the
    /// region has space.  Host writes (through the request path's single
    /// call site), rebalancing and the metadata journal all allocate here.
    pub(crate) fn allocate(&mut self, at: SimTime) -> Result<PageAddr> {
        let device = self.env.device.as_ref();
        let pages_per_block = device.geometry().pages_per_block;
        let die_count = self.region.dies.len();
        let start = self.region.next_die;
        // `passed` is the key of the last die that could not yield a page:
        // every die keyed at or below it has been tried.
        let (mut passed, mut stepped, mut probes) = (None, false, 0);
        while let Some(key) = self.least_charged_above(passed) {
            let idx = (start + key.1) % die_count;
            if !stepped && self.pace_gc(idx, at) {
                stepped = true;
                continue;
            }
            probes += 1;
            let Some(ppa) = self.region.dies[idx].next_host_page(device, pages_per_block) else {
                passed = Some(key);
                continue;
            };
            let dies = &mut self.region.dies;
            let least = dies[idx].charge;
            dies.iter_mut().for_each(|d| d.charge = d.charge.saturating_sub(least));
            dies[idx].charge += device.timing().program_array_time().as_nanos();
            self.region.next_die = (idx + 1) % die_count;
            self.env.obs.note_allocation(probes, idx != start);
            return Ok(ppa);
        }
        Err(NoFtlError::RegionFull { region: self.region.id, name: self.region.name.clone() })
    }

    /// The least stripe key — `(charge, distance from the stripe
    /// position)` — above `passed`, over the region's dies.
    fn least_charged_above(&self, passed: Option<(u64, usize)>) -> Option<(u64, usize)> {
        let (dies, start) = (&self.region.dies, self.region.next_die);
        (0..dies.len())
            .map(|k| (dies[(start + k) % dies.len()].charge, k))
            .filter(|key| passed.is_none_or(|p| *key > p))
            .min()
    }

    /// Update the owner's translation after a page move (GC copyback or
    /// rebalance): regular objects through the directory, checkpoint
    /// chunks through the metadata journal map.
    pub(crate) fn retranslate(&mut self, meta: &PageMetadata, src: PageAddr, dst: PageAddr) {
        if meta.object_id == META_OBJECT_ID {
            let idx = meta.logical_page as usize;
            for map in [&mut self.meta.map, &mut self.meta.staging] {
                if map.get(idx).copied().flatten() == Some(src) {
                    map[idx] = Some(dst);
                }
            }
        } else if let Some(Some(obj)) = self.objects.get_mut(meta.object_id as usize) {
            if obj.translate(meta.logical_page) == Some(src) {
                obj.set_translation(meta.logical_page, dst);
            }
        }
    }

    /// GC paced by host writes.  A die is *collecting* from the moment its
    /// free-block pool falls to the low watermark until it is back at the
    /// high one; while it is, an allocation that tries it first runs one
    /// [`step`], so the die never owes a host write more than one quantum
    /// of copybacks (and one erase).  Only a die a step leaves without a
    /// single free block repeats the step until it has one.  Returns
    /// whether a step ran.
    ///
    /// [`step`]: Self::step
    fn pace_gc(&mut self, die_idx: usize, at: SimTime) -> bool {
        let obs = &self.env.obs;
        let die = &mut self.region.dies[die_idx];
        die.collecting |= die.free_blocks.len() as u32 <= GC_LOW_WATERMARK;
        if !die.collecting || die.nothing_to_collect {
            return false;
        }
        let before = self.region.stats.gc_copybacks;
        let mut forced = false;
        while self.step(die_idx, at) && self.region.dies[die_idx].free_blocks.is_empty() {
            forced = true;
        }
        obs.note_gc_step(self.region.stats.gc_copybacks - before, forced);
        true
    }

    /// The one collector primitive: relocate up to one quantum of valid
    /// pages of the die's victim via copyback (updating the owners'
    /// translations page by page) and erase the victim once its last valid
    /// page has moved.  Without a victim in progress [`select_victim`]
    /// chooses one; its quantum is `ceil(v / (P - v)) + 1` for `v` valid
    /// of `P` pages — the rate at which the block is reclaimed exactly as
    /// fast as host writes use up the `P - v` pages it frees, plus one to
    /// get ahead.  Every command it issues is charged to the die.  Returns
    /// `false` when nothing was or could be collected.
    fn step(&mut self, die_idx: usize, at: SimTime) -> bool {
        let Env { device, obs } = self.env;
        let device = device.as_ref();
        let pages_per_block = device.geometry().pages_per_block;
        let timing = *device.timing();
        let Some(mut victim) =
            self.region.dies[die_idx].victim.take().or_else(|| self.choose_victim(die_idx))
        else {
            self.region.dies[die_idx].nothing_to_collect = true;
            return false;
        };
        // GC relocation is maintenance traffic: tagged `Background` so the
        // arbiter budgets its channel time (the copyback itself is
        // die-internal and takes no channel).
        let tag = IoTag::background(Some(self.region.id.0));
        let mut budget = victim.quantum;
        while victim.cursor < pages_per_block {
            let src = victim.block.page(victim.cursor);
            match device.page_state(src) {
                Ok(PageState::Valid) if budget == 0 => {
                    self.region.dies[die_idx].victim = Some(victim);
                    return true;
                }
                Ok(PageState::Valid) => {}
                Ok(_) => {
                    victim.cursor += 1;
                    continue;
                }
                Err(_) => return false,
            }
            let Ok(read) = self.env.exec(FlashCommand::MetadataRead { addr: src }, at, tag) else {
                return false;
            };
            self.region.dies[die_idx].charge += timing.read_array_time().as_nanos();
            if let Some(meta) = read.meta {
                let Some(dst) = self.region.dies[die_idx].next_gc_page(device, pages_per_block)
                else {
                    return false;
                };
                if self.env.exec(FlashCommand::Copyback { src, dst }, at, tag).is_err() {
                    return false;
                }
                self.region.dies[die_idx].charge += timing.copyback_time().as_nanos();
                self.region.stats.gc_copybacks += 1;
                victim.moved += 1;
                budget -= 1;
                self.retranslate(&meta, src, dst);
            }
            victim.cursor += 1;
        }
        let erased = self.env.exec(FlashCommand::Erase { block: victim.block }, at, tag);
        self.region.dies[die_idx].charge += timing.erase_time().as_nanos();
        let die = &mut self.region.dies[die_idx];
        if let Err(e) = erased {
            if e.is_permanent() {
                die.used_blocks.retain(|b| *b != victim.block);
            }
            return false;
        }
        die.used_blocks.retain(|b| *b != victim.block);
        die.free_blocks.push(victim.block);
        if die.free_blocks.len() >= GC_HIGH_WATERMARK as usize {
            die.collecting = false;
        }
        let stats = &mut self.region.stats;
        stats.gc_runs += 1;
        stats.gc_erases += 1;
        obs.note_gc(u64::from(die.die.0), victim.moved, at);
        true
    }

    /// The greedy choice among the die's full blocks with something to
    /// reclaim.
    fn choose_victim(&self, die_idx: usize) -> Option<Victim> {
        let device = &self.env.device;
        let pages_per_block = device.geometry().pages_per_block;
        let used_blocks = &self.region.dies[die_idx].used_blocks;
        let candidates = used_blocks
            .iter()
            .enumerate()
            .filter_map(|(slot, b)| GcCandidate::from_info(slot, &device.block_info(*b).ok()?));
        let chosen = select_victim(candidates)?;
        Some(Victim {
            block: used_blocks[chosen.slot],
            cursor: 0,
            quantum: chosen.valid_pages.div_ceil(pages_per_block - chosen.valid_pages) + 1,
            moved: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoFtlConfig;
    use crate::io::IoRequest;
    use crate::manager::NoFtl;
    use crate::region::RegionSpec;
    use crate::testutil::{make_noftl, page, read_page};
    use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, TimingModel};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn cand(slot: usize, valid: u32, invalid: u32) -> GcCandidate {
        GcCandidate { slot, valid_pages: valid, invalid_pages: invalid, erase_count: 0 }
    }

    #[test]
    fn greedy_minimises_copy_cost() {
        let cands = vec![cand(0, 6, 2), cand(1, 1, 7), cand(2, 3, 5)];
        assert_eq!(select_victim(cands).map(|c| c.slot), Some(1));
    }

    #[test]
    fn empty_input_gives_none() {
        assert_eq!(select_victim(std::iter::empty()), None);
    }

    #[test]
    fn from_info_filters_open_and_clean_blocks() {
        let full = BlockInfo {
            state: BlockState::Full,
            write_ptr: 8,
            erase_count: 0,
            valid_pages: 4,
            invalid_pages: 4,
            free_pages: 0,
        };
        assert!(GcCandidate::from_info(0, &full).is_some());
        let clean = BlockInfo { invalid_pages: 0, valid_pages: 8, ..full };
        assert!(GcCandidate::from_info(0, &clean).is_none());
        let open = BlockInfo { state: BlockState::Open, ..full };
        assert!(GcCandidate::from_info(0, &open).is_none());
    }

    proptest! {
        /// Greedy always returns the candidate with the minimum number of
        /// valid pages (the cheapest victim).
        #[test]
        fn greedy_is_optimal_for_copy_cost(valids in prop::collection::vec(0u32..16, 1..20)) {
            let cands: Vec<GcCandidate> = valids
                .iter()
                .enumerate()
                .map(|(slot, &v)| cand(slot, v, 16 - v))
                .filter(|c| c.invalid_pages > 0)
                .collect();
            prop_assume!(!cands.is_empty());
            let min_valid = cands.iter().map(|c| c.valid_pages).min().unwrap();
            let chosen = select_victim(cands.iter().copied()).unwrap();
            prop_assert_eq!(chosen.valid_pages, min_valid);
        }

        /// Selection always returns a slot that exists among the candidates.
        #[test]
        fn selection_returns_existing_slot(valids in prop::collection::vec(0u32..8, 1..12)) {
            let cands: Vec<GcCandidate> = valids
                .iter()
                .enumerate()
                .map(|(slot, &v)| cand(slot * 3, v, 8 - v))
                .filter(|c| c.invalid_pages > 0)
                .collect();
            prop_assume!(!cands.is_empty());
            let chosen = select_victim(cands.iter().copied()).unwrap();
            prop_assert!(cands.contains(&chosen));
        }
    }

    /// A one-die region filled to `fill_pct` % with one object, and the
    /// object's page count.
    fn one_die_region(fill_pct: u64) -> (NoFtl, RegionId, crate::ObjectId, u64) {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::instant()).build(),
        );
        let pages = device.geometry().pages_per_die() * fill_pct / 100;
        let noftl = NoFtl::new(device, NoFtlConfig::default());
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        for p in 0..pages {
            noftl.write(obj, p, &page(p as u8), SimTime::ZERO).unwrap();
        }
        (noftl, r, obj, pages)
    }

    /// The collector this one replaced, as a reference: a die found at the
    /// low watermark is collected up to the high one in a single burst,
    /// ahead of the write that found it there.
    fn burst_then_write(noftl: &NoFtl, r: RegionId, req: &IoRequest<'_>) -> Result<()> {
        let mut inner = noftl.lock_inner();
        let mut space = inner.space(&noftl.env, r)?;
        if space.region.dies[0].free_blocks.len() as u32 <= GC_LOW_WATERMARK {
            while space.region.dies[0].free_blocks.len() < GC_HIGH_WATERMARK as usize {
                let Some(victim) = space.choose_victim(0) else { break };
                space.region.dies[0].victim = Some(Victim { quantum: u32::MAX, ..victim });
                if !space.step(0, SimTime::ZERO) {
                    break;
                }
            }
        }
        inner.io(&noftl.env, req, &mut [], SimTime::ZERO).map(|_| ())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Between two host allocations a collecting die relocates at most
        /// its victim's quantum and erases at most one block (unless it
        /// had no free block left), every page reads back, and the paced
        /// collector never runs out of space on an overwrite stream the
        /// burst collector survives.
        #[test]
        fn paced_gc_is_bounded_and_survives_what_the_burst_collector_survives(
            fill_pct in 50u64..86,
            stream in prop::collection::vec((any::<u32>(), any::<u8>()), 300..600),
        ) {
            let (reference, rr, robj, pages) = one_die_region(fill_pct);
            let survived = stream.iter().all(|&(p, v)| {
                let data = page(v);
                let req = IoRequest::write(robj, u64::from(p) % pages, &data);
                burst_then_write(&reference, rr, &req).is_ok()
            });
            prop_assume!(survived);

            let (noftl, r, obj, pages) = one_die_region(fill_pct);
            let mut latest: Vec<u8> = (0..pages).map(|p| p as u8).collect();
            let forced_steps = noftl.metrics().counter("core.gc.forced_steps");
            for &(p, v) in &stream {
                let p = u64::from(p) % pages;
                let quantum = {
                    let mut inner = noftl.lock_inner();
                    let space = inner.space(&noftl.env, r).unwrap();
                    let die = &space.region.dies[0];
                    let low = die.free_blocks.len() as u32 <= GC_LOW_WATERMARK;
                    if die.collecting || low {
                        die.victim.or_else(|| space.choose_victim(0)).map_or(0, |v| v.quantum)
                    } else {
                        0
                    }
                };
                let before = (noftl.device().stats(), forced_steps.get());
                let written = noftl.write(obj, p, &page(v), SimTime::ZERO);
                prop_assert!(written.is_ok(), "paced GC ran out of space: {written:?}");
                latest[p as usize] = v;
                let after = noftl.device().stats();
                if forced_steps.get() == before.1 {
                    prop_assert!(after.copybacks - before.0.copybacks <= u64::from(quantum));
                    prop_assert!(after.block_erases - before.0.block_erases <= 1);
                }
            }
            prop_assert!(noftl.region_stats(r).unwrap().gc_runs > 0, "the stream must make GC run");
            for p in 0..pages {
                prop_assert_eq!(&read_page(&noftl, obj, p, SimTime::ZERO).unwrap().0, &page(latest[p as usize]));
            }
        }
    }

    #[test]
    fn a_victim_in_progress_survives_neither_shrink_nor_drop() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(3)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        // 45 % of three dies, two thirds of the two that stay.
        let pages = 3 * noftl.device().geometry().pages_per_die() * 45 / 100;
        let mut t = SimTime::ZERO;
        for p in 0..pages {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        // Scattered overwrites (so that victims keep valid pages) until
        // the region's last die — the one a shrink removes — is between
        // two steps of a victim.
        let mut x = 7u64;
        let mut overwrite_until_mid_victim = |mut t: SimTime| {
            for i in 0u32..20_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                t = noftl.write(obj, (x >> 33) % pages, &page(i as u8), t).unwrap();
                if noftl.lock_inner().region(r).unwrap().dies.last().unwrap().victim.is_some() {
                    return t;
                }
            }
            panic!("no victim was ever left in progress");
        };
        t = overwrite_until_mid_victim(t);
        let expected: Vec<Vec<u8>> =
            (0..pages).map(|p| read_page(&noftl, obj, p, t).unwrap().0).collect();
        t = noftl.shrink_region(r, 1, t).unwrap();
        for (p, data) in expected.iter().enumerate() {
            assert_eq!(
                &read_page(&noftl, obj, p as u64, t).unwrap().0,
                data,
                "page {p} after shrink"
            );
        }
        // The same for a region that is dropped mid-victim: all four dies
        // must come back erased, or the writes below hit programmed pages.
        t = overwrite_until_mid_victim(t);
        noftl.drop_object(obj).unwrap();
        t = noftl.drop_region(r, t).unwrap();
        assert_eq!(noftl.free_die_count(), 4);
        let all = noftl.create_region(RegionSpec::named("rgAll").with_die_count(4)).unwrap();
        let obj = noftl.create_object("t2", all).unwrap();
        for p in 0..4 * noftl.device().geometry().pages_per_die() * 9 / 10 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
    }

    /// The die that holds logical page `p` of `obj`.
    fn die_of(noftl: &NoFtl, obj: crate::ObjectId, p: u64) -> flash_sim::DieId {
        noftl.lock_inner().object(obj).unwrap().translate(p).unwrap().die
    }

    #[test]
    fn without_a_gc_step_the_stripe_is_round_robin() {
        // Timed programs, so every page charges its die.
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(3)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let dies = noftl.region_info(r).unwrap().dies;
        // Ten of each die's sixteen blocks: no die reaches the low mark.
        let pages = 3 * 10 * u64::from(noftl.device().geometry().pages_per_block);
        let mut t = SimTime::ZERO;
        for p in 0..pages {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        assert_eq!(noftl.region_stats(r).unwrap().gc_runs, 0);
        for p in 0..pages {
            assert_eq!(die_of(&noftl, obj, p), dies[(p % 3) as usize], "page {p}");
        }
    }

    #[test]
    fn a_gc_step_delays_no_page_of_its_own() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(3)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let erase = noftl.device().timing().erase_time();
        let pages = 3 * noftl.device().geometry().pages_per_die() * 6 / 10;
        let erases = || noftl.device().die_stats().iter().map(|d| d.total_erases).collect();
        // Each write is issued a second after the previous one completed,
        // on an idle device: all it can wait for is what its own
        // allocation issued.
        let (mut at, mut x, mut checked) = (SimTime::ZERO, 7u64, 0);
        for i in 0..4 * pages {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let p = if i < pages { i } else { (x >> 33) % pages };
            let before: Vec<u64> = erases();
            let done = noftl.write(obj, p, &page(i as u8), at).unwrap();
            let after: Vec<u64> = erases();
            if let Some(gc_die) = (0..after.len()).find(|&d| after[d] > before[d]) {
                assert_ne!(die_of(&noftl, obj, p).0 as usize, gc_die, "write {i}");
                assert!(done < at + erase, "write {i} waited for its own step's erase");
                checked += 1;
            }
            at = done + flash_sim::Duration::from_ms(1_000);
        }
        assert!(checked > 0, "no allocation ran a step that erased");
    }

    #[test]
    fn every_die_collecting_at_once_still_reaches_the_high_watermark() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(3)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let pages = 3 * noftl.device().geometry().pages_per_die() * 7 / 10;
        let mut latest: Vec<u8> = (0..pages).map(|p| p as u8).collect();
        let mut t = SimTime::ZERO;
        for p in 0..pages {
            t = noftl.write(obj, p, &page(latest[p as usize]), t).unwrap();
        }
        // `(collecting, free blocks)` of each die of the region.
        let dies = || -> Vec<(bool, usize)> {
            let inner = noftl.lock_inner();
            let region = inner.region(r).unwrap();
            region.dies.iter().map(|d| (d.collecting, d.free_blocks.len())).collect()
        };
        // Once every die is collecting, each must get back to the high
        // mark while the overwrites go on.
        let (mut all_collecting, mut recovered) = (false, [false; 3]);
        let mut x = 11u64;
        for i in 0..20_000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let p = (x >> 33) % pages;
            latest[p as usize] = i as u8;
            t = noftl.write(obj, p, &page(i as u8), t).unwrap();
            let state = dies();
            all_collecting |= state.iter().all(|(collecting, _)| *collecting);
            if all_collecting {
                for (seen, (_, free)) in recovered.iter_mut().zip(&state) {
                    *seen |= *free >= GC_HIGH_WATERMARK as usize;
                }
            }
            if recovered.iter().all(|seen| *seen) {
                break;
            }
        }
        assert!(all_collecting, "the overwrites must make every die collect at once");
        assert_eq!(recovered, [true; 3], "a die stayed below the high watermark");
        for p in 0..pages {
            assert_eq!(read_page(&noftl, obj, p, t).unwrap().0, page(latest[p as usize]));
        }
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_preserve_data() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let geo = *noftl.device().geometry();
        // Working set = 60 % of the region's raw capacity.
        let working_set = 2 * geo.pages_per_die() * 6 / 10;
        let mut t = SimTime::ZERO;
        let mut latest = vec![0u8; working_set as usize];
        for round in 0..5u8 {
            for p in 0..working_set {
                let v = round.wrapping_mul(37).wrapping_add(p as u8);
                t = noftl.write(obj, p, &page(v), t).unwrap();
                latest[p as usize] = v;
            }
        }
        let rs = noftl.region_stats(r).unwrap();
        assert!(rs.gc_runs > 0);
        assert!(rs.gc_erases > 0);
        assert!(noftl.device().stats().block_erases > 0);
        for p in 0..working_set {
            let (data, _) = read_page(&noftl, obj, p, t).unwrap();
            assert_eq!(data, page(latest[p as usize]), "page {p}");
        }
    }

    #[test]
    fn hot_cold_separation_reduces_copybacks() {
        // Two objects: one hot (overwritten constantly) and one cold
        // (written once).  Placing them in separate regions (the paper's
        // proposal) must produce fewer GC copybacks than mixing them in a
        // single region (traditional placement), because in the mixed case
        // victim blocks contain valid cold pages that have to be relocated.
        fn run(separate: bool) -> u64 {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::instant())
                    .build(),
            );
            let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
            let (hot_region, cold_region) = if separate {
                let h = noftl.create_region(RegionSpec::named("rgHot").with_die_count(2)).unwrap();
                let c = noftl.create_region(RegionSpec::named("rgCold").with_die_count(2)).unwrap();
                (h, c)
            } else {
                let all =
                    noftl.create_region(RegionSpec::named("rgAll").with_die_count(4)).unwrap();
                (all, all)
            };
            let hot = noftl.create_object("hot", hot_region).unwrap();
            let cold = noftl.create_object("cold", cold_region).unwrap();
            let geo = *device.geometry();
            let pages_per_die = geo.pages_per_die();
            let cold_pages = pages_per_die; // fills a good part of its share
            let hot_pages = pages_per_die / 4;
            let t = SimTime::ZERO;
            // Interleave cold fill with hot updates so blocks mix in the
            // shared-region case.
            let mut cold_written = 0u64;
            for round in 0..40u64 {
                for p in 0..hot_pages {
                    noftl.write(hot, p, &page((round % 251) as u8), t).unwrap();
                }
                while cold_written < cold_pages
                    && cold_written < (round + 1) * (cold_pages / 40 + 1)
                {
                    noftl.write(cold, cold_written, &page(0xCC), t).unwrap();
                    cold_written += 1;
                }
            }
            device.stats().copybacks
        }
        let mixed = run(false);
        let separated = run(true);
        assert!(
            separated < mixed,
            "region separation should reduce copybacks (separated={separated}, mixed={mixed})"
        );
    }
}
