//! Crash recovery: the region-metadata journal and the mount report.
//!
//! Under NoFTL there is no FTL to hide durability problems behind: region
//! membership, the object directory and the logical-to-physical page maps
//! all live in DBMS-owned memory and would be lost on power failure.  The
//! page maps are already on flash — every programmed page carries its
//! (object, logical page, write epoch, checksum) in its OOB record — so
//! this module persists only what those records cannot say:
//!
//! * **Checkpoints** — `NoFtl::checkpoint` serialises the *directory* —
//!   each region's name, service class and dies, and each object's name
//!   and region — into a compact blob, splits it into page-sized chunks
//!   (one, for all but the largest directories) and programs them into a
//!   dedicated metadata region under the reserved [`META_OBJECT_ID`].  Its
//!   cost is O(regions + objects), independent of how many pages are
//!   mapped.  Chunks are self-describing (sequence number and count in
//!   the chunk header, index as the OOB logical page, CRC via the OOB
//!   checksum), so a mount can always find the newest *complete*
//!   checkpoint even if a later one was torn mid-write.  Blob and chunk
//!   pages are written and read with [`flash_sim::codec`]; the blob is
//!   sealed by a CRC-32 trailer.  A checkpoint holds nothing a mount can
//!   derive: no page map (the OOB records), no sequence number (its
//!   chunks' headers), no epoch watermark (its first chunk's OOB epoch),
//!   no journal region (the region that owns its chunks' dies), no
//!   free-die pool (the dies no region owns), no list of a region's
//!   objects (each object names its region), no access counters (they
//!   count from build or mount) and no replication state (a mirror's
//!   verify scan reads each child's staleness off the children).
//! * **Mount** — `NoFtl::mount` reads every valid page once, payload and
//!   OOB record in one command, and checks it one way: its payload's
//!   CRC-32 against the OOB checksum, which every page the manager
//!   programs carries.  A page that fails is torn and discarded, whatever
//!   object it names.  The mount rebuilds regions and objects from the
//!   newest complete checkpoint and *every* mapping, written before that
//!   checkpoint or after it, from the intact pages' OOB records (newest
//!   write epoch wins).  The outcome is summarised in a [`MountReport`].

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use flash_sim::codec::{open, put_bytes, put_u32, put_u64, put_u8, seal_into, Reader};
use flash_sim::{
    BlockAddr, BlockState, DieId, FlashBackend, FlashCommand, IoTag, PageAddr, PageMetadata,
    PageState, ServiceClass, SimTime,
};

use crate::error::NoFtlError;
use crate::manager::{Env, Inner, NoFtl};
use crate::object::{ObjectId, ObjectState};
use crate::region::{RegionId, RegionRuntime, RegionSpec};
use crate::Result;

/// Reserved object id for checkpoint chunks ("no object" is 0, real
/// objects count up from 1, the metadata journal counts down from the
/// top).  Must never collide with a directory-assigned id.
pub const META_OBJECT_ID: ObjectId = u32::MAX;

/// Name of the dedicated metadata region created lazily by the first
/// checkpoint when unassigned dies are available.
pub const META_REGION_NAME: &str = "__noftl_meta";

/// Name prefix of an object the mount synthesises for pages whose object
/// was created after the newest checkpoint: `__orphan_<id>`.
pub const ORPHAN_PREFIX: &str = "__orphan_";

/// Magic number of a checkpoint chunk page.
const CHUNK_MAGIC: u32 = 0x4E46_434B; // "NFCK"

/// Bytes of chunk header at the start of each checkpoint page:
/// magic:4 | seq:8 | count:4 | len:4.  A chunk's index is its OOB logical
/// page, which GC's `retranslate` reads too.
pub(crate) const CHUNK_HEADER: usize = 20;

/// Magic prefix of the checkpoint blob itself.  Version 02 added the
/// per-region placement-policy tag; version 03 the opaque replication
/// blob (mirror health + per-child dirty-segment maps); version 04 the
/// per-region service-class tag; version 05 dropped the per-object page
/// maps and the dirty-die list, neither of which mount ever read;
/// version 06 dropped the placement-policy tag again; version 07 dropped
/// the free-die pool, each region's object list and each object's access
/// counters, none of which mount needs; version 08 dropped the
/// replication blob again, since a mirror reads its children's staleness
/// off the children at mount; version 09 dropped each region's creation
/// limits (die count, chips, channels, size), which are resolved once at
/// creation and contradict the dies after a grow or shrink, and stores its
/// service class as `ServiceClass::code`; version 10 dropped the sequence
/// number, the epoch watermark and the metadata region, which the mount
/// reads off the chunk pages.  Each bump makes
/// blobs written by older code decode as "no checkpoint" instead of
/// mis-aligning the cursor on the changed fields.
const BLOB_MAGIC: &[u8; 8] = b"NFCKPT10";

/// In-memory state of the region-metadata journal: where checkpoint chunk
/// pages currently live.  The chunks themselves carry all recovery
/// information in their page payloads and OOB records; this directory only
/// lets the *running* manager invalidate superseded chunks and lets GC
/// keep the chunk locations current when it relocates them.
#[derive(Debug, Default)]
pub(crate) struct MetaDirectory {
    /// Region hosting the checkpoint chunks (created lazily).
    pub(crate) region: Option<RegionId>,
    /// Chunk index → physical page of the newest *completed* checkpoint.
    pub(crate) map: Vec<Option<PageAddr>>,
    /// Chunk pages of a checkpoint currently being written.  The previous
    /// checkpoint's pages stay valid (and in `map`) until every new chunk
    /// is durable, so a crash mid-checkpoint always leaves one complete
    /// checkpoint on flash.
    pub(crate) staging: Vec<Option<PageAddr>>,
    /// Sequence number of the newest completed checkpoint.
    pub(crate) seq: u64,
    /// The blob and the chunk page a checkpoint encodes into, kept from
    /// checkpoint to checkpoint so that one of an unchanged directory
    /// allocates nothing.
    pub(crate) blob: Vec<u8>,
    pub(crate) page: Vec<u8>,
}

/// Summary of what `NoFtl::mount` found and rebuilt.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MountReport {
    /// Sequence number of the checkpoint that was replayed (0 = none; the
    /// device was empty).
    pub checkpoint_seq: u64,
    /// Regions rebuilt.
    pub regions: usize,
    /// Objects rebuilt from the checkpoint directory.
    pub objects: usize,
    /// Objects synthesised for pages whose object was created after the
    /// last checkpoint (reachable as `__orphan_<id>` until re-registered).
    pub orphaned_objects: Vec<ObjectId>,
    /// Live logical pages mapped after recovery.
    pub mapped_pages: u64,
    /// Mapped pages whose write epoch is above the checkpoint's first
    /// chunk's, i.e. pages programmed after the checkpoint was taken (the
    /// manager stamps no page between encoding the checkpoint and
    /// programming that chunk).  A page GC relocated after the checkpoint
    /// keeps its epoch and is not counted.
    pub pages_after_checkpoint: u64,
    /// Pages discarded because their payload checksum did not match
    /// (torn writes).
    pub torn_pages_discarded: u64,
    /// Physically valid pages invalidated because a newer version of the
    /// same logical page exists.
    pub stale_pages_invalidated: u64,
    /// Valid pages whose OOB metadata was unreadable (e.g. destroyed by an
    /// interrupted erase); they hold no recoverable mapping.
    pub unreadable_metadata_pages: u64,
    /// Total valid pages scanned.
    pub pages_scanned: u64,
    /// Dies whose OOB scan was skipped because every block of theirs is
    /// still in its factory state ([`FlashBackend::die_touched`]).
    pub dies_skipped: u64,
    /// Simulated time at which the mount completed.
    pub completed_at: SimTime,
}

/// One region as recorded in a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RegionImage {
    pub id: RegionId,
    pub name: String,
    pub class: ServiceClass,
    pub dies: Vec<DieId>,
}

/// One object directory entry as recorded in a checkpoint: its identity
/// and region only — its page map is rebuilt from OOB records on mount.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObjectImage {
    pub id: ObjectId,
    pub name: String,
    pub region: RegionId,
}

/// A decoded checkpoint: the directory.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointImage {
    pub regions: Vec<RegionImage>,
    pub objects: Vec<ObjectImage>,
}

/// Write a checkpoint blob (magic ... crc32) into `out`, which it clears
/// first: the one encoder of the format, over borrowed parts — each
/// region's id, name, class and dies and each object's id, name and
/// region.
fn put_blob<'a, D: ExactSizeIterator<Item = DieId>>(
    out: &mut Vec<u8>,
    regions: impl Iterator<Item = (RegionId, &'a str, ServiceClass, D)> + Clone,
    objects: impl Iterator<Item = (ObjectId, &'a str, RegionId)> + Clone,
) {
    seal_into(out, BLOB_MAGIC, |out| {
        put_u32(out, regions.clone().count() as u32);
        for (id, name, class, dies) in regions {
            put_u32(out, id.0);
            put_bytes(out, name.as_bytes());
            put_u8(out, class.code());
            put_u32(out, dies.len() as u32);
            for d in dies {
                put_u32(out, d.0);
            }
        }
        put_u32(out, objects.clone().count() as u32);
        for (id, name, region) in objects {
            put_u32(out, id);
            put_bytes(out, name.as_bytes());
            put_u32(out, region.0);
        }
    });
}

impl CheckpointImage {
    /// Decode a blob [`put_blob`] wrote; `None` on any corruption (bad
    /// magic, bad CRC, truncation).
    pub(crate) fn decode(buf: &[u8]) -> Option<CheckpointImage> {
        let mut r = open(buf, BLOB_MAGIC)?;
        let regions = (0..r.u32()?)
            .map(|_| {
                let id = RegionId(r.u32()?);
                let name = r.str()?.to_owned();
                let class = ServiceClass::from_code(r.u8()?)?;
                let dies = (0..r.u32()?).map(|_| r.u32().map(DieId)).collect::<Option<_>>()?;
                Some(RegionImage { id, name, class, dies })
            })
            .collect::<Option<_>>()?;
        let objects = (0..r.u32()?)
            .map(|_| {
                Some(ObjectImage {
                    id: r.u32()?,
                    name: r.str()?.to_owned(),
                    region: RegionId(r.u32()?),
                })
            })
            .collect::<Option<_>>()?;
        r.rest().is_empty().then_some(CheckpointImage { regions, objects })
    }
}

/// Build one checkpoint chunk page in `page`, which it clears first:
/// header + blob slice, zero-padded to `page_size`.
pub(crate) fn put_chunk(
    page: &mut Vec<u8>,
    (seq, count): (u64, u32),
    chunk: &[u8],
    page_size: usize,
) {
    debug_assert!(CHUNK_HEADER + chunk.len() <= page_size);
    page.clear();
    put_u32(page, CHUNK_MAGIC);
    put_u64(page, seq);
    put_u32(page, count);
    put_bytes(page, chunk);
    page.resize(page_size, 0);
}

/// Parse a checkpoint chunk page into its sequence number, chunk count
/// and blob slice; `None` if the page is not a chunk.
pub(crate) fn decode_chunk(page: &[u8]) -> Option<(u64, u32, &[u8])> {
    let mut r = Reader::new(page);
    if r.u32()? != CHUNK_MAGIC {
        return None;
    }
    Some((r.u64()?, r.u32()?, r.bytes()?))
}

impl Inner {
    /// Encode everything a checkpoint persists, as of now, into
    /// `meta.blob`, borrowing every name.
    fn encode_checkpoint(&mut self) {
        let regions = self.regions.iter().flatten();
        let objects = self.objects.iter().enumerate().filter_map(|(id, o)| {
            o.as_ref().map(|state| (id as ObjectId, state.name.as_str(), state.region))
        });
        put_blob(
            &mut self.meta.blob,
            regions.map(|r| (r.id, r.name.as_str(), r.class, r.dies.iter().map(|d| d.die))),
            objects,
        );
    }

    /// Program checkpoint `seq`'s blob, `meta.blob`, into `meta.staging`,
    /// one chunk page at a time, built in `meta.page`; returns the
    /// completion time of the slowest program.  GC may relocate staged or
    /// current chunks meanwhile (`retranslate` tracks both).  On an error
    /// `meta.staging` holds the chunks programmed so far, and the next
    /// checkpoint encodes into new buffers.
    fn stage_chunks(&mut self, env: &Env, rid: RegionId, seq: u64, at: SimTime) -> Result<SimTime> {
        let (blob, mut page) =
            (std::mem::take(&mut self.meta.blob), std::mem::take(&mut self.meta.page));
        let page_size = env.device.geometry().page_size as usize;
        let cap = page_size - CHUNK_HEADER;
        let chunk_count = blob.len().div_ceil(cap).max(1);
        // Checkpoint chunks are foreground even when the journal falls
        // back to a `Background` region: never budget-deferred.
        let tag = self.tag(rid, Some(ServiceClass::Latency));
        let mut done = at;
        self.meta.staging.clear();
        self.meta.staging.resize(chunk_count, None);
        for (index, body) in blob.chunks(cap).enumerate() {
            put_chunk(&mut page, (seq, chunk_count as u32), body, page_size);
            let addr = self.space(env, rid)?.allocate(at)?;
            let meta = PageMetadata::new(META_OBJECT_ID, index as u64).with_payload_checksum(&page);
            let out = env.exec(FlashCommand::Program { addr, data: &page, meta }, at, tag)?;
            done = done.max(out.outcome.completed_at);
            self.meta.staging[index] = Some(addr);
        }
        (self.meta.blob, self.meta.page) = (blob, page);
        Ok(done)
    }
}

/// One checkpoint chunk page found by the mount scan.
struct ScannedChunk {
    count: u32,
    epoch: u64,
    addr: PageAddr,
    payload: Vec<u8>,
}

/// What the mount's full OOB scan found.
#[derive(Default)]
struct Scan {
    /// (object, logical page) → (epoch, ppa) of the newest valid version.
    winners: HashMap<(ObjectId, u64), (u64, PageAddr)>,
    /// Superseded or unreachable pages to invalidate.
    losers: Vec<PageAddr>,
    /// Checkpoint chunks by sequence number, then chunk index.
    chunks: HashMap<u64, HashMap<u64, ScannedChunk>>,
}

impl Scan {
    /// Read every valid page — payload and OOB record in one command —
    /// all issued at `at`; `report.completed_at` advances to the slowest
    /// read.  A page whose payload does not match its OOB checksum is torn
    /// and discarded on the spot.
    fn run(env: &Env, at: SimTime, report: &mut MountReport) -> Result<Scan> {
        let device = env.device.as_ref();
        let geo = *device.geometry();
        let mut payload = env.page_buf();
        let mut scan = Scan::default();
        for die in geo.dies() {
            // Partial-device mount: a die none of whose blocks left its
            // factory state (`die_touched`, read off the blocks) holds no
            // pages, no chunks and no allocation state worth scanning —
            // `RegionDie::rebuild` reconstructs it from block states
            // without reads.
            if !device.die_touched(die) {
                report.dies_skipped += 1;
                continue;
            }
            let blocks = (0..geo.planes_per_die)
                .flat_map(|plane| (0..geo.blocks_per_plane).map(move |b| (plane, b)));
            for (plane, block) in blocks {
                let baddr = BlockAddr::new(die, plane, block);
                let info = device.block_info(baddr)?;
                if info.state == BlockState::Bad {
                    continue;
                }
                for addr in (0..info.write_ptr).map(|page| baddr.page(page)) {
                    if device.page_state(addr)? != PageState::Valid {
                        continue;
                    }
                    report.pages_scanned += 1;
                    let read = FlashCommand::Read { addr, data: &mut payload };
                    let read = env.exec(read, at, IoTag::default())?;
                    report.completed_at = report.completed_at.max(read.outcome.completed_at);
                    let Some(meta) = read.meta else {
                        // OOB destroyed (early tear / interrupted erase):
                        // nothing recoverable here.
                        report.unreadable_metadata_pages += 1;
                        continue;
                    };
                    let filed = if !meta.payload_matches(&payload) {
                        false
                    } else if meta.object_id == META_OBJECT_ID {
                        scan.note_chunk(&meta, addr, &payload)
                    } else {
                        scan.note_page(&meta, addr);
                        true
                    };
                    if !filed {
                        report.torn_pages_discarded += 1;
                        let _ = device.mark_invalid(addr);
                    }
                }
            }
        }
        Ok(scan)
    }

    /// File one checkpoint chunk page whose checksum matched under its
    /// index, the OOB logical page; of two copies of the same chunk the
    /// higher write epoch wins.  Returns `false` for a payload that is not
    /// a chunk after all.
    fn note_chunk(&mut self, meta: &PageMetadata, addr: PageAddr, payload: &[u8]) -> bool {
        let Some((seq, count, _)) = decode_chunk(payload) else { return false };
        let (by_idx, index) = (self.chunks.entry(seq).or_default(), meta.logical_page);
        if by_idx.get(&index).is_some_and(|c| c.epoch >= meta.epoch) {
            self.losers.push(addr);
        } else {
            let chunk = ScannedChunk { count, epoch: meta.epoch, addr, payload: payload.to_vec() };
            if let Some(old) = by_idx.insert(index, chunk) {
                self.losers.push(old.addr);
            }
        }
        true
    }

    /// File one intact data page; of two versions of the same logical
    /// page the higher write epoch wins.
    fn note_page(&mut self, meta: &PageMetadata, addr: PageAddr) {
        match self.winners.entry((meta.object_id, meta.logical_page)) {
            Entry::Vacant(e) => {
                e.insert((meta.epoch, addr));
            }
            Entry::Occupied(mut e) if meta.epoch > e.get().0 => {
                self.losers.push(e.get().1);
                e.insert((meta.epoch, addr));
            }
            // Older version — or an epoch tie from a torn copyback, where
            // both copies are identical and either may win.
            Entry::Occupied(_) => self.losers.push(addr),
        }
    }

    /// Pick the newest *complete*, decodable checkpoint: its sequence
    /// number, its chunks' lowest write epoch (its first chunk's: a GC
    /// copy keeps its epoch), its image and the pages of its chunks.
    /// Every other chunk page becomes a loser.
    fn newest_checkpoint(&mut self) -> Option<(u64, u64, CheckpointImage, Vec<Option<PageAddr>>)> {
        let mut seqs: Vec<u64> = self.chunks.keys().copied().collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        let best = seqs.into_iter().find_map(|seq| {
            let by_idx = &self.chunks[&seq];
            let count = by_idx.values().next()?.count;
            if count == 0 || by_idx.len() != count as usize {
                return None;
            }
            let (mut blob, mut epoch) = (Vec::new(), u64::MAX);
            let mut addrs = Vec::with_capacity(count as usize);
            for index in 0..u64::from(count) {
                let chunk = by_idx.get(&index)?;
                blob.extend_from_slice(decode_chunk(&chunk.payload)?.2);
                epoch = epoch.min(chunk.epoch);
                addrs.push(Some(chunk.addr));
            }
            Some((seq, epoch, CheckpointImage::decode(&blob)?, addrs))
        });
        let chosen: HashSet<PageAddr> =
            best.iter().flat_map(|(.., addrs)| addrs.iter().flatten().copied()).collect();
        let stale = self.chunks.values().flat_map(|by_idx| by_idx.values().map(|c| c.addr));
        self.losers.extend(stale.filter(|addr| !chosen.contains(addr)));
        best
    }
}

impl NoFtl {
    /// Pick (and if necessary create) the region hosting checkpoint
    /// chunks: a dedicated one-die region when unassigned dies exist,
    /// otherwise a `Background` region, else the first declared.
    fn ensure_meta_region(&self) -> Result<RegionId> {
        {
            let mut inner = self.lock_inner();
            if let Some(rid) = inner.meta.region {
                return Ok(rid);
            }
            if inner.free_dies(self.env.device.geometry()).is_empty() {
                // Journal and checkpoint programs take die time from
                // whichever region hosts them, so prefer one whose own
                // traffic is background.
                let mut live = inner.regions.iter().flatten();
                let picked = live
                    .clone()
                    .find(|r| r.class == ServiceClass::Background)
                    .or_else(|| live.next())
                    .map(|r| r.id)
                    .ok_or_else(|| NoFtlError::Recovery {
                        message: "no free die and no region available for the metadata journal"
                            .to_string(),
                    })?;
                inner.meta.region = Some(picked);
                return Ok(picked);
            }
        }
        let rid = match self.create_region(RegionSpec::named(META_REGION_NAME).with_die_count(1)) {
            Ok(rid) => rid,
            // A region the caller itself named `__noftl_meta`: adopt it.
            // A remount never gets here, since `NoFtl::mount` restores
            // `meta.region` as the region that owns its chunks' dies.
            Err(NoFtlError::RegionExists { .. }) => {
                self.region_id(META_REGION_NAME).ok_or_else(|| NoFtlError::Recovery {
                    message: format!("region '{META_REGION_NAME}' exists but has no id entry"),
                })?
            }
            Err(e) => return Err(e),
        };
        self.lock_inner().meta.region = Some(rid);
        Ok(rid)
    }

    /// Checkpoint the region metadata: each region's name, class and dies
    /// and the object directory (names and regions) are serialised and
    /// programmed into the metadata region as self-describing chunk pages
    /// under the reserved [`META_OBJECT_ID`].
    /// Page maps are not part of it, so a checkpoint costs O(regions +
    /// objects) — typically one page — however much data is mapped.
    ///
    /// [`NoFtl::mount`] takes region and object identity from the newest
    /// complete checkpoint — the *directory*, which the OOB records alone
    /// cannot provide — and every logical-to-physical mapping from a full
    /// OOB scan.  A checkpoint is therefore never required for data
    /// durability — only DDL (regions/objects created after the last
    /// checkpoint) needs a new checkpoint to survive a crash with its name
    /// and placement intact.
    ///
    /// The previous checkpoint's chunk pages are invalidated only after
    /// every chunk of the new one is durable, so a crash at any instant
    /// leaves at least one complete checkpoint on flash.  A checkpoint
    /// that fails part-way invalidates the chunks it did program, so the
    /// retry (which reuses the sequence number) starts clean.
    ///
    /// Returns the completion time of the slowest chunk program.
    pub fn checkpoint(&self, at: SimTime) -> Result<SimTime> {
        let rid = self.ensure_meta_region()?;
        let env = &self.env;
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        let seq = inner.meta.seq + 1;
        inner.encode_checkpoint();
        // Phase 1: program every new chunk into staging.  `meta.map` (the
        // previous checkpoint) is left untouched so its pages stay valid —
        // a crash anywhere in this phase loses only the half-written new
        // checkpoint, never the old one.
        let staged = inner.stage_chunks(env, rid, seq, at);
        // Phase 2: if the new checkpoint is fully durable, promote the
        // staged chunks and retire the old ones; if it failed, retire
        // whatever it staged — left valid, those pages would be copied
        // forward by GC for good, and a leftover chunk with a higher index
        // would make mount reject the retry that reuses `seq`.  The
        // retired list goes back to `meta.staging`, empty, for the next
        // checkpoint to fill.
        let mut retired = std::mem::take(&mut inner.meta.staging);
        if staged.is_ok() {
            std::mem::swap(&mut retired, &mut inner.meta.map);
        }
        let region = inner.region_mut(rid)?;
        for page in retired.drain(..).flatten() {
            let _ = env.device.mark_invalid(page);
            region.record_invalidation(page);
        }
        inner.meta.staging = retired;
        let done = staged?;
        inner.meta.seq = seq;
        env.obs.note_checkpoint(inner.meta.map.len() as u64, at, done);
        Ok(done)
    }

    /// Mount a device: rebuild the full storage-manager state from the
    /// newest complete checkpoint (regions, objects) plus the out-of-band
    /// metadata of every valid page (the page maps).
    ///
    /// The mount reads every valid page once (payload and OOB record in
    /// one command), discards the pages that fail their checksum, breaks
    /// duplicate mappings by write epoch and reconstructs per-die
    /// allocation state from the physical block states.  Objects created after the last
    /// checkpoint have no directory entry; their pages are preserved under
    /// a synthesised `__orphan_<id>` name and reported in the
    /// [`MountReport`].
    ///
    /// An empty device mounts as a fresh manager; a device that holds data
    /// but no complete checkpoint fails with [`NoFtlError::NoCheckpoint`].
    pub fn mount(device: Arc<dyn FlashBackend>, at: SimTime) -> Result<(NoFtl, MountReport)> {
        let env = Env::new(device);
        let device = env.device.as_ref();
        let mut report = MountReport { completed_at: at, ..MountReport::default() };
        let mut scan = Scan::run(&env, at, &mut report)?;
        let Some((seq, first_epoch, image, chunk_pages)) = scan.newest_checkpoint() else {
            if scan.winners.is_empty() {
                // Pristine device: a fresh manager.
                return Ok((NoFtl::assemble(env, Inner::fresh()), report));
            }
            return Err(NoFtlError::NoCheckpoint);
        };
        let Scan { winners, mut losers, .. } = scan;
        report.checkpoint_seq = seq;

        // A replicated backend reads each child's staleness off its
        // children (a mirror's verify scan); the checkpoint holds none.
        let replicated = device.restore_replication(None, report.completed_at)?;
        report.completed_at = report.completed_at.max(replicated);

        // Rebuild regions and objects from the directory.
        let max_region = image.regions.iter().map(|r| r.id.0).max().unwrap_or(0) as usize;
        let mut regions: Vec<Option<RegionRuntime>> = (0..=max_region).map(|_| None).collect();
        let mut die_owner: HashMap<DieId, RegionId> = HashMap::new();
        report.regions = image.regions.len();
        for rimg in image.regions {
            die_owner.extend(rimg.dies.iter().map(|die| (*die, rimg.id)));
            let rt = RegionRuntime::new(rimg.id, rimg.name, rimg.class, device, rimg.dies);
            regions[rimg.id.0 as usize] = Some(rt);
        }

        let max_obj = image
            .objects
            .iter()
            .map(|o| o.id)
            .chain(winners.keys().map(|(obj, _)| *obj))
            .max()
            .unwrap_or(0) as usize;
        let mut objects: Vec<Option<ObjectState>> = (0..=max_obj).map(|_| None).collect();
        for oimg in &image.objects {
            objects[oimg.id as usize] = Some(ObjectState::new(oimg.name.clone(), oimg.region));
        }

        // Install the winning mappings; synthesise directory entries for
        // objects created after the checkpoint.
        let mut winner_list: Vec<((ObjectId, u64), (u64, PageAddr))> =
            winners.into_iter().collect();
        winner_list.sort_unstable_by_key(|((obj, lp), _)| (*obj, *lp));
        for ((obj, lp), (epoch, ppa)) in winner_list {
            if objects.get(obj as usize).map(|o| o.is_none()).unwrap_or(true) {
                let Some(rid) = die_owner.get(&ppa.die).copied() else {
                    // Page on a die no region owns (e.g. its region was
                    // dropped right before the crash): unreachable data.
                    losers.push(ppa);
                    continue;
                };
                objects[obj as usize] =
                    Some(ObjectState::new(format!("{ORPHAN_PREFIX}{obj}"), rid));
                report.orphaned_objects.push(obj);
            }
            // The entry was installed just above when missing; a `None`
            // here would mean the page's die has no owning region, and
            // that case already `continue`d.
            let Some(state) = objects[obj as usize].as_mut() else { continue };
            state.set_translation(lp, ppa);
            report.mapped_pages += 1;
            report.pages_after_checkpoint += u64::from(epoch > first_epoch);
        }

        // Invalidate superseded physical pages.
        for addr in losers {
            let _ = device.mark_invalid(addr);
            let owner = die_owner.get(&addr.die).and_then(|rid| regions[rid.0 as usize].as_mut());
            if let Some(region) = owner {
                region.record_invalidation(addr);
            }
            report.stale_pages_invalidated += 1;
        }

        // The journal is the region that owns its chunks' dies: a GC copy
        // stays on its die, and a shrink moves pages only onto dies the
        // checkpoint already recorded for that region.
        let region = chunk_pages.iter().flatten().find_map(|addr| die_owner.get(&addr.die));
        let meta = MetaDirectory {
            region: region.copied(),
            map: chunk_pages,
            seq,
            ..MetaDirectory::default()
        };
        report.objects = image.objects.len();
        let inner = Inner { regions, objects, meta };
        Ok((NoFtl::assemble(env, inner), report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{make_noftl, page, raw_device, read_page, reboot};
    use crate::NoFtlConfig;
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};

    /// `img` in the blob format, through the checkpoint's own encoder.
    fn encode(img: &CheckpointImage) -> Vec<u8> {
        let mut out = Vec::new();
        put_blob(
            &mut out,
            img.regions.iter().map(|r| (r.id, r.name.as_str(), r.class, r.dies.iter().copied())),
            img.objects.iter().map(|o| (o.id, o.name.as_str(), o.region)),
        );
        out
    }

    fn sample_image() -> CheckpointImage {
        CheckpointImage {
            regions: vec![RegionImage {
                id: RegionId(0),
                name: "rgHot".to_string(),
                class: ServiceClass::Background,
                dies: vec![DieId(0), DieId(1)],
            }],
            objects: vec![ObjectImage { id: 1, name: "orders".to_string(), region: RegionId(0) }],
        }
    }

    #[test]
    fn blob_roundtrip() {
        let img = sample_image();
        let blob = encode(&img);
        assert_eq!(CheckpointImage::decode(&blob), Some(img));
    }

    #[test]
    fn corrupted_blob_is_rejected() {
        let blob = encode(&sample_image());
        for n in 0..blob.len() {
            assert_eq!(CheckpointImage::decode(&blob[..n]), None, "prefix of {n} bytes");
        }
        let mut flipped = blob.clone();
        flipped[blob.len() / 2] ^= 0x40;
        assert_eq!(CheckpointImage::decode(&flipped), None);
    }

    #[test]
    fn chunk_roundtrip_and_rejection() {
        let blob = encode(&sample_image());
        let mut page = Vec::new();
        put_chunk(&mut page, (3, 1), &blob, 4096);
        let (seq, count, body) = decode_chunk(&page).unwrap();
        assert_eq!((seq, count), (3, 1));
        assert_eq!(body, &blob[..]);
        for n in 0..CHUNK_HEADER + blob.len() {
            assert!(decode_chunk(&page[..n]).is_none(), "prefix of {n} bytes");
        }
        let mut foreign = page.clone();
        foreign[0] ^= 0x01;
        assert!(decode_chunk(&foreign).is_none(), "another magic");
        // A data page is not mistaken for a chunk.
        assert!(decode_chunk(&vec![0xAAu8; 4096]).is_none());
        assert!(decode_chunk(&[]).is_none());
    }

    #[test]
    fn checkpoint_and_mount_rebuild_state() {
        let noftl = make_noftl();
        let rg_hot = noftl.create_region(RegionSpec::named("rgHot").with_die_count(2)).unwrap();
        let rg_cold = noftl.create_region(RegionSpec::named("rgCold").with_die_count(1)).unwrap();
        let orders = noftl.create_object("orders", rg_hot).unwrap();
        let history = noftl.create_object("history", rg_cold).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..10u64 {
            t = noftl.write(orders, p, &page(p as u8), t).unwrap();
        }
        t = noftl.write(history, 0, &page(0xCC), t).unwrap();
        t = noftl.checkpoint(t).unwrap();
        assert_eq!(noftl.lock_inner().meta.seq, 1);
        // Post-checkpoint writes are recovered from OOB metadata alone.
        for p in 5..15u64 {
            t = noftl.write(orders, p, &page(0x40 + p as u8), t).unwrap();
        }
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(report.regions, 3, "rgHot, rgCold and the meta region");
        assert_eq!(report.objects, 2);
        assert_eq!(report.pages_after_checkpoint, 10);
        assert!(report.orphaned_objects.is_empty());
        assert_eq!(noftl2.region_id("rgHot"), Some(rg_hot));
        assert_eq!(noftl2.region_id("rgCold"), Some(rg_cold));
        assert_eq!(noftl2.object_id("orders"), Some(orders));
        assert_eq!(noftl2.object_id("history"), Some(history));
        assert_eq!(noftl2.region_info(rg_hot).unwrap().dies.len(), 2);
        let done = report.completed_at;
        for p in 0..5u64 {
            assert_eq!(read_page(&noftl2, orders, p, done).unwrap().0, page(p as u8), "page {p}");
        }
        for p in 5..15u64 {
            assert_eq!(
                read_page(&noftl2, orders, p, done).unwrap().0,
                page(0x40 + p as u8),
                "page {p}"
            );
        }
        assert_eq!(read_page(&noftl2, history, 0, done).unwrap().0, page(0xCC));
        // The remounted manager keeps working: writes and re-checkpoints.
        let t2 = noftl2.write(orders, 99, &page(0x77), done).unwrap();
        assert_eq!(read_page(&noftl2, orders, 99, t2).unwrap().0, page(0x77));
        noftl2.checkpoint(t2).unwrap();
        assert_eq!(noftl2.lock_inner().meta.seq, 2);
    }

    #[test]
    fn mount_of_pristine_device_is_fresh() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, report) = NoFtl::mount(device, SimTime::ZERO).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.pages_scanned, 0);
        assert_eq!(noftl.free_die_count(), 4);
        noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
    }

    #[test]
    fn mount_without_checkpoint_fails_when_data_exists() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        let device2 = reboot(&noftl);
        assert!(matches!(NoFtl::mount(device2, SimTime::ZERO), Err(NoFtlError::NoCheckpoint)));
    }

    #[test]
    fn mount_preserves_orphan_objects_created_after_checkpoint() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let a = noftl.create_object("a", r).unwrap();
        let mut t = noftl.write(a, 0, &page(1), SimTime::ZERO).unwrap();
        // Dropped before the checkpoint: gone from the directory.
        let gone = noftl.create_object("gone", r).unwrap();
        t = noftl.write(gone, 0, &page(2), t).unwrap();
        noftl.drop_object(gone).unwrap();
        let rg_gone = noftl.create_region(RegionSpec::named("rgGone").with_die_count(1)).unwrap();
        t = noftl.drop_region(rg_gone, t).unwrap();
        t = noftl.checkpoint(t).unwrap();
        // Object created after the checkpoint: its directory entry is lost
        // but its data must survive under a synthesised name.
        let b = noftl.create_object("b", r).unwrap();
        t = noftl.write(b, 3, &page(9), t).unwrap();
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
        assert_eq!(report.orphaned_objects, vec![b]);
        // Names are read off the rebuilt tables: checkpointed and orphan
        // names are found, dropped ones are not.
        assert_eq!(noftl2.object_id(&format!("__orphan_{b}")), Some(b));
        assert_eq!(noftl2.object_id("a"), Some(a));
        assert_eq!(noftl2.region_id("rg"), Some(r));
        assert_eq!(noftl2.object_id("b"), None, "b's name was never checkpointed");
        assert_eq!(noftl2.object_id("gone"), None);
        assert_eq!(noftl2.region_id("rgGone"), None);
        assert!(matches!(noftl2.create_object("a", r), Err(NoFtlError::ObjectExists { .. })));
        let rg_again = noftl2.create_region(RegionSpec::named("rg").with_die_count(1));
        assert!(matches!(rg_again, Err(NoFtlError::RegionExists { .. })));
        // The region's members come from the object directory, the orphan
        // among them.
        assert_eq!(noftl2.region_info(r).unwrap().objects, vec![a, b]);
        // Access counters are not checkpointed: they count from the mount.
        assert_eq!(noftl.object_stats(a).unwrap().writes, 1);
        let stats = noftl2.object_stats(a).unwrap();
        assert_eq!((stats.reads, stats.writes), (0, 0));
        assert_eq!(read_page(&noftl2, b, 3, report.completed_at).unwrap().0, page(9));
        assert_eq!(read_page(&noftl2, a, 0, report.completed_at).unwrap().0, page(1));
        assert_eq!(noftl2.object_stats(a).unwrap().reads, 1);
        // A dropped object's name is free to take again.
        let again = noftl2.create_object("gone", r).unwrap();
        assert_eq!(noftl2.object_id("gone"), Some(again));
    }

    /// The free pool is the dies no region holds, in id order, so a live
    /// manager and its remount choose the same dies after a `DROP REGION`.
    #[test]
    fn a_live_manager_and_its_remount_choose_the_same_dies() {
        // The journal takes die 1; a three-die region on dies 0, 3 and 2
        // is dropped and the drop checkpointed.
        let dropped = || {
            let noftl = make_noftl();
            let t = noftl.checkpoint(SimTime::ZERO).unwrap();
            let rg = noftl.create_region(RegionSpec::named("rgGone").with_die_count(3)).unwrap();
            let t = noftl.drop_region(rg, t).unwrap();
            let t = noftl.checkpoint(t).unwrap();
            let (mounted, _) = NoFtl::mount(reboot(&noftl), t).unwrap();
            [noftl, mounted]
        };
        let [live, mounted] = dropped().map(|m| {
            let rg = m.create_region(RegionSpec::named("rgNew").with_die_count(2)).unwrap();
            m.region_info(rg).unwrap().dies
        });
        assert_eq!(live, mounted, "CREATE REGION");
        assert_eq!(live, vec![DieId(0), DieId(3)]);
        let [live, mounted] = dropped().map(|m| {
            let meta = m.lock_inner().meta.region.unwrap();
            m.grow_region(meta, 1).unwrap();
            m.region_info(meta).unwrap().dies
        });
        assert_eq!(live, mounted, "grow");
        assert_eq!(live, vec![DieId(1), DieId(3)], "grow takes the highest free die");
    }

    #[test]
    fn mount_skips_untouched_dies() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..6u64 {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        t = noftl.checkpoint(t).unwrap();
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
        // One die holds the region, one the metadata journal; the other
        // two of small_test's four dies were never written and their OOB
        // scan is skipped entirely.
        assert_eq!(report.dies_skipped, 2);
        assert!(report.pages_scanned > 0);
        for p in 0..6u64 {
            assert_eq!(read_page(&noftl2, obj, p, report.completed_at).unwrap().0, page(p as u8));
        }
        // The skipped dies are still usable: they returned to the free
        // pool and can host a new region.
        assert_eq!(noftl2.free_die_count(), 2);
        noftl2.create_region(RegionSpec::named("rg2").with_die_count(2)).unwrap();
    }

    /// One `Read` per valid page returns its payload and its OOB record
    /// together: the mount issues no metadata read.
    #[test]
    fn the_mount_reads_each_valid_page_once() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        for p in 0..12u64 {
            t = noftl.write(obj, p % 8, &page(p as u8), t).unwrap();
        }
        t = noftl.checkpoint(t).unwrap();
        let device = reboot(&noftl);
        let (_, report) = NoFtl::mount(Arc::clone(&device), t).unwrap();
        assert_eq!(report.pages_scanned, 8 + 1, "eight live pages and one chunk");
        let stats = device.stats();
        assert_eq!(stats.metadata_reads, 0);
        assert_eq!(stats.page_reads, report.pages_scanned);
    }

    /// A page whose OOB record carries no checksum fails the one check
    /// like any torn page: it is discarded, not mapped.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "plants a page behind the manager's back")]
    fn a_page_stored_without_a_checksum_is_discarded_at_mount() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        t = noftl.checkpoint(t).unwrap();
        let addr = PageAddr::new(noftl.region_info(r).unwrap().dies[0], 0, 5, 0);
        raw_device(&noftl).program_page(addr, &page(2), PageMetadata::new(obj, 7), t).unwrap();
        let (noftl2, report) = NoFtl::mount(reboot(&noftl), t).unwrap();
        assert_eq!(report.torn_pages_discarded, 1);
        assert_eq!(report.mapped_pages, 1);
        let err = read_page(&noftl2, obj, 7, report.completed_at).unwrap_err();
        assert!(matches!(err, NoFtlError::PageNotWritten { page: 7, .. }), "got {err:?}");
    }

    /// A region is its name, class and dies: a `Background` region grown
    /// by one die comes back from a remount with all three.
    #[test]
    fn a_remounted_region_keeps_its_name_class_and_dies() {
        let noftl = make_noftl();
        let spec = RegionSpec::named("rgBulk")
            .with_die_count(1)
            .with_service_class(ServiceClass::Background);
        let r = noftl.create_region(spec).unwrap();
        noftl.grow_region(r, 1).unwrap();
        let t = noftl.checkpoint(SimTime::ZERO).unwrap();
        let before = noftl.region_info(r).unwrap();
        assert_eq!(before.dies.len(), 2);
        let (noftl2, _) = NoFtl::mount(reboot(&noftl), t).unwrap();
        let after = noftl2.region_info(r).unwrap();
        assert_eq!((after.name.as_str(), after.class), ("rgBulk", ServiceClass::Background));
        assert_eq!(after.dies, before.dies);
    }

    /// A chunk page is a 20-byte header (magic, sequence number, chunk
    /// count, blob length), then the blob — magic, the directory, CRC —
    /// and zeros: the sequence number is stored once, and nothing a mount
    /// reads off the chunk pages is in the blob.
    #[test]
    #[expect(clippy::disallowed_methods, reason = "reads a chunk page behind the manager's back")]
    fn a_chunk_page_is_its_header_then_the_directory() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, rid) = NoFtl::with_single_region(device).unwrap();
        let obj = noftl.create_object("t", rid).unwrap();
        let t = noftl.checkpoint(SimTime::ZERO).unwrap();
        let info = noftl.region_info(rid).unwrap();
        let mut blob = Vec::new();
        seal_into(&mut blob, BLOB_MAGIC, |out| {
            put_u32(out, 1);
            put_u32(out, rid.0);
            put_bytes(out, info.name.as_bytes());
            put_u8(out, info.class.code());
            put_u32(out, info.dies.len() as u32);
            info.dies.iter().for_each(|d| put_u32(out, d.0));
            put_u32(out, 1);
            put_u32(out, obj);
            put_bytes(out, b"t");
            put_u32(out, rid.0);
        });
        let mut expected = Vec::new();
        put_u32(&mut expected, CHUNK_MAGIC);
        put_u64(&mut expected, 1);
        put_u32(&mut expected, 1);
        put_u32(&mut expected, blob.len() as u32);
        assert_eq!(expected.len(), 20);
        expected.extend_from_slice(&blob);
        expected.resize(4096, 0);
        let chunks = current_chunks(&noftl);
        assert_eq!(chunks.len(), 1);
        let (data, ..) = raw_device(&noftl).read_page(chunks[0], t).unwrap();
        assert_eq!(data[..20], expected[..20], "the header");
        assert_eq!(data, expected);
    }

    /// With no free die the journal falls back to a `Background` region.
    /// A remount finds it on the dies its chunks lie on, and the next
    /// checkpoint writes there and retires the mounted checkpoint's chunks.
    #[test]
    fn a_remount_keeps_the_journal_where_its_chunks_lie() {
        let noftl = make_noftl();
        let fg = noftl.create_region(RegionSpec::named("rgFg").with_die_count(2)).unwrap();
        let bulk = RegionSpec::named("rgBulk")
            .with_die_count(2)
            .with_service_class(ServiceClass::Background);
        let bulk = noftl.create_region(bulk).unwrap();
        assert_eq!(noftl.free_die_count(), 0);
        let obj = noftl.create_object("t", fg).unwrap();
        let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        let t = noftl.checkpoint(t).unwrap();
        assert_eq!(noftl.lock_inner().meta.region, Some(bulk));
        let (noftl2, report) = NoFtl::mount(reboot(&noftl), t).unwrap();
        assert_eq!(noftl2.lock_inner().meta.region, Some(bulk));
        let first = current_chunks(&noftl2);
        assert_eq!(first, current_chunks(&noftl));
        noftl2.checkpoint(report.completed_at).unwrap();
        assert_eq!(noftl2.lock_inner().meta.seq, 2);
        let dies = noftl2.region_info(bulk).unwrap().dies;
        let second = current_chunks(&noftl2);
        assert!(!second.is_empty() && second.iter().all(|addr| dies.contains(&addr.die)));
        for addr in first {
            assert_eq!(raw_device(&noftl2).page_state(addr).unwrap(), PageState::Invalid);
        }
    }

    #[test]
    fn torn_write_is_discarded_on_mount_and_old_version_survives() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = noftl.write(obj, 0, &page(0x11), SimTime::ZERO).unwrap();
        t = noftl.checkpoint(t).unwrap();
        // Cut power in the middle of the overwrite of logical page 0.
        let device = raw_device(&noftl);
        let quiesce = device.quiesce_time();
        device.arm_power_cut(quiesce + flash_sim::Duration(program_span() * 9 / 10));
        let err = noftl.write(obj, 0, &page(0x22), quiesce).unwrap_err();
        assert!(matches!(err, NoFtlError::Flash(e) if e.is_power_loss()));
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
        assert_eq!(report.torn_pages_discarded, 1);
        // The pre-crash committed version is still readable.
        assert_eq!(read_page(&noftl2, obj, 0, report.completed_at).unwrap().0, page(0x11));
    }

    /// Register `n` empty objects whose 120-byte names (~150 B of
    /// directory each) make the checkpoint blob span several chunk pages.
    fn widen_directory(noftl: &NoFtl, rid: RegionId, n: usize) -> Vec<ObjectId> {
        (0..n).map(|i| noftl.create_object(&format!("{i:0>120}"), rid).unwrap()).collect()
    }

    /// Chunk pages of the newest completed checkpoint, per the manager.
    fn current_chunks(noftl: &NoFtl) -> Vec<PageAddr> {
        noftl.lock_inner().meta.map.iter().flatten().copied().collect()
    }

    /// Valid pages on the device that carry the journal's object id.
    #[expect(clippy::disallowed_methods, reason = "reads OOB records behind the manager's back")]
    fn valid_chunk_pages(noftl: &NoFtl) -> Vec<PageAddr> {
        let device = raw_device(noftl);
        let geo = *device.geometry();
        let mut found = Vec::new();
        for die in geo.dies() {
            for plane in 0..geo.planes_per_die {
                for block in 0..geo.blocks_per_plane {
                    for page in 0..geo.pages_per_block {
                        let addr = PageAddr::new(die, plane, block, page);
                        if device.page_state(addr).unwrap() != PageState::Valid {
                            continue;
                        }
                        let meta = device.read_metadata(addr, SimTime::ZERO).unwrap().0;
                        if meta.is_some_and(|m| m.object_id == META_OBJECT_ID) {
                            found.push(addr);
                        }
                    }
                }
            }
        }
        found
    }

    /// Latency of one uncontended page program under `mlc_2015`.
    #[expect(clippy::disallowed_methods, reason = "times a program on a bare device")]
    fn program_span() -> u64 {
        let probe =
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::mlc_2015()).build();
        let addr = PageAddr::new(DieId(0), 0, 0, 0);
        let out =
            probe.program_page(addr, &page(0), PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        out.completed_at.as_nanos() - out.started_at.as_nanos()
    }

    #[test]
    fn torn_multichunk_checkpoint_falls_back_to_previous() {
        // Tear checkpoint #2 in its first chunk, then in its second (with
        // the first one complete on flash).
        for torn_chunk in 0..2u64 {
            let noftl = make_noftl();
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            // The page maps no longer make a checkpoint large; a directory
            // of long names does.
            widen_directory(&noftl, r, 100);
            let mut t = SimTime::ZERO;
            for p in 0..20u64 {
                t = noftl.write(obj, p, &page(p as u8), t).unwrap();
            }
            t = noftl.checkpoint(t).unwrap();
            assert_eq!(noftl.lock_inner().meta.seq, 1, "first checkpoint completed");
            assert!(current_chunks(&noftl).len() >= 3, "the directory spans several chunks");
            // Post-checkpoint overwrites, then a power cut 90 % into the
            // program of one of checkpoint #2's leading chunks.  Those are
            // dense with directory bytes from the first to the last, so
            // the tear is guaranteed to corrupt the page (a tear in the
            // last chunk's zero padding would harmlessly reproduce it).
            for p in 0..5u64 {
                t = noftl.write(obj, p, &page(0xE0 + p as u8), t).unwrap();
            }
            let span = program_span();
            let q = noftl.device().quiesce_time();
            let cut = q + flash_sim::Duration(span * torn_chunk + span * 9 / 10);
            raw_device(&noftl).arm_power_cut(cut);
            let err = noftl.checkpoint(q).unwrap_err();
            assert!(matches!(err, NoFtlError::Flash(e) if e.is_power_loss()));
            // Mount must fall back to the complete checkpoint #1 and still
            // recover every page (including the post-checkpoint
            // overwrites, which come from the OOB scan).
            let device2 = reboot(&noftl);
            let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
            assert_eq!(report.checkpoint_seq, 1, "torn checkpoint #2 is ignored");
            assert!(report.torn_pages_discarded >= 1, "chunk {torn_chunk} was torn, not completed");
            assert_eq!(report.objects, 101);
            let done = report.completed_at;
            for p in 0..5u64 {
                assert_eq!(
                    read_page(&noftl2, obj, p, done).unwrap().0,
                    page(0xE0 + p as u8),
                    "page {p}"
                );
            }
            for p in 5..20u64 {
                assert_eq!(read_page(&noftl2, obj, p, done).unwrap().0, page(p as u8), "page {p}");
            }
        }
    }

    #[test]
    fn checkpoint_size_is_independent_of_mapped_pages() {
        // Same directory, 10 vs 2 000 mapped pages: the same chunk count
        // and the same number of page programs per checkpoint.
        let cost = |mapped: u64| {
            let device = Arc::new(DeviceBuilder::new(FlashGeometry::example()).build());
            let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            widen_directory(&noftl, r, 40);
            let mut t = SimTime::ZERO;
            for p in 0..mapped {
                t = noftl.write(obj, p, &page(p as u8), t).unwrap();
            }
            let before = device.stats().page_programs;
            noftl.checkpoint(t).unwrap();
            let chunks = current_chunks(&noftl).len() as u64;
            (chunks, device.stats().page_programs - before)
        };
        let (small, large) = (cost(10), cost(2_000));
        assert_eq!(small, large);
        assert_eq!(small.0, small.1, "a checkpoint programs its chunks and nothing else");
        assert_eq!(small.0, 2, "40 x ~130 B of directory is two chunks, mapped pages or not");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "plants a chunk behind the manager's back")]
    fn an_older_format_blob_is_no_checkpoint() {
        // A blob under an earlier format version's magic — intact CRC,
        // whatever follows — must decode as "no checkpoint" rather than
        // have the cursor run over fields that are no longer there.
        let magics = [b"NFCKPT04", b"NFCKPT05", b"NFCKPT06", b"NFCKPT07", b"NFCKPT08", b"NFCKPT09"];
        for magic in magics {
            let mut old = encode(&sample_image());
            old.truncate(old.len() - 4);
            old[..8].copy_from_slice(magic);
            let crc = flash_sim::crc32(&old);
            put_u32(&mut old, crc);
            assert_eq!(CheckpointImage::decode(&old), None);
            // ...and a device whose only checkpoint is such a blob mounts
            // as one without a checkpoint.
            let noftl = make_noftl();
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
            let mut chunk = Vec::new();
            put_chunk(&mut chunk, (1, 1), &old, 4096);
            let addr = PageAddr::new(noftl.region_info(r).unwrap().dies[0], 0, 5, 0);
            let meta = PageMetadata::new(META_OBJECT_ID, 0).with_payload_checksum(&chunk);
            raw_device(&noftl).program_page(addr, &chunk, meta, t).unwrap();
            assert!(matches!(NoFtl::mount(reboot(&noftl), t), Err(NoFtlError::NoCheckpoint)));
        }
    }

    #[test]
    fn failed_checkpoint_retires_its_chunks_and_the_retry_mounts() {
        // One region over every die, so the journal shares it, filled to
        // its last two pages: chunks 0 and 1 of a three-chunk checkpoint
        // fit, chunk 2 hits `RegionFull`.
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, rid) = NoFtl::with_single_region(device).unwrap();
        let filler = noftl.create_object("filler", rid).unwrap();
        noftl.checkpoint(SimTime::ZERO).unwrap();
        let wide = widen_directory(&noftl, rid, 70);
        let capacity = FlashGeometry::small_test().total_pages();
        let mut t = SimTime::ZERO;
        for p in 0..capacity - 3 {
            t = noftl.write(filler, p, &page(p as u8), t).unwrap();
        }
        let err = noftl.checkpoint(t).unwrap_err();
        assert!(matches!(err, NoFtlError::RegionFull { .. }), "got {err:?}");
        assert_eq!(noftl.lock_inner().meta.seq, 1);
        assert_eq!(
            valid_chunk_pages(&noftl),
            current_chunks(&noftl),
            "the failed attempt left no valid chunk"
        );
        // Make room, shrink the directory to one chunk, retry: the retry
        // reuses sequence number 2.
        for obj in wide {
            noftl.drop_object(obj).unwrap();
        }
        for p in 0..64 {
            noftl.free_page(filler, p).unwrap();
        }
        t = noftl.checkpoint(t).unwrap();
        assert_eq!(noftl.lock_inner().meta.seq, 2);
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
        assert_eq!(report.checkpoint_seq, 2, "the retried checkpoint is the newest complete one");
        assert_eq!(report.objects, 1);
        let current = current_chunks(&noftl2);
        assert_eq!(current.len(), 1);
        assert_eq!(valid_chunk_pages(&noftl2), current, "no chunk outside `meta.map` is valid");
        let last = capacity - 4;
        assert_eq!(
            read_page(&noftl2, filler, last, report.completed_at).unwrap().0,
            page(last as u8)
        );
    }

    #[test]
    fn meta_region_cannot_be_dropped() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        noftl.checkpoint(SimTime::ZERO).unwrap();
        let meta = noftl.lock_inner().meta.region.unwrap();
        assert!(matches!(noftl.drop_region(meta, SimTime::ZERO), Err(NoFtlError::Recovery { .. })));
    }

    /// A region created after the last checkpoint is lost to a power cut,
    /// and the mount returns its dies to the free pool with its pages still
    /// on them.  A region built on those dies later must take its blocks as
    /// they are, not as erased.
    #[test]
    fn a_region_on_dies_a_mount_freed_writes_and_reads() {
        let noftl = make_noftl();
        let mut t = noftl.checkpoint(SimTime::ZERO).unwrap();
        let free = noftl.free_die_count();
        let late = noftl.create_region(RegionSpec::named("rgLate").with_die_count(free)).unwrap();
        let obj = noftl.create_object("late", late).unwrap();
        for p in 0..2 * u64::from(free) {
            t = noftl.write(obj, p, &page(p as u8), t).unwrap();
        }
        let (noftl2, report) = NoFtl::mount(reboot(&noftl), t).unwrap();
        assert_eq!(noftl2.free_die_count(), free, "the late region's dies are free again");
        let again = noftl2.create_region(RegionSpec::named("rgLate").with_die_count(free)).unwrap();
        let obj2 = noftl2.create_object("late", again).unwrap();
        let done = noftl2.write(obj2, 0, &page(0x5A), report.completed_at).unwrap();
        assert_eq!(read_page(&noftl2, obj2, 0, done).unwrap().0, page(0x5A));
    }

    #[test]
    fn checkpoint_without_free_dies_uses_first_region() {
        let device = Arc::new(DeviceBuilder::new(FlashGeometry::small_test()).build());
        let (noftl, rid) = NoFtl::with_single_region(device).unwrap();
        let obj = noftl.create_object("t", rid).unwrap();
        let t = noftl.write(obj, 0, &page(5), SimTime::ZERO).unwrap();
        noftl.checkpoint(t).unwrap();
        assert_eq!(noftl.lock_inner().meta.region, Some(rid));
        let device2 = reboot(&noftl);
        let (noftl2, report) = NoFtl::mount(device2, t).unwrap();
        assert_eq!(report.checkpoint_seq, 1);
        assert_eq!(read_page(&noftl2, obj, 0, report.completed_at).unwrap().0, page(5));
    }
}
