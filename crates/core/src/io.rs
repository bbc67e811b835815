//! The request path: one descriptor, one core, one device choke point.
//!
//! The paper's architecture (Figure 1) has one storage manager driving
//! native flash through one small command set.  This module is that path:
//!
//! * [`IoRequest`] describes one host page operation — which object and
//!   logical page, read or write, and optionally a forced service class;
//! * `Inner::io` is the **only** code in the crate that resolves a logical
//!   page, builds the arbiter tag, and updates translations, object
//!   counters and [`RegionStats`](crate::RegionStats) — under one hold of
//!   the manager lock per request, so allocation → program → translation
//!   commit stay atomic with respect to GC;
//! * `Env::exec` is the **only** code in the crate that talks to the
//!   device's timed operations, always as one
//!   [`FlashBackend::execute`](flash_sim::FlashBackend::execute).  GC,
//!   region shrink, checkpoint chunks and the mount scan issue their
//!   physical commands through it too, so everything the arbiter polices
//!   passes one function (`crates/core/clippy.toml` bans every timed
//!   device verb elsewhere in the crate).
//!
//! The public page I/O is three verbs over the core: [`NoFtl::read`] and
//! [`NoFtl::write`] for one page, and [`NoFtl::execute`] for many — a
//! windowed pipeline of reads and writes that hands each page read to the
//! caller.

use std::collections::VecDeque;

use flash_sim::{BlockAddr, CmdOutput, FlashCommand, IoTag, PageMetadata, ServiceClass, SimTime};

use crate::error::NoFtlError;
use crate::manager::{Env, Inner, NoFtl};
use crate::object::ObjectId;
use crate::region::{RegionDie, RegionId};
use crate::Result;

/// What an [`IoRequest`] does to its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind<'a> {
    /// Read the page.
    Read,
    /// Write the page out of place.  The payload is borrowed all the way
    /// down to the device: nothing on the path copies it.
    Write(&'a [u8]),
}

/// One host page operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest<'a> {
    /// The object addressed.
    pub object: ObjectId,
    /// Logical page within the object.
    pub page: u64,
    /// Read, or write with its payload.
    pub kind: IoKind<'a>,
    /// Service class forced onto the submitted command; `None` uses the
    /// owning region's class.  Maintenance paths (KV compaction) tag
    /// their traffic `Background` this way regardless of the region.
    pub class: Option<ServiceClass>,
}

impl<'a> IoRequest<'a> {
    /// A read of `page` of `object`, in the region's class.
    pub fn read(object: ObjectId, page: u64) -> Self {
        IoRequest { object, page, kind: IoKind::Read, class: None }
    }

    /// An out-of-place write of `page` of `object`, in the region's class.
    pub fn write(object: ObjectId, page: u64, data: &'a [u8]) -> Self {
        IoRequest { object, page, kind: IoKind::Write(data), class: None }
    }

    /// Force (or, with `None`, un-force) the command's service class.
    pub fn with_class(mut self, class: Option<ServiceClass>) -> Self {
        self.class = class;
        self
    }
}

impl Env {
    /// Issue one physical flash command at `at`: the crate's single
    /// device choke point.
    #[expect(clippy::disallowed_methods, reason = "the crate's one request path to the device")]
    pub(crate) fn exec(
        &self,
        command: FlashCommand<'_>,
        at: SimTime,
        tag: IoTag,
    ) -> flash_sim::Result<CmdOutput> {
        self.device.execute(command, at, tag)
    }

    /// Erase `blocks` of `die`, all issued at `at`, and return them to the
    /// die's free pool (a block that fails permanently drops out of
    /// tracking).  Returns the completion of the last erase.
    pub(crate) fn erase_into_pool(
        &self,
        die: &mut RegionDie,
        blocks: Vec<BlockAddr>,
        at: SimTime,
    ) -> Result<SimTime> {
        let mut done = at;
        for block in blocks {
            match self.exec(FlashCommand::Erase { block }, at, IoTag::default()) {
                Ok(out) => {
                    done = done.max(out.outcome.completed_at);
                    die.free_blocks.push(block);
                }
                Err(e) if e.is_permanent() => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(done)
    }

    /// A buffer for one page read.
    pub(crate) fn page_buf(&self) -> Vec<u8> {
        vec![0; self.device.geometry().page_size as usize]
    }

    /// A host write is one whole page, never an empty payload: every page
    /// the manager programs carries the checksum of what it stores.
    fn check_page_size(&self, data: &[u8]) -> Result<()> {
        let expected = self.device.geometry().page_size;
        if data.len() != expected as usize {
            return Err(NoFtlError::BadPageSize { expected, got: data.len() });
        }
        Ok(())
    }
}

impl Inner {
    /// The arbiter tag for traffic of region `rid`: the region's service
    /// class unless `class` forces another, keyed by region id so the
    /// device meters each region's channel budget separately.
    pub(crate) fn tag(&self, rid: RegionId, class: Option<ServiceClass>) -> IoTag {
        let Ok(region) = self.region(rid) else {
            return IoTag::default();
        };
        IoTag::new(class.unwrap_or(region.class), Some(rid.0))
    }

    /// Carry out one request issued at `at` and return its completion
    /// time; a read copies its page into `buf` (a write ignores it).  A
    /// request that fails leaves translations, object counters and region
    /// statistics untouched.
    pub(crate) fn io(
        &mut self,
        env: &Env,
        req: &IoRequest<'_>,
        buf: &mut [u8],
        at: SimTime,
    ) -> Result<SimTime> {
        match req.kind {
            IoKind::Read => {
                let state = self.object(req.object)?;
                let rid = state.region;
                let ppa = state
                    .translate(req.page)
                    .ok_or(NoFtlError::PageNotWritten { object: req.object, page: req.page })?;
                let tag = self.tag(rid, req.class);
                let out = env.exec(FlashCommand::Read { addr: ppa, data: buf }, at, tag)?;
                let completed = out.outcome.completed_at;
                self.object_mut(req.object)?.counters.reads += 1;
                let stats = &mut self.region_mut(rid)?.stats;
                stats.host_reads += 1;
                stats.read_latency_sum += completed - at;
                Ok(completed)
            }
            IoKind::Write(data) => {
                env.check_page_size(data)?;
                let rid = self.object(req.object)?.region;
                // The one allocation site of host writes.
                let ppa = self.space(env, rid)?.allocate(at)?;
                // The OOB checksum of every host page, from the bytes
                // programmed.
                let meta = PageMetadata::new(req.object, req.page).with_payload_checksum(data);
                let tag = self.tag(rid, req.class);
                let out = env.exec(FlashCommand::Program { addr: ppa, data, meta }, at, tag)?;
                let completed = out.outcome.completed_at;
                let state = self.object_mut(req.object)?;
                state.counters.writes += 1;
                let old = state.set_translation(req.page, ppa);
                let region = self.region_mut(rid)?;
                if let Some(old) = old {
                    let _ = env.device.mark_invalid(old);
                    region.record_invalidation(old);
                }
                region.stats.host_writes += 1;
                region.stats.write_latency_sum += completed - at;
                Ok(completed)
            }
        }
    }
}

impl NoFtl {
    /// Read a logical page of an object into `buf` — one page, filled by
    /// the device itself.  Returns the completion time.
    pub fn read(&self, obj: ObjectId, page: u64, buf: &mut [u8], at: SimTime) -> Result<SimTime> {
        self.lock_inner().io(&self.env, &IoRequest::read(obj, page), buf, at)
    }

    /// Write (out-of-place) a logical page of an object.  Returns the
    /// completion time.
    pub fn write(&self, obj: ObjectId, page: u64, data: &[u8], at: SimTime) -> Result<SimTime> {
        self.lock_inner().io(&self.env, &IoRequest::write(obj, page, data), &mut [], at)
    }

    /// The multi-page verb: run `requests` — reads and writes, each
    /// optionally forcing its service class — through the bounded
    /// completion-driven pipeline, and hand each read's page to
    /// `on_read`.
    ///
    /// Up to `window` requests are kept in flight; each further request
    /// is issued at the completion instant of the oldest outstanding one.
    /// A window of at least the request count therefore issues everything
    /// at `at` (a fan-out batch: the WAL force, KV flushes), a window of 1
    /// chains the requests like blocking calls.  The manager lock is
    /// taken per request, and each write's allocation, program and
    /// translation commit happen under one hold of it — a GC pass
    /// triggered by a later allocation always sees current mappings and
    /// may safely relocate any page already committed.
    ///
    /// Each read's page goes to `on_read` with its request, in request
    /// order, with the manager lock released.  The page lives in one
    /// buffer the call reuses, so it is valid only for that call.
    /// Returns the **maximum completion across all requests**, not the
    /// last one's: a later page on an idle die can complete before an
    /// earlier page queued behind a busy one.
    ///
    /// Every call samples its reads into `core.read.window_*` and its
    /// writes into `core.flush.window_*`.
    ///
    /// Payload sizes are checked before anything is issued.  After that a
    /// failing request (e.g. a power cut tearing part of a batch) does not
    /// stop the ones behind it: every request whose issue instant the
    /// pipeline reaches is issued, the translation of every *successful*
    /// write is committed, torn pages stay unmapped for recovery to
    /// discard, and the first failure in request order — a request's, or
    /// `on_read`'s — is returned.
    pub fn execute<'a, I>(
        &self,
        requests: I,
        at: SimTime,
        window: usize,
        mut on_read: impl FnMut(&IoRequest<'a>, &[u8]) -> Result<()>,
    ) -> Result<SimTime>
    where
        I: IntoIterator<Item = IoRequest<'a>>,
        I::IntoIter: Clone,
    {
        let requests = requests.into_iter();
        let (mut reads, mut writes) = (0u64, 0u64);
        for req in requests.clone() {
            match req.kind {
                IoKind::Write(data) => {
                    self.env.check_page_size(data)?;
                    writes += 1;
                }
                IoKind::Read => reads += 1,
            }
        }
        let pages = (reads + writes) as usize;
        let window = window.max(1);
        // Completions of the requests in flight, oldest first.  Tracked
        // only when the window can fill up.
        let mut inflight = VecDeque::with_capacity(if pages > window { window } else { 0 });
        let mut buf = if reads > 0 { self.env.page_buf() } else { Vec::new() };
        let obs = &self.env.obs;
        let mut succeeded = 0usize;
        let (mut clock, mut done) = (at, at);
        let mut failure: Option<NoFtlError> = None;
        for req in requests {
            if inflight.len() == window {
                if let Some(oldest) = inflight.pop_front() {
                    clock = clock.max(oldest);
                }
            }
            let read = matches!(req.kind, IoKind::Read);
            let result = self.lock_inner().io(&self.env, &req, &mut buf, clock);
            let completed = match result {
                Ok(completed) => completed,
                Err(e) => {
                    failure.get_or_insert(e);
                    continue;
                }
            };
            done = done.max(completed);
            if pages > window {
                inflight.push_back(completed);
            }
            succeeded += 1;
            let window_obs = if read { &obs.read_window } else { &obs.flush_window };
            window_obs.note_occupancy(succeeded.min(window) as u64);
            if read {
                if let Err(e) = on_read(&req, &buf) {
                    failure.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        for (window_obs, count) in [(&obs.read_window, reads), (&obs.flush_window, writes)] {
            if count > 0 {
                window_obs.note_done(count, at, done);
            }
        }
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NoFtlConfig;
    use crate::region::RegionSpec;
    use crate::testutil::{make_noftl, page, raw_device, read_page};
    use flash_sim::{DeviceBuilder, FlashBackend, FlashGeometry, TimingModel};
    use std::sync::Arc;

    /// [`NoFtl::execute`] over `(object, page, payload)` writes.
    fn write_pages(
        noftl: &NoFtl,
        writes: &[(ObjectId, u64, Vec<u8>)],
        at: SimTime,
        window: usize,
    ) -> Result<SimTime> {
        let requests = writes.iter().map(|(obj, page, data)| IoRequest::write(*obj, *page, data));
        noftl.execute(requests, at, window, |_, _| Ok(()))
    }

    /// [`NoFtl::execute`] over `(object, page)` reads: the payloads in
    /// request order and the completion.
    fn read_pages(
        noftl: &NoFtl,
        reads: &[(ObjectId, u64)],
        at: SimTime,
        window: usize,
    ) -> Result<(Vec<Vec<u8>>, SimTime)> {
        let mut pages = Vec::new();
        let requests = reads.iter().map(|&(obj, page)| IoRequest::read(obj, page));
        let done = noftl.execute(requests, at, window, |_, data| {
            pages.push(data.to_vec());
            Ok(())
        })?;
        Ok((pages, done))
    }

    #[test]
    fn write_read_roundtrip_and_stats() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let done = noftl.write(obj, 7, &page(0xAA), SimTime::ZERO).unwrap();
        let (data, done2) = read_page(&noftl, obj, 7, done).unwrap();
        assert_eq!(data, page(0xAA));
        assert!(done2 > done);
        let os = noftl.object_stats(obj).unwrap();
        assert_eq!(os.reads, 1);
        assert_eq!(os.writes, 1);
        assert_eq!(os.pages, 1);
        let rs = noftl.region_stats(r).unwrap();
        assert_eq!(rs.host_reads, 1);
        assert_eq!(rs.host_writes, 1);
        assert!(rs.avg_write_latency_us() > 0.0);
        let agg = noftl.stats();
        assert_eq!(agg.host_writes, 1);
    }

    #[test]
    fn overwrites_invalidate_previous_versions() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..5u8 {
            t = noftl.write(obj, 0, &page(i), t).unwrap();
        }
        let (data, _) = read_page(&noftl, obj, 0, t).unwrap();
        assert_eq!(data, page(4));
        assert_eq!(noftl.object_pages(obj).unwrap(), 1, "only one live page");
    }

    #[test]
    fn unwritten_page_read_fails() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        assert!(matches!(
            read_page(&noftl, obj, 3, SimTime::ZERO),
            Err(NoFtlError::PageNotWritten { page: 3, .. })
        ));
    }

    #[test]
    fn bad_page_size_rejected() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        assert!(matches!(
            noftl.write(obj, 0, &[1, 2, 3], SimTime::ZERO),
            Err(NoFtlError::BadPageSize { .. })
        ));
    }

    #[test]
    fn write_batch_returns_latest_completion() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let writes: Vec<(ObjectId, u64, Vec<u8>)> =
            (0..4).map(|i| (obj, i as u64, page(i as u8))).collect();
        let single = noftl.write(obj, 99, &page(9), SimTime::ZERO).unwrap();
        let batch_done = write_pages(&noftl, &writes, SimTime::ZERO, usize::MAX).unwrap();
        // The batch of four pages over two dies takes about two program
        // times, i.e. it must finish later than a single write but much
        // earlier than four serialized writes would.
        assert!(batch_done > single);
        for i in 0..4u64 {
            let (data, _) = read_page(&noftl, obj, i, batch_done).unwrap();
            assert_eq!(data, page(i as u8));
        }
    }

    #[test]
    fn write_batch_survives_mid_batch_gc() {
        // Regression: a GC pass triggered by a later allocation of the
        // same batch must never erase an earlier page of the batch.  With
        // translations committed per page (not deferred to a second
        // phase), GC relocates committed pages through `retranslate` and
        // every batch page stays readable.
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test()).timing(TimingModel::instant()).build(),
        );
        let noftl = NoFtl::new(device.clone(), NoFtlConfig::default());
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let geo = *device.geometry();
        // Working set = 60 % of the single die, overwritten in batches so
        // GC must fire repeatedly while batches are in flight.
        let working_set = geo.pages_per_die() * 6 / 10;
        let mut latest = vec![0u8; working_set as usize];
        let mut t = SimTime::ZERO;
        for round in 0..6u8 {
            let batch: Vec<(ObjectId, u64, Vec<u8>)> = (0..working_set)
                .map(|p| {
                    let v = round.wrapping_mul(41).wrapping_add(p as u8);
                    latest[p as usize] = v;
                    (obj, p, page(v))
                })
                .collect();
            t = write_pages(&noftl, &batch, t, usize::MAX).unwrap();
        }
        let rs = noftl.region_stats(r).unwrap();
        assert!(rs.gc_runs > 0, "the workload must actually trigger GC");
        assert!(rs.gc_erases > 0);
        for p in 0..working_set {
            let (data, _) = read_page(&noftl, obj, p, t).unwrap();
            assert_eq!(data, page(latest[p as usize]), "page {p}");
        }
    }

    #[test]
    fn same_instant_blocking_io_overlaps_across_dies() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        // Two writes issued at t=0 land on different dies and complete at
        // the same simulated time.
        let t0 = noftl.write(obj, 0, &page(0xA0), SimTime::ZERO).unwrap();
        let t1 = noftl.write(obj, 1, &page(0xA1), SimTime::ZERO).unwrap();
        assert!(t0 > SimTime::ZERO);
        assert_eq!(t0, t1, "striped writes overlap in simulated time");
        let (d0, rt0) = read_page(&noftl, obj, 0, t0).unwrap();
        let (d1, rt1) = read_page(&noftl, obj, 1, t0).unwrap();
        assert_eq!(d0, page(0xA0));
        assert_eq!(d1, page(0xA1));
        assert_eq!(rt0, rt1, "reads on disjoint dies overlap too");
        let rs = noftl.region_stats(r).unwrap();
        assert_eq!(rs.host_writes, 2);
        assert_eq!(rs.host_reads, 2);
        // Each of them was exactly one device command.
        assert_eq!(noftl.device().stats().total_ops(), 4);
    }

    #[test]
    fn read_of_unwritten_page_fails_before_reaching_the_device() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        assert!(matches!(
            read_page(&noftl, obj, 5, SimTime::ZERO),
            Err(NoFtlError::PageNotWritten { page: 5, .. })
        ));
        let stats = noftl.device().stats();
        assert_eq!((stats.total_ops(), stats.errors), (0, 0));
    }

    /// The single path: every verb costs one device command per page.
    #[test]
    fn every_verb_is_one_device_command_per_page() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let submitted = || noftl.device().stats().total_ops();
        let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        assert_eq!(submitted(), 1, "write");
        let (_, t) = read_page(&noftl, obj, 0, t).unwrap();
        assert_eq!(submitted(), 2, "read");
        let batch = vec![(obj, 0u64, page(2)), (obj, 1u64, page(2))];
        write_pages(&noftl, &batch, t, 2).unwrap();
        assert_eq!(submitted(), 4, "execute");
    }

    /// A read the device fails is not a served read: neither the object's
    /// counter nor the region's statistics may move.
    #[test]
    fn failed_read_counts_nowhere() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
        read_page(&noftl, obj, 0, t).unwrap();
        raw_device(&noftl).arm_power_cut(noftl.device().quiesce_time());
        let later = noftl.device().quiesce_time() + flash_sim::Duration(1_000);
        let err = read_page(&noftl, obj, 0, later).unwrap_err();
        assert!(matches!(err, NoFtlError::Flash(e) if e.is_power_loss()));
        assert_eq!(noftl.object_stats(obj).unwrap().reads, 1);
        let rs = noftl.region_stats(r).unwrap();
        assert_eq!((rs.host_reads, rs.host_writes), (1, 1));
    }

    /// A request that fails does not stop the ones behind it: the rest of
    /// a batch is still issued and its successes are committed.
    #[test]
    fn a_failing_request_does_not_stop_the_pipeline() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let data = page(7);
        let requests = [
            IoRequest::write(obj, 0, &data),
            IoRequest::read(obj, 9),
            IoRequest::write(obj, 1, &data),
        ];
        for window in [1, usize::MAX] {
            let err = noftl.execute(requests, SimTime::ZERO, window, |_, _| Ok(())).unwrap_err();
            assert!(matches!(err, NoFtlError::PageNotWritten { page: 9, .. }));
            let t = noftl.device().quiesce_time();
            assert_eq!(read_page(&noftl, obj, 1, t).unwrap().0, data, "window {window}");
        }
        // A failing `on_read` fails its read the same way.
        let mut seen = Vec::new();
        let reads = [IoRequest::read(obj, 0), IoRequest::read(obj, 1)];
        let t = noftl.device().quiesce_time();
        let err = noftl
            .execute(reads, t, 1, |req, _| {
                seen.push(req.page);
                match req.page {
                    0 => Err(NoFtlError::Kv { message: "undecodable".into() }),
                    _ => Ok(()),
                }
            })
            .unwrap_err();
        assert!(matches!(err, NoFtlError::Kv { .. }));
        assert_eq!(seen, [0, 1], "the read behind it still reaches the caller");
    }

    /// `execute` mixes directions and forces classes per request; reads
    /// come back in request order.
    #[test]
    fn execute_runs_mixed_requests_and_forces_classes() {
        let device = Arc::new(
            DeviceBuilder::new(FlashGeometry::small_test())
                .timing(TimingModel::mlc_2015())
                .arbiter(flash_sim::ArbiterConfig::default())
                .build(),
        );
        let noftl = NoFtl::new(device, NoFtlConfig::default());
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(2)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let (a, b) = (page(0xA), page(0xB));
        let background = Some(ServiceClass::Background);
        let writes = [IoRequest::write(obj, 0, &a), IoRequest::write(obj, 1, &b)];
        let mut payloads = Vec::new();
        let mut keep = |req: &IoRequest<'_>, data: &[u8]| {
            payloads.push((req.page, data.to_vec()));
            Ok(())
        };
        let t = noftl.execute(writes, SimTime::ZERO, 2, &mut keep).unwrap();
        let mixed = [
            IoRequest::read(obj, 1).with_class(background),
            IoRequest::write(obj, 2, &a).with_class(background),
            IoRequest::read(obj, 0),
        ];
        let done = noftl.execute(mixed, t, 1, &mut keep).unwrap();
        assert_eq!(payloads, vec![(1, b), (0, a.clone())], "writes yield no payloads");
        assert_eq!(read_page(&noftl, obj, 2, done).unwrap().0, a);
        let class_ops = |class: &str| {
            let name = format!("flash.arbiter.class.{class}.ops");
            noftl.metrics_snapshot().counter(&name).unwrap_or(0)
        };
        assert_eq!(class_ops("background"), 2);
        assert_eq!(class_ops("latency"), 4);
    }

    #[test]
    fn queued_batch_beats_sequential_submission() {
        // The acceptance check of batched issue at the storage-manager
        // level: a batch fanned over a 4-die region must
        // finish in less simulated time than the same writes submitted
        // sequentially (each issued only after the previous completed).
        let make = || {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::mlc_2015())
                    .build(),
            );
            let noftl = NoFtl::new(device, NoFtlConfig::default());
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            (noftl, obj)
        };
        let writes: Vec<(ObjectId, u64, Vec<u8>)> =
            (0..8u64).map(|i| (0, i, page(i as u8))).collect();

        let (queued, obj) = make();
        let batch: Vec<_> = writes.iter().map(|(_, p, d)| (obj, *p, d.clone())).collect();
        let queued_done = write_pages(&queued, &batch, SimTime::ZERO, usize::MAX).unwrap();

        let (serial, obj) = make();
        let mut serial_done = SimTime::ZERO;
        for (_, p, d) in &writes {
            serial_done = serial.write(obj, *p, d, serial_done).unwrap();
        }
        assert!(
            queued_done < serial_done,
            "8 queued writes over 4 dies ({queued_done}) must beat sequential ({serial_done})"
        );
        // All four dies took part.
        let ds = queued.device().die_stats();
        assert_eq!(ds.iter().filter(|d| d.ops > 0).count(), 4);
        // Data identical either way.
        for (_, p, d) in &writes {
            assert_eq!(&read_page(&queued, obj, *p, queued_done).unwrap().0, d);
            assert_eq!(&read_page(&serial, obj, *p, serial_done).unwrap().0, d);
        }
    }

    #[test]
    fn a_window_of_zero_is_a_window_of_one() {
        let run = |window| {
            let noftl = make_noftl();
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let writes: Vec<_> = (0..6u64).map(|p| (obj, p, page(p as u8))).collect();
            let done = write_pages(&noftl, &writes, SimTime::ZERO, window).unwrap();
            for (_, p, data) in &writes {
                assert_eq!(&read_page(&noftl, obj, *p, done).unwrap().0, data);
            }
            done
        };
        assert_eq!(run(0), run(1));
    }

    #[test]
    fn read_windowed_matches_blocking_reads_and_overlaps_dies() {
        let noftl = make_noftl();
        let r = noftl.create_region(RegionSpec::named("rg").with_die_count(4)).unwrap();
        let obj = noftl.create_object("t", r).unwrap();
        let writes: Vec<(ObjectId, u64, Vec<u8>)> =
            (0..16u64).map(|p| (obj, p, page(p as u8))).collect();
        let t = write_pages(&noftl, &writes, SimTime::ZERO, usize::MAX).unwrap();

        let reads: Vec<(ObjectId, u64)> = (0..16u64).map(|p| (obj, p)).collect();
        let (payloads, done) = read_pages(&noftl, &reads, t, 8).unwrap();
        let windowed_span = done - t;

        // Sequential baseline on the now-idle device: each read issued at
        // the previous completion, so nothing overlaps.
        let mut seq_clock = done;
        let mut blocking = Vec::new();
        for p in 0..16u64 {
            let (data, fin) = read_page(&noftl, obj, p, seq_clock).unwrap();
            blocking.push(data);
            seq_clock = fin;
        }
        let sequential_span = seq_clock - done;

        assert_eq!(payloads.len(), 16);
        for (p, data) in payloads.iter().enumerate() {
            assert_eq!(data, &blocking[p], "payload order must match request order");
        }
        // With 4 dies and window 8 the fetches overlap: strictly faster
        // than the chained sequential baseline.
        assert!(
            windowed_span < sequential_span,
            "windowed {windowed_span:?} vs sequential {sequential_span:?}"
        );

        // An unwritten page fails the whole batch and leaks no pending IO.
        let err = read_pages(&noftl, &[(obj, 99)], t, 4).unwrap_err();
        assert!(matches!(err, NoFtlError::PageNotWritten { .. }));
    }

    mod service_class_audit {
        use super::*;
        use flash_sim::ArbiterConfig;

        fn make_arbiter_noftl(config: NoFtlConfig) -> NoFtl {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::mlc_2015())
                    .arbiter(ArbiterConfig::default())
                    .build(),
            );
            NoFtl::new(device, config)
        }

        fn counter(noftl: &NoFtl, name: &str) -> u64 {
            noftl.device().metrics().counter(name).get()
        }

        #[test]
        fn host_io_carries_the_region_class() {
            let noftl = make_arbiter_noftl(NoFtlConfig::default());
            let r = noftl
                .create_region(
                    RegionSpec::named("rgOltp")
                        .with_die_count(1)
                        .with_service_class(ServiceClass::Latency),
                )
                .unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
            read_page(&noftl, obj, 0, t).unwrap();
            assert_eq!(counter(&noftl, "flash.arbiter.class.latency.ops"), 2);
            assert_eq!(counter(&noftl, "flash.arbiter.class.background.ops"), 0);
        }

        #[test]
        fn unclassed_regions_are_foreground() {
            let noftl = make_arbiter_noftl(NoFtlConfig::default());
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
            assert_eq!(counter(&noftl, "flash.arbiter.class.latency.ops"), 1);
            assert_eq!(counter(&noftl, "flash.arbiter.class.background.ops"), 0);
        }

        #[test]
        fn gc_relocations_are_tagged_background_regardless_of_region_class() {
            let noftl = make_arbiter_noftl(NoFtlConfig::default());
            let r = noftl
                .create_region(
                    RegionSpec::named("rg")
                        .with_die_count(2)
                        .with_service_class(ServiceClass::Latency),
                )
                .unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let geo = *noftl.device().geometry();
            let working_set = 2 * geo.pages_per_die() * 6 / 10;
            let mut t = SimTime::ZERO;
            for p in 0..working_set {
                t = noftl.write(obj, p, &page(p as u8), t).unwrap();
            }
            // Overwrite only the even pages so every victim block keeps
            // valid odd pages that GC must relocate (not just erase).
            for round in 0..8u8 {
                for p in (0..working_set).step_by(2) {
                    t = noftl.write(obj, p, &page(round.wrapping_add(p as u8)), t).unwrap();
                }
            }
            let rs = noftl.region_stats(r).unwrap();
            assert!(rs.gc_runs > 0, "workload must trigger GC");
            assert!(rs.gc_copybacks > 0, "GC must relocate live pages");
            // GC victim scans are metadata reads tagged Background even
            // though the region itself is Latency class.
            assert!(counter(&noftl, "flash.arbiter.class.background.ops") > 0);
            assert!(counter(&noftl, "flash.arbiter.class.latency.ops") > 0);
        }

        #[test]
        fn checkpoint_chunks_are_foreground() {
            let noftl = make_arbiter_noftl(NoFtlConfig::default());
            let r = noftl.create_region(RegionSpec::named("rg").with_die_count(1)).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let t = noftl.write(obj, 0, &page(1), SimTime::ZERO).unwrap();
            let before = counter(&noftl, "flash.arbiter.class.latency.ops");
            let t = noftl.checkpoint(t).unwrap();
            let after_ckpt = counter(&noftl, "flash.arbiter.class.latency.ops");
            assert!(after_ckpt > before, "checkpoint chunk programs are foreground");
            assert_eq!(counter(&noftl, "flash.arbiter.class.background.ops"), 0);
            assert_eq!(counter(&noftl, "flash.arbiter.deferred"), 0);
            // Further checkpoints keep riding the __noftl_meta region in
            // the foreground.
            let t = noftl.write(obj, 1, &page(2), t).unwrap();
            noftl.checkpoint(t).unwrap();
            assert!(counter(&noftl, "flash.arbiter.class.latency.ops") > after_ckpt);
            assert_eq!(counter(&noftl, "flash.arbiter.class.background.ops"), 0);
            assert_eq!(counter(&noftl, "flash.arbiter.deferred"), 0);
        }

        /// With every die in a region, the journal falls back to the
        /// `Background` region, whose channel budget its own host reads
        /// have drained: the checkpoint chunks still issue undeferred.
        #[test]
        fn a_checkpoint_into_a_drained_background_region_is_not_deferred() {
            let noftl = make_arbiter_noftl(NoFtlConfig::default());
            let oltp = RegionSpec::named("rgOltp")
                .with_die_count(2)
                .with_service_class(ServiceClass::Latency);
            noftl.create_region(oltp).unwrap();
            let bulk = RegionSpec::named("rgBulk")
                .with_die_count(2)
                .with_service_class(ServiceClass::Background);
            let r = noftl.create_region(bulk).unwrap();
            let obj = noftl.create_object("t", r).unwrap();
            let writes: Vec<_> = (0..4u64).map(|p| (obj, p, page(p as u8))).collect();
            let t = write_pages(&noftl, &writes, SimTime::ZERO, usize::MAX).unwrap();
            // A same-instant burst of reads overdraws the budget on every
            // channel the region spans.
            let reads: Vec<_> = (0..160u64).map(|p| (obj, p % 4)).collect();
            read_pages(&noftl, &reads, t, usize::MAX).unwrap();
            let deferred = counter(&noftl, "flash.arbiter.deferred");
            assert!(deferred > 0, "the burst must drain the region's budget");
            noftl.checkpoint(t).unwrap();
            assert_eq!(noftl.lock_inner().meta.region, Some(r), "the journal falls back to rgBulk");
            assert_eq!(
                counter(&noftl, "flash.arbiter.deferred"),
                deferred,
                "checkpoint chunks are never budget-deferred"
            );
        }
    }
}
