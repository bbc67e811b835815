//! Acceptance sweep: a two-way mirror under NoFTL loses a child (its own
//! power cut) while the crash driver cuts the whole box; no acknowledged
//! write may be lost, and a rebuild copies only what the child missed.
//!
//! Each seed's [`Plan`] draws healthy writes and a checkpoint; the child's
//! cut, before the first degraded write or inside the first or the last
//! (the child tears it, its sibling acknowledges it); degraded writes and
//! maybe a checkpoint; maybe a rebuild and more writes; whether the lost
//! child stays absent across reboots, and whether the recovery mount is
//! torn.  Recovery reads every page, rebuilds every stale child and reads
//! every page again.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use common::Mirror;
use flash_sim::{Duration, FlashError, OpKind, SimTime};
use noftl_core::crash::{self, Contract, DryRun, Ledger, SplitMix64, Stack};
use noftl_core::{NoFtl, NoFtlError, ObjectId};
use noftl_mirror::{ChildHealth, MirrorDevice};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEEDS: u64 = 25;
const PAGES: u64 = 24;
/// How far into a write the child's cut lands in the in-flight modes.
const IN_FLIGHT: Duration = Duration(100_000);

/// Page → the byte its 4 KiB hold.
type World = BTreeMap<u64, u8>;

/// One step of a workload after its setup.
#[derive(Clone, Copy)]
enum Step {
    /// Cut the lost child's power this long after the next write issues.
    Lose(Duration),
    Write(u64, u8),
    Checkpoint,
    /// Reattach the lost child and rebuild it.
    Rebuild,
}

/// One seed's workload: the mirror's crash contract.
struct Plan {
    healthy: Vec<(u64, u8)>,
    lost: usize,
    steps: Vec<Step>,
    absent: bool,
    /// The children's lags behind the cut of a torn recovery mount.
    torn: Option<Vec<Duration>>,
}

impl Plan {
    /// The workload of `seed`: every third seed the child's cut lands
    /// inside the first degraded write, every third inside the last.
    fn new(seed: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed);
        let writes = |rng: &mut StdRng, range: std::ops::Range<u32>| {
            let n = rng.random_range(range);
            let mut write = || (rng.random_range(0..PAGES), rng.random_range(1..=255u32) as u8);
            (0..n).map(|_| write()).collect::<Vec<_>>()
        };
        let healthy = writes(&mut rng, 10..30u32);
        let lost = rng.random_range(0..2usize);
        let mut steps: Vec<Step> =
            writes(&mut rng, 5..20u32).into_iter().map(|(p, v)| Step::Write(p, v)).collect();
        let cut_inside = [None, Some(0), Some(steps.len() - 1)][(seed % 3) as usize];
        let lose = Step::Lose(cut_inside.map_or(Duration::ZERO, |_| IN_FLIGHT));
        steps.insert(cut_inside.unwrap_or(0), lose);
        steps.extend((rng.random_range(0..100) < 50).then_some(Step::Checkpoint));
        if rng.random_range(0..100) < 60 {
            steps.push(Step::Rebuild);
            steps.extend(writes(&mut rng, 1..6u32).into_iter().map(|(p, v)| Step::Write(p, v)));
        }
        let absent = rng.random_range(0..100) < 30;
        let torn = (rng.random_range(0..100) < 40)
            .then(|| (0..2).map(|_| Duration(rng.random_range(1_000..100_000u64))).collect());
        Plan { healthy, lost, steps, absent, torn }
    }
}

/// What a run did besides committing writes.
#[derive(Default)]
struct Run {
    acked: u64,
    /// The child lost power inside a write its sibling acknowledged.
    in_flight_cut: bool,
    /// The box cut landed inside the rebuild.
    rebuild_cut: bool,
}

/// What recovery did before it read the pages again.
#[derive(Default)]
struct Rebuilt {
    /// A child booted without power.
    absent: bool,
    segments_copied: u64,
}

fn violation(message: &str) -> NoFtlError {
    NoFtlError::Recovery { message: message.into() }
}

/// Every page of `obj` at `at`, and when the reads completed.
fn read_all(noftl: &NoFtl, obj: ObjectId, mut at: SimTime) -> Result<(World, SimTime), NoFtlError> {
    let mut world = World::new();
    let mut data = vec![0; 4096];
    for page in 0..PAGES {
        match noftl.read(obj, page, &mut data, at) {
            Ok(done) if data.iter().all(|&b| b == data[0]) => {
                world.insert(page, data[0]);
                at = at.max(done);
            }
            Ok(_) => return Err(violation(&format!("page {page} reads mixed bytes"))),
            Err(NoFtlError::PageNotWritten { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok((world, at))
}

impl Contract for Plan {
    type Machine = Mirror;
    type Engine = ObjectId;
    type World = World;
    type Report = Run;
    type Recovery = Rebuilt;
    type Error = NoFtlError;

    /// A fresh box, the healthy writes and their checkpoint.
    fn build(&self) -> Result<Stack<Mirror, ObjectId>, NoFtlError> {
        let mut machine = Mirror::fresh();
        machine.absent = self.absent.then_some(self.lost);
        machine.stagger = self.torn.clone().unwrap_or_else(|| vec![Duration::ZERO; 2]);
        let (noftl, rid) = NoFtl::with_single_region(machine.device.clone())?;
        let obj = noftl.create_object("t", rid)?;
        let mut t = SimTime(1_000);
        for &(page, val) in &self.healthy {
            t = noftl.write(obj, page, &[val; 4096], t)?;
        }
        let setup_end = noftl.checkpoint(t)?;
        Ok(Stack { machine, noftl: Arc::new(noftl), engine: obj, setup_end })
    }

    /// Take the steps until the box loses power; every acknowledged write
    /// commits.
    fn run(
        &self,
        stack: &Stack<Mirror, ObjectId>,
        ledger: &mut Ledger<World>,
    ) -> Result<(SimTime, Run), NoFtlError> {
        let (machine, noftl, obj) = (&stack.machine, &stack.noftl, stack.engine);
        let mut world: World = self.healthy.iter().copied().collect();
        ledger.commit(world.clone());
        let (mut t, mut run, mut child_cut) = (stack.setup_end, Run::default(), None);
        for &step in &self.steps {
            let done = match step {
                Step::Lose(after) => {
                    machine.lose(self.lost, t + after);
                    child_cut = (after > Duration::ZERO).then_some(t + after);
                    continue;
                }
                Step::Write(page, val) => {
                    world.insert(page, val);
                    noftl.write(obj, page, &[val; 4096], t)
                }
                Step::Checkpoint => noftl.checkpoint(t),
                Step::Rebuild => {
                    let (mirror, child) = (&machine.device, self.lost);
                    let rebuilt = machine.reattach(child, t).and_then(|()| {
                        mirror.start_rebuild(child, t)?;
                        let rebuilt = mirror.rebuild(child, t);
                        run.rebuild_cut = rebuilt.as_ref().is_err_and(FlashError::is_power_loss);
                        rebuilt
                    });
                    rebuilt.map(|report| t.max(report.completed_at)).map_err(NoFtlError::from)
                }
            };
            match done {
                Ok(done) => t = done,
                Err(NoFtlError::Flash(e)) if e.is_power_loss() => {
                    ledger.cut(matches!(step, Step::Write(..)).then_some(world), e);
                    return Ok((t, run));
                }
                Err(e) => return Err(e),
            }
            if let Step::Write(..) = step {
                ledger.commit(world.clone());
                run.acked += 1;
                let lost = machine.device.health(self.lost) == ChildHealth::Faulted;
                run.in_flight_cut |= child_cut.take().is_some_and(|cut| cut < t && lost);
            }
        }
        Ok((t, run))
    }

    /// Read every page, rebuild every stale child, and read every page
    /// again: the rebuilt mirror must serve the same world.
    fn recover(&self, noftl: Arc<NoFtl>, at: SimTime) -> Result<(Rebuilt, World), NoFtlError> {
        let mirror = noftl.device().as_any().downcast_ref::<MirrorDevice>();
        let mirror = mirror.ok_or_else(|| violation("the box mounted no mirror"))?;
        let obj = noftl.object_id("t").ok_or_else(|| violation("the mount lost `t`"))?;
        let (world, mut t) = read_all(&noftl, obj, at)?;
        let mut rebuilt = Rebuilt::default();
        for child in (0..2).filter(|&c| mirror.health(c) != ChildHealth::Online) {
            let device = &mirror.children()[child];
            rebuilt.absent |= device.power_cut().is_some();
            device.clear_power_cut();
            let dirty = mirror.dirty_segments(child);
            mirror.start_rebuild(child, t)?;
            let report = mirror.rebuild(child, t)?;
            let copied = report.segments_copied;
            if copied != dirty {
                return Err(violation(&format!("child {child}: copied {copied} of {dirty}")));
            }
            rebuilt.segments_copied += copied;
            t = t.max(report.completed_at);
        }
        if !mirror.fully_online() || read_all(&noftl, obj, t)?.0 != world {
            return Err(violation("the rebuilt mirror serves another world"));
        }
        Ok((rebuilt, world))
    }

    fn torn_mounts(&self) -> Vec<(Duration, Duration)> {
        self.torn.iter().map(|_| (Duration::ZERO, Duration(1_000_000))).collect()
    }
}

/// What a sweep's cycles exercised.
#[derive(Debug, Default)]
struct Tally {
    cuts: usize,
    in_copyback: usize,
    acked: u64,
    torn_mounts: u64,
    rebuild_cuts: u64,
    absent_boots: u64,
    in_flight_cuts: u64,
    segments_copied: u64,
}

/// Sweep the cuts `pick` takes from each seed's dry run.  Fails on any
/// violation, and when a failure mode went unexercised.
#[expect(clippy::unwrap_used, reason = "a test helper: a failed step fails the test")]
fn sweep_seeds(mut pick: impl FnMut(&DryRun<Plan>) -> Vec<crash::Cut>) {
    let (started, mut tally, mut violations) = (Instant::now(), Tally::default(), Vec::new());
    for seed in 0..SEEDS {
        let plan = Plan::new(seed);
        let cuts = pick(&crash::dry_run(&plan).unwrap());
        tally.cuts += cuts.len();
        let copyback = |cut: &&crash::Cut| cut.command.is_some_and(|c| c.kind == OpKind::Copyback);
        tally.in_copyback += cuts.iter().filter(copyback).count();
        let found = crash::sweep(&plan, &cuts, |outcome| {
            tally.acked += outcome.report.acked;
            tally.torn_mounts += outcome.torn_mounts;
            tally.rebuild_cuts += u64::from(outcome.report.rebuild_cut);
            tally.absent_boots += u64::from(outcome.recovery.absent);
            tally.in_flight_cuts += u64::from(outcome.report.in_flight_cut);
            tally.segments_copied += outcome.recovery.segments_copied;
        });
        violations.extend(found.into_iter().map(|v| (seed, v)));
    }
    let (secs, found) = (started.elapsed().as_secs_f64(), violations.len());
    println!("{SEEDS} seeds in {secs:.1} s, {found} violations: {tally:?}");
    assert!(violations.is_empty(), "{violations:#?}");
    assert!(tally.torn_mounts > 0, "no cycle crashed during mount");
    assert!(tally.rebuild_cuts > 0, "no cut landed mid-rebuild");
    assert!(tally.absent_boots > 0, "no cycle booted with the child still absent");
    assert!(tally.in_flight_cuts > 0, "no child cut landed inside an acknowledged write");
}

/// A uniform draw per seed, and its command's completion: a write that has
/// just landed on the survivor alone is where a lost write's epoch tie shows.
#[test]
fn randomized_loss_and_crash_sweep_loses_no_acknowledged_write() {
    let mut rng = SplitMix64(0x5EED_C0DE);
    sweep_seeds(|dry| {
        let cut = dry.cut_at((rng.next_u64() % 1_000) as f64 / 1_000.0);
        vec![cut, crash::Cut { at: cut.command.map_or(cut.at, |c| c.done), ..cut }]
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a crash cycle at every command of 25 workloads")]
fn every_cut_point_loses_no_acknowledged_write() {
    sweep_seeds(crash::cut_points);
}
