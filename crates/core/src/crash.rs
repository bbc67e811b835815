//! The crash driver: dry run → cut → power cycle → mount → verify.
//!
//! Under NoFTL the storage manager owns recovery: an OOB record is the
//! persistent mapping and a mount scan rebuilds the space.  "An
//! acknowledged write survives a power cut" is therefore a property of
//! this workspace, and every crash test checks it with the same loop.  A
//! [`Contract`] supplies only what is stack-specific:
//!
//! 1. **build** machine → manager → engine, finishing the setup with a
//!    checkpoint;
//! 2. **run** the workload, recording every acknowledged commit — and the
//!    operation in flight when the machine failed — in a [`Ledger`];
//! 3. **recover**: reopen the engine on the remounted manager and read the
//!    recovered world back, with one check of its own.
//!
//! The machine is a [`Bootable`]: one device, or a mirror of several.
//! The driver owns the rest, and [`sweep`] is its one way to cut power.
//! The simulator is deterministic, so one [`dry_run`] per workload learns
//! its span and its device commands, and every cut of that workload is
//! taken from it: [`cut_points`] lists every instant a command can be cut
//! at, and [`DryRun::cut_at`] maps a random draw to an instant and the
//! command it falls in.  For each [`Cut`] the sweep rebuilds an identical
//! stack, arms the cut on its machine, runs the workload into it,
//! reboots the machine from its persistent state (a device from its
//! image bytes, [`power_cycle`]) and [`mount`]s it, surviving the cuts a
//! contract lands during the mount itself.  After the contract recovers,
//! it verifies that
//!
//! * the manager has the regions and objects it had before the cut: the
//!   mount lost none ([`check_mounted`]) and recovery left no phantom
//!   ([`check_recovered`]);
//! * the recovered world equals the committed world or, when a commit or
//!   flush was in flight, the in-flight world.
//!
//! A violation is an `Err` naming it, never a panic, and a sweep returns
//! every one.  A power cut is the only fault the driver knows, and the
//! only one of the workspace: a mirror loses a child when that child's
//! power is cut (`NandDevice::arm_power_cut` on one child), and learns of
//! it from the child's own `PowerLoss`.  Its workload cuts the child; the
//! driver's cut takes the whole box.

use std::sync::Arc;

use flash_sim::{Duration, FlashBackend, NandDevice, OpKind, SimTime};

use crate::recovery::ORPHAN_PREFIX;
use crate::{MountReport, NoFtl, NoFtlError};

/// Results of the storage manager, or of a contract's own error type.
type Result<T, E = NoFtlError> = std::result::Result<T, E>;

/// Deterministic SplitMix64: the one generator the crash workloads and
/// the workspace's property loops draw from.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw below `bound` (always `0` for a bound of `0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

/// A manager's directory by name, in id order: `region <name>` for each
/// of its regions, `object <name>` for each of its objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Directory(Vec<String>);

impl Directory {
    /// The directory `noftl` holds now.
    pub fn of(noftl: &NoFtl) -> Directory {
        let regions = noftl.region_ids().into_iter().filter_map(|rid| noftl.region_name(rid).ok());
        let objects = noftl.all_object_stats().into_iter().map(|stats| stats.name);
        let regions = regions.map(|name| format!("region {name}"));
        let objects = objects.map(|name| format!("object {name}"));
        Directory(regions.chain(objects).collect())
    }
}

/// Check that the mount lost no region or object: each one that both
/// `committed` (the last acknowledged commit) and `at_cut` (the manager
/// when power failed) name is back in `noftl`.
///
/// A mount takes the directory from the newest complete checkpoint.  That
/// is the last commit's or a later one, and no checkpoint in between can
/// lack a name the manager still had at the cut.
pub fn check_mounted(noftl: &NoFtl, committed: &Directory, at_cut: &Directory) -> Result<()> {
    let Directory(now) = Directory::of(noftl);
    let lost: Vec<_> =
        committed.0.iter().filter(|name| at_cut.0.contains(name) && !now.contains(name)).collect();
    if lost.is_empty() {
        return Ok(());
    }
    Err(violation(format!("the mount lost {lost:?}")))
}

/// Check that recovery left no phantom in `noftl`: every region and
/// object is one `at_cut` named or, when `ddl` (the run created or
/// dropped an object after the setup), an orphan (`__orphan_<id>`, an
/// object created after the newest checkpoint).  Without such DDL a mount
/// has nothing to orphan: an orphan there is a scan that misread a page.
///
/// Between the last commit and the cut an operation may have created,
/// checkpointed and retired names the manager no longer had at the cut;
/// the engine's reopen must retire them again.
pub fn check_recovered(noftl: &NoFtl, at_cut: &Directory, ddl: bool) -> Result<()> {
    let Directory(now) = Directory::of(noftl);
    let orphan = |name: &str| {
        ddl && name.strip_prefix("object ").is_some_and(|n| n.starts_with(ORPHAN_PREFIX))
    };
    let phantom: Vec<_> = now.iter().filter(|n| !orphan(n) && !at_cut.0.contains(n)).collect();
    if phantom.is_empty() {
        return Ok(());
    }
    Err(violation(format!("recovery left {phantom:?}, unknown at the cut")))
}

/// What a workload run leaves for the driver to verify.
pub struct Ledger<W> {
    noftl: Arc<NoFtl>,
    /// The world as of the last acknowledged commit.
    pub committed: W,
    setup: Directory,
    directory: Directory,
    in_flight: Option<W>,
    /// The error the run stopped at, once the device failed.
    cut: Option<String>,
}

impl<W: Default> Ledger<W> {
    /// An empty ledger over `noftl`, whose directory counts as committed.
    pub fn new(noftl: &Arc<NoFtl>) -> Ledger<W> {
        let setup = Directory::of(noftl);
        let directory = setup.clone();
        let noftl = Arc::clone(noftl);
        Ledger { noftl, committed: W::default(), setup, directory, in_flight: None, cut: None }
    }

    /// A commit was acknowledged: `world`, and the manager's directory as
    /// it stands, are durable from here on.
    pub fn commit(&mut self, world: W) {
        self.committed = world;
        self.directory = Directory::of(&self.noftl);
    }

    /// The device failed under the workload with `cause`.  `in_flight` is
    /// the world with the interrupted operation applied, when its commit
    /// or flush may have landed before the power went out.
    pub fn cut(&mut self, in_flight: Option<W>, cause: impl std::fmt::Display) {
        self.in_flight = in_flight;
        self.cut = Some(cause.to_string());
    }
}

/// A freshly built stack.
pub struct Stack<M, E> {
    /// The machine the cut is armed on.
    pub machine: M,
    /// The storage manager on it.
    pub noftl: Arc<NoFtl>,
    /// The engine over the manager.
    pub engine: E,
    /// End of the setup: the workload starts here.
    pub setup_end: SimTime,
}

/// What one stack under crash test supplies to the driver.
pub trait Contract {
    /// The machine the manager runs on: one device, or a mirror.
    type Machine: Bootable;
    /// The engine over the storage manager.
    type Engine;
    /// The application-visible state a run commits and recovery restores.
    type World: Default + PartialEq;
    /// What a run reports besides its worlds (counts, time windows).
    type Report;
    /// What recovery reports.
    type Recovery;
    /// The contract's error; the driver reports violations as
    /// [`NoFtlError::Recovery`].
    type Error: From<NoFtlError>;

    /// Build machine → manager → engine on a fresh machine and run the
    /// setup, ending in a checkpoint.
    fn build(&self) -> Result<Stack<Self::Machine, Self::Engine>, Self::Error>;

    /// Run the workload on `stack` until it ends or the machine fails,
    /// recording commits and the cut in `ledger`.  Returns the instant it
    /// stopped and its report; an `Err` is a violation, not a cut.
    fn run(
        &self,
        stack: &Stack<Self::Machine, Self::Engine>,
        ledger: &mut Ledger<Self::World>,
    ) -> Result<(SimTime, Self::Report), Self::Error>;

    /// Reopen the engine on the remounted manager at `at` and read the
    /// recovered world back, with the contract's own consistency check.
    fn recover(
        &self,
        noftl: Arc<NoFtl>,
        at: SimTime,
    ) -> Result<(Self::Recovery, Self::World), Self::Error>;

    /// The recovery mounts that lose power before one succeeds, as
    /// [`mount`] takes them.
    fn torn_mounts(&self) -> Vec<(Duration, Duration)> {
        Vec::new()
    }
}

/// One device command of a dry run: its kind, issue and completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Command {
    /// What the command does.
    pub kind: OpKind,
    /// When it was issued.
    pub issue: SimTime,
    /// When it completed.
    pub done: SimTime,
}

/// The uncut workload: when it ended, what it did, and the stack it ran
/// on.
pub struct DryRun<C: Contract> {
    /// End of the workload, machine quiesced.
    pub end: SimTime,
    /// Every device command of the workload (the setup's excluded), in
    /// host order.
    pub commands: Vec<Command>,
    /// The stack after the workload; the workload starts at its
    /// `setup_end`.
    pub stack: Stack<C::Machine, C::Engine>,
    /// The world as of the last acknowledged commit.
    pub committed: C::World,
    /// The run's report.
    pub report: C::Report,
}

impl<C: Contract> DryRun<C> {
    /// The cut at `stack.setup_end + fraction · span`, `fraction` clamped to
    /// `[0, 1)`.  It names the first command, in host order, not complete
    /// at that instant: one the cut interrupts or, in an idle gap, the
    /// next to issue (the last command when every one has completed, and
    /// none when the dry run issued none).
    pub fn cut_at(&self, fraction: f64) -> Cut {
        let start = self.stack.setup_end.as_nanos();
        let span = self.end.as_nanos().saturating_sub(start).max(1);
        let at = SimTime(start + (span as f64 * fraction.clamp(0.0, 0.999_999)) as u64);
        let open = self.commands.iter().find(|command| at < command.done);
        Cut { at, command: open.or(self.commands.last()).copied() }
    }
}

/// One verified crash cycle.
pub struct Outcome<C: Contract> {
    /// The armed power-cut instant.
    pub cut_at: SimTime,
    /// The cut run's report.
    pub report: C::Report,
    /// The world as of the last acknowledged commit.
    pub committed: C::World,
    /// Whether a commit or flush was in flight at the cut.
    pub cut_in_flight: bool,
    /// Whether recovery brought back the in-flight world.
    pub in_flight_survived: bool,
    /// The recovered world.
    pub recovered: C::World,
    /// The storage-manager mount summary.
    pub mount: MountReport,
    /// Recovery mounts a power cut interrupted.
    pub torn_mounts: u64,
    /// The contract's recovery report.
    pub recovery: C::Recovery,
}

fn violation(message: String) -> NoFtlError {
    NoFtlError::Recovery { message }
}

/// Run the workload once without a cut.  A dry run that stops at a
/// device error is an error.
///
/// The machine's commands are read off the tracer of its metrics
/// registry, which holds one `flash.op` span per completed command, named
/// after its kind, so the device keeps no record of its own.  A workload
/// whose events overflow the tracer's ring is an error: its command list
/// would miss the oldest.
pub fn dry_run<C: Contract>(contract: &C) -> Result<DryRun<C>, C::Error> {
    let stack = contract.build()?;
    let backend = stack.machine.backend();
    let tracer = backend.metrics().tracer();
    let dropped = tracer.dropped();
    tracer.clear();
    tracer.set_enabled(true);
    let mut ledger = Ledger::new(&stack.noftl);
    let (stopped, report) = contract.run(&stack, &mut ledger)?;
    if let Some(cause) = ledger.cut {
        let at = stopped.as_nanos();
        let message = format!("the dry run failed at {at} ns with no cut armed: {cause}");
        return Err(violation(message).into());
    }
    if tracer.dropped() != dropped {
        let message = format!("the dry run overflowed the tracer's {} events", tracer.capacity());
        return Err(violation(message).into());
    }
    let commands = tracer
        .events()
        .into_iter()
        .filter(|e| e.cat == "flash.op")
        .filter_map(|e| {
            let kind = OpKind::ALL.into_iter().find(|kind| kind.name() == e.name)?;
            Some(Command { kind, issue: SimTime(e.ts_ns), done: SimTime(e.ts_ns + e.dur_ns?) })
        })
        .collect();
    let end = stopped.max(backend.quiesce_time());
    Ok(DryRun { end, commands, stack, committed: ledger.committed, report })
}

/// One power cut of a sweep: its instant, and the dry run's command it
/// cuts.  [`cut_points`] and [`DryRun::cut_at`] make them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// The armed power-cut instant.
    pub at: SimTime,
    /// The command the instant was taken from, if the dry run issued
    /// any.
    pub command: Option<Command>,
}

/// Every instant a command of `dry` can be cut at: its issue (it never
/// starts), its midpoint (it may tear) and its completion (it lands), in
/// time order.  An instant two commands share is listed once, with the
/// first command issued.
pub fn cut_points<C: Contract>(dry: &DryRun<C>) -> Vec<Cut> {
    let mut cuts: Vec<Cut> = dry
        .commands
        .iter()
        .flat_map(|&command| {
            let mid = SimTime((command.issue.as_nanos() + command.done.as_nanos()) / 2);
            [command.issue, mid, command.done].map(|at| Cut { at, command: Some(command) })
        })
        .collect();
    cuts.sort_by_key(|cut| cut.at);
    cuts.dedup_by_key(|cut| cut.at);
    cuts
}

/// A cut whose crash cycle failed its checks.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The cut.
    pub cut: Cut,
    /// What the cycle reported.
    pub message: String,
}

/// Run one crash cycle at each of `cuts` — build, run into the cut,
/// power-cycle, mount, recover, verify — handing each verified outcome to
/// `visit`.  Returns every violation, not only the first.
pub fn sweep<C: Contract>(
    contract: &C,
    cuts: &[Cut],
    mut visit: impl FnMut(&Outcome<C>),
) -> Vec<Violation>
where
    C::Error: std::fmt::Display,
{
    let mut violations = Vec::new();
    for cut in cuts {
        match cycle(contract, cut.at) {
            Ok(outcome) => visit(&outcome),
            Err(e) => violations.push(Violation { cut: *cut, message: e.to_string() }),
        }
    }
    violations
}

/// One crash cycle with the power cut at `cut_at`.
fn cycle<C: Contract>(contract: &C, cut_at: SimTime) -> Result<Outcome<C>, C::Error> {
    let stack = contract.build()?;
    stack.machine.cut_power(cut_at);
    let mut ledger = Ledger::new(&stack.noftl);
    let (_, report) = contract.run(&stack, &mut ledger)?;
    let at_cut = Directory::of(&stack.noftl);
    let mounted = mount(stack.machine.reboot()?, cut_at, &contract.torn_mounts())?;
    check_mounted(&mounted.noftl, &ledger.directory, &at_cut)?;
    let at = mounted.report.completed_at;
    let (recovery, recovered) = contract.recover(Arc::clone(&mounted.noftl), at)?;
    let ddl = ledger.directory != ledger.setup || at_cut != ledger.setup;
    check_recovered(&mounted.noftl, &at_cut, ddl)?;
    let matches_committed = recovered == ledger.committed;
    let matches_in_flight = ledger.in_flight.as_ref() == Some(&recovered);
    if !matches_committed && !matches_in_flight {
        let at = cut_at.as_nanos();
        let message = "recovered state matches neither the committed nor the in-flight world";
        return Err(violation(format!("{message} (cut at {at} ns)")).into());
    }
    Ok(Outcome {
        cut_at,
        report,
        committed: ledger.committed,
        cut_in_flight: ledger.in_flight.is_some(),
        in_flight_survived: matches_in_flight && !matches_committed,
        recovered,
        mount: mounted.report,
        torn_mounts: mounted.torn_mounts,
        recovery,
    })
}

/// The power cycle: image `device` as the cut left it and boot a fresh
/// device from the `NFLIMG04` bytes with the same timing model: each
/// block's bad flag, write pointer, wear, invalid flags, OOB records and
/// programmed pages come back.  The new device has no operation in flight
/// and no cut armed.
pub fn power_cycle(device: &NandDevice) -> Result<Arc<NandDevice>> {
    Ok(Arc::new(NandDevice::from_image(&device.image(), *device.timing())?))
}

/// A machine the driver can cut and power-cycle: one device, or a mirror
/// of several.
pub trait Bootable: Sized {
    /// The backend a manager mounts.  Its metrics registry must see
    /// every command of the machine: a dry run reads them off its tracer
    /// (a mirror's children share one registry).
    fn backend(&self) -> Arc<dyn FlashBackend>;
    /// Arm a power cut of the whole machine at `at`.
    fn cut_power(&self, at: SimTime);
    /// Boot a fresh machine from this one's persistent state, with no
    /// operation in flight.
    fn reboot(&self) -> Result<Self>;
}

impl Bootable for Arc<NandDevice> {
    fn backend(&self) -> Arc<dyn FlashBackend> {
        self.clone()
    }

    fn cut_power(&self, at: SimTime) {
        self.arm_power_cut(at);
    }

    fn reboot(&self) -> Result<Self> {
        power_cycle(self)
    }
}

/// A mounted manager.
pub struct Mounted {
    /// The mounted manager.
    pub noftl: Arc<NoFtl>,
    /// The final mount's summary.
    pub report: MountReport,
    /// Mounts a power cut interrupted before the final one.
    pub torn_mounts: u64,
}

/// Mount `machine` at `at`, surviving the cuts that land during the
/// mount itself; the manager keeps the machine's backend.
///
/// Each `(cut, retry)` of `torn` is one boot that loses power `cut` after
/// its mount starts.  A mount that dies of the cut counts as torn; any
/// other error fails.  Either way the machine is power-cycled, since a
/// failed mount must leave nothing behind that the retry could trip over,
/// and the next mount starts `retry` later.
pub fn mount<M: Bootable>(
    mut machine: M,
    mut at: SimTime,
    torn: &[(Duration, Duration)],
) -> Result<Mounted> {
    let mut torn_mounts = 0;
    for &(cut, retry) in torn {
        machine.cut_power(at + cut);
        match NoFtl::mount(machine.backend(), at) {
            Err(NoFtlError::Flash(e)) if e.is_power_loss() => torn_mounts += 1,
            Err(e) => return Err(e),
            // The cut landed after the scan finished: legal, and the power
            // cycle below discards this instance anyway.
            Ok(_) => {}
        }
        machine = machine.reboot()?;
        at += retry;
    }
    let (noftl, report) = NoFtl::mount(machine.backend(), at)?;
    Ok(Mounted { noftl: Arc::new(noftl), report, torn_mounts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::read_page;
    use crate::{NoFtlConfig, RegionSpec};
    use flash_sim::{DeviceBuilder, FlashGeometry, TimingModel};
    use std::collections::BTreeMap;

    /// How the dry run of [`Pages`] goes wrong, if it does.
    #[derive(Clone, Copy, PartialEq)]
    enum Fail {
        Never,
        /// The contract reports a violation.
        Violation,
        /// The device fails under the workload with no cut armed by the
        /// driver.
        Device,
    }

    /// Page writes into one object of a two-die region; every write
    /// commits.
    struct Pages {
        writes: u64,
        fail: Fail,
    }

    impl Contract for Pages {
        type Machine = Arc<NandDevice>;
        type Engine = ();
        type World = BTreeMap<u64, u8>;
        type Report = ();
        type Recovery = ();
        type Error = NoFtlError;

        fn build(&self) -> Result<Stack<Arc<NandDevice>, ()>, NoFtlError> {
            let device = Arc::new(
                DeviceBuilder::new(FlashGeometry::small_test())
                    .timing(TimingModel::mlc_2015())
                    .build(),
            );
            let noftl = Arc::new(NoFtl::new(device.clone(), NoFtlConfig::default()));
            let rid = noftl.create_region(RegionSpec::named("rg").with_die_count(2))?;
            noftl.create_object("t", rid)?;
            let setup_end = noftl.checkpoint(SimTime::ZERO)?;
            if self.fail == Fail::Device {
                device.arm_power_cut(setup_end);
            }
            Ok(Stack { machine: device, noftl, engine: (), setup_end })
        }

        fn run(
            &self,
            stack: &Stack<Arc<NandDevice>, ()>,
            ledger: &mut Ledger<Self::World>,
        ) -> Result<(SimTime, ()), NoFtlError> {
            if self.fail == Fail::Violation {
                return Err(violation("a reader saw an uncommitted page".into()));
            }
            let obj = stack.noftl.object_id("t").unwrap();
            let mut world = ledger.committed.clone();
            let mut now = stack.setup_end;
            for w in 0..self.writes {
                world.insert(w % 8, w as u8);
                match stack.noftl.write(obj, w % 8, &[w as u8; 4096], now) {
                    Ok(t) => {
                        now = t;
                        ledger.commit(world.clone());
                    }
                    Err(e) => {
                        ledger.cut(Some(world), e);
                        break;
                    }
                }
            }
            Ok((now, ()))
        }

        fn recover(&self, noftl: Arc<NoFtl>, at: SimTime) -> Result<((), Self::World), NoFtlError> {
            let obj = noftl.object_id("t").unwrap();
            let read =
                |page| read_page(&noftl, obj, page, at).ok().map(|(data, _)| (page, data[0]));
            Ok(((), (0..8).filter_map(read).collect()))
        }
    }

    #[test]
    fn splitmix64_draws_the_reference_sequence() {
        let mut rng = SplitMix64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(SplitMix64(7).below(0), 0);
    }

    #[test]
    fn a_dry_run_that_fails_is_an_error_not_a_panic() {
        for fail in [Fail::Violation, Fail::Device] {
            assert!(dry_run(&Pages { writes: 20, fail }).is_err());
        }
    }

    /// A dry run that stops at a device error names that error, not only
    /// the instant.
    #[test]
    fn a_dry_run_that_fails_names_its_cause() {
        let Err(err) = dry_run(&Pages { writes: 20, fail: Fail::Device }) else {
            panic!("the device fails under the workload");
        };
        let message = err.to_string();
        assert!(message.contains("with no cut armed: "), "{message}");
        assert!(message.contains("power lost at t="), "the cause is the power loss: {message}");
    }

    #[test]
    fn cuts_across_the_span_recover_the_committed_or_in_flight_world() {
        let contract = Pages { writes: 40, fail: Fail::Never };
        let dry = dry_run(&contract).unwrap();
        assert!(dry.cut_at(5.0).at < dry.end, "the fraction is clamped below 1");
        assert_eq!(dry.cut_at(-1.0).at, dry.stack.setup_end);
        let cuts: Vec<Cut> =
            [0.0, 0.1, 0.35, 0.6, 0.85, 0.99].into_iter().map(|f| dry.cut_at(f)).collect();
        for cut in &cuts {
            // The writes run back to back, so each draw falls in one.
            let command = cut.command.filter(|c| dry.commands.contains(c));
            assert!(command.is_some_and(|c| c.issue <= cut.at && cut.at < c.done), "{cut:?}");
        }
        let mut survived = 0;
        let violations = sweep(&contract, &cuts, |outcome| {
            assert!(outcome.cut_in_flight, "every cut lands in the write stream");
            survived += u64::from(outcome.in_flight_survived);
            assert!(outcome.mount.checkpoint_seq > 0);
        });
        assert!(violations.is_empty(), "{violations:?}");
        assert!(survived < 6, "a cut that tears its write loses it");
    }

    #[test]
    fn a_sweep_cuts_every_command_and_reports_every_violation() {
        let contract = Pages { writes: 12, fail: Fail::Never };
        let dry = dry_run(&contract).unwrap();
        assert_eq!(dry.commands.len(), 12, "one program per write, none of the setup's");
        let cuts = cut_points(&dry);
        assert!(cuts.windows(2).all(|w| w[0].at < w[1].at), "in time order, once each");
        assert!(dry.commands.len() < cuts.len() && cuts.len() <= 3 * dry.commands.len());
        let within = |cut: &Cut| cut.command.is_some_and(|c| c.issue <= cut.at && cut.at <= c.done);
        assert!(cuts.iter().all(within));
        let mut cycles = 0;
        assert!(sweep(&contract, &cuts, |_| cycles += 1).is_empty());
        assert_eq!(cycles, cuts.len());
        let violations = sweep(&Pages { writes: 12, fail: Fail::Violation }, &cuts, |_| {});
        assert_eq!(violations.len(), cuts.len(), "every violation, not only the first");
        for (violation, cut) in violations.iter().zip(&cuts) {
            assert_eq!(violation.cut, *cut);
            assert!(violation.message.contains("uncommitted"), "{}", violation.message);
        }
    }

    #[test]
    fn torn_mounts_are_power_cycled_and_retried() {
        let contract = Pages { writes: 40, fail: Fail::Never };
        let stack = contract.build().unwrap();
        let mut ledger = Ledger::new(&stack.noftl);
        let (end, ()) = contract.run(&stack, &mut ledger).unwrap();
        let torn = [(Duration(40_000), Duration(100_000)), (Duration(65_000), Duration(100_000))];
        let device = power_cycle(&stack.machine).unwrap();
        let mounted = mount(device, end, &torn).unwrap();
        assert!(mounted.torn_mounts > 0, "no cut landed inside a mount");
        let directory = Directory::of(&stack.noftl);
        check_mounted(&mounted.noftl, &directory, &directory).unwrap();
        let (_, world) = contract.recover(mounted.noftl, mounted.report.completed_at).unwrap();
        assert!(world == ledger.committed);
    }

    #[test]
    fn a_lost_or_phantom_object_fails_the_directory_checks() {
        let stack = Pages { writes: 4, fail: Fail::Never }.build().unwrap();
        let directory = Directory::of(&stack.noftl);
        let mut lost = directory.clone();
        lost.0.push("object lost".into());
        assert!(check_mounted(&stack.noftl, &lost, &lost).is_err());
        // Only a name both the commit and the cut knew must be back: the
        // interrupted operation may have retired it durably.
        assert!(check_mounted(&stack.noftl, &lost, &directory).is_ok());
        let mut before = directory.clone();
        before.0.retain(|name| name != "object t");
        assert!(check_recovered(&stack.noftl, &before, true).is_err(), "`t` is a phantom");
        assert!(check_recovered(&stack.noftl, &directory, false).is_ok());
        // An object created after the checkpoint comes back as an orphan:
        // legal only when the run itself changed the directory.
        let obj = stack.noftl.create_object("u", stack.noftl.region_id("rg").unwrap()).unwrap();
        let at = stack.noftl.write(obj, 0, &[7; 4096], stack.setup_end).unwrap();
        let mounted = mount(power_cycle(&stack.machine).unwrap(), at, &[]).unwrap();
        assert_eq!(mounted.report.orphaned_objects, vec![obj]);
        assert!(check_recovered(&mounted.noftl, &directory, true).is_ok());
        let err = check_recovered(&mounted.noftl, &directory, false).unwrap_err();
        assert!(err.to_string().contains("__orphan_"), "{err}");
    }
}
