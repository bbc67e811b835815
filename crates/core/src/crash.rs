//! The crash driver: dry run → cut → power cycle → mount → verify.
//!
//! Under NoFTL the storage manager owns recovery: an OOB record is the
//! persistent mapping and a mount scan rebuilds the space.  "An
//! acknowledged write survives a power cut" is therefore a property of
//! this workspace, and every crash test checks it with the same loop.  A
//! [`Contract`] supplies only what is stack-specific:
//!
//! 1. **build** device → manager → engine, finishing the setup with a
//!    checkpoint;
//! 2. **run** the workload, recording every acknowledged commit — and the
//!    operation in flight when the device failed — in a [`Ledger`];
//! 3. **recover**: reopen the engine on the remounted manager and read the
//!    recovered world back, with one check of its own.
//!
//! The driver owns the rest.  The simulator is deterministic, so a
//! [`dry_run`] learns the workload's span and its device commands:
//! [`DryRun::cut_at`] maps a fraction of the span to a cut instant, and
//! [`cut_points`] lists every instant a command can be cut at, which
//! [`sweep`] cuts in turn.  [`cycle`] then rebuilds an identical
//! stack, arms the cut, runs the workload into it, [`power_cycle`]s the
//! device through its image bytes and [`mount`]s it,
//! surviving the cuts a contract lands during the mount itself.  After
//! the contract recovers, it verifies that
//!
//! * the manager has the regions and objects it had before the cut: the
//!   mount lost none ([`check_mounted`]) and recovery left no phantom
//!   ([`check_recovered`]);
//! * the recovered world equals the committed world or, when a commit or
//!   flush was in flight, the in-flight world.
//!
//! A violation is an `Err` naming it, never a panic.  A power cut is the
//! only fault the driver knows, and the only one of the workspace: a
//! mirror loses a child when that child's power is cut
//! (`NandDevice::arm_power_cut` on one child), and learns of it from the
//! child's own `PowerLoss`.

use std::sync::Arc;

use flash_sim::{Duration, FlashBackend, NandDevice, SimTime};

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
    let orphan = |name: &str| ddl && name.starts_with("object __orphan_");
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
    cut: bool,
}

impl<W: Default> Ledger<W> {
    /// An empty ledger over `noftl`, whose directory counts as committed.
    pub fn new(noftl: &Arc<NoFtl>) -> Ledger<W> {
        let setup = Directory::of(noftl);
        let directory = setup.clone();
        let noftl = Arc::clone(noftl);
        Ledger { noftl, committed: W::default(), setup, directory, in_flight: None, cut: false }
    }

    /// A commit was acknowledged: `world`, and the manager's directory as
    /// it stands, are durable from here on.
    pub fn commit(&mut self, world: W) {
        self.committed = world;
        self.directory = Directory::of(&self.noftl);
    }

    /// The device failed under the workload.  `in_flight` is the world with
    /// the interrupted operation applied, when its commit or flush may have
    /// landed before the power went out.
    pub fn cut(&mut self, in_flight: Option<W>) {
        self.in_flight = in_flight;
        self.cut = true;
    }
}

/// A freshly built stack.
pub struct Stack<E> {
    /// The device the cut is armed on.
    pub device: Arc<NandDevice>,
    /// The storage manager on it.
    pub noftl: Arc<NoFtl>,
    /// The engine over the manager.
    pub engine: E,
    /// End of the setup: the workload starts here.
    pub setup_end: SimTime,
}

/// What one stack under crash test supplies to the driver.
pub trait Contract {
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

    /// Build device → manager → engine on a fresh device and run the
    /// setup, ending in a checkpoint.
    fn build(&self) -> Result<Stack<Self::Engine>, Self::Error>;

    /// Run the workload on `stack` until it ends or the device fails,
    /// recording commits and the cut in `ledger`.  Returns the instant it
    /// stopped and its report; an `Err` is a violation, not a cut.
    fn run(
        &self,
        stack: &Stack<Self::Engine>,
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

/// The uncut workload: when it started and ended, and what it did.
pub struct DryRun<R> {
    /// End of the setup.
    pub setup_end: SimTime,
    /// End of the workload, device quiesced.
    pub end: SimTime,
    /// `(issue, completion)` of every device command of the workload (the
    /// setup's excluded), in host order.
    pub commands: Vec<(SimTime, SimTime)>,
    /// The run's report.
    pub report: R,
}

impl<R> DryRun<R> {
    /// The instant `setup_end + fraction · span`, `fraction` clamped to
    /// `[0, 1)`.
    pub fn cut_at(&self, fraction: f64) -> SimTime {
        let span = self.end.as_nanos().saturating_sub(self.setup_end.as_nanos()).max(1);
        SimTime(self.setup_end.as_nanos() + (span as f64 * clamp(fraction)) as u64)
    }
}

/// `fraction` clamped to `[0, 1)`.
pub(crate) fn clamp(fraction: f64) -> f64 {
    fraction.clamp(0.0, 0.999_999)
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
/// The device's commands are read off the tracer of its metrics registry,
/// which holds one `flash.op` span per completed command, so the device
/// keeps no record of its own.  A workload whose events overflow the
/// tracer's ring is an error: its command list would miss the oldest.
pub fn dry_run<C: Contract>(contract: &C) -> Result<DryRun<C::Report>, C::Error> {
    let stack = contract.build()?;
    let tracer = stack.device.metrics().tracer();
    let dropped = tracer.dropped();
    tracer.clear();
    tracer.set_enabled(true);
    let mut ledger = Ledger::new(&stack.noftl);
    let (stopped, report) = contract.run(&stack, &mut ledger)?;
    if ledger.cut {
        let at = stopped.as_nanos();
        return Err(violation(format!("the dry run failed at {at} ns with no cut armed")).into());
    }
    if tracer.dropped() != dropped {
        let message = format!("the dry run overflowed the tracer's {} events", tracer.capacity());
        return Err(violation(message).into());
    }
    let commands = tracer
        .events()
        .into_iter()
        .filter(|e| e.cat == "flash.op")
        .filter_map(|e| Some((SimTime(e.ts_ns), SimTime(e.ts_ns + e.dur_ns?))))
        .collect();
    let end = stopped.max(stack.device.quiesce_time());
    Ok(DryRun { setup_end: stack.setup_end, end, commands, report })
}

/// One power cut of a sweep: its instant, and the `(issue, completion)`
/// of the dry run's command it cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// The armed power-cut instant.
    pub at: SimTime,
    /// The command the instant was taken from.
    pub command: (SimTime, SimTime),
}

/// Every instant a command of `dry` can be cut at: its issue (it never
/// starts), its midpoint (it may tear) and its completion (it lands), in
/// time order.  An instant two commands share is listed once, with the
/// first command issued.
pub fn cut_points<R>(dry: &DryRun<R>) -> Vec<Cut> {
    let mut cuts: Vec<Cut> = dry
        .commands
        .iter()
        .flat_map(|&(issue, done)| {
            let mid = SimTime(issue.as_nanos() + (done.as_nanos() - issue.as_nanos()) / 2);
            [issue, mid, done].map(|at| Cut { at, command: (issue, done) })
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

/// Run one crash [`cycle`] at each of `cuts`, handing each verified
/// outcome to `visit`.  Returns every violation, not only the first.
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

/// One crash cycle with the power cut at `cut_at`: build, run into the
/// cut, power-cycle, mount, recover, verify.
pub fn cycle<C: Contract>(contract: &C, cut_at: SimTime) -> Result<Outcome<C>, C::Error> {
    let stack = contract.build()?;
    stack.device.arm_power_cut(cut_at);
    let mut ledger = Ledger::new(&stack.noftl);
    let (_, report) = contract.run(&stack, &mut ledger)?;
    let at_cut = Directory::of(&stack.noftl);
    let device = power_cycle(&stack.device)?;
    let mounted = mount(device, cut_at, &contract.torn_mounts())?;
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
    /// The backend a manager mounts.
    fn backend(&self) -> Arc<dyn FlashBackend>;
    /// Arm a power cut at `at`.
    fn cut_power(&self, at: SimTime);
    /// Boot a fresh machine from this one's persistent state.
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

/// A mounted manager and the machine it runs on.
pub struct Mounted<M> {
    /// The machine after its last power cycle.
    pub machine: M,
    /// The mounted manager.
    pub noftl: Arc<NoFtl>,
    /// The final mount's summary.
    pub report: MountReport,
    /// Mounts a power cut interrupted before the final one.
    pub torn_mounts: u64,
}

/// Mount `machine` at `at`, surviving the cuts that land during the
/// mount itself.
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
) -> Result<Mounted<M>> {
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
    Ok(Mounted { machine, noftl: Arc::new(noftl), report, torn_mounts })
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
        type Engine = ();
        type World = BTreeMap<u64, u8>;
        type Report = ();
        type Recovery = ();
        type Error = NoFtlError;

        fn build(&self) -> Result<Stack<()>, NoFtlError> {
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
            Ok(Stack { device, noftl, engine: (), setup_end })
        }

        fn run(
            &self,
            stack: &Stack<()>,
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
                    Err(_) => {
                        ledger.cut(Some(world));
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

    #[test]
    fn cuts_across_the_span_recover_the_committed_or_in_flight_world() {
        let contract = Pages { writes: 40, fail: Fail::Never };
        let dry = dry_run(&contract).unwrap();
        assert!(dry.cut_at(5.0) < dry.end, "the fraction is clamped below 1");
        assert_eq!(dry.cut_at(-1.0), dry.setup_end);
        let mut survived = 0;
        for fraction in [0.0, 0.1, 0.35, 0.6, 0.85, 0.99] {
            let outcome = cycle(&contract, dry.cut_at(fraction)).unwrap();
            assert!(outcome.cut_in_flight, "every cut lands in the write stream");
            survived += u64::from(outcome.in_flight_survived);
            assert!(outcome.mount.checkpoint_seq > 0);
        }
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
        assert!(cuts.iter().all(|cut| cut.command.0 <= cut.at && cut.at <= cut.command.1));
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
        let device = power_cycle(&stack.device).unwrap();
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
        let obj = stack.noftl.create_object_in("u", "rg").unwrap();
        let at = stack.noftl.write(obj, 0, &[7; 4096], stack.setup_end).unwrap();
        let mounted = mount(power_cycle(&stack.device).unwrap(), at, &[]).unwrap();
        assert_eq!(mounted.report.orphaned_objects, vec![obj]);
        assert!(check_recovered(&mounted.noftl, &directory, true).is_ok());
        let err = check_recovered(&mounted.noftl, &directory, false).unwrap_err();
        assert!(err.to_string().contains("__orphan_"), "{err}");
    }
}
