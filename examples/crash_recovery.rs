//! Crash consistency end to end: run a workload, cut power mid-flight,
//! reboot the device from its image, remount the storage
//! manager and recover the database from the WAL tail.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```

use noftl_regions::dbms::crash_harness::CrashHarnessConfig;
use noftl_regions::noftl::crash;

fn main() {
    // The harness drives a mixed insert/update/delete workload over an
    // indexed table, with checkpoints and WAL truncations firing along
    // the way.  One dry run learns the workload's simulated time span and
    // its device commands; each fraction places a power cut within that
    // span, and the sweep runs one verified crash cycle per cut.
    let cfg = CrashHarnessConfig { txns: 120, ..CrashHarnessConfig::default() };
    let dry = crash::dry_run(&cfg).expect("the uncut workload runs");
    let cuts: Vec<_> = [0.25, 0.5, 0.85].into_iter().map(|f| dry.cut_at(f)).collect();
    let violations = crash::sweep(&cfg, &cuts, |outcome| {
        println!(
            "cut at {:>12} ns ({}):",
            outcome.cut_at.as_nanos(),
            if outcome.cut_in_flight { "during a commit" } else { "between commits" },
        );
        println!(
            "  before: {} committed txns, WAL {} pages",
            outcome.report.committed_txns, outcome.report.wal_pages
        );
        println!(
            "  mount : checkpoint #{}, {} pages scanned, {} torn discarded, {} remapped from OOB",
            outcome.mount.checkpoint_seq,
            outcome.mount.pages_scanned,
            outcome.mount.torn_pages_discarded,
            outcome.mount.pages_after_checkpoint,
        );
        println!(
            "  redo  : {} records scanned, {} committed txns, {} page images replayed",
            outcome.recovery.wal_records_scanned,
            outcome.recovery.committed_txns,
            outcome.recovery.redo_pages_applied,
        );
        println!(
            "  verify: {} rows intact{}\n",
            outcome.recovered.len(),
            if outcome.in_flight_survived { " (in-flight commit survived whole)" } else { "" },
        );
    });
    assert!(violations.is_empty(), "recovery failed its checks: {violations:#?}");
    println!("all cuts recovered: no torn pages served, no committed writes lost");
}
