//! Crash consistency end to end: run a workload, cut power mid-flight,
//! reboot the device from its image, remount the storage
//! manager and recover the database from the WAL tail.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```

use noftl_regions::dbms::crash_harness::{run_crash_cycle, CrashHarnessConfig};

fn main() {
    // The harness drives a mixed insert/update/delete workload over an
    // indexed table, with checkpoints and WAL truncations firing along
    // the way.  `fraction` places the power cut within the workload's
    // simulated time span.
    for fraction in [0.25, 0.5, 0.85] {
        let cfg = CrashHarnessConfig { txns: 120, ..CrashHarnessConfig::default() };
        let outcome = run_crash_cycle(&cfg, fraction).expect("recovery verifies");
        println!(
            "cut at {:>12} ns ({}):",
            outcome.cut_at.as_nanos(),
            if outcome.cut_during_commit { "during a commit" } else { "between commits" },
        );
        println!(
            "  before: {} committed txns, WAL {} pages",
            outcome.committed_txns, outcome.wal_pages_at_crash
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
            outcome.rows_verified,
            if outcome.in_flight_survived { " (in-flight commit survived whole)" } else { "" },
        );
    }
    println!("all cuts recovered: no torn pages served, no committed writes lost");
}
