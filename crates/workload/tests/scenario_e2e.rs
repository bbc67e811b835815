//! End-to-end multi-tenant scenario: the noisy KV neighbor really
//! compacts, the OLTP tenant really pays a tail penalty, and the whole
//! thing is deterministic run to run.

use noftl_workload::{oltp_beside_compaction, MultiTenantConfig};

#[test]
fn oltp_beside_compaction_runs_and_interferes() {
    let report = oltp_beside_compaction(&MultiTenantConfig::quick()).expect("scenario");
    assert_eq!(report.oltp_shared.ops, 600);
    assert_eq!(report.compact_shared.ops, 600);
    assert_eq!(report.oltp_alone.ops, 600);
    assert!(
        report.compact_flushes > 0,
        "the noisy tenant must actually flush (got {})",
        report.compact_flushes
    );
    assert!(report.oltp_shared.p99_us > 0.0 && report.oltp_alone.p99_us > 0.0);
    assert!(
        report.p99_penalty >= 1.0,
        "sharing channels with a compacting neighbor cannot improve the tail: penalty {:.3}",
        report.p99_penalty
    );
    // Reads commit without a log force and the table is cache-resident,
    // so the writes are the ops that meet the neighbor on the device.
    assert!(report.oltp_shared.write_ops > 0);
    assert_eq!(report.oltp_shared.write_ops, report.oltp_alone.write_ops);
    assert!(report.oltp_shared.write_ops < report.oltp_shared.ops / 10, "YCSB-B is 5 % updates");
    assert!(
        report.write_p99_penalty >= report.p99_penalty,
        "the write tail ({:.3}) carries at least the all-ops penalty ({:.3})",
        report.write_p99_penalty,
        report.p99_penalty
    );
}

#[test]
fn scenario_is_deterministic() {
    let a = oltp_beside_compaction(&MultiTenantConfig::quick()).expect("scenario");
    let b = oltp_beside_compaction(&MultiTenantConfig::quick()).expect("scenario");
    assert_eq!(a.p99_penalty.to_bits(), b.p99_penalty.to_bits());
    assert_eq!(a.oltp_shared.p999_us.to_bits(), b.oltp_shared.p999_us.to_bits());
    assert_eq!(a.compact_shared.achieved_kops.to_bits(), b.compact_shared.achieved_kops.to_bits());
    assert_eq!(a.compact_flushes, b.compact_flushes);
}

#[test]
fn arbiter_caps_the_noisy_neighbor_penalty() {
    let off = oltp_beside_compaction(&MultiTenantConfig::quick()).expect("scenario");
    let on = oltp_beside_compaction(&MultiTenantConfig::quick().with_arbiter()).expect("scenario");
    eprintln!(
        "off: penalty={:.3} oltp_kops={:.3} compact_kops={:.3} alone_p99={:.1}",
        off.p99_penalty,
        off.oltp_shared.achieved_kops,
        off.compact_shared.achieved_kops,
        off.oltp_alone.p99_us
    );
    eprintln!(
        "on:  penalty={:.3} oltp_kops={:.3} compact_kops={:.3} alone_p99={:.1}",
        on.p99_penalty,
        on.oltp_shared.achieved_kops,
        on.compact_shared.achieved_kops,
        on.oltp_alone.p99_us
    );
    assert!(on.p99_penalty <= 2.0, "arbiter-on penalty {:.3} > 2.0", on.p99_penalty);
    // The contrast the arbiter exists for shows on the write tail.
    assert!(on.write_p99_penalty <= 2.0, "arbiter-on write penalty {:.3}", on.write_p99_penalty);
    assert!(
        off.write_p99_penalty > 2.0 * on.write_p99_penalty,
        "without the arbiter the write tail must pay for the neighbor: {:.3} vs {:.3}",
        off.write_p99_penalty,
        on.write_p99_penalty
    );
    assert!(
        on.compact_shared.achieved_kops >= off.compact_shared.achieved_kops * 0.75,
        "background tenant degraded more than 25%: {:.3} vs {:.3}",
        on.compact_shared.achieved_kops,
        off.compact_shared.achieved_kops
    );
}
