//! End-to-end multi-tenant scenario: the noisy KV neighbor really
//! compacts, the OLTP tenant's tail is measured against running alone,
//! and the whole thing is deterministic run to run.

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

/// Up to PR 17 this test required the arbiter-off write tail to be more
/// than twice the arbiter-on one, and PRs 10 and 15 measured 17.7×.  That
/// interference was never there: the tenants sit on disjoint dies and
/// share only a channel that carries 10 µs transfers and is < 6 % busy.
/// The 17.7× was eager reservation — the compacting tenant, run ahead in
/// call order, parked the channel's `busy_until` in the future and the
/// OLTP tenant's simulated-earlier transfers queued behind work that had
/// not happened yet.  The arbiter "fixed" it only because gap backfill
/// was an arbiter feature; since PR 18 first-fit into idle time is the
/// device's one reservation rule and both penalties read 1.000.  What
/// remains of the arbiter is token-bucket pacing of `Background`
/// transfers, and what can be asserted is what is true: on or off, the
/// OLTP tenant's read and write tails stay within 2× of running alone,
/// and pacing does not cost the background tenant more than 25 %.
#[test]
fn oltp_tail_stays_within_2x_and_background_within_25_percent_arbiter_on_or_off() {
    let off = oltp_beside_compaction(&MultiTenantConfig::quick()).expect("scenario");
    let on = oltp_beside_compaction(&MultiTenantConfig::quick().with_arbiter()).expect("scenario");
    for (name, report) in [("off", &off), ("on", &on)] {
        eprintln!(
            "{name}: penalty={:.3} write_penalty={:.3} oltp_kops={:.3} compact_kops={:.3} alone_p99={:.1}",
            report.p99_penalty,
            report.write_p99_penalty,
            report.oltp_shared.achieved_kops,
            report.compact_shared.achieved_kops,
            report.oltp_alone.p99_us
        );
        assert!(report.p99_penalty <= 2.0, "arbiter {name}: penalty {:.3}", report.p99_penalty);
        assert!(
            report.write_p99_penalty <= 2.0,
            "arbiter {name}: write penalty {:.3}",
            report.write_p99_penalty
        );
    }
    assert!(
        on.compact_shared.achieved_kops >= off.compact_shared.achieved_kops * 0.75,
        "background tenant degraded more than 25%: {:.3} vs {:.3}",
        on.compact_shared.achieved_kops,
        off.compact_shared.achieved_kops
    );
}
