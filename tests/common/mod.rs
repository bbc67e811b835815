//! Helpers shared by the crash property-test suites.

/// Rounds of a hand-rolled property loop: the `PROPTEST_CASES`
/// convention (pinned in CI to bound runtime; local runs keep the
/// default).
pub fn property_rounds(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}
