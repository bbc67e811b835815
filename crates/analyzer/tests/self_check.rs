//! The seeded-violation fixtures must be caught, and every path list of
//! a rule must still name files of the workspace.  This is the same check
//! CI runs via `noftl-analyzer --self-check`; duplicating it as a cargo
//! test keeps plain `cargo test` honest about analyzer health.

use std::path::PathBuf;

#[test]
fn seeded_violations_are_detected_and_clean_fixture_passes() {
    let workspace = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let roots: Vec<PathBuf> =
        noftl_analyzer::DEFAULT_ROOTS.iter().map(|r| workspace.join(r)).collect();
    if let Err(e) = noftl_analyzer::self_check(&roots, Some(&workspace)) {
        panic!("analyzer self-check failed:\n{e}");
    }
}
