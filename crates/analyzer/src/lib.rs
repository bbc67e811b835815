//! `noftl-analyzer` — repo-wide invariant linter for the NoFTL workspace.
//!
//! A hand-rolled token scanner (no external parser) over the workspace's
//! Rust sources, with three pluggable rules:
//!
//! * [`rules::lock_order`] — acquisitions of the manager lock in
//!   `crates/core`, the mirror lock in `crates/mirror` and the device
//!   lock in `crates/flash` must follow the documented total order and go
//!   through the named choke points.
//! * [`rules::panic_freedom`] — no `unwrap`/`expect`/`panic!`-family code
//!   in production paths of `crates/flash` and `crates/core`; direct
//!   indexing is additionally denied on the per-command hot path.
//! * [`rules::command_path`] — in `crates/core` no timed device call
//!   (`device.execute` or a per-command verb) outside the `io` module,
//!   and in `crates/flash` no reservation of die or channel time outside
//!   `sched.rs`, `die.rs` and `NandDevice::phases`.
//!
//! Findings can be suppressed case-by-case with
//! `// analyzer:allow(<rule>) <justification>`; the justification is
//! mandatory and directives that are malformed, name an unknown rule, or
//! no longer match a finding are themselves reported.
//!
//! The companion *runtime* half of this design lives in
//! `flash_sim::lockorder`: a debug-only thread-local held-lock stack that
//! panics on out-of-order or recursive acquisition.  The static rule
//! checks what the tests never execute; the sanitizer checks what the
//! lexer cannot see.

pub mod allow;
pub mod lexer;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use allow::Suppressions;
use report::{Analysis, Finding};
use rules::FileView;

/// Analyze one source file presented as a string.  `path` is used for
/// rule scoping (several rules key on the file's workspace-relative
/// path) and for reporting; it does not need to exist on disk.
pub fn analyze_source(path: &str, src: &str) -> Analysis {
    let lexed = lexer::lex(src);
    let view = FileView::new(path, &lexed.tokens);

    let mut raw = Vec::new();
    raw.extend(rules::lock_order::check(&view));
    raw.extend(rules::panic_freedom::check(&view));
    raw.extend(rules::command_path::check(&view));

    let mut suppressions = Suppressions::new(allow::parse(&lexed.comments));
    let mut analysis = Analysis { files_scanned: 1, ..Analysis::default() };
    for f in raw {
        if suppressions.suppresses(f.rule, f.line) {
            analysis.suppressed += 1;
        } else {
            analysis.findings.push(Finding {
                file: path.to_string(),
                line: f.line,
                rule: f.rule,
                message: f.message,
            });
        }
    }
    for (line, message) in suppressions.problems() {
        analysis.findings.push(Finding {
            file: path.to_string(),
            line,
            rule: "allow_directive",
            message,
        });
    }
    analysis.sort();
    analysis
}

/// Every `.rs` file under the given roots (files are accepted too), each
/// with the path the rules scope on and findings are reported under:
/// relative to `strip_prefix` when possible.
fn scanned_files(
    roots: &[PathBuf],
    strip_prefix: Option<&Path>,
) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs_files(root, &mut files)?;
    }
    files.sort();
    files.dedup();
    Ok(files
        .into_iter()
        .map(|file| {
            let display = strip_prefix
                .and_then(|p| file.strip_prefix(p).ok())
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            (file, display)
        })
        .collect())
}

/// Analyze every `.rs` file under the given roots.
pub fn analyze_paths(roots: &[PathBuf], strip_prefix: Option<&Path>) -> std::io::Result<Analysis> {
    let mut total = Analysis::default();
    for (file, display) in scanned_files(roots, strip_prefix)? {
        let src = fs::read_to_string(file)?;
        let one = analyze_source(&display, &src);
        total.findings.extend(one.findings);
        total.files_scanned += one.files_scanned;
        total.suppressed += one.suppressed;
    }
    total.sort();
    Ok(total)
}

/// Recursively collect `.rs` files, skipping build output.
fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    if path.file_name().is_some_and(|n| n == "target") {
        return Ok(());
    }
    for entry in fs::read_dir(path)? {
        collect_rs_files(&entry?.path(), out)?;
    }
    Ok(())
}

/// Default analysis roots, relative to the workspace root: the crates
/// whose invariants the rules model.
pub const DEFAULT_ROOTS: &[&str] =
    &["crates/flash/src", "crates/core/src", "crates/obs/src", "crates/mirror/src"];

/// Seeded-violation fixtures: each embeds a known bug class with the
/// virtual path that puts it in the corresponding rule's scope.
const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "crates/flash/src/device.rs",
        include_str!("../fixtures/reversed_lock_order.rs"),
        rules::lock_order::RULE,
    ),
    (
        "crates/core/src/manager.rs",
        include_str!("../fixtures/naked_unwrap.rs"),
        rules::panic_freedom::RULE,
    ),
    (
        "crates/core/src/gc.rs",
        include_str!("../fixtures/device_call_outside_io.rs"),
        rules::command_path::RULE,
    ),
    (
        "crates/flash/src/device.rs",
        include_str!("../fixtures/second_reservation_site.rs"),
        rules::command_path::RULE,
    ),
];

/// The clean fixture: idiomatic code, including one justified allow, that
/// must produce zero findings.
const CLEAN_FIXTURE: (&str, &str) =
    ("crates/flash/src/device.rs", include_str!("../fixtures/clean.rs"));

/// The rules' path-suffix lists.  A rule scoped by such a list goes blind
/// without a finding when the file it names is moved or deleted, so the
/// self-check requires every entry to match a scanned file.
const PATH_LISTS: &[(&str, &[&str])] = &[
    ("panic_freedom::HOT_PATH_FILES", rules::panic_freedom::HOT_PATH_FILES),
    ("lock_order::CHOKE_FILES", rules::lock_order::CHOKE_FILES),
    ("command_path::RESERVATION_FILES", rules::command_path::RESERVATION_FILES),
];

/// Seeded stale list: a scanned tree that has every listed file except
/// `sched.rs`, which two of the lists name.
const STALE_LIST_FIXTURE: &str = include_str!("../fixtures/tree_without_sched.txt");

/// The entries of [`PATH_LISTS`] that are the suffix of none of `files`,
/// as `(list, entry)`.
fn stale_path_entries(files: &[&str]) -> Vec<(&'static str, &'static str)> {
    let mut stale = Vec::new();
    for (list, entries) in PATH_LISTS {
        for entry in *entries {
            if !files.iter().any(|f| f.ends_with(entry)) {
                stale.push((*list, *entry));
            }
        }
    }
    stale
}

/// Self-check: prove each seeded-violation fixture is caught by its rule,
/// that the clean fixture passes, and that no path-list entry of a rule
/// has gone stale against the files under `roots` (scoped exactly as
/// [`analyze_paths`] scopes them).  CI runs this before trusting a clean
/// workspace report — a linter that cannot find a planted bug is not
/// reporting "no bugs", it is reporting nothing.
pub fn self_check(roots: &[PathBuf], strip_prefix: Option<&Path>) -> Result<(), String> {
    let mut errors = Vec::new();
    let seeded = stale_path_entries(&STALE_LIST_FIXTURE.lines().collect::<Vec<_>>());
    if seeded
        != [
            ("panic_freedom::HOT_PATH_FILES", "src/sched.rs"),
            ("command_path::RESERVATION_FILES", "crates/flash/src/sched.rs"),
        ]
    {
        errors.push(format!(
            "stale-list fixture (a tree without `sched.rs`) reported {seeded:?}, \
             not the two `sched.rs` entries"
        ));
    }
    match scanned_files(roots, strip_prefix) {
        Ok(files) => {
            let scoped: Vec<&str> = files.iter().map(|(_, display)| display.as_str()).collect();
            for (list, entry) in stale_path_entries(&scoped) {
                errors.push(format!(
                    "`{list}` entry `{entry}` matches no scanned file; the rule it scopes \
                     checks nothing there"
                ));
            }
        }
        Err(e) => errors.push(format!("cannot list the scanned roots: {e}")),
    }
    for (path, src, expected_rule) in FIXTURES {
        let analysis = analyze_source(path, src);
        if !analysis.findings.iter().any(|f| f.rule == *expected_rule) {
            errors.push(format!(
                "fixture `{path}` did not trigger rule `{expected_rule}` (findings: {:?})",
                analysis.findings.iter().map(|f| f.rule).collect::<Vec<_>>()
            ));
        }
    }
    let (clean_path, clean_src) = CLEAN_FIXTURE;
    let analysis = analyze_source(clean_path, clean_src);
    if !analysis.findings.is_empty() {
        errors.push(format!(
            "clean fixture produced findings: {}",
            analysis.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("; ")
        ));
    }
    if analysis.suppressed != 1 {
        errors.push(format!(
            "clean fixture should exercise exactly one justified allow (suppressed = {})",
            analysis.suppressed
        ));
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_check_fails_on_a_path_list_entry_that_matches_nothing() {
        // This crate's own sources hold none of the listed files.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
        let err = self_check(&[root], None).unwrap_err();
        let entries: usize = PATH_LISTS.iter().map(|(_, entries)| entries.len()).sum();
        assert_eq!(err.lines().count(), entries, "one line per entry of every list:\n{err}");
        assert!(err.contains("`panic_freedom::HOT_PATH_FILES` entry `src/sched.rs`"), "{err}");
    }

    #[test]
    fn suppressed_findings_are_counted_not_reported() {
        let src = "fn f() {\n    // analyzer:allow(panic_freedom) config validated at construction time\n    x.unwrap();\n}\n";
        let a = analyze_source("crates/core/src/manager.rs", src);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert_eq!(a.suppressed, 1);
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// analyzer:allow(panic_freedom) nothing below actually panics\nfn f() { }\n";
        let a = analyze_source("crates/core/src/manager.rs", src);
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, "allow_directive");
        assert!(a.findings[0].message.contains("stale"));
    }

    #[test]
    fn unjustified_allow_is_reported_and_does_not_suppress() {
        let src = "fn f() {\n    x.unwrap(); // analyzer:allow(panic_freedom) ok\n}\n";
        let a = analyze_source("crates/core/src/manager.rs", src);
        let rules: Vec<&str> = a.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"panic_freedom"), "{rules:?}");
        assert!(rules.contains(&"allow_directive"), "{rules:?}");
    }
}
