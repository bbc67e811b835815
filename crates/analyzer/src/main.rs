//! CLI for the workspace invariant linter.
//!
//! ```text
//! noftl-analyzer [--deny-warnings] [--self-check] [PATH ...]
//! ```
//!
//! With no paths, scans the default roots
//! ([`noftl_analyzer::DEFAULT_ROOTS`]) relative to the current directory.
//! `--self-check` runs the seeded-violation fixtures instead of the scan,
//! and lists the same roots to prove that no path list of a rule names a
//! file that is no longer there.  Exit codes: `0` clean (or findings
//! without `--deny-warnings`), `1` findings under `--deny-warnings`, `2`
//! self-check failure or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut self_check = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-warnings" => deny = true,
            "--self-check" => self_check = true,
            "--help" | "-h" => {
                println!("usage: noftl-analyzer [--deny-warnings] [--self-check] [PATH ...]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("noftl-analyzer: unknown flag `{other}`");
                return ExitCode::from(2);
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if paths.is_empty() {
        paths = noftl_analyzer::DEFAULT_ROOTS.iter().map(PathBuf::from).collect();
        if let Some(missing) = paths.iter().find(|p| !p.exists()) {
            eprintln!(
                "noftl-analyzer: default root `{}` not found; run from the workspace root or pass paths",
                missing.display()
            );
            return ExitCode::from(2);
        }
    }

    if self_check {
        return match noftl_analyzer::self_check(&paths, Some(Path::new(&cwd))) {
            Ok(()) => {
                println!(
                    "self-check: all seeded-violation fixtures detected, clean fixture clean, \
                     every rule's path list matches the scanned tree"
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-check FAILED:\n{e}");
                ExitCode::from(2)
            }
        };
    }

    match noftl_analyzer::analyze_paths(&paths, Some(Path::new(&cwd))) {
        Ok(analysis) => {
            for f in &analysis.findings {
                println!("{f}");
            }
            println!(
                "noftl-analyzer: {} file(s) scanned, {} finding(s), {} suppressed by analyzer:allow",
                analysis.files_scanned,
                analysis.findings.len(),
                analysis.suppressed
            );
            if !analysis.findings.is_empty() && deny {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("noftl-analyzer: {e}");
            ExitCode::from(2)
        }
    }
}
