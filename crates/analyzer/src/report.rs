//! Finding and report types shared by all rules.

use std::fmt;

/// One diagnostic emitted by a rule.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule that produced the finding (`lock_order`, `panic_freedom`,
    /// `command_path`, or `allow_directive` for escape-hatch misuse).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Aggregate result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, in file/line order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of findings suppressed by valid `analyzer:allow` directives.
    pub suppressed: usize,
}

impl Analysis {
    /// Sort findings by file then line for stable output.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    }
}
