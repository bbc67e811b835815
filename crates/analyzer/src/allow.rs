//! `analyzer:allow` escape-hatch directives.
//!
//! A finding can be suppressed with a line comment of the form
//!
//! ```text
//! // analyzer:allow(<rule>) <justification>
//! ```
//!
//! placed either on the same line as the flagged code or on its own line
//! directly above it.  The justification is mandatory and verified: it
//! must be real prose (at least three words), so `// analyzer:allow(x) ok`
//! does not silence the linter.  Directives naming an unknown rule are
//! themselves reported, as are directives that never matched a finding
//! (a stale allow is a lie about the code below it).

use std::collections::BTreeSet;

/// One parsed `analyzer:allow` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-based line of the comment carrying the directive.
    pub line: u32,
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Justification text following the closing parenthesis.
    pub justification: String,
    /// Problems with the directive itself (missing/short justification,
    /// unknown rule).  Non-empty means the directive is invalid and does
    /// not suppress anything.
    pub errors: Vec<String>,
}

/// The set of rule names a directive may reference.
pub const KNOWN_RULES: &[&str] = &["lock_order", "panic_freedom", "command_path"];

const MARKER: &str = "analyzer:allow";

/// Minimum number of whitespace-separated words for a justification to
/// count as one.
const MIN_JUSTIFICATION_WORDS: usize = 3;

/// Extract every `analyzer:allow` directive from the line comments
/// produced by the lexer.
pub fn parse(comments: &[(u32, String)]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (line, text) in comments {
        let Some(pos) = text.find(MARKER) else { continue };
        let rest = &text[pos + MARKER.len()..];
        let mut errors = Vec::new();

        let (rule, justification) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((rule, just)) => (rule.trim().to_string(), just.trim().to_string()),
            None => {
                errors.push(
                    "malformed directive: expected `analyzer:allow(<rule>) <justification>`"
                        .to_string(),
                );
                (String::new(), String::new())
            }
        };

        if !rule.is_empty() && !KNOWN_RULES.contains(&rule.as_str()) {
            errors.push(format!("unknown rule `{rule}` (known rules: {})", KNOWN_RULES.join(", ")));
        }
        if errors.is_empty() && justification.split_whitespace().count() < MIN_JUSTIFICATION_WORDS {
            errors.push(format!(
                "justification must explain the exception in at least {MIN_JUSTIFICATION_WORDS} words"
            ));
        }

        out.push(AllowDirective { line: *line, rule, justification, errors });
    }
    out
}

/// Matches findings against directives for one file.
#[derive(Debug)]
pub struct Suppressions {
    directives: Vec<AllowDirective>,
    used: BTreeSet<usize>,
}

impl Suppressions {
    /// Build the suppression table from parsed directives.
    pub fn new(directives: Vec<AllowDirective>) -> Self {
        Self { directives, used: BTreeSet::new() }
    }

    /// If a valid directive for `rule` covers `line`, consume it and
    /// return `true`.  A directive covers its own line (trailing comment)
    /// and the lines in between when it sits on its own line directly
    /// above the code (allowing for the code to start a few lines later,
    /// e.g. below a multi-line comment block it concludes).
    pub fn suppresses(&mut self, rule: &str, line: u32) -> bool {
        for (idx, d) in self.directives.iter().enumerate() {
            if !d.errors.is_empty() || d.rule != rule {
                continue;
            }
            // Same line, or directive within the three lines above the
            // finding (own-line comment immediately preceding the code).
            if line >= d.line && line - d.line <= 3 {
                self.used.insert(idx);
                return true;
            }
        }
        false
    }

    /// Directives that are malformed, plus valid ones that never matched
    /// a finding — both are reported so the escape hatch stays honest.
    pub fn problems(&self) -> Vec<(u32, String)> {
        let mut out = Vec::new();
        for (idx, d) in self.directives.iter().enumerate() {
            for e in &d.errors {
                out.push((d.line, format!("invalid analyzer:allow directive: {e}")));
            }
            if d.errors.is_empty() && !self.used.contains(&idx) {
                out.push((
                    d.line,
                    format!(
                        "stale analyzer:allow({}) directive: no matching finding on or below this line",
                        d.rule
                    ),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directive(text: &str) -> AllowDirective {
        let parsed = parse(&[(7, text.to_string())]);
        assert_eq!(parsed.len(), 1);
        parsed.into_iter().next().unwrap()
    }

    #[test]
    fn well_formed_directive_parses() {
        let d = directive("// analyzer:allow(panic_freedom) slice length checked two lines above");
        assert!(d.errors.is_empty(), "{:?}", d.errors);
        assert_eq!(d.rule, "panic_freedom");
        assert!(d.justification.starts_with("slice length"));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let d = directive("// analyzer:allow(made_up_rule) some plausible words here");
        assert!(d.errors.iter().any(|e| e.contains("unknown rule")));
    }

    #[test]
    fn short_justification_is_an_error() {
        let d = directive("// analyzer:allow(lock_order) ok");
        assert!(d.errors.iter().any(|e| e.contains("justification")));
    }

    #[test]
    fn suppression_covers_same_and_following_lines() {
        let d =
            directive("// analyzer:allow(lock_order) two disjoint lock sections explained here");
        let mut s = Suppressions::new(vec![d]);
        assert!(s.suppresses("lock_order", 7), "same line");
        assert!(s.problems().is_empty());
    }

    #[test]
    fn directive_does_not_cover_far_away_lines() {
        let d =
            directive("// analyzer:allow(lock_order) two disjoint lock sections explained here");
        let mut s = Suppressions::new(vec![d]);
        assert!(!s.suppresses("lock_order", 30));
        assert!(!s.suppresses("lock_order", 6), "directive never covers lines above it");
        // Unused valid directive is reported as stale.
        assert_eq!(s.problems().len(), 1);
        assert!(s.problems()[0].1.contains("stale"));
    }

    #[test]
    fn wrong_rule_does_not_suppress() {
        let d = directive("// analyzer:allow(panic_freedom) length checked right above this");
        let mut s = Suppressions::new(vec![d]);
        assert!(!s.suppresses("lock_order", 7));
    }
}
