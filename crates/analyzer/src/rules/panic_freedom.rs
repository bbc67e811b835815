//! Panic-freedom rule.
//!
//! Production code in `crates/flash/src`, `crates/core/src` and
//! `crates/obs/src` must not contain `unwrap`/`expect` calls or
//! `panic!`-family macros: on the device hot path a panic unwinds out of
//! the device lock and takes the whole simulated SSD down, and the
//! observability layer is instrumented into those same paths.  Direct slice indexing is additionally denied in
//! the files on the per-command hot path, where a slip past a bounds
//! check is most likely and most costly.
//!
//! Genuinely infallible cases (a length checked on the previous line, a
//! constructor validating its config) are annotated
//! `// analyzer:allow(panic_freedom) <why it cannot fire>`.

use super::{is_method_call, FileView, RawFinding};
use crate::lexer::TokKind;

/// Rule name for `analyzer:allow`.
pub const RULE: &str = "panic_freedom";

/// Method calls that panic on the error/none arm.
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that unconditionally panic.
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Files (by path suffix) where direct slice indexing is also denied.
pub const HOT_PATH_FILES: &[&str] = &["src/sched.rs"];

/// Crate roots (by path substring) the rule applies to.
const SCOPES: &[&str] =
    &["crates/flash/src", "crates/core/src", "crates/obs/src", "crates/mirror/src"];

/// Does the rule apply to this file at all?
pub fn in_scope(path: &str) -> bool {
    let p = path.replace('\\', "/");
    SCOPES.iter().any(|s| p.contains(s))
}

/// Run the rule over one file.
pub fn check(view: &FileView<'_>) -> Vec<RawFinding> {
    if !in_scope(view.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = view.tokens;
    let hot = HOT_PATH_FILES.iter().any(|f| view.path.replace('\\', "/").ends_with(f));

    for (i, t) in toks.iter().enumerate() {
        if !view.is_production(i) || t.kind != TokKind::Ident {
            // Indexing is keyed on punctuation; handled below.
            if hot
                && view.is_production(i)
                && t.is_punct('[')
                && i >= 1
                && is_indexable(&toks[i - 1])
            {
                out.push(RawFinding {
                    rule: RULE,
                    line: t.line,
                    message:
                        "direct slice indexing on a hot-path file can panic; use `get`/`get_mut` \
                              or justify with analyzer:allow"
                            .to_string(),
                });
            }
            continue;
        }
        if PANICKY_METHODS.contains(&t.text.as_str()) && is_method_call(toks, i, &t.text) {
            out.push(RawFinding {
                rule: RULE,
                line: t.line,
                message: format!(
                    "`.{}()` in production code panics on the failure arm; return an error instead",
                    t.text
                ),
            });
        } else if PANICKY_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(RawFinding {
                rule: RULE,
                line: t.line,
                message: format!(
                    "`{}!` in production code takes the device down; return an error instead",
                    t.text
                ),
            });
        }
    }
    out
}

/// Can the token directly before a `[` be an indexed expression?  Idents,
/// `)` and `]` can; type positions (`: [u8; 4]`), attribute `#[`, and
/// array literals (`= [`) cannot.
fn is_indexable(prev: &crate::lexer::Tok) -> bool {
    match prev.kind {
        TokKind::Ident => !matches!(
            prev.text.as_str(),
            // Keywords that may directly precede an array literal or type.
            "mut" | "in" | "return" | "as" | "else" | "match" | "if" | "impl" | "dyn" | "const"
        ),
        TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let view = FileView::new(path, &lexed.tokens);
        check(&view)
    }

    #[test]
    fn unwrap_in_scope_is_flagged() {
        let f = run("crates/core/src/manager.rs", "fn f() { x.unwrap(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unwrap"));
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 0); z.unwrap_or_default(); }";
        assert!(run("crates/core/src/manager.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_are_flagged() {
        let f = run("crates/flash/src/device.rs", "fn f() { unreachable!(\"no\") }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        assert!(run("crates/dbms/src/lib.rs", "fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn test_code_is_ignored() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); panic!(\"t\") } }";
        assert!(run("crates/core/src/manager.rs", src).is_empty());
    }

    #[test]
    fn indexing_flagged_only_on_hot_path() {
        let src = "fn f(v: &[u8], i: usize) -> u8 { v[i] }";
        assert_eq!(run("crates/flash/src/sched.rs", src).len(), 1);
        assert!(run("crates/flash/src/device.rs", src).is_empty());
    }

    #[test]
    fn array_types_and_attrs_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f() -> [u8; 2] { [0, 1] }";
        assert!(run("crates/flash/src/sched.rs", src).is_empty());
    }
}
