//! Command-path rule.
//!
//! Two invariants on the path a flash command takes:
//!
//! 1. **One request path in the storage manager.**  Inside
//!    `crates/core/src` the device's timed entry point —
//!    `device.execute(..)`, or any of the per-command verbs it replaced —
//!    is legal only in the `io` module, whose `exec` is the crate's
//!    single device choke point: a second site would fork the path that
//!    later changes (op-context, causal time) go through.
//! 2. **One reservation site in the device.**  Device time is claimed
//!    by `Timeline::reserve` and by nothing else; `Die::reserve` and
//!    `Channel::reserve` wrap it, `sched::schedule` alone calls those, and
//!    `NandDevice::run` reaches `schedule` in exactly one place (its
//!    `phases`).  A second site under `crates/flash/src` would be a
//!    command path of its own with a reservation rule of its own.
//!    (`Timeline::probe` only looks and is legal anywhere.)

use super::{is_call, is_method_call, FileView, RawFinding};
use crate::lexer::Tok;

/// Rule name for `analyzer:allow`.
pub const RULE: &str = "command_path";

/// The per-command verbs of the timed device interface (each also has a
/// `_tagged` form).
const DEVICE_VERBS: &[&str] =
    &["read_page", "program_page", "erase_block", "copyback", "read_metadata"];

/// The device crate's root and the one function outside
/// [`RESERVATION_FILES`] that may call the reservation primitives (as
/// `(file, fn)`).
const FLASH_ROOT: &str = "crates/flash/src";
/// Files (by path suffix) that own the reservation primitives.
pub const RESERVATION_FILES: &[&str] = &["crates/flash/src/sched.rs", "crates/flash/src/die.rs"];
const RESERVATION_SITE: (&str, &str) = ("crates/flash/src/device.rs", "phases");

/// Is the token at `i` a timed device call: a per-command verb (plain or
/// `_tagged`), or `execute` on a receiver named `device` (`NoFtl::execute`
/// is also called `.execute(`, so the bare name would not do)?
fn is_timed_device_call(toks: &[Tok], i: usize) -> bool {
    let name = toks[i].text.as_str();
    if !is_method_call(toks, i, name) {
        return false;
    }
    let verb = DEVICE_VERBS.iter().any(|v| name == *v || name.strip_prefix(v) == Some("_tagged"));
    verb || (name == "execute" && i >= 2 && toks[i - 2].is_ident("device"))
}

/// Is the token at `i` a claim on die or channel time: a call of
/// `schedule`, or a `.reserve(` method call — `Timeline::reserve` or one
/// of its two wrappers?  (A `Vec::reserve` in the device crate would need
/// an `analyzer:allow`.)
fn is_reservation(toks: &[Tok], i: usize) -> bool {
    is_call(toks, i, "schedule") || is_method_call(toks, i, "reserve")
}

/// The storage manager's crate root and, within it, the one module
/// allowed to touch the device's timed operations.
const CORE_ROOT: &str = "crates/core/src";
const CORE_IO_MODULE: &str = "crates/core/src/io.rs";

/// Run the rule over one file.
pub fn check(view: &FileView<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = view.tokens;
    let path = view.path.replace('\\', "/");

    // Invariant 2: the device's single reservation site.
    if path.contains(FLASH_ROOT) && !RESERVATION_FILES.iter().any(|f| path.ends_with(f)) {
        for item in view.fn_items() {
            if path.ends_with(RESERVATION_SITE.0) && item.name == RESERVATION_SITE.1 {
                continue;
            }
            for i in item.body.clone() {
                if view.is_production(i) && is_reservation(toks, i) {
                    out.push(RawFinding {
                        rule: RULE,
                        line: toks[i].line,
                        message: format!(
                            "`{}()` in `{}` is a second reservation site; die and channel time \
                             is claimed only by `Timeline::reserve` under `sched::schedule`, \
                             called from `NandDevice::run`'s `phases`",
                            toks[i].text, item.name
                        ),
                    });
                }
            }
        }
    }

    // Invariant 1: the storage manager's single request path.
    if path.contains(CORE_ROOT) && !path.ends_with(CORE_IO_MODULE) {
        for (i, t) in toks.iter().enumerate() {
            if !view.is_production(i) || !is_method_call(toks, i, &t.text) {
                continue;
            }
            if is_timed_device_call(toks, i) {
                out.push(RawFinding {
                    rule: RULE,
                    line: t.line,
                    message: format!(
                        "`.{}()` outside `{CORE_IO_MODULE}`; the storage manager issues every \
                         device command through `Env::exec`",
                        t.text
                    ),
                });
            }
        }
    }

    out
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
    fn core_device_calls_are_legal_only_in_the_io_module() {
        // `noftl.execute(..)` is the storage manager's own verb, not the
        // device's: only a receiver named `device` counts.
        let src = "fn gc(&self) { self.device.copyback(a, b, t); self.device.read_metadata_tagged(a, t, g); \
                   self.env.device.execute(c, t, g); noftl.execute(r, t, w); }";
        let f = run("crates/core/src/gc.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("Env::exec")));
        assert!(run("crates/core/src/io.rs", src).is_empty());
        assert!(run("crates/mirror/src/device.rs", src).is_empty());
        // Test code may drive the device directly.
        let test_src = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert!(run("crates/core/src/gc.rs", &test_src).is_empty());
    }

    #[test]
    fn reservations_are_legal_only_in_sched_die_and_phases() {
        let src = "fn phases(&self) { sched::schedule(d, c, s, t); }\n\
                   fn fast_read(&self) { sched::schedule(d, None, s, t); }\n\
                   fn peek(&self) { let slot = die.reserve(t, dur); chan.timeline.reserve(t, dur); \
                   die.timeline.probe(t, dur); }";
        let f = run("crates/flash/src/device.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("second reservation site")));
        assert!(f[0].message.contains("fast_read"));
        // The primitives' own files, and code outside the device crate.
        assert!(run("crates/flash/src/sched.rs", src).is_empty());
        assert!(run("crates/flash/src/die.rs", src).is_empty());
        assert!(run("crates/core/src/gc.rs", src).is_empty());
        // Only `device.rs` has a sanctioned `phases`.
        assert_eq!(run("crates/flash/src/backend.rs", src).len(), 4);
        let test_src = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert!(run("crates/flash/src/device.rs", &test_src).is_empty());
    }

    #[test]
    fn both_bypasses_of_the_request_path_fixture_are_caught() {
        let f =
            run("crates/core/src/gc.rs", include_str!("../../fixtures/device_call_outside_io.rs"));
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("Env::exec")));
    }

    #[test]
    fn the_reservation_fixture_is_caught_by_the_reservation_invariant() {
        let f = run(
            "crates/flash/src/device.rs",
            include_str!("../../fixtures/second_reservation_site.rs"),
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("second reservation site")));
    }
}
