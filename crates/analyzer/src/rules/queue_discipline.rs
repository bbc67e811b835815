//! Queue-discipline rule.
//!
//! Four invariants around `CommandQueue` and the command path under it:
//!
//! 1. **No timed device calls off the submit path.**  In `queue.rs` the
//!    device's timed entry point — `device.execute(..)`, or any of the
//!    per-command verbs it replaced — is legal only inside
//!    `submit_tagged`, where the queue lock is not held; completion and
//!    poll paths must never touch the NAND device.
//! 2. **Completion errors must be observed.**  A `Completion` carries the
//!    device's error arm; dropping the result of `wait`/`poll`/`drain`
//!    on the floor (`q.wait(h);` or `let _ = q.wait(h);`) silently
//!    swallows media failures.
//! 3. **One request path in the storage manager.**  Inside
//!    `crates/core/src` the same timed device calls and every
//!    `queue.submit*` are legal only in the `io` module, whose `exec` is
//!    the crate's single device choke point — a second site would bypass
//!    the queue the arbiter polices or fork the path that later changes
//!    (op-context, causal time) go through.
//! 4. **One reservation site in the device.**  Device time is claimed
//!    by `Timeline::reserve` and by nothing else; `Die::reserve` and
//!    `Channel::reserve` wrap it, `sched::schedule` alone calls those, and
//!    `NandDevice::run` reaches `schedule` in exactly one place (its
//!    `phases`).  A second site under `crates/flash/src` would be a
//!    command path of its own with a reservation rule of its own.
//!    (`Timeline::probe` only looks and is legal anywhere.)

use super::{is_call, is_method_call, FileView, RawFinding};
use crate::lexer::Tok;

/// Rule name for `analyzer:allow`.
pub const RULE: &str = "queue_discipline";

/// The per-command verbs of the timed device interface (each also has a
/// `_tagged` form).
const DEVICE_VERBS: &[&str] =
    &["read_page", "program_page", "erase_block", "copyback", "read_metadata"];

/// Functions in `queue.rs` allowed to invoke the device directly.
const EXECUTE_FNS: &[&str] = &["submit_tagged"];

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

/// Completion-bearing calls whose result must be consumed.
const COMPLETION_CALLS: &[&str] = &["wait", "poll", "drain"];

/// Crate roots the dropped-completion check applies to.
const SCOPES: &[&str] = &["crates/flash/src", "crates/core/src"];

/// The storage manager's crate root and, within it, the one module
/// allowed to touch the device's timed operations and the queue.
const CORE_ROOT: &str = "crates/core/src";
const CORE_IO_MODULE: &str = "crates/core/src/io.rs";

/// Run the rule over one file.
pub fn check(view: &FileView<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = view.tokens;
    let path = view.path.replace('\\', "/");

    // Invariant 1: timed device calls outside the submit path.
    if path.ends_with("crates/flash/src/queue.rs") || path.ends_with("fixtures/queue.rs") {
        for item in view.fn_items() {
            if item.body.start < toks.len() && !view.is_production(item.body.start) {
                continue;
            }
            if EXECUTE_FNS.contains(&item.name.as_str()) {
                continue;
            }
            for i in item.body.clone() {
                if is_timed_device_call(toks, i) {
                    out.push(RawFinding {
                        rule: RULE,
                        line: toks[i].line,
                        message: format!(
                            "timed device call `.{}()` reachable from `{}`; completion/poll \
                             paths must not touch the NAND device directly",
                            toks[i].text, item.name
                        ),
                    });
                }
            }
        }
    }

    // Invariant 4: the device's single reservation site.
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

    // Invariant 3: the storage manager's single request path.
    if path.contains(CORE_ROOT) && !path.ends_with(CORE_IO_MODULE) {
        for (i, t) in toks.iter().enumerate() {
            if !view.is_production(i) || !is_method_call(toks, i, &t.text) {
                continue;
            }
            let queue_submit =
                t.text.starts_with("submit") && i >= 2 && toks[i - 2].is_ident("queue");
            if is_timed_device_call(toks, i) || queue_submit {
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

    // Invariant 2: dropped Completion results.
    if !SCOPES.iter().any(|s| path.contains(s)) {
        return out;
    }
    for (i, t) in toks.iter().enumerate() {
        if !view.is_production(i) || !COMPLETION_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        if !is_method_call(toks, i, &t.text) {
            continue;
        }
        // `drain` is also a std collection method; the queue's variant is
        // nullary, so an argument list (e.g. `vec.drain(..)`) exempts it.
        if t.text == "drain" && !toks.get(i + 2).is_some_and(|n| n.is_punct(')')) {
            continue;
        }
        let Some(close) = matching_paren(toks, i + 1) else { continue };
        // Chained consumption (`?`, `.is_err()`, `.into_iter()`) counts
        // as observing the result.
        let consumed_after = toks.get(close + 1).is_some_and(|n| !n.is_punct(';'));
        if consumed_after {
            continue;
        }
        // Look back to the start of the statement for a binding or
        // control-flow use of the value.
        let start = statement_start(toks, i);
        let discarded_into_underscore = toks[start..i]
            .windows(3)
            .any(|w| w[0].is_ident("let") && w[1].is_ident("_") && w[2].is_punct('='));
        let bound = !discarded_into_underscore
            && toks[start..i].iter().any(|t| {
                t.is_punct('=')
                    || t.is_ident("return")
                    || t.is_ident("match")
                    || t.is_ident("if")
                    || t.is_ident("while")
                    || t.is_ident("for")
            });
        if !bound {
            out.push(RawFinding {
                rule: RULE,
                line: t.line,
                message: format!(
                    "result of `.{}()` is dropped; a Completion carries the device error and \
                     must be checked",
                    t.text
                ),
            });
        }
    }
    out
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[crate::lexer::Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Walk back from token `i` to the statement boundary (`;`, `{` or `}`).
fn statement_start(toks: &[crate::lexer::Tok], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    j
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
    fn dropped_wait_is_flagged() {
        let f = run("crates/flash/src/queue.rs", "fn f(q: &Q, h: H) { q.wait(h); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("dropped"));
    }

    #[test]
    fn let_underscore_wait_is_flagged() {
        let f = run("crates/core/src/manager.rs", "fn f(q: &Q, h: H) { let _ = q.wait(h); }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn bound_wait_is_fine() {
        let src = "fn f(q: &Q, h: H) -> R { let c = q.wait(h); if q.poll(h).is_some() { } c }";
        assert!(run("crates/flash/src/queue.rs", src).is_empty());
    }

    #[test]
    fn propagated_wait_is_fine() {
        let src = "fn f(q: &Q, h: H) -> Result<(), E> { q.wait(h)?; Ok(()) }";
        assert!(run("crates/flash/src/queue.rs", src).is_empty());
    }

    #[test]
    fn vec_drain_with_range_is_fine() {
        let src = "fn f(v: &mut Vec<u8>) { v.drain(..); }";
        assert!(run("crates/core/src/kv/store.rs", src).is_empty());
    }

    #[test]
    fn nullary_drain_dropped_is_flagged() {
        let f = run("crates/flash/src/queue.rs", "fn f(q: &Q) { q.drain(); }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn core_device_calls_are_legal_only_in_the_io_module() {
        // `noftl.execute(..)` is the storage manager's own verb, not the
        // device's: only a receiver named `device` counts — as only a
        // receiver named `queue` makes a `.submit(` a queue submission.
        let src = "fn gc(&self) { self.device.copyback(a, b, t); self.device.read_metadata_tagged(a, t, g); \
                   let h = self.queue.submit_tagged(c, t, g); memtable.submit(k, v); \
                   self.env.device.execute(c, t, g); noftl.execute(r, t, w); }";
        let f = run("crates/core/src/gc.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.message.contains("Env::exec")));
        assert!(run("crates/core/src/io.rs", src).is_empty());
        assert!(run("crates/mirror/src/device.rs", src).is_empty());
        // Test code may drive the device directly.
        let test_src = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert!(run("crates/core/src/gc.rs", &test_src).is_empty());
    }

    #[test]
    fn timed_device_call_outside_submit_tagged_is_flagged() {
        let src = "fn poll_inner(&self) { self.device.execute(c, t, g); }\n\
                   fn wait(&self) { let r = self.dev.read_page_tagged(a, t, g); }\n\
                   fn submit_tagged(&self) { self.device.execute(c, t, g); }";
        let f = run("crates/flash/src/queue.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("poll_inner"));
        assert!(f[1].message.contains("wait"));
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
        assert_eq!(run("crates/flash/src/queue.rs", src).len(), 4);
        let test_src = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        assert!(run("crates/flash/src/device.rs", &test_src).is_empty());
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
