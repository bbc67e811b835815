//! Lock-order rule.
//!
//! The workspace documents a total order on lock classes
//! (`flash_sim::lockorder::LockClass`):
//!
//! ```text
//! Engine < Manager < Mirror < Device
//! ```
//!
//! All acquisitions go through named choke points, so a token-level scan
//! can model them: within one function body the sequence of choke-point
//! calls must be non-decreasing in rank, and no choke point may appear
//! twice (re-entry on a non-reentrant mutex deadlocks; two textual
//! acquisitions are legal only when the first guard is provably dropped,
//! which the author asserts with `analyzer:allow(lock_order)`).
//!
//! The rule also forbids raw `.lock(` calls in the files that own the
//! choke points — every acquisition must flow through them, or the
//! runtime sanitizer is blind.

use super::{is_call, is_method_call, FileView, RawFinding};

/// Rule name for `analyzer:allow`.
pub const RULE: &str = "lock_order";

/// Choke-point names and their rank in the documented order: one per
/// layer.
const RANKS: &[(&str, u8)] = &[
    ("lock_engine", 0),  // LockClass::Engine: a database
    ("lock_store", 0),   // LockClass::Engine: a KV store
    ("lock_inner", 1),   // LockClass::Manager
    ("mirror_shard", 2), // LockClass::Mirror
    ("lock_device", 3),  // LockClass::Device
];

/// The documented order, as the violation message spells it.
const ORDER: &str = "Engine < Manager < Mirror < Device";

/// Files in which raw `.lock(` calls are forbidden outside the choke
/// points themselves (matched by path suffix).
pub const CHOKE_FILES: &[&str] = &["device.rs", "manager.rs", "db.rs", "store.rs"];

fn rank_of(name: &str) -> Option<u8> {
    RANKS.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
}

/// Run the rule over one file.
pub fn check(view: &FileView<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let toks = view.tokens;

    for item in view.fn_items() {
        // Skip test fns entirely; their first body token carries the mask.
        if item.body.start < toks.len() && !view.is_production(item.body.start) {
            continue;
        }
        // Choke-point definitions acquire their own lock by design.
        let defines_choke = rank_of(&item.name).is_some();

        let mut seen: Vec<(&str, u8, u32)> = Vec::new();
        for i in item.body.clone() {
            let Some(rank) = rank_of(&toks[i].text) else { continue };
            if !is_call(toks, i, &toks[i].text.clone()) {
                continue;
            }
            let name =
                RANKS.iter().find(|(n, _)| *n == toks[i].text).map(|(n, _)| *n).unwrap_or("");
            let line = toks[i].line;

            if let Some((prev_name, _, prev_line)) = seen.iter().find(|(n, _, _)| *n == name) {
                out.push(RawFinding {
                    rule: RULE,
                    line,
                    message: format!(
                        "possible re-entry: `{prev_name}` acquired again in `{}` (first acquisition at line {prev_line}); \
                         if the first guard is dropped before this point, say so with an analyzer:allow",
                        item.name
                    ),
                });
            } else if let Some((prev_name, prev_rank, prev_line)) =
                seen.iter().rev().find(|(_, r, _)| *r > rank)
            {
                out.push(RawFinding {
                    rule: RULE,
                    line,
                    message: format!(
                        "lock-order violation in `{}`: `{name}` (rank {rank}) acquired after \
                         `{prev_name}` (rank {prev_rank}, line {prev_line}); documented order is \
                         {ORDER}",
                        item.name
                    ),
                });
            }
            seen.push((name, rank, line));
        }

        // Raw `.lock(` calls bypass the sanitizer.
        if !defines_choke && CHOKE_FILES.iter().any(|f| view.path.ends_with(f)) {
            for i in item.body.clone() {
                if view.is_production(i) && is_method_call(toks, i, "lock") {
                    out.push(RawFinding {
                        rule: RULE,
                        line: toks[i].line,
                        message: format!(
                            "raw `.lock()` in `{}` bypasses the lock-order sanitizer; \
                             acquire through a lockorder choke point instead",
                            item.name
                        ),
                    });
                }
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
    fn ascending_choke_calls_are_clean() {
        let src = "fn f(&self) { let m = self.lock_inner(); let s = self.mirror_shard(); let d = self.lock_device(); }";
        assert!(run("crates/mirror/src/device.rs", src).is_empty());
    }

    #[test]
    fn mirror_sits_between_manager_and_the_device() {
        let clean = "fn f(&self) { let m = self.lock_inner(); let d = self.lock_device(); }";
        assert!(run("crates/core/src/manager.rs", clean).is_empty());
        let bad = "fn f(&self) { let d = self.lock_device(); let s = self.mirror_shard(); }";
        let f = run("crates/mirror/src/rebuild.rs", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("lock-order violation"));
        assert!(f[0].message.contains("`mirror_shard` (rank 2) acquired after `lock_device`"));
        assert!(f[0].message.contains(ORDER));
    }

    #[test]
    fn an_engine_comes_before_the_manager() {
        let clean = "fn f(&self) { let e = self.lock_engine(); let m = self.lock_inner(); }";
        assert!(run("crates/dbms/src/db.rs", clean).is_empty());
        let bad = "fn f(&self) { let m = self.lock_inner(); let s = self.lock_store(); }";
        let f = run("crates/core/src/kv/store.rs", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`lock_store` (rank 0) acquired after `lock_inner`"));
        let raw = "fn f(&self) { let g = self.engine.lock(); }";
        assert!(run("crates/dbms/src/db.rs", raw)[0].message.contains("raw `.lock()`"));
    }

    #[test]
    fn the_seeded_fixture_reverses_both_ends_of_the_order() {
        let f = run(
            "crates/flash/src/device.rs",
            include_str!("../../fixtures/reversed_lock_order.rs"),
        );
        let names: Vec<bool> = ["`mirror_shard`", "`lock_engine`"]
            .iter()
            .map(|name| f.iter().any(|f| f.message.contains(name)))
            .collect();
        assert_eq!((f.len(), names), (2, vec![true, true]), "{f:?}");
    }

    #[test]
    fn descending_choke_calls_are_flagged() {
        let src = "fn f(&self) { let d = self.lock_device(); let m = self.lock_inner(); }";
        let f = run("crates/flash/src/device.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("lock-order violation"));
    }

    #[test]
    fn re_entry_is_flagged() {
        let src = "fn f(&self) { let a = self.lock_device(); let b = self.lock_device(); }";
        let f = run("crates/flash/src/device.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("re-entry"));
    }

    #[test]
    fn raw_lock_in_choke_file_is_flagged() {
        let src = "fn f(&self) { let g = self.inner.lock(); }";
        let f = run("crates/flash/src/device.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("raw `.lock()`"));
    }

    #[test]
    fn raw_lock_elsewhere_is_not_this_rules_business() {
        let src = "fn f(&self) { let g = self.inner.lock(); }";
        assert!(run("crates/flash/src/lockorder.rs", src).is_empty());
    }

    #[test]
    fn test_functions_are_ignored() {
        let src = "#[test]\nfn t() { let d = x.lock_device(); let m = x.mirror_shard(); }";
        assert!(run("crates/flash/src/device.rs", src).is_empty());
    }
}
