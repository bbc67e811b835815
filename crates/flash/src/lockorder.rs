//! Runtime lock-order sanitizer for the workspace's layer locks.
//!
//! Each layer the sanitizer tracks has exactly one lock, and the layers
//! nest in one total order:
//!
//! ```text
//! engine → manager → mirror → device
//! ```
//!
//! The stack is driven from one host thread, so a finer grain would buy
//! nothing: the parallelism the paper measures — dies and channels — is
//! simulated time on the device's timelines, not host threads.  Every
//! acquisition goes through one choke point per class ([`lock_tracked`]
//! behind `lock_engine` / `lock_store`, `lock_inner`, `mirror_shard` and
//! `lock_device`), so in debug
//! builds each acquisition is recorded on a thread-local held-lock stack
//! and checked against the order *before* the thread blocks on the
//! mutex: a would-be deadlock — or a re-entry of a lock the thread
//! already holds — panics with a message naming both locks instead of
//! hanging the test suite.  The children of a mirror are two locks of one
//! class; nothing holds one while it takes the other.  So are the engines
//! over one manager — a database (`lock_engine`) and a KV store
//! (`lock_store`) — and nothing holds one engine while it takes another.
//!
//! In release builds [`LockToken`] is a zero-sized type with no `Drop`
//! impl and [`acquire`] compiles down to nothing — the sanitizer adds zero
//! overhead to the benchmarked hot path.
//!
//! The order across layers is also held at compile time: the crate
//! graph (flash ← mirror ← core ← dbms) keeps a lower layer from naming
//! a higher one, each choke point is private to its layer, and
//! `clippy.toml` bans a raw `std::sync::Mutex::lock` everywhere but
//! [`lock_tracked`].  What the compiler cannot see — a re-entry, or two
//! locks of one layer nested — this module checks dynamically on every
//! tier-1 and crash-harness run.
//!
//! ```
//! use flash_sim::lockorder::{acquire, LockClass};
//!
//! // Ascending acquisitions are fine; tokens release on drop.
//! let mirror = acquire(LockClass::Mirror);
//! let device = acquire(LockClass::Device);
//! drop((device, mirror));
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// The lock classes of the workspace, in their documented acquisition
/// order.  The derived `Ord` **is** the lock order: a lock may only be
/// acquired while every currently-held lock compares strictly smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// An engine over the storage manager: a `dbms_engine::Database`'s
    /// pool, log, catalog, heaps and trees, or a `noftl_core::KvStore`'s
    /// memtable and runs.  The first class: an engine calls down into
    /// the manager and the device while it is held.
    Engine,
    /// `noftl-core`'s manager state (`NoFtl::inner`).
    Manager,
    /// `noftl-mirror`'s replica state (health machine, dirty sets, the
    /// mirror's epoch).  Sits above the device because the mirror fans
    /// out to its children — and copies rebuild segments — while holding
    /// it.
    Mirror,
    /// A device's whole mutable state: dies, channels, arbiter buckets,
    /// ledger, epoch and power cut.  The last class: nothing is acquired
    /// while a device is held.
    Device,
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockClass::Engine => write!(f, "engine"),
            LockClass::Manager => write!(f, "manager"),
            LockClass::Mirror => write!(f, "mirror"),
            LockClass::Device => write!(f, "device"),
        }
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// The lock classes held by this thread, in acquisition order.
    static HELD: std::cell::RefCell<Vec<LockClass>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Proof of a recorded lock acquisition.
///
/// In debug builds the token carries its [`LockClass`] and pops it from
/// the thread-local held stack on drop; in release builds it is a
/// zero-sized type with no `Drop` impl.
#[must_use = "dropping the token immediately unrecords the acquisition"]
pub struct LockToken {
    #[cfg(debug_assertions)]
    class: LockClass,
}

/// Record the acquisition of `class` on this thread's held-lock stack,
/// panicking if it violates the documented order.
///
/// The check runs *before* the caller blocks on the mutex (see
/// [`lock_tracked`]), so an out-of-order acquisition that could deadlock
/// panics deterministically instead of hanging.
///
/// # Panics
/// In debug builds, panics when `class` is already held by this thread
/// (recursive acquisition) or does not compare strictly greater than
/// every held lock (out-of-order acquisition).  Release builds never
/// panic — the function is a no-op.
#[inline]
#[cfg_attr(debug_assertions, expect(clippy::panic, reason = "the sanitizer panics on a violation"))]
pub fn acquire(class: LockClass) -> LockToken {
    #[cfg(debug_assertions)]
    {
        HELD.with(|held| {
            let held = held.borrow();
            for &h in held.iter() {
                if h == class {
                    panic!(
                        "lock-order violation: recursive acquisition of {class} \
                         (already held by this thread)"
                    );
                }
                if class < h {
                    panic!(
                        "lock-order violation: acquiring {class} while holding {h}; \
                         the documented order is engine -> manager -> mirror -> device"
                    );
                }
            }
        });
        HELD.with(|held| held.borrow_mut().push(class));
        LockToken { class }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = class;
        LockToken {}
    }
}

#[cfg(debug_assertions)]
impl Drop for LockToken {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards are not always released in LIFO order (a caller may
            // drop a mirror guard before a later-acquired device guard),
            // so remove by search rather than popping the top.
            if let Some(pos) = held.iter().rposition(|&c| c == self.class) {
                held.remove(pos);
            }
        });
    }
}

/// A [`MutexGuard`] bundled with its [`LockToken`]: dropping the guard
/// releases the mutex first, then unrecords the acquisition.
pub struct TrackedGuard<'a, T: ?Sized> {
    guard: MutexGuard<'a, T>,
    _token: LockToken,
}

impl<T: ?Sized> Deref for TrackedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for TrackedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.guard.fmt(f)
    }
}

/// Acquire `mutex` as lock class `class`: the order check and the held
/// stack recording happen **before** blocking on the mutex, so a
/// would-be deadlock panics (debug builds) instead of hanging.  A mutex
/// a panicking holder poisoned is taken as it stands
/// ([`PoisonError::into_inner`]).
#[inline]
#[expect(clippy::disallowed_methods, reason = "the one choke point every layer lock goes through")]
pub fn lock_tracked<'a, T: ?Sized>(class: LockClass, mutex: &'a Mutex<T>) -> TrackedGuard<'a, T> {
    let token = acquire(class);
    TrackedGuard { guard: mutex.lock().unwrap_or_else(PoisonError::into_inner), _token: token }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_classes_order_matches_documentation() {
        assert!(LockClass::Engine < LockClass::Manager);
        assert!(LockClass::Manager < LockClass::Mirror);
        assert!(LockClass::Mirror < LockClass::Device);
    }

    #[cfg(debug_assertions)]
    mod debug_build {
        use super::*;

        /// Number of locks the current thread holds.
        fn held_depth() -> usize {
            HELD.with(|held| held.borrow().len())
        }

        #[test]
        fn ascending_acquisitions_are_recorded_and_released() {
            assert_eq!(held_depth(), 0);
            let a = acquire(LockClass::Manager);
            let b = acquire(LockClass::Mirror);
            let c = acquire(LockClass::Device);
            assert_eq!(held_depth(), 3);
            // Non-LIFO release must unrecord correctly too.
            drop(b);
            assert_eq!(held_depth(), 2);
            drop((a, c));
            assert_eq!(held_depth(), 0);
        }

        #[test]
        #[should_panic(expected = "recursive acquisition")]
        fn recursive_acquisition_panics() {
            let _a = acquire(LockClass::Device);
            let _b = acquire(LockClass::Device);
        }

        #[test]
        fn manager_may_nest_the_device() {
            let _m = acquire(LockClass::Manager);
            let _d = acquire(LockClass::Device);
            assert_eq!(held_depth(), 2);
        }

        #[test]
        fn mirror_nests_between_manager_and_child_devices() {
            // The replication layer's acquisition path: manager state, the
            // mirror's own state, then one child device at a time.
            let _m = acquire(LockClass::Manager);
            let _mi = acquire(LockClass::Mirror);
            {
                let _first = acquire(LockClass::Device);
                assert_eq!(held_depth(), 3);
            }
            let _second = acquire(LockClass::Device);
            assert_eq!(held_depth(), 3);
        }

        #[test]
        #[should_panic(expected = "lock-order violation")]
        fn device_before_mirror_panics() {
            let _d = acquire(LockClass::Device);
            let _m = acquire(LockClass::Mirror);
        }

        #[test]
        #[should_panic(expected = "lock-order violation")]
        fn device_before_manager_panics() {
            let _d = acquire(LockClass::Device);
            let _m = acquire(LockClass::Manager);
        }

        #[test]
        fn engine_may_nest_the_manager() {
            let _e = acquire(LockClass::Engine);
            let _m = acquire(LockClass::Manager);
            assert_eq!(held_depth(), 2);
        }

        #[test]
        #[should_panic(expected = "acquiring engine while holding manager")]
        fn manager_before_engine_panics() {
            let _m = acquire(LockClass::Manager);
            let _e = acquire(LockClass::Engine);
        }

        #[test]
        fn engine_displays_as_engine() {
            assert_eq!(LockClass::Engine.to_string(), "engine");
        }

        #[test]
        #[expect(
            clippy::disallowed_methods,
            reason = "reads the mutex behind the guard's back to see it released"
        )]
        fn tracked_guard_releases_mutex_before_unrecording() {
            let m = Mutex::new(5u32);
            {
                let mut g = lock_tracked(LockClass::Device, &m);
                *g += 1;
                assert_eq!(held_depth(), 1);
            }
            assert_eq!(held_depth(), 0);
            assert_eq!(*m.lock().unwrap(), 6);
        }
    }

    #[cfg(not(debug_assertions))]
    mod release_build {
        use super::*;

        #[test]
        fn sanitizer_is_a_zero_cost_no_op() {
            // Zero-sized token, nothing recorded, and out-of-order
            // acquisition does not panic: the release hot path pays
            // nothing for the sanitizer.
            assert_eq!(std::mem::size_of::<LockToken>(), 0);
            let _device = acquire(LockClass::Device);
            let _mirror = acquire(LockClass::Mirror);
        }
    }
}
