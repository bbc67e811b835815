//! The two trait seams a traced run decorates, as a hook the stack
//! builders call.  [`Untraced`] forwards everything, so the `bench` binary
//! compiles and runs without any decorator in the tree.

use std::sync::Arc;

use dbms_engine::StorageBackend;
use flash_sim::{FlashBackend, SimTime};

/// The layer an op enters the stack at: what is left of its latency once
/// the seams below are subtracted belongs to this layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// A transaction on the dbms (over the storage seam and the flash seam).
    Dbms,
    /// A call on NoFTL-KV, which is part of core (over the flash seam only).
    Kv,
}

/// What a run may interpose between the layers, and the marks the
/// workload loops put around every measured op (and around no other).
/// Every method defaults to "do nothing".
pub trait Seams {
    /// core -> flash: wrap the device the storage manager runs on.
    fn flash(&self, device: Arc<dyn FlashBackend>) -> Arc<dyn FlashBackend> {
        device
    }

    /// dbms -> core: wrap the backend the database runs on.
    fn storage(&self, backend: Arc<dyn StorageBackend>) -> Arc<dyn StorageBackend> {
        backend
    }

    /// A measured op of `kind` is about to be issued at `issue`.
    fn op_begin(&self, _entry: Entry, _kind: &'static str, _issue: SimTime) {}

    /// The op begun last completed (or failed) at `done`.
    fn op_end(&self, _done: SimTime) {}
}

/// The seams left alone: what every end-to-end metric is measured with.
pub struct Untraced;

impl Seams for Untraced {}
