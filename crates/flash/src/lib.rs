//! # flash-sim — a native NAND flash device simulator
//!
//! This crate implements the *substrate* required by the NoFTL architecture
//! described in "Revisiting DBMS Space Management for Native Flash"
//! (Hardock et al., EDBT 2016): a NAND flash device exposed through its
//! **native interface** instead of a legacy block-device interface.
//!
//! The simulated device provides exactly the command set listed in the
//! paper's Figure 1, as the variants of one [`FlashCommand`]:
//!
//! * `READ PAGE` — [`FlashCommand::Read`]
//! * `PROGRAM PAGE` — [`FlashCommand::Program`]
//! * `ERASE BLOCK` — [`FlashCommand::Erase`]
//! * `COPYBACK` — [`FlashCommand::Copyback`] (die-internal page move, no
//!   channel transfer)
//! * page metadata handling — every page carries an out-of-band
//!   [`PageMetadata`] record readable via [`FlashCommand::MetadataRead`]
//!
//! [`FlashBackend::execute`] takes any of them through one command path;
//! the per-command methods of [`FlashBackend`] are adapters over it.
//! [`NandDevice`] is spelled once: [`FlashBackend`] is its command and
//! probe surface (import the trait to call it on the concrete device),
//! and the inherent methods are only power cuts, images and replica
//! programs.  There is no submission queue above it: commands issued at
//! the same simulated instant to different dies overlap, which is how
//! batched and concurrent clients exploit the device's die-level
//! parallelism.
//!
//! Each completed command is counted once, in the ledger of the die that
//! ran it ([`FlashBackend::stats`] sums them), and traced once, as a
//! `flash.op` span of the metrics registry's tracer on the die's track
//! (turn the tracer on for a command trace).
//!
//! ## Time model
//!
//! The simulator is *discrete-time* and fully deterministic.  There is no
//! global event loop: every operation is issued at a caller-supplied
//! [`SimTime`] and the device returns the operation's *completion time*,
//! computed from the latencies of the configured [`TimingModel`] and a
//! per-die and per-channel **occupancy timeline** — the intervals of
//! simulated time already claimed on that resource.  A command takes the
//! first idle window at or after its issue instant that is long enough,
//! whether that window lies after all reserved work or in a hole between
//! two earlier reservations, so what it waits for is what is busy *in
//! simulated time*, not whatever the host happened to call first.
//! Queueing and parallelism across channels, dies and planes emerge
//! naturally: two operations issued to different dies overlap, two issued
//! to the same die serialize.  Each timeline remembers a bounded number
//! of reservations (`flash.timeline.clamped` counts the ones that would
//! have needed more), and the residual dependence on call order — a
//! simulated-earlier command that fits no idle window goes behind a
//! later one that was called first — is measured and gated by
//! `tests/call_order.rs`.
//!
//! ## Structural model
//!
//! ```text
//! device ── channel ── chip ── die ── plane ── block ── page (+ OOB metadata)
//! ```
//!
//! NAND programming constraints are enforced: pages inside a block must be
//! programmed sequentially, a page can only be programmed when erased
//! (out-of-place updates are mandatory), and erases operate on whole blocks
//! and wear them out.
//!
//! ## Persistent formats
//!
//! [`codec`] is the byte codec of every streamed on-flash format in the
//! workspace: little-endian `put_*` writers, the bounds-checked
//! [`codec::Reader`] that answers `None` instead of panicking on a torn
//! buffer, and the magic + CRC-32 [`codec::seal`] / [`codec::open`] of
//! the device image ([`image`]) and the NoFTL checkpoint blob.  The fixed
//! 24-byte OOB record ([`PageMetadata`]) is not streamed and keeps its
//! own fixed-offset encoding.
//!
//! The device image (`NFLIMG04`: [`NandDevice::image`] writes it,
//! [`NandDevice::from_image`] boots it) is the one persisted form of a
//! device: the NAND array's state — geometry, write epoch, endurance and,
//! per block, its bad flag, write pointer, erase count, one invalid flag
//! per programmed page, OOB records and the programmed pages' payload —
//! and nothing else.  It holds no run counters — a device booted from it
//! counts from zero and keeps its wear — and no derived values such as a
//! block's state, its pages' states or its valid-page count.
//!
//! ## What this substitutes for
//!
//! The paper evaluates on a real native-flash board with 64 dies.  We do
//! not have that hardware, so this simulator reproduces the *behavioural*
//! properties the evaluation depends on: command latencies, channel/die
//! parallelism, sequential-programming and erase-before-write constraints,
//! copyback support, per-block wear, and complete operation statistics
//! (reads, programs, erases, copybacks, transferred bytes, busy time).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod arbiter;
pub mod backend;
pub mod badblock;
pub mod block;
pub mod codec;
pub mod command;
pub mod crc;
pub mod device;
pub mod die;
pub mod error;
pub mod geometry;
pub mod image;
pub mod lockorder;
pub mod metadata;
pub(crate) mod obs;
pub mod sched;
pub mod stats;
pub mod time;
pub mod timing;

pub use addr::{BlockAddr, DieId, PageAddr};
pub use arbiter::{ArbiterConfig, IoTag, ServiceClass};
pub use backend::FlashBackend;
pub use badblock::BadBlockPolicy;
pub use block::{BlockInfo, BlockState, PageState};
pub use command::{CmdOutput, FlashCommand, OpKind};
pub use crc::{crc32, crc32_update};
pub use device::{DeviceBuilder, DieLoad, NandDevice, OpOutcome};
pub use error::FlashError;
pub use geometry::FlashGeometry;
pub use lockorder::{LockClass, TrackedGuard};
pub use metadata::PageMetadata;
pub use stats::{DeviceStats, DieStats, WearSummary};
pub use time::{Duration, SimTime};
pub use timing::TimingModel;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FlashError>;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_reexports_are_usable() {
        let geo = FlashGeometry::small_test();
        let dev = DeviceBuilder::new(geo).build();
        assert!(dev.geometry().total_pages() > 0);
    }
}
