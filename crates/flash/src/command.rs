//! The native command set as plain data: what [`FlashBackend::execute`]
//! takes and what it hands back.
//!
//! [`FlashCommand`] is the paper's Figure 1 interface — read, metadata
//! read, program, erase, copyback — and [`CmdOutput`] the successful
//! result of any of them.  Every layer speaks these two types; there is
//! no submission queue in between: a caller that wants several commands
//! in flight issues them at the same simulated instant (or at the
//! completion instants of earlier ones) and keeps the results it already
//! holds.
//!
//! Payloads are lent, never handed over.  A program borrows the bytes it
//! writes, and a read borrows the buffer it fills: the device copies the
//! page straight into the caller's destination (a buffer-pool frame, a
//! store's page buffer), so no page is allocated on the way up.
//!
//! ```
//! use flash_sim::{
//!     DeviceBuilder, FlashBackend, FlashCommand, FlashGeometry, IoTag, PageMetadata, SimTime,
//! };
//!
//! let device = DeviceBuilder::new(FlashGeometry::small_test()).build();
//! let data = vec![0xA5; device.geometry().page_size as usize];
//! let addr = flash_sim::PageAddr::new(flash_sim::DieId(0), 0, 0, 0);
//! let program = FlashCommand::Program { addr, data: &data, meta: PageMetadata::new(1, 0) };
//! let out = device.execute(program, SimTime::ZERO, IoTag::default()).unwrap();
//! assert!(out.outcome.completed_at > SimTime::ZERO);
//!
//! let mut page = vec![0; data.len()];
//! let read = FlashCommand::Read { addr, data: &mut page };
//! let out = device.execute(read, out.outcome.completed_at, IoTag::default()).unwrap();
//! assert_eq!((page, out.meta.unwrap().object_id), (data, 1));
//! ```
//!
//! [`FlashBackend::execute`]: crate::FlashBackend::execute

use crate::addr::{BlockAddr, DieId, PageAddr};
use crate::device::OpOutcome;
use crate::metadata::PageMetadata;

/// Kind of a flash command: what the device's counters, latency
/// histograms and `flash.op` tracer spans are filed under.  The variants
/// are in slot order: `kind as usize` indexes per-kind tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Page read (array read + channel transfer out).
    Read,
    /// Page program (channel transfer in + array program).
    Program,
    /// Block erase.
    Erase,
    /// Die-internal copyback.
    Copyback,
    /// OOB metadata read.
    MetadataRead,
}

impl OpKind {
    /// Every kind, in slot order.
    pub const ALL: [OpKind; 5] =
        [OpKind::Read, OpKind::Program, OpKind::Erase, OpKind::Copyback, OpKind::MetadataRead];

    /// The stable name its metrics and `flash.op` tracer spans carry.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Program => "program",
            OpKind::Erase => "erase",
            OpKind::Copyback => "copyback",
            OpKind::MetadataRead => "metadata_read",
        }
    }
}

/// One command of the device's native interface: the argument of
/// [`FlashBackend::execute`](crate::FlashBackend::execute).
///
/// A program *borrows* its payload and a read *borrows* its destination:
/// the command executes inside the call, so nothing outlives it and no
/// caller has to copy a page just to build a command or take its result.
#[derive(Debug)]
pub enum FlashCommand<'a> {
    /// `READ PAGE`: the payload is copied into `data`, the OOB metadata
    /// comes back in the [`CmdOutput`].
    Read {
        /// Page to read.
        addr: PageAddr,
        /// Destination of the payload: one page, or empty to take only
        /// the timing and metadata.
        data: &'a mut [u8],
    },
    /// OOB-only metadata read (cheaper than a full page read).
    MetadataRead {
        /// Page whose OOB area to read.
        addr: PageAddr,
    },
    /// `PROGRAM PAGE` with payload and OOB metadata.
    Program {
        /// Target page (must be erased and sequential within its block).
        addr: PageAddr,
        /// Page payload: one page, or empty for a page of zeros.
        data: &'a [u8],
        /// OOB metadata; a zero epoch is stamped by the device.
        meta: PageMetadata,
    },
    /// `ERASE BLOCK`.
    Erase {
        /// Block to erase.
        block: BlockAddr,
    },
    /// `COPYBACK` (die-internal page move).
    Copyback {
        /// Source page.
        src: PageAddr,
        /// Destination page (same die, erased, sequential).
        dst: PageAddr,
    },
}

impl FlashCommand<'_> {
    /// The same command again, with a read's destination reborrowed: how
    /// one command is handed to several backends in turn.
    pub fn reborrow(&mut self) -> FlashCommand<'_> {
        match self {
            FlashCommand::Read { addr, data } => FlashCommand::Read { addr: *addr, data },
            FlashCommand::MetadataRead { addr } => FlashCommand::MetadataRead { addr: *addr },
            FlashCommand::Program { addr, data, meta } => {
                FlashCommand::Program { addr: *addr, data, meta: *meta }
            }
            FlashCommand::Erase { block } => FlashCommand::Erase { block: *block },
            FlashCommand::Copyback { src, dst } => FlashCommand::Copyback { src: *src, dst: *dst },
        }
    }

    /// The die the command executes on (copybacks are same-die by rule;
    /// for a cross-die copyback this reports the source die and the
    /// device rejects the command at execution).
    pub fn die(&self) -> DieId {
        match self {
            FlashCommand::Read { addr, .. }
            | FlashCommand::MetadataRead { addr }
            | FlashCommand::Program { addr, .. } => addr.die,
            FlashCommand::Erase { block } => block.die,
            FlashCommand::Copyback { src, .. } => src.die,
        }
    }

    /// The kind this command is counted and traced as.
    pub fn kind(&self) -> OpKind {
        match self {
            FlashCommand::Read { .. } => OpKind::Read,
            FlashCommand::MetadataRead { .. } => OpKind::MetadataRead,
            FlashCommand::Program { .. } => OpKind::Program,
            FlashCommand::Erase { .. } => OpKind::Erase,
            FlashCommand::Copyback { .. } => OpKind::Copyback,
        }
    }
}

/// Successful result of an executed command (a read's payload is in
/// the buffer it lent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdOutput {
    /// OOB metadata (reads and metadata reads; `None` otherwise or when
    /// the page's OOB area was lost to a torn operation).
    pub meta: Option<PageMetadata>,
    /// Start/completion times of the operation.
    pub outcome: OpOutcome,
}
