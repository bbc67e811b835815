//! Error type for the NoFTL storage manager.

use flash_sim::FlashError;
use std::fmt;

use crate::object::ObjectId;
use crate::region::RegionId;

/// Errors surfaced by the NoFTL storage manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoFtlError {
    /// A region with this name already exists.
    RegionExists {
        /// Conflicting name.
        name: String,
    },
    /// No region with this id/name exists.
    UnknownRegion {
        /// Requested region description.
        region: String,
    },
    /// The device does not have enough unassigned dies to satisfy a
    /// `CREATE REGION` / grow request.
    NotEnoughDies {
        /// Dies requested.
        requested: u32,
        /// Dies available in the free pool.
        available: u32,
    },
    /// A region cannot be dropped / shrunk while objects still live in it.
    RegionNotEmpty {
        /// The region in question.
        region: RegionId,
        /// Number of objects still placed in it.
        objects: usize,
    },
    /// An object with this name already exists.
    ObjectExists {
        /// Conflicting name.
        name: String,
    },
    /// No object with this id/name exists.
    UnknownObject {
        /// Requested object description.
        object: String,
    },
    /// Read of a logical page that has never been written.
    PageNotWritten {
        /// Object owning the page.
        object: ObjectId,
        /// Logical page number.
        page: u64,
    },
    /// The region ran out of space and garbage collection could not
    /// reclaim enough (the region's dies are full of valid data).
    RegionFull {
        /// The region that is full.
        region: RegionId,
        /// Its name, so the message means something in a figure table.
        name: String,
    },
    /// The data buffer does not match the device page size.
    BadPageSize {
        /// Expected size in bytes.
        expected: u32,
        /// Supplied buffer length.
        got: usize,
    },
    /// A DDL statement could not be parsed or executed.
    Ddl {
        /// Human-readable description.
        message: String,
    },
    /// `NoFtl::mount` found data on the device but no complete region-
    /// metadata checkpoint to rebuild the directory from.
    NoCheckpoint,
    /// A checkpoint or mount operation failed.
    Recovery {
        /// Human-readable description.
        message: String,
    },
    /// A NoFTL-KV store operation failed (missing store, corrupt run,
    /// oversized entry, or a crash-consistency contract violation caught
    /// by the harness).
    Kv {
        /// Human-readable description.
        message: String,
    },
    /// An underlying native flash error.
    Flash(FlashError),
}

impl fmt::Display for NoFtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoFtlError::RegionExists { name } => write!(f, "region '{name}' already exists"),
            NoFtlError::UnknownRegion { region } => write!(f, "unknown region {region}"),
            NoFtlError::NotEnoughDies { requested, available } => {
                write!(f, "not enough free dies: requested {requested}, available {available}")
            }
            NoFtlError::RegionNotEmpty { region, objects } => {
                write!(f, "region {:?} still holds {objects} object(s)", region)
            }
            NoFtlError::ObjectExists { name } => write!(f, "object '{name}' already exists"),
            NoFtlError::UnknownObject { object } => write!(f, "unknown object {object}"),
            NoFtlError::PageNotWritten { object, page } => {
                write!(f, "object {object} page {page} has never been written")
            }
            NoFtlError::RegionFull { name, .. } => write!(f, "region {name} is out of space"),
            NoFtlError::BadPageSize { expected, got } => {
                write!(f, "bad page buffer size: expected {expected}, got {got}")
            }
            NoFtlError::Ddl { message } => write!(f, "DDL error: {message}"),
            NoFtlError::NoCheckpoint => write!(
                f,
                "device holds data but no complete region-metadata checkpoint; \
                 cannot rebuild the object directory"
            ),
            NoFtlError::Recovery { message } => write!(f, "recovery error: {message}"),
            NoFtlError::Kv { message } => write!(f, "kv error: {message}"),
            NoFtlError::Flash(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl std::error::Error for NoFtlError {}

impl From<FlashError> for NoFtlError {
    fn from(e: FlashError) -> Self {
        NoFtlError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(NoFtlError::RegionExists { name: "rgHot".into() }.to_string().contains("rgHot"));
        assert!(NoFtlError::NotEnoughDies { requested: 8, available: 2 }
            .to_string()
            .contains("requested 8"));
        assert!(NoFtlError::PageNotWritten { object: 3, page: 9 }.to_string().contains("page 9"));
        let e: NoFtlError = FlashError::oob("x").into();
        assert!(matches!(e, NoFtlError::Flash(_)));
    }
}
