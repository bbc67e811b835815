//! Out-of-band (OOB) page metadata.
//!
//! Every flash page has a spare area where the flash management layer
//! stores bookkeeping information.  Under NoFTL the DBMS itself writes and
//! interprets this metadata (paper, Figure 1: "handle Page Metadata"):
//! it records which logical page of which database object lives in the
//! physical page, plus a monotonically increasing write epoch used to
//! disambiguate stale copies after a crash and to drive hot/cold
//! statistics.

/// Identifier of a database object (table heap, index, log, catalog...)
/// as assigned by the storage manager.  `0` is reserved for "no object".
pub type ObjectId = u32;

/// Out-of-band metadata stored alongside a flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageMetadata {
    /// The database object the page belongs to.
    pub object_id: ObjectId,
    /// Logical page number within the object.
    pub logical_page: u64,
    /// Monotonically increasing write sequence number (device-wide).
    pub epoch: u64,
    /// CRC-32 of the page payload.  Recovery uses it to detect *torn
    /// pages*: a program interrupted by power loss leaves a partially
    /// written payload whose CRC no longer matches, so the page is
    /// discarded on remount.
    pub checksum: u32,
}

impl PageMetadata {
    /// Metadata for a page belonging to `object_id` at `logical_page`.
    /// The epoch is assigned by the device at program time when the caller
    /// passes `epoch == 0`; callers may also supply their own epoch.
    pub fn new(object_id: ObjectId, logical_page: u64) -> Self {
        PageMetadata { object_id, logical_page, epoch: 0, checksum: 0 }
    }

    /// Metadata with an explicit epoch.
    pub fn with_epoch(object_id: ObjectId, logical_page: u64, epoch: u64) -> Self {
        PageMetadata { object_id, logical_page, epoch, checksum: 0 }
    }

    /// Stamp the CRC-32 of `payload` into the metadata.
    pub fn with_payload_checksum(mut self, payload: &[u8]) -> Self {
        self.checksum = crate::crc::crc32(payload);
        self
    }

    /// Verify `payload` against the stored checksum: the one check of a
    /// page's integrity, with no exemption.
    pub fn payload_matches(&self, payload: &[u8]) -> bool {
        crate::crc::crc32(payload) == self.checksum
    }

    /// Serialised size in bytes; must fit in the geometry's OOB area.
    pub const ENCODED_LEN: usize = 24;

    /// Encode into a fixed-size little-endian byte representation
    /// (object_id:4 | logical_page:8 | epoch:8 | checksum:4).
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut out = [0u8; Self::ENCODED_LEN];
        out[0..4].copy_from_slice(&self.object_id.to_le_bytes());
        out[4..12].copy_from_slice(&self.logical_page.to_le_bytes());
        out[12..20].copy_from_slice(&self.epoch.to_le_bytes());
        out[20..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decode from the representation produced by [`PageMetadata::encode`].
    /// Returns `None` if the buffer is too short.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < Self::ENCODED_LEN {
            return None;
        }
        let object_id = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        let logical_page = u64::from_le_bytes(buf[4..12].try_into().ok()?);
        let epoch = u64::from_le_bytes(buf[12..20].try_into().ok()?);
        let checksum = u32::from_le_bytes(buf[20..24].try_into().ok()?);
        Some(PageMetadata { object_id, logical_page, epoch, checksum })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_roundtrip() {
        let m = PageMetadata::with_epoch(7, 123456, 999);
        let enc = m.encode();
        assert_eq!(PageMetadata::decode(&enc), Some(m));
    }

    #[test]
    fn payload_checksum_detects_torn_pages() {
        let payload = vec![0x5Au8; 4096];
        let m = PageMetadata::new(3, 7).with_payload_checksum(&payload);
        assert!(m.checksum != 0);
        assert!(m.payload_matches(&payload));
        let mut torn = payload.clone();
        torn[2048..].fill(0);
        assert!(!m.payload_matches(&torn));
    }

    #[test]
    fn decode_short_buffer_is_none() {
        assert_eq!(PageMetadata::decode(&[0u8; 10]), None);
        assert_eq!(PageMetadata::decode(&[]), None);
    }

    // Typical OOB areas are 64-224 bytes per 4 KiB page; checked at compile
    // time so the encoding can never silently outgrow the smallest OOB.
    const _ENCODED_LEN_FITS_TYPICAL_OOB: () = assert!(PageMetadata::ENCODED_LEN <= 64);

    proptest! {
        #[test]
        fn roundtrip_any(obj in any::<u32>(), page in any::<u64>(), epoch in any::<u64>()) {
            let m = PageMetadata::with_epoch(obj, page, epoch).with_payload_checksum(&page.to_le_bytes());
            prop_assert_eq!(PageMetadata::decode(&m.encode()), Some(m));
        }
    }
}
