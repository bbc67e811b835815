//! Persistent device images.
//!
//! A [`DeviceSnapshot`] can be serialised into a compact, self-validating
//! binary image and written to a file, then loaded and rebuilt into a live
//! device with [`crate::NandDevice::from_snapshot`].  This is the
//! simulator's equivalent of persisting the NAND array across a power
//! cycle: the crash harness captures the (possibly torn) device state at
//! the cut instant, "reboots" by round-tripping it through an image, and
//! hands the reborn device to `NoFtl::mount` for recovery.
//!
//! The format is written and read with [`crate::codec`] and sealed by a
//! CRC-32 over the entire payload, so truncated or corrupted image files
//! are rejected instead of silently producing a half-restored device.

use std::io::{Read, Write};
use std::path::Path;

use crate::block::{BlockSnapshot, BlockState, PageState};
use crate::codec::{open, put_opt, put_u32, put_u64, put_u8, seal, Reader};
use crate::device::DeviceSnapshot;
use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::metadata::PageMetadata;
use crate::stats::{DeviceStats, DieStats, WearSummary};
use crate::time::Duration;
use crate::Result;

// Format version 02: adds the queue-depth high-water marks (device-wide
// and per die) introduced with the command-queue submission API.
const MAGIC: &[u8; 8] = b"NFLIMG02";

fn err(message: impl Into<String>) -> FlashError {
    FlashError::Image { message: message.into() }
}

fn block_state_tag(s: BlockState) -> u8 {
    match s {
        BlockState::Free => 0,
        BlockState::Open => 1,
        BlockState::Full => 2,
        BlockState::Bad => 3,
    }
}

fn block_state_from(tag: u8) -> Option<BlockState> {
    Some(match tag {
        0 => BlockState::Free,
        1 => BlockState::Open,
        2 => BlockState::Full,
        3 => BlockState::Bad,
        _ => return None,
    })
}

fn page_state_tag(s: PageState) -> u8 {
    match s {
        PageState::Free => 0,
        PageState::Valid => 1,
        PageState::Invalid => 2,
    }
}

fn page_state_from(tag: u8) -> Option<PageState> {
    Some(match tag {
        0 => PageState::Free,
        1 => PageState::Valid,
        2 => PageState::Invalid,
        _ => return None,
    })
}

impl DeviceSnapshot {
    /// Serialise the snapshot into the binary image format.
    pub fn encode(&self) -> Vec<u8> {
        seal(MAGIC, 1024 + self.blocks.len() * 64, |out| {
            let g = &self.geometry;
            for v in [
                g.channels,
                g.chips_per_channel,
                g.dies_per_chip,
                g.planes_per_die,
                g.blocks_per_plane,
                g.pages_per_block,
                g.page_size,
                g.oob_size,
            ] {
                put_u32(out, v);
            }
            put_u64(out, self.epoch);
            put_u8(out, u8::from(self.store_data));
            put_u64(out, self.endurance);
            let s = &self.stats;
            for v in [
                s.page_reads,
                s.page_programs,
                s.block_erases,
                s.copybacks,
                s.metadata_reads,
                s.bytes_transferred,
                s.read_latency_sum.0,
                s.program_latency_sum.0,
                s.erase_latency_sum.0,
                s.copyback_latency_sum.0,
                s.errors,
                s.queue_depth_hwm,
            ] {
                put_u64(out, v);
            }
            put_u32(out, self.die_stats.len() as u32);
            for d in &self.die_stats {
                put_u64(out, d.ops);
                put_u64(out, d.busy_time.0);
                put_u64(out, d.total_erases);
                put_u64(out, d.max_erase_count);
                put_u32(out, d.queue_depth_hwm);
            }
            put_u32(out, self.blocks.len() as u32);
            for b in &self.blocks {
                put_u8(out, block_state_tag(b.state));
                put_u32(out, b.write_ptr);
                put_u64(out, b.erase_count);
                put_u32(out, b.valid_pages);
                put_u32(out, b.pages.len() as u32);
                for p in &b.pages {
                    put_u8(out, page_state_tag(*p));
                }
                for m in &b.meta {
                    put_opt(out, m.as_ref(), |out, m| out.extend_from_slice(&m.encode()));
                }
                put_opt(out, b.data.as_deref(), |out, data| {
                    put_u64(out, data.len() as u64);
                    out.extend_from_slice(data);
                });
            }
        })
    }

    /// Decode an image produced by [`DeviceSnapshot::encode`].  The wear
    /// summary is recomputed from the decoded blocks.
    pub fn decode(buf: &[u8]) -> Result<DeviceSnapshot> {
        let mut r = open(buf, MAGIC)
            .ok_or_else(|| err("not an intact NFLIMG02 image (truncated or corrupted file)"))?;
        Self::decode_body(&mut r).ok_or_else(|| err("image payload does not match its geometry"))
    }

    fn decode_body(r: &mut Reader<'_>) -> Option<DeviceSnapshot> {
        let geometry = FlashGeometry {
            channels: r.u32()?,
            chips_per_channel: r.u32()?,
            dies_per_chip: r.u32()?,
            planes_per_die: r.u32()?,
            blocks_per_plane: r.u32()?,
            pages_per_block: r.u32()?,
            page_size: r.u32()?,
            oob_size: r.u32()?,
        };
        let epoch = r.u64()?;
        let store_data = r.u8()? != 0;
        let endurance = r.u64()?;
        let stats = DeviceStats {
            page_reads: r.u64()?,
            page_programs: r.u64()?,
            block_erases: r.u64()?,
            copybacks: r.u64()?,
            metadata_reads: r.u64()?,
            bytes_transferred: r.u64()?,
            read_latency_sum: Duration(r.u64()?),
            program_latency_sum: Duration(r.u64()?),
            erase_latency_sum: Duration(r.u64()?),
            copyback_latency_sum: Duration(r.u64()?),
            errors: r.u64()?,
            queue_depth_hwm: r.u64()?,
        };
        let die_stats = (0..r.u32()?)
            .map(|_| {
                Some(DieStats {
                    ops: r.u64()?,
                    busy_time: Duration(r.u64()?),
                    total_erases: r.u64()?,
                    max_erase_count: r.u64()?,
                    queue_depth_hwm: r.u32()?,
                })
            })
            .collect::<Option<_>>()?;
        let block_count = r.u32()?;
        if u64::from(block_count) != geometry.total_blocks() {
            return None;
        }
        let page_count = geometry.pages_per_block;
        let data_len = u64::from(page_count) * u64::from(geometry.page_size);
        let blocks: Vec<BlockSnapshot> = (0..block_count)
            .map(|_| {
                let state = block_state_from(r.u8()?)?;
                let (write_ptr, erase_count, valid_pages) = (r.u32()?, r.u64()?, r.u32()?);
                if r.u32()? != page_count {
                    return None;
                }
                let pages =
                    (0..page_count).map(|_| page_state_from(r.u8()?)).collect::<Option<_>>()?;
                let meta = (0..page_count)
                    .map(|_| r.opt(|r| PageMetadata::decode(r.take(PageMetadata::ENCODED_LEN)?)))
                    .collect::<Option<_>>()?;
                let data = r.opt(|r| {
                    let len = r.u64().filter(|len| *len == data_len)?;
                    r.take(len as usize).map(<[u8]>::to_vec)
                })?;
                Some(BlockSnapshot {
                    state,
                    write_ptr,
                    erase_count,
                    pages,
                    meta,
                    data,
                    valid_pages,
                })
            })
            .collect::<Option<_>>()?;
        if !r.rest().is_empty() {
            return None;
        }
        let bad = blocks.iter().filter(|b| b.state == BlockState::Bad).count() as u64;
        let wear = WearSummary::from_counts(blocks.iter().map(|b| b.erase_count), 0);
        let wear = WearSummary { bad_blocks: bad, ..wear };
        Some(DeviceSnapshot {
            stats,
            die_stats,
            wear,
            geometry,
            epoch,
            store_data,
            endurance,
            blocks,
        })
    }

    /// Write the snapshot to a file-backed image.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let bytes = self.encode();
        let mut f = std::fs::File::create(path.as_ref())
            .map_err(|e| err(format!("create {}: {e}", path.as_ref().display())))?;
        f.write_all(&bytes).map_err(|e| err(format!("write image: {e}")))?;
        f.sync_all().map_err(|e| err(format!("sync image: {e}")))?;
        Ok(())
    }

    /// Load a snapshot from a file-backed image.
    pub fn load(path: impl AsRef<Path>) -> Result<DeviceSnapshot> {
        let mut bytes = Vec::new();
        std::fs::File::open(path.as_ref())
            .map_err(|e| err(format!("open {}: {e}", path.as_ref().display())))?
            .read_to_end(&mut bytes)
            .map_err(|e| err(format!("read image: {e}")))?;
        Self::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FlashBackend;
    use crate::device::DeviceBuilder;
    use crate::time::SimTime;

    fn populated_snapshot() -> DeviceSnapshot {
        let d = DeviceBuilder::new(FlashGeometry::small_test()).build();
        for p in 0..5u64 {
            let addr = crate::PageAddr::new(crate::DieId(0), 0, 0, p as u32);
            let data = vec![p as u8 + 1; 4096];
            let meta = PageMetadata::new(1, p).with_payload_checksum(&data);
            d.program_page(addr, &data, meta, SimTime::ZERO).unwrap();
        }
        d.erase_block(crate::BlockAddr::new(crate::DieId(1), 0, 3), SimTime::ZERO).unwrap();
        d.retire_block(crate::BlockAddr::new(crate::DieId(2), 0, 7)).unwrap();
        d.snapshot()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = populated_snapshot();
        let decoded = DeviceSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.blocks, snap.blocks);
        assert_eq!(decoded.stats, snap.stats);
        assert_eq!(decoded.epoch, snap.epoch);
        assert_eq!(decoded.geometry, snap.geometry);
        assert_eq!(decoded.endurance, snap.endurance);
        assert_eq!(decoded.wear.bad_blocks, 1);
        assert_eq!(decoded.wear.total_erases, snap.wear.total_erases);
    }

    #[test]
    fn corrupted_image_is_rejected() {
        let snap = populated_snapshot();
        let mut bytes = snap.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(DeviceSnapshot::decode(&bytes), Err(FlashError::Image { .. })));
        // Truncation is also caught.
        bytes.truncate(bytes.len() / 2);
        assert!(DeviceSnapshot::decode(&bytes).is_err());
        assert!(DeviceSnapshot::decode(&[]).is_err());
    }

    #[test]
    fn every_strict_prefix_and_a_flipped_byte_are_rejected() {
        let geometry = FlashGeometry {
            blocks_per_plane: 2,
            pages_per_block: 4,
            page_size: 512,
            ..FlashGeometry::small_test()
        };
        let d = DeviceBuilder::new(geometry).build();
        let addr = crate::PageAddr::new(crate::DieId(1), 0, 1, 0);
        d.program_page(addr, &[7; 512], PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let image = d.snapshot().encode();
        assert_eq!(DeviceSnapshot::decode(&image).unwrap().blocks, d.snapshot().blocks);
        for n in 0..image.len() {
            assert!(DeviceSnapshot::decode(&image[..n]).is_err(), "prefix of {n} bytes");
        }
        // Below the CRC: every bound of the body is checked on its own.
        let body = &image[MAGIC.len()..image.len() - 4];
        for n in 0..body.len() {
            let decoded = DeviceSnapshot::decode_body(&mut Reader::new(&body[..n]));
            assert!(decoded.is_none(), "body prefix of {n} bytes");
        }
        let mut flipped = image.clone();
        flipped[MAGIC.len()] ^= 0x01;
        assert!(DeviceSnapshot::decode(&flipped).is_err());
    }

    #[test]
    fn save_load_file_roundtrip() {
        let snap = populated_snapshot();
        let path =
            std::env::temp_dir().join(format!("noftl-image-test-{}.img", std::process::id()));
        snap.save(&path).unwrap();
        let loaded = DeviceSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.blocks, snap.blocks);
        assert_eq!(loaded.stats, snap.stats);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(DeviceSnapshot::load("/nonexistent/path/image.img").is_err());
    }
}
