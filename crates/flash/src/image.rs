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
//! The format is hand-rolled little-endian (the workspace's `serde` is an
//! offline marker stub with no serialisers) and ends with a CRC-32 over
//! the entire payload, so truncated or corrupted image files are rejected
//! instead of silently producing a half-restored device.

use std::io::{Read, Write};
use std::path::Path;

use crate::block::{BlockSnapshot, BlockState, PageState};
use crate::crc::crc32;
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

// ---------------------------------------------------------------------
// Little-endian writer/reader helpers
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(err("image truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        // analyzer:allow(panic_freedom) take(4) returned exactly 4 bytes, so the fixed-array conversion cannot fail
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        // analyzer:allow(panic_freedom) take(8) returned exactly 8 bytes, so the fixed-array conversion cannot fail
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

fn block_state_tag(s: BlockState) -> u8 {
    match s {
        BlockState::Free => 0,
        BlockState::Open => 1,
        BlockState::Full => 2,
        BlockState::Bad => 3,
    }
}

fn block_state_from(tag: u8) -> Result<BlockState> {
    Ok(match tag {
        0 => BlockState::Free,
        1 => BlockState::Open,
        2 => BlockState::Full,
        3 => BlockState::Bad,
        t => return Err(err(format!("unknown block state tag {t}"))),
    })
}

fn page_state_tag(s: PageState) -> u8 {
    match s {
        PageState::Free => 0,
        PageState::Valid => 1,
        PageState::Invalid => 2,
    }
}

fn page_state_from(tag: u8) -> Result<PageState> {
    Ok(match tag {
        0 => PageState::Free,
        1 => PageState::Valid,
        2 => PageState::Invalid,
        t => return Err(err(format!("unknown page state tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------

impl DeviceSnapshot {
    /// Serialise the snapshot into the binary image format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024 + self.blocks.len() * 64);
        out.extend_from_slice(MAGIC);
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
            put_u32(&mut out, v);
        }
        put_u64(&mut out, self.epoch);
        out.push(u8::from(self.store_data));
        put_u64(&mut out, self.endurance);
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
            put_u64(&mut out, v);
        }
        put_u32(&mut out, self.die_stats.len() as u32);
        for d in &self.die_stats {
            put_u64(&mut out, d.ops);
            put_u64(&mut out, d.busy_time.0);
            put_u64(&mut out, d.total_erases);
            put_u64(&mut out, d.max_erase_count);
            put_u32(&mut out, d.queue_depth_hwm);
        }
        put_u32(&mut out, self.blocks.len() as u32);
        for b in &self.blocks {
            out.push(block_state_tag(b.state));
            put_u32(&mut out, b.write_ptr);
            put_u64(&mut out, b.erase_count);
            put_u32(&mut out, b.valid_pages);
            put_u32(&mut out, b.pages.len() as u32);
            for p in &b.pages {
                out.push(page_state_tag(*p));
            }
            for m in &b.meta {
                match m {
                    Some(m) => {
                        out.push(1);
                        out.extend_from_slice(&m.encode());
                    }
                    None => out.push(0),
                }
            }
            match &b.data {
                Some(data) => {
                    out.push(1);
                    put_u64(&mut out, data.len() as u64);
                    out.extend_from_slice(data);
                }
                None => out.push(0),
            }
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decode an image produced by [`DeviceSnapshot::encode`].  The wear
    /// summary is recomputed from the decoded blocks.
    pub fn decode(buf: &[u8]) -> Result<DeviceSnapshot> {
        if buf.len() < MAGIC.len() + 4 {
            return Err(err("image too short"));
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        // analyzer:allow(panic_freedom) split_at(len - 4) yields exactly 4 trailing bytes, so the fixed-array conversion cannot fail
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(err("image checksum mismatch (corrupted or truncated file)"));
        }
        let mut c = Cursor { buf: body, pos: 0 };
        if c.take(MAGIC.len())? != MAGIC {
            return Err(err("bad image magic"));
        }
        let geometry = FlashGeometry {
            channels: c.u32()?,
            chips_per_channel: c.u32()?,
            dies_per_chip: c.u32()?,
            planes_per_die: c.u32()?,
            blocks_per_plane: c.u32()?,
            pages_per_block: c.u32()?,
            page_size: c.u32()?,
            oob_size: c.u32()?,
        };
        let epoch = c.u64()?;
        let store_data = c.u8()? != 0;
        let endurance = c.u64()?;
        let stats = DeviceStats {
            page_reads: c.u64()?,
            page_programs: c.u64()?,
            block_erases: c.u64()?,
            copybacks: c.u64()?,
            metadata_reads: c.u64()?,
            bytes_transferred: c.u64()?,
            read_latency_sum: Duration(c.u64()?),
            program_latency_sum: Duration(c.u64()?),
            erase_latency_sum: Duration(c.u64()?),
            copyback_latency_sum: Duration(c.u64()?),
            errors: c.u64()?,
            queue_depth_hwm: c.u64()?,
        };
        let die_count = c.u32()? as usize;
        if die_count > 1 << 20 {
            return Err(err("implausible die count"));
        }
        let mut die_stats = Vec::with_capacity(die_count);
        for _ in 0..die_count {
            die_stats.push(DieStats {
                ops: c.u64()?,
                busy_time: Duration(c.u64()?),
                total_erases: c.u64()?,
                max_erase_count: c.u64()?,
                queue_depth_hwm: c.u32()?,
            });
        }
        let block_count = c.u32()? as usize;
        if block_count as u64 != geometry.total_blocks() {
            return Err(err("block count does not match geometry"));
        }
        let mut blocks = Vec::with_capacity(block_count);
        for _ in 0..block_count {
            let state = block_state_from(c.u8()?)?;
            let write_ptr = c.u32()?;
            let erase_count = c.u64()?;
            let valid_pages = c.u32()?;
            let page_count = c.u32()? as usize;
            if page_count != geometry.pages_per_block as usize {
                return Err(err("page count does not match geometry"));
            }
            let mut pages = Vec::with_capacity(page_count);
            for _ in 0..page_count {
                pages.push(page_state_from(c.u8()?)?);
            }
            let mut meta = Vec::with_capacity(page_count);
            for _ in 0..page_count {
                meta.push(if c.u8()? != 0 {
                    Some(
                        PageMetadata::decode(c.take(PageMetadata::ENCODED_LEN)?)
                            .ok_or_else(|| err("bad page metadata"))?,
                    )
                } else {
                    None
                });
            }
            let data = if c.u8()? != 0 {
                let len = c.u64()? as usize;
                let expected = page_count * geometry.page_size as usize;
                if len != expected {
                    return Err(err("block data length does not match geometry"));
                }
                Some(c.take(len)?.to_vec())
            } else {
                None
            };
            blocks.push(BlockSnapshot {
                state,
                write_ptr,
                erase_count,
                pages,
                meta,
                data,
                valid_pages,
            });
        }
        if c.pos != body.len() {
            return Err(err("trailing bytes after image payload"));
        }
        let mut bad = 0u64;
        let wear = WearSummary::from_counts(
            blocks.iter().map(|b| {
                if b.state == BlockState::Bad {
                    bad += 1;
                }
                b.erase_count
            }),
            0,
        );
        let wear = WearSummary { bad_blocks: bad, ..wear };
        Ok(DeviceSnapshot {
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
