//! Device images: the one persisted form of a device.
//!
//! [`crate::NandDevice::image`] encodes the live device into an
//! `NFLIMG04` image, and [`crate::NandDevice::from_image`] boots a new
//! device from one.  This is the simulator's equivalent of persisting the
//! NAND array across a power cycle: the crash harness images the
//! (possibly torn) device at the cut instant, boots a fresh device from
//! the bytes, and hands it to `NoFtl::mount` for recovery.  An image file
//! is these bytes, written and read with `std::fs`.
//!
//! An `NFLIMG04` image holds the NAND array's state and nothing else,
//! each fact once: the geometry, the write epoch, the endurance budget
//! and, per block, its bad flag, its write pointer, its erase count, one
//! invalid flag per programmed page, each page's optional OOB record and
//! exactly the payload of its programmed pages.  A block's state and its
//! pages' states follow from the write pointer, so they are not stored.
//! The image holds no run counters (operation statistics, per-die
//! utilisation, queue depths) and no derived value (a block's valid-page
//! count, the wear summary): a booted device counts from zero and
//! derives the rest from the blocks.
//!
//! The format is written and read with [`crate::codec`] and sealed by a
//! CRC-32 over the entire payload.  Decoding is one pass straight into
//! the device's blocks and dies, and each check is made once: a
//! truncated, corrupted or inconsistent image is rejected with an error
//! naming what is wrong, never half-booted.  No image it accepts holds
//! an invalid mark, OOB record or payload byte above a write pointer, or
//! an erase count above the endurance budget: a live block holds none.

use crate::block::Block;
use crate::codec::{open, put_opt, put_u32, put_u64, put_u8, seal, Reader};
use crate::die::{Die, Plane};
use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::metadata::PageMetadata;
use crate::Result;

// Format version 04: version 03 without each block's state tag, its page
// count and page state tags (one invalid flag per programmed page instead)
// and its payload's presence byte, length and padding.
const MAGIC: &[u8; 8] = b"NFLIMG04";

/// A block record's fixed head: bad flag, write pointer, erase count.
const BLOCK_HEAD: u64 = 1 + 4 + 8;

fn err(message: impl Into<String>) -> FlashError {
    FlashError::Image { message: message.into() }
}

/// The next value of the body, or the error of an image that ends early.
fn next<T>(value: Option<T>) -> Result<T> {
    value.ok_or_else(|| err("image ends early"))
}

/// A flag byte: 0 or 1.
fn flag(byte: u8) -> Option<bool> {
    match byte {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
}

/// The image of a device of geometry `g` with write epoch `epoch` and
/// endurance budget `endurance` whose blocks, in `(die, plane, block)`
/// row-major order, are `blocks`.
pub(crate) fn encode<'a>(
    g: &FlashGeometry,
    epoch: u64,
    endurance: u64,
    blocks: impl Iterator<Item = &'a Block>,
) -> Vec<u8> {
    let count = g.total_blocks() as u32;
    seal(MAGIC, 1024 + count as usize * 64, |out| {
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
        put_u64(out, epoch);
        put_u64(out, endurance);
        put_u32(out, count);
        for b in blocks {
            put_u8(out, u8::from(b.bad));
            put_u32(out, b.write_ptr);
            put_u64(out, b.erase_count);
            for &invalid in b.invalid.iter().take(b.write_ptr as usize) {
                put_u8(out, u8::from(invalid));
            }
            for m in &b.meta {
                put_opt(out, m.as_ref(), |out, m| out.extend_from_slice(&m.encode()));
            }
            out.extend_from_slice(&b.data);
        }
    })
}

/// Decode an image: its geometry, write epoch, endurance budget and dies
/// (idle, their blocks as imaged).
pub(crate) fn decode(bytes: &[u8]) -> Result<(FlashGeometry, u64, u64, Vec<Die>)> {
    let mut r = open(bytes, MAGIC)
        .ok_or_else(|| err("not an intact NFLIMG04 image (truncated or corrupted file)"))?;
    let mut field = || next(r.u32());
    let g = FlashGeometry {
        channels: field()?,
        chips_per_channel: field()?,
        dies_per_chip: field()?,
        planes_per_die: field()?,
        blocks_per_plane: field()?,
        pages_per_block: field()?,
        page_size: field()?,
        oob_size: field()?,
    };
    g.validate().map_err(|e| err(format!("bad geometry: {e}")))?;
    let (epoch, endurance, count) = (next(r.u64())?, next(r.u64())?, next(r.u32())?);
    let blocks = g.total_blocks();
    if u64::from(count) != blocks {
        return Err(err(format!("image holds {count} blocks, geometry needs {blocks}")));
    }
    // Each block record holds at least its head and one OOB presence byte
    // per page, so a geometry the bytes cannot hold ends here, before any
    // block is allocated: a crafted geometry costs no more memory than
    // the image's own bytes.
    let least = u128::from(count) * u128::from(BLOCK_HEAD + u64::from(g.pages_per_block));
    if least > r.rest().len() as u128 {
        return Err(err(format!("image ends early: {count} blocks need {least} bytes")));
    }
    let (mut dies, mut index) = (Vec::new(), 0);
    for _ in 0..g.total_dies() {
        let mut planes = Vec::new();
        for _ in 0..g.planes_per_die {
            let mut blocks = Vec::new();
            for _ in 0..g.blocks_per_plane {
                blocks.push(decode_block(&mut r, &g, endurance, index)?);
                index += 1;
            }
            planes.push(Plane { blocks });
        }
        dies.push(Die::of(planes));
    }
    match r.rest().len() {
        0 => Ok((g, epoch, endurance, dies)),
        n => Err(err(format!("trailing bytes after the last block: {n}"))),
    }
}

/// Decode block `index` of an image of geometry `g` and endurance budget
/// `budget`.
fn decode_block(r: &mut Reader<'_>, g: &FlashGeometry, budget: u64, index: u64) -> Result<Block> {
    let fail = |what: String| err(format!("block {index}: {what}"));
    let mut block = Block::new(g.pages_per_block);
    let bad = next(r.u8())?;
    block.bad = flag(bad).ok_or_else(|| fail(format!("bad flag {bad}")))?;
    let (write_ptr, erase_count) = (next(r.u32())?, next(r.u64())?);
    if write_ptr > g.pages_per_block {
        let ppb = g.pages_per_block;
        return Err(fail(format!("write pointer {write_ptr} past the block's {ppb} pages")));
    }
    // An erase at the budget fails and retires its block, so a live
    // device never counts more erases than the budget.
    if erase_count > budget {
        return Err(fail(format!("{erase_count} erases above the endurance budget {budget}")));
    }
    for (p, invalid) in block.invalid.iter_mut().take(write_ptr as usize).enumerate() {
        let byte = next(r.u8())?;
        *invalid = flag(byte).ok_or_else(|| fail(format!("page {p}: invalid flag {byte}")))?;
    }
    for (p, meta) in block.meta.iter_mut().enumerate() {
        *meta = r
            .opt(|r| PageMetadata::decode(r.take(PageMetadata::ENCODED_LEN)?))
            .ok_or_else(|| fail(format!("page {p}: OOB record does not decode")))?;
        if meta.is_some() && p >= write_ptr as usize {
            return Err(fail(format!("page {p}: OOB record above write pointer {write_ptr}")));
        }
    }
    let len = usize::try_from(u64::from(write_ptr) * u64::from(g.page_size)).ok();
    block.data = next(len.and_then(|len| r.take(len)))?.to_vec();
    block.write_ptr = write_ptr;
    block.erase_count = erase_count;
    Ok(block)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::addr::{BlockAddr, DieId};
    use crate::backend::FlashBackend;
    use crate::block::BlockState;
    use crate::device::{DeviceBuilder, NandDevice};
    use crate::time::{Duration, SimTime};
    use crate::timing::TimingModel;

    /// Boot a device from `image`.
    fn boot(image: &[u8]) -> Result<NandDevice> {
        NandDevice::from_image(image, TimingModel::mlc_2015())
    }

    /// Four dies of four blocks of four 512-byte pages.
    fn geometry() -> FlashGeometry {
        FlashGeometry {
            blocks_per_plane: 4,
            pages_per_block: 4,
            page_size: 512,
            ..FlashGeometry::small_test()
        }
    }

    /// Program the next page of `b` at `at` (a payload of `fill`).
    fn program(d: &NandDevice, b: BlockAddr, fill: u8, at: SimTime) -> Result<()> {
        let page = d.block_info(b)?.write_ptr;
        let data = vec![fill; d.geometry().page_size as usize];
        let meta = PageMetadata::new(1, u64::from(page)).with_payload_checksum(&data);
        d.program_page(b.page(page), &data, meta, at).map(drop)
    }

    /// A device that ran `ops` — `(kind, die, block)`: program the next
    /// page, invalidate page 0, erase, retire — on dies 0 and 1, then
    /// holds, on dies 2 and 3, programs, an invalidated page, a retired
    /// block, an erased block that kept its payload buffer, and a torn
    /// program and a torn erase.
    fn populated(ops: &[(u8, u32, u32)]) -> NandDevice {
        let d = DeviceBuilder::new(geometry()).timing(TimingModel::mlc_2015()).build();
        for &(op, die, block) in ops {
            let b = BlockAddr::new(DieId(die), 0, block);
            let at = d.quiesce_time();
            // Ops the device refuses (a full block, a bad block, ...) are
            // part of the history too.
            let _ = match op {
                0 | 1 => program(&d, b, op + 1, at),
                2 => d.mark_invalid(b.page(0)),
                3 => d.erase_block(b, at).map(drop),
                _ => d.retire_block(b),
            };
        }
        let block = |die, block| BlockAddr::new(DieId(die), 0, block);
        for fill in 1..=3 {
            program(&d, block(2, 0), fill, SimTime::ZERO).unwrap();
            program(&d, block(3, 0), fill, SimTime::ZERO).unwrap();
            program(&d, block(2, 2), fill, SimTime::ZERO).unwrap();
        }
        d.mark_invalid(block(2, 0).page(1)).unwrap();
        d.retire_block(block(2, 1)).unwrap();
        d.erase_block(block(2, 2), SimTime::ZERO).unwrap();
        // A program and an erase on idle dies, both in flight at the cut.
        let at = d.quiesce_time();
        d.arm_power_cut(at + Duration::from_us(400));
        assert!(program(&d, block(2, 0), 4, at).unwrap_err().is_power_loss());
        assert!(d.erase_block(block(3, 0), at).unwrap_err().is_power_loss());
        d.clear_power_cut();
        d
    }

    /// `image` with its body edited by `edit` and sealed again.
    fn resealed(image: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut body = image[MAGIC.len()..image.len() - 4].to_vec();
        edit(&mut body);
        seal(MAGIC, body.len() + 12, |out| out.extend_from_slice(&body))
    }

    /// The image of a device of geometry `g` over `blocks`.
    fn image_of(g: &FlashGeometry, blocks: &[Block]) -> Vec<u8> {
        encode(g, 7, 100, blocks.iter())
    }

    /// Where in the body the first block starts.
    const FIRST_BLOCK: usize = 8 * 4 + 8 + 8 + 4;

    /// What a block of `d` that breaks the `BlockInfo` identity or whose
    /// state disagrees with its write pointer does wrong, one line each.
    fn broken_blocks(d: &NandDevice) -> Vec<String> {
        let g = *d.geometry();
        let ppb = g.pages_per_block;
        (0..g.total_blocks())
            .filter_map(|i| {
                let info = d.block_info(g.block_at(i)).unwrap();
                let pages = info.valid_pages + info.invalid_pages + info.free_pages;
                let state = match info.write_ptr {
                    _ if info.state == BlockState::Bad => BlockState::Bad,
                    0 => BlockState::Free,
                    p if p < ppb => BlockState::Open,
                    _ => BlockState::Full,
                };
                (pages != ppb || info.state != state || info.write_ptr > ppb)
                    .then(|| format!("block {i}: {info:?}"))
            })
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = populated(&[]);
        let image = d.image();
        let booted = boot(&image).unwrap();
        assert_eq!(booted.image(), image);
        assert_eq!(booted.current_epoch(), d.current_epoch());
        assert_eq!(booted.wear_summary(), d.wear_summary());
        assert_eq!(booted.wear_summary().bad_blocks, 1);
    }

    #[test]
    fn corrupted_image_is_rejected() {
        let mut bytes = populated(&[]).image();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(boot(&bytes), Err(FlashError::Image { .. })));
        // Truncation is also caught.
        bytes.truncate(bytes.len() / 2);
        assert!(boot(&bytes).is_err());
        assert!(boot(&[]).is_err());
    }

    #[test]
    fn every_strict_prefix_and_a_flipped_byte_are_rejected() {
        let d = DeviceBuilder::new(FlashGeometry { blocks_per_plane: 2, ..geometry() }).build();
        let addr = crate::PageAddr::new(DieId(1), 0, 1, 0);
        d.program_page(addr, &[7; 512], PageMetadata::new(1, 0), SimTime::ZERO).unwrap();
        let image = d.image();
        assert_eq!(boot(&image).unwrap().image(), image);
        for n in 0..image.len() {
            assert!(boot(&image[..n]).is_err(), "prefix of {n} bytes");
        }
        // Below the CRC: every bound of the body is checked on its own.
        let body_len = image.len() - MAGIC.len() - 4;
        for n in 0..body_len {
            let cut = resealed(&image, |body| body.truncate(n));
            assert!(boot(&cut).is_err(), "body prefix of {n} bytes");
        }
        let mut flipped = image.clone();
        flipped[MAGIC.len()] ^= 0x01;
        assert!(boot(&flipped).is_err());
    }

    /// An image written to a file and read back boots the same device.
    #[test]
    fn save_load_file_roundtrip() {
        let image = populated(&[]).image();
        let path =
            std::env::temp_dir().join(format!("noftl-image-test-{}.img", std::process::id()));
        std::fs::write(&path, &image).unwrap();
        let loaded = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(boot(&loaded).unwrap().image(), image);
    }

    /// Each check of the decoder, failed by one input that passes every
    /// other: a decoder that skipped the check would boot the input or
    /// fail it with another message.
    #[test]
    fn each_malformed_image_fails_its_own_check() {
        let g = geometry();
        let free = vec![Block::new(g.pages_per_block); g.total_blocks() as usize];
        let valid = image_of(&g, &free);
        assert!(boot(&valid).is_ok());
        // Block 0 with one programmed page, its OOB record on `meta_page`.
        let programmed = |meta_page: usize| {
            let mut blocks = free.clone();
            blocks[0].write_ptr = 1;
            blocks[0].meta[meta_page] = Some(PageMetadata::new(1, 0));
            blocks[0].data = vec![0; g.page_size as usize];
            image_of(&g, &blocks)
        };
        assert!(boot(&programmed(0)).is_ok());
        // A block worn exactly to its budget of 100 erases is a state the
        // live device reaches.
        assert!(boot(&resealed(&valid, |b| b[FIRST_BLOCK + 5] = 100)).is_ok());
        let mut flipped = valid.clone();
        flipped[MAGIC.len() + FIRST_BLOCK] ^= 0x01;
        let no_channels = FlashGeometry { channels: 0, ..g };
        // A million pages a block: the image's 16 blocks would need 16 MiB
        // of OOB presence bytes alone.
        let huge = FlashGeometry { pages_per_block: 1 << 20, ..g };
        let last_page = valid.len() - MAGIC.len() - 4 - 1;
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            ("truncated", valid[..valid.len() - 1].to_vec(), "not an intact NFLIMG04 image"),
            ("flipped byte", flipped, "not an intact NFLIMG04 image"),
            ("body ends early", resealed(&valid, |b| b.truncate(FIRST_BLOCK - 2)), "ends early"),
            ("bad geometry", image_of(&no_channels, &[]), "bad geometry"),
            (
                "overflowing geometry",
                resealed(&valid, |b| b[..4].copy_from_slice(&u32::MAX.to_le_bytes())),
                "bad geometry: the die count",
            ),
            (
                "block count",
                resealed(&valid, |b| b[FIRST_BLOCK - 4] += 1),
                "image holds 17 blocks, geometry needs 16",
            ),
            (
                "geometry the bytes cannot hold",
                image_of(&huge, &free),
                "image ends early: 16 blocks need 16777424 bytes",
            ),
            ("bad flag", resealed(&valid, |b| b[FIRST_BLOCK] = 2), "block 0: bad flag 2"),
            (
                "write pointer past the block",
                resealed(&valid, |b| b[FIRST_BLOCK + 1] = 5),
                "block 0: write pointer 5 past the block's 4 pages",
            ),
            (
                "erases above the budget",
                resealed(&valid, |b| b[FIRST_BLOCK + 5] = 101),
                "block 0: 101 erases above the endurance budget 100",
            ),
            (
                "invalid flag",
                resealed(&programmed(0), |b| b[FIRST_BLOCK + 13] = 2),
                "block 0: page 0: invalid flag 2",
            ),
            (
                "OOB record above the write pointer",
                programmed(1),
                "block 0: page 1: OOB record above write pointer 1",
            ),
            (
                "OOB record",
                // The last page's record present, none of its 24 bytes there.
                resealed(&valid, |b| b[last_page] = 1),
                "block 15: page 3: OOB record does not decode",
            ),
            (
                "trailing bytes",
                resealed(&valid, |b| b.push(0)),
                "trailing bytes after the last block: 1",
            ),
        ];
        let wrong: Vec<String> = cases
            .into_iter()
            .filter_map(|(case, image, expected)| match boot(&image) {
                Err(FlashError::Image { message }) if message.contains(expected) => None,
                Err(e) => Some(format!("{case}: {e}, not {expected:?}")),
                Ok(_) => Some(format!("{case}: booted, not {expected:?}")),
            })
            .collect();
        assert!(wrong.is_empty(), "{wrong:#?}");
    }

    proptest! {
        /// Booting an image and imaging the booted device gives back the
        /// same bytes, whatever history wrote them; every block of both
        /// devices holds `pages_per_block` pages between its valid,
        /// invalid and free ones, and its state agrees with its write
        /// pointer.
        #[test]
        fn an_image_boots_a_device_that_images_to_the_same_bytes(
            ops in prop::collection::vec((0u8..5, 0u32..2, 0u32..4), 0..48)
        ) {
            let d = populated(&ops);
            let broken = broken_blocks(&d);
            prop_assert!(broken.is_empty(), "populated: {broken:#?}");
            let image = d.image();
            let booted = boot(&image).unwrap();
            let broken = broken_blocks(&booted);
            prop_assert!(broken.is_empty(), "booted: {broken:#?}");
            prop_assert!(booted.image() == image);
        }
    }
}
