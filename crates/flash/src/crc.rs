//! CRC-32 (IEEE 802.3) used for page payload checksums and persistent
//! device images.
//!
//! The checksum is the integrity primitive of the crash-consistency
//! subsystem: the NoFTL storage manager stamps a payload CRC into each
//! page's OOB metadata so that a program interrupted by power loss (a
//! *torn page*) is detectable on remount, and the device image format
//! uses the same CRC to reject truncated or corrupted images.
//!
//! Two kernels give the same bits. On x86_64, when the CPU has PCLMULQDQ
//! and SSE4.1 (detected at run time; std caches the check) and the input
//! holds at least two 16-byte blocks, [`crc32_update`] folds it by
//! carry-less multiplication (Gopal et al., "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009; zlib
//! and Linux's `crc32-pclmul` use the same method): four 128-bit lanes
//! while 64 bytes remain, one lane per 16-byte block after, a Barrett
//! reduction to 32 bits, and the last `len % 16` bytes sliced. Everywhere
//! else — other targets, a CPU without the instructions, an input under
//! 32 bytes — the kernel is slicing-by-16 (Kounavis & Berry, "A
//! Systematic Approach to Building High Performance Software-Based CRC
//! Generators", ISCC 2005): table `k` holds the CRC of byte `i` followed
//! by `k` zero bytes, so one step folds 16 input bytes with 16
//! independent lookups instead of 16 dependent ones, and the classic
//! bytewise loop finishes the last `len % 16` bytes. That is the only
//! selection, and the folding kernel makes it: with one block there is
//! nothing to fold, only the reduction to pay. The 16 KiB of tables are
//! built at compile time, so neither kernel does any set-up or allocates.
//!
//! Host time per call on a 2-core Xeon VM at PR 55 (release build, rustc
//! 1.95, best of 7), slicing-by-16 → folding: 16 B 10.5 → 12.7 ns, 32 B
//! 20.1 → 15.1 ns, 64 B 39.5 → 18.2 ns, 256 B 155 → 30 ns, 4 KiB 2.49 →
//! 0.27 µs (the bytewise loop: 13.9 µs per 4 KiB). Across 16–31 B
//! folding was 1–2 ns slower, and the log's record CRCs and per-frame
//! extensions are that short: 1.67 M of the 1.81 M calls in a
//! `btree_read_mostly` benchmark run (`--seconds 2`, default seed) and
//! 1.14 M of 1.34 M in `tpcc_traditional`'s are 16–31 B long, so those
//! stay sliced.
//!
//! [`crc32_combine`] and [`crc32_zeros`] give the CRC of `a ‖ b` and of
//! `a ‖ 0ⁿ` from the parts' CRCs without touching the bytes (zlib's
//! `crc32_combine`): appending `n` zero bytes is a linear map of the
//! register, and the log hands the whole-page CRC of its tail page down
//! to the program this way.  The map of `2ᵏ` bytes, `k` = 0..12, is kept
//! byte-sliced, four 256-entry tables each (52 KiB in all), built at
//! compile time by squaring the one-byte map.  A shift by `n` bytes
//! applies one table set per set bit of `n mod 8192` and two per 8 KiB
//! above it, four lookups each: a page costs at most 13 steps, and
//! nothing is allocated.

/// Table `k` is byte `i` shifted through `8 * (k + 1)` register bits: the
/// CRC state after byte `i` and then `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 * 16 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
            if bit % 8 == 0 {
                tables[bit / 8 - 1][i] = crc;
            }
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// A linear map of the CRC register, byte-sliced: the image of `x` is
/// the XOR of `map[j][byte j of x]`.
type ShiftMap = [[u32; 256]; 4];

/// Shift maps kept: `2⁰` to `2¹²` bytes.
const SHIFT_MAPS: usize = 13;

/// `map` applied to `x`: four lookups.
const fn apply(map: &ShiftMap, x: u32) -> u32 {
    let [b0, b1, b2, b3] = x.to_le_bytes();
    map[0][b0 as usize] ^ map[1][b1 as usize] ^ map[2][b2 as usize] ^ map[3][b3 as usize]
}

/// The classic table: byte `i` through eight register bits.
const BYTE_TABLE: [u32; 256] = build_tables()[0];

/// The one-byte map (the bytewise loop's step on a zero byte), then each
/// map the square of the one before it.
const fn build_shifts() -> [ShiftMap; SHIFT_MAPS] {
    let mut shifts = [[[0u32; 256]; 4]; SHIFT_MAPS];
    let mut n = 0;
    while n < SHIFT_MAPS * 1024 {
        let (k, j, i) = (n / 1024, n / 256 % 4, n % 256);
        let x = (i as u32) << (8 * j);
        shifts[k][j][i] = match k {
            0 => (x >> 8) ^ BYTE_TABLE[x as usize & 0xFF],
            _ => apply(&shifts[k - 1], apply(&shifts[k - 1], x)),
        };
        n += 1;
    }
    shifts
}

/// `SHIFTS[k]` carries the register through `2ᵏ` zero bytes.
static SHIFTS: [ShiftMap; SHIFT_MAPS] = build_shifts();

/// `crc` carried through `n` zero bytes of register.
fn shift(mut crc: u32, n: usize) -> u32 {
    for (k, map) in SHIFTS.iter().enumerate() {
        if n >> k & 1 != 0 {
            crc = apply(map, crc);
        }
    }
    for _ in 0..(n >> SHIFT_MAPS) * 2 {
        crc = apply(&SHIFTS[SHIFT_MAPS - 1], crc);
    }
    crc
}

/// The CRC-32 of `a ‖ b`, given `crc_a == crc32(a)`, `crc_b == crc32(b)`
/// and `len_b == b.len()`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    shift(crc_a, len_b) ^ crc_b
}

/// The CRC-32 of `a ‖ 0ⁿ`, given `crc == crc32(a)`.
pub fn crc32_zeros(crc: u32, n: usize) -> u32 {
    !shift(!crc, n)
}

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// The CRC-32 of `a ‖ data`, given `crc == crc32(a)` (zlib's `crc32`
/// update): a checksum extended as its bytes arrive.
/// `crc32_update(0, data) == crc32(data)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    match folding() {
        Some(folded) => folded(crc, data),
        None => sliced(crc, data),
    }
}

/// A CRC-32 kernel: `crc32_update`'s signature.
type Kernel = fn(u32, &[u8]) -> u32;

/// The folding kernel, when this CPU has the instructions it needs (std
/// caches the check).
fn folding() -> Option<Kernel> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `fold::update` enables exactly the two features just
        // detected on this CPU.
        return Some(|crc, data| unsafe { fold::update(crc, data) });
    }
    None
}

/// The slicing-by-16 kernel.
fn sliced(crc: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    let mut crc = !crc;
    for &[b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] in blocks {
        let [c0, c1, c2, c3] = crc.to_le_bytes();
        let x = t15[(b0 ^ c0) as usize] ^ t14[(b1 ^ c1) as usize] ^ t13[(b2 ^ c2) as usize];
        let x = x ^ t12[(b3 ^ c3) as usize] ^ t11[b4 as usize] ^ t10[b5 as usize];
        let x = x ^ t9[b6 as usize] ^ t8[b7 as usize] ^ t7[b8 as usize] ^ t6[b9 as usize];
        let x = x ^ t5[b10 as usize] ^ t4[b11 as usize] ^ t3[b12 as usize] ^ t2[b13 as usize];
        crc = x ^ t1[b14 as usize] ^ t0[b15 as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ t0[(crc as u8 ^ b) as usize];
    }
    !crc
}

/// The carry-less-multiply folding kernel (Gopal et al., Intel 2009, in
/// the bit-reflected domain). Each constant is `xⁿ mod P`, reflected, for
/// the distance it folds across: k1 = 0x1_5444_2bd4 and k2 =
/// 0x1_c6e4_1596 carry a lane 64 bytes on, k3 = 0x1_7519_97d0 and k4 =
/// 0x0_ccaa_009e 16 bytes, k5 = 0x1_63cd_6124 reduces 64 bits to 32 plus
/// a remainder, and P′ = 0x1_DB71_0641 and μ = 0x1_F701_1641 are the
/// polynomial and its Barrett quotient.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// A 16-byte block, little-endian.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let bits = u128::from_le_bytes(*block);
        _mm_set_epi64x((bits >> 64) as i64, bits as i64)
    }

    /// `x` carried across the distance of `k` (its halves times `k`'s)
    /// and XORed onto `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, _mm_clmulepi64_si128::<0x11>(x, k)), next)
    }

    /// [`super::crc32_update`] on a CPU with PCLMULQDQ and SSE4.1: the
    /// whole 16-byte blocks folded, the tail sliced; an input with
    /// fewer than two blocks, nothing to fold, sliced whole.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let [first, _, ..] = blocks else { return super::sliced(crc, data) };
        let seed = _mm_xor_si128(load(first), _mm_cvtsi32_si128(!crc as i32));
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        let (lanes, singles) = blocks.as_chunks::<4>();
        // Four lanes while 64 bytes remain, then one lane.
        let (mut x, singles) = match lanes.split_first() {
            Some((four, more)) => {
                let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
                let mut x = [seed, load(&four[1]), load(&four[2]), load(&four[3])];
                for next in more {
                    for (lane, block) in x.iter_mut().zip(next) {
                        *lane = fold(*lane, k1k2, load(block));
                    }
                }
                let [x0, x1, x2, x3] = x;
                (fold(fold(fold(x0, k3k4, x1), k3k4, x2), k3k4, x3), singles)
            }
            None => (seed, &singles[1..]),
        };
        for block in singles {
            x = fold(x, k3k4, load(block));
        }
        // 128 bits to 64, then to 32 plus a remainder, then Barrett.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k3k4));
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        let x5 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5);
        let x = _mm_xor_si128(_mm_srli_si128::<4>(x), x5);
        let poly = _mm_set_epi64x(0x1_F701_1641, 0x1_DB71_0641);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        let crc = !(_mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32);
        super::sliced(crc, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic 256-entry table, built the way the bytewise loop built it.
    const fn build_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }

    static CRC_TABLE: [u32; 256] = build_table();

    /// The reference: the bytewise table loop, one dependent lookup per byte.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Every kernel this CPU runs, beside the dispatch: on a CPU with
    /// the folding kernel the dispatch never slices a long input.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> =
            vec![("crc32_update", crc32_update), ("sliced", sliced)];
        kernels.extend(folding().map(|folded| ("folded", folded)));
        kernels
    }

    /// Deterministic, irregular bytes (a multiplicative hash of the index).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 19) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_any_byte_change() {
        let mut page = vec![0xA5u8; 4096];
        let base = crc32(&page);
        page[4095] ^= 0x01;
        assert_ne!(crc32(&page), base);
        page[4095] ^= 0x01;
        page[0] ^= 0x80;
        assert_ne!(crc32(&page), base);
    }

    #[test]
    fn first_table_is_the_classic_table() {
        assert_eq!(TABLES[0], CRC_TABLE);
    }

    #[test]
    fn matches_bytewise_at_every_short_length_and_offset() {
        let buf = pattern(300 + 15);
        for (kernel, update) in kernels() {
            for start in 0..16 {
                for len in 0..=300 {
                    let s = &buf[start..start + len];
                    assert_eq!(update(0, s), bytewise(s), "{kernel}, start {start}, len {len}");
                }
            }
        }
    }

    #[test]
    fn matches_bytewise_around_a_page() {
        let buf = pattern(4096 + 15);
        for (kernel, update) in kernels() {
            for len in 4096 - 15..=4096 + 15 {
                assert_eq!(update(0, &buf[..len]), bytewise(&buf[..len]), "{kernel}, len {len}");
            }
        }
    }

    #[test]
    fn combine_and_zeros_at_fixed_lengths() {
        let a = b"123456789";
        assert_eq!(crc32_zeros(0xCBF4_3926, 0), 0xCBF4_3926);
        assert_eq!(crc32_combine(crc32(&a[..4]), crc32(&a[4..]), 5), 0xCBF4_3926);
        let bytes = pattern(8192);
        for n in [0, 1, 15, 16, 4072, 4096, 8192] {
            let zeroed = [&a[..], &vec![0; n]].concat();
            assert_eq!(crc32_zeros(crc32(a), n), bytewise(&zeroed), "zeros, n {n}");
            let b = &bytes[..n];
            let joined = [&a[..], b].concat();
            assert_eq!(crc32_combine(crc32(a), crc32(b), n), bytewise(&joined), "combine, n {n}");
        }
    }

    #[test]
    fn shift_maps_start_at_the_classic_table_and_take_52_kib() {
        assert_eq!(SHIFTS[0][0], CRC_TABLE);
        assert_eq!(std::mem::size_of_val(&SHIFTS), 52 * 1024);
    }

    proptest! {
        /// The CRC of a concatenation from the parts' CRCs, at lengths
        /// past the largest shift map (4 KiB).
        #[test]
        fn crc32_combine_joins_two_checksums(
            a in prop::collection::vec(any::<u8>(), 0..4200),
            b in prop::collection::vec(any::<u8>(), 0..4200),
        ) {
            let joined = [&a[..], &b[..]].concat();
            prop_assert_eq!(crc32_combine(crc32(&a), crc32(&b), b.len()), crc32(&joined));
        }

        /// The CRC of a buffer padded with `n` zero bytes, `n` up to
        /// 20 000, so that from 8 KiB on the repeated step runs too.
        #[test]
        fn crc32_zeros_pads_a_checksum(
            a in prop::collection::vec(any::<u8>(), 0..4200),
            n in 0usize..20_000,
        ) {
            let padded = [&a[..], &vec![0; n]].concat();
            prop_assert_eq!(crc32_zeros(crc32(&a), n), crc32(&padded));
        }

        #[test]
        fn matches_bytewise_on_random_buffers(data in prop::collection::vec(any::<u8>(), 0..8193)) {
            for (kernel, update) in kernels() {
                prop_assert_eq!(update(0, &data), bytewise(&data), "{}", kernel);
            }
        }

        /// A checksum extended piece by piece is the checksum of the
        /// whole, wherever the bytes are cut.
        #[test]
        fn crc32_update_extends_a_checksum(
            data in prop::collection::vec(any::<u8>(), 0..4200),
            cuts in prop::collection::vec(0usize..4200, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let whole = bytewise(&data);
            for (kernel, update) in kernels() {
                let (mut crc, mut from) = (0, 0);
                for &cut in cuts.iter().chain([&data.len()]) {
                    crc = update(crc, &data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(crc, whole, "{}", kernel);
            }
            prop_assert_eq!(crc32(&data), whole);
        }
    }
}
