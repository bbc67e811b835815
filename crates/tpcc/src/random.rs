//! TPC-C input generation: NURand, last names, random strings.

use std::fmt;
use std::ops::Deref;

use rand::rngs::StdRng;
use rand::Rng;

/// The C constants used by NURand; fixed values keep runs reproducible.
/// `C_LAST` drives the last-name distribution used by Payment/OrderStatus.
pub const C_LAST: i64 = 123;
/// NURand C constant for customer ids.
pub const C_CUST_ID: i64 = 259;
/// NURand C constant for item ids.
pub const C_ITEM_ID: i64 = 7911;

/// Uniform random integer in `[lo, hi]` (inclusive).
pub fn uniform(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    if lo >= hi {
        return lo;
    }
    rng.random_range(lo..=hi)
}

/// The TPC-C non-uniform random distribution:
/// `NURand(A, x, y) = (((random(0,A) | random(x,y)) + C) % (y - x + 1)) + x`.
pub fn nurand(rng: &mut StdRng, a: i64, c: i64, x: i64, y: i64) -> i64 {
    (((uniform(rng, 0, a) | uniform(rng, x, y)) + c) % (y - x + 1)) + x
}

/// Non-uniform customer id in `[1, customers]`.
pub fn nurand_customer_id(rng: &mut StdRng, customers: i64) -> i64 {
    nurand(rng, 1023, C_CUST_ID, 1, customers.max(1))
}

/// Non-uniform item id in `[1, items]`.
pub fn nurand_item_id(rng: &mut StdRng, items: i64) -> i64 {
    nurand(rng, 8191, C_ITEM_ID, 1, items.max(1))
}

/// The longest string a TPC-C column holds (`C_DATA`).
pub const TEXT_BYTES: usize = 500;

/// A string of at most [`TEXT_BYTES`] bytes, kept on the stack: what the
/// generators return and what a transaction formats a column into.  A
/// write past its end is cut at the last whole character that fits.
#[derive(Clone, Copy)]
pub struct Text {
    len: usize,
    bytes: [u8; TEXT_BYTES],
}

impl Text {
    /// An empty text.
    pub const fn new() -> Self {
        Text { len: 0, bytes: [0; TEXT_BYTES] }
    }

    /// The text.
    #[expect(
        clippy::expect_used,
        reason = "`push_str` keeps whole characters and `push_ascii` ASCII only, so the bytes are UTF-8"
    )]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("only whole characters are kept")
    }

    /// Append `s`, cut to what fits.
    pub fn push_str(&mut self, s: &str) {
        let take = s.floor_char_boundary(TEXT_BYTES - self.len);
        self.bytes[self.len..self.len + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take;
    }

    /// Append the ASCII character `byte`, if it fits.
    fn push_ascii(&mut self, byte: u8) {
        debug_assert!(byte.is_ascii());
        if self.len < TEXT_BYTES {
            self.bytes[self.len] = byte;
            self.len += 1;
        }
    }
}

impl Default for Text {
    fn default() -> Self {
        Text::new()
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Formatting into a text never fails: what does not fit is cut.
impl fmt::Write for Text {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.push_str(s);
        Ok(())
    }
}

/// The TPC-C last-name syllables.
const SYLLABLES: [&str; 10] =
    ["BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"];

/// Build the last name for a number in `[0, 999]`.
pub fn last_name(num: i64) -> Text {
    let num = num.clamp(0, 999);
    let mut name = Text::new();
    for digit in [num / 100, (num / 10) % 10, num % 10] {
        name.push_str(SYLLABLES[digit as usize]);
    }
    name
}

/// A random last name for transaction input (NURand(255) over [0, 999]).
pub fn random_last_name(rng: &mut StdRng) -> Text {
    last_name(nurand(rng, 255, C_LAST, 0, 999))
}

/// Random alphanumeric string with length in `[lo, hi]`.
pub fn a_string(rng: &mut StdRng, lo: usize, hi: usize) -> Text {
    const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    let len = uniform(rng, lo as i64, hi as i64) as usize;
    let mut text = Text::new();
    for _ in 0..len {
        text.push_ascii(CHARS[rng.random_range(0..CHARS.len())]);
    }
    text
}

/// Random numeric string with length in `[lo, hi]`.
pub fn n_string(rng: &mut StdRng, lo: usize, hi: usize) -> Text {
    let len = uniform(rng, lo as i64, hi as i64) as usize;
    let mut text = Text::new();
    for _ in 0..len {
        text.push_ascii(b'0' + rng.random_range(0..10) as u8);
    }
    text
}

/// Random zip code: 4 digits followed by "11111".
pub fn zip(rng: &mut StdRng) -> Text {
    let mut zip = n_string(rng, 4, 4);
    zip.push_str("11111");
    zip
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let v = uniform(&mut r, 3, 9);
            assert!((3..=9).contains(&v));
        }
        assert_eq!(uniform(&mut r, 5, 5), 5);
        assert_eq!(uniform(&mut r, 7, 3), 7, "degenerate range returns lo");
    }

    #[test]
    fn nurand_stays_in_range_and_skews() {
        let mut r = rng();
        let mut counts = vec![0u32; 101];
        for _ in 0..20_000 {
            let v = nurand(&mut r, 1023, C_CUST_ID, 1, 100);
            assert!((1..=100).contains(&v));
            counts[v as usize] += 1;
        }
        // Non-uniform: the most popular value should be clearly more common
        // than the least popular one.
        let max = counts.iter().skip(1).max().unwrap();
        let min = counts.iter().skip(1).min().unwrap();
        assert!(max > &(min + 50), "distribution should be skewed (max={max}, min={min})");
    }

    #[test]
    fn last_names_follow_the_syllable_table() {
        assert_eq!(last_name(0).as_str(), "BARBARBAR");
        assert_eq!(last_name(371).as_str(), "PRICALLYOUGHT");
        assert_eq!(last_name(999).as_str(), "EINGEINGEING");
        assert_eq!(last_name(-5).as_str(), "BARBARBAR", "clamped");
        assert_eq!(last_name(5000).as_str(), "EINGEINGEING", "clamped");
        let mut r = rng();
        let name = random_last_name(&mut r);
        assert!(name.len() >= 9 && name.len() <= 15);
    }

    #[test]
    fn string_generators_respect_lengths() {
        let mut r = rng();
        for _ in 0..100 {
            let s = a_string(&mut r, 8, 16);
            assert!(s.len() >= 8 && s.len() <= 16);
            let n = n_string(&mut r, 4, 4);
            assert_eq!(n.len(), 4);
            assert!(n.chars().all(|c| c.is_ascii_digit()));
        }
        assert_eq!(zip(&mut r).len(), 9);
    }

    #[test]
    fn a_text_is_cut_at_its_size() {
        use std::fmt::Write;
        let mut text = Text::new();
        write!(text, "{:>1$}", 7, TEXT_BYTES - 1).unwrap();
        text.push_str("€ and more");
        assert_eq!(text.len(), TEXT_BYTES - 1, "no half of a three-byte character");
        assert!(text.ends_with(" 7"));
        text.push_str("xyz");
        assert_eq!((text.len(), text.as_bytes()[TEXT_BYTES - 1]), (TEXT_BYTES, b'x'));
        assert_eq!(a_string(&mut rng(), 600, 600).len(), TEXT_BYTES);
    }

    #[test]
    fn helpers_for_customer_and_item_ids() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!((1..=3000).contains(&nurand_customer_id(&mut r, 3000)));
            assert!((1..=100_000).contains(&nurand_item_id(&mut r, 100_000)));
        }
        // Tiny domains do not panic.
        assert_eq!(nurand_customer_id(&mut r, 1), 1);
    }
}
