//! The workspace's two hashers.
//!
//! [`Fnv64`] is the *stable* one: FNV-1a 64, identical across processes,
//! platforms and toolchain releases, so it may address things on disk
//! (cache shards, campaign fingerprints, quarantine keys, chaos streams).
//! `DefaultHasher` is documented as free to change and never touches disk.
//!
//! [`WordHasher`] is the *fast* one: a word-at-a-time hasher for maps keyed
//! by the program's own small integer tuples and operator trees (memo dedup
//! index, rule-application set). Not for keys that arrive from outside the
//! program: unlike the standard SipHash it offers no protection against
//! crafted collisions. Iteration order over such maps is not stable across
//! runs either, so nothing that reaches a report may iterate one.

use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn write_str(&mut self, s: &str) -> &mut Self {
        // Length prefix keeps concatenated fields unambiguous.
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of one byte string (no length prefix).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv64::new().write(bytes).finish()
}

/// Multiply-rotate hasher: one rotate, xor and multiply per written word.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

/// `BuildHasher` for `HashMap`/`HashSet` type parameters.
pub type WordBuild = BuildHasherDefault<WordHasher>;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    /// The multiply leaves the entropy in the high bits; the table indexes
    /// with the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        WordBuild::default().hash_one(v)
    }

    #[test]
    fn fnv_is_stable() {
        // Golden values: the hash must never change across releases, or
        // every snapshot in the field would be silently rejected.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().write_str("a").finish(),
            Fnv64::new().write_u64(1).write(b"a").finish()
        );
    }

    #[test]
    fn equal_keys_hash_equal_and_small_tuples_spread() {
        assert_eq!(hash_of((3u32, 4u32, 5u16)), hash_of((3u32, 4u32, 5u16)));
        assert_eq!(hash_of("select"), hash_of(String::from("select")));
        // Dense small-integer keys (the memo's) must not pile up in the low
        // bits the table indexes with.
        let low: HashSet<u64> = (0u32..64)
            .flat_map(|g| (0u32..64).map(move |e| hash_of((g, e)) & 0xfff))
            .collect();
        assert!(
            low.len() > 2048,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }
}
