//! A word-at-a-time hasher for maps keyed by the program's own small
//! integer tuples and operator trees (memo dedup index, rule-application
//! set). Not for keys that arrive from outside the program: unlike the
//! standard SipHash it offers no protection against crafted collisions.
//! Iteration order over such maps is not stable across runs either, so
//! nothing that reaches a report may iterate one.

use std::hash::{BuildHasherDefault, Hasher};

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
