//! Deterministic random number generation.
//!
//! Every source of randomness in the workspace flows through [`Rng`], a
//! splitmix64/xorshift-based generator seeded explicitly. This keeps figure
//! regeneration reproducible run-to-run and machine-to-machine, which the
//! paper's trial-count comparisons (Figures 8–10) depend on.

use crate::hash::WordBuild;
use std::collections::HashMap;

/// A small, fast, deterministic PRNG (xorshift64* seeded via splitmix64).
///
/// Not cryptographic; statistical quality is ample for workload generation.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from an explicit seed. A zero seed is remapped to
    /// a fixed non-zero constant (xorshift has a zero fixpoint).
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble so that adjacent seeds give unrelated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self {
            state: if z == 0 { 0x1234_5678_9ABC_DEF0 } else { z },
        }
    }

    /// Forks an independent stream; the fork is a deterministic function of
    /// the current state and `salt`.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = step(self.state);
        output(self.state)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // small bounds used here (< 2^32), and determinism matters more.
        below(self.next_u64(), bound)
    }

    /// Uniform integer in `[lo, hi]` inclusive. Panics if `lo > hi`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "gen_range_i64: {lo} > {hi}");
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let off = ((self.next_u64() as u128).wrapping_mul(span) >> 64) as i128;
        (lo as i128 + off) as i64
    }

    /// Uniform usize in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_below(bound as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to [0,1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.gen_index(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `n` distinct indices from `[0, bound)` (n <= bound),
    /// returned in random order: the first `n` elements of `0..bound` after
    /// [`Rng::shuffle`], and the generator is left where that shuffle would
    /// leave it — but only the `n` elements are held, not the range.
    ///
    /// The shuffle draws `j = gen_index(i + 1)` and swaps `i` with `j` for
    /// `i = bound - 1 ..= 1`. Because the array starts as the identity, the
    /// value that ends at position `p` is where `p` stands after the swaps
    /// are undone last to first (`i = 1, 2, ..`): a tracked position at `i`
    /// moves to `j`, one at `j` moves to `i`. That needs the draws in the
    /// reverse of the order they are generated, so the generator is advanced
    /// to its final state first and then stepped backwards ([`unstep`]).
    pub fn sample_indices(&mut self, bound: usize, n: usize) -> Vec<usize> {
        assert!(n <= bound, "sample_indices: n > bound");
        for _ in 1..bound {
            self.state = step(self.state);
        }
        // `sample[k]` is where result position `k` stands and `slot_at` is
        // its inverse. Nearly every swap touches no tracked position (at the
        // scale-256 database's draw, 19.5 M of 19.66 M), so a bit per
        // position answers that before the map is probed.
        let mut sample: Vec<usize> = (0..n).collect();
        let mut slot_at: HashMap<usize, usize, WordBuild> = (0..n).map(|k| (k, k)).collect();
        let mut tracked = vec![0u64; bound / 64 + 1];
        let bit = |p: usize| 1u64 << (p % 64);
        for k in 0..n {
            tracked[k / 64] |= bit(k);
        }
        let mut state = self.state;
        for i in 1..bound {
            let j = below(output(state), i as u64 + 1) as usize;
            state = unstep(state);
            if j == i || (tracked[i / 64] & bit(i)) | (tracked[j / 64] & bit(j)) == 0 {
                continue;
            }
            let (at_i, at_j) = (slot_at.remove(&i), slot_at.remove(&j));
            for (slot, to) in [(at_i, j), (at_j, i)] {
                match slot {
                    Some(k) => {
                        sample[k] = to;
                        slot_at.insert(to, k);
                        tracked[to / 64] |= bit(to);
                    }
                    None => tracked[to / 64] &= !bit(to),
                }
            }
        }
        sample
    }
}

/// One xorshift64 state transition.
#[inline]
fn step(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The inverse of [`step`]. Each `x ^= x << k` is the linear map `1 + L^k`
/// on 64 bits, whose inverse is `1 + L^k + L^2k + ..` (a finite sum, since
/// `L^64 = 0`): `(1 + L^k)(1 + L^2k)(1 + L^4k)..` until the shift passes 64.
#[inline]
fn unstep(mut x: u64) -> u64 {
    x ^= x << 17;
    x ^= x << 34;
    x ^= x >> 7;
    x ^= x >> 14;
    x ^= x >> 28;
    x ^= x >> 56;
    x ^= x << 13;
    x ^= x << 26;
    x ^= x << 52;
    x
}

/// The value a state yields (xorshift64*'s output scramble).
#[inline]
fn output(state: u64) -> u64 {
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Maps a raw word to `[0, bound)` by multiply-shift.
#[inline]
fn below(word: u64, bound: u64) -> u64 {
    ((word as u128 * bound as u128) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn gen_below_respects_bound() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.gen_below(13) < 13);
        }
    }

    #[test]
    fn gen_range_covers_endpoints() {
        let mut r = Rng::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.gen_range_i64(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi, "range endpoints should be reachable");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = Rng::new(11);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(5);
        let mut v: Vec<u32> = (0..20).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn unstep_inverts_step() {
        let mut r = Rng::new(77);
        for _ in 0..1000 {
            let before = r.state;
            r.next_u64();
            assert_eq!(unstep(r.state), before);
        }
        for x in [1, u64::MAX, 1 << 63, 0x1234_5678_9ABC_DEF0] {
            assert_eq!(unstep(step(x)), x);
            assert_eq!(step(unstep(x)), x);
        }
    }

    /// The definition: the head of a shuffled `0..bound`, same state after.
    #[test]
    fn sample_indices_is_the_head_of_a_shuffle() {
        for (seed, bound) in [(1, 1), (2, 2), (3, 3), (4, 17), (5, 64), (6, 1000)] {
            let mut shuffled: Vec<usize> = (0..).take(bound).collect();
            let mut reference = Rng::new(seed);
            reference.shuffle(&mut shuffled);
            let after = reference.next_u64();
            for n in [0, 1, bound / 2, bound.saturating_sub(1), bound] {
                let mut r = Rng::new(seed);
                assert_eq!(
                    r.sample_indices(bound, n),
                    shuffled[..n],
                    "({seed}, {bound}, {n})"
                );
                assert_eq!(r.next_u64(), after, "state after ({seed}, {bound}, {n})");
            }
        }
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::new(6);
        let s = r.sample_indices(10, 6);
        assert_eq!(s.len(), 6);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 6);
    }

    /// Written out from the implementation that shuffled `0..bound`: another
    /// way of finding the sample must not change it (or the generator's
    /// state after it), or every generated database and query would change
    /// with it. Long samples are pinned by an `Fnv64` over their indices.
    #[test]
    fn sample_indices_output_is_pinned() {
        #[derive(Debug, PartialEq)]
        enum Pin {
            Exact(Vec<usize>),
            Digest(u64),
        }
        let exact = |s: &[usize]| Pin::Exact(s.to_vec());
        let pins: Vec<(u64, usize, usize, Pin, u64)> = vec![
            (6, 10, 6, exact(&[3, 7, 0, 6, 2, 8]), 1966555846863684499),
            (
                0xC0FFEE,
                1000,
                5,
                exact(&[368, 956, 894, 271, 76]),
                15728902394346339365,
            ),
            (
                42,
                70_000,
                4,
                exact(&[10524, 4110, 17471, 26104]),
                1059497302502820090,
            ),
            // The scale-256 database's partsupp draw.
            (
                1,
                19_660_800,
                15_360,
                Pin::Digest(5595930889090598405),
                5549750712474618567,
            ),
            // n == bound, n == bound - 1, n == 1, n == 0.
            (
                3,
                8,
                8,
                exact(&[7, 2, 5, 4, 0, 1, 3, 6]),
                10538070327042380923,
            ),
            (3, 8, 7, exact(&[7, 2, 5, 4, 0, 1, 3]), 10538070327042380923),
            (
                9,
                1000,
                1000,
                Pin::Digest(17658379670030522757),
                6153393305520615115,
            ),
            (
                9,
                1000,
                999,
                Pin::Digest(11207342123320052361),
                6153393305520615115,
            ),
            (5, 70_000, 1, exact(&[33609]), 10483873731666838422),
            (5, 70_000, 0, exact(&[]), 10483873731666838422),
            // Bounds 0, 1 and 2.
            (5, 0, 0, exact(&[]), 7425169861924250732),
            (5, 1, 0, exact(&[]), 7425169861924250732),
            (5, 1, 1, exact(&[0]), 7425169861924250732),
            (5, 2, 0, exact(&[]), 9963077368425047696),
            (5, 2, 1, exact(&[1]), 9963077368425047696),
            (5, 2, 2, exact(&[1, 0]), 9963077368425047696),
        ];
        for (seed, bound, n, pin, next) in pins {
            let mut r = Rng::new(seed);
            let sample = r.sample_indices(bound, n);
            assert_eq!(sample.len(), n, "({seed}, {bound}, {n})");
            let actual = match pin {
                Pin::Exact(_) => Pin::Exact(sample),
                Pin::Digest(_) => {
                    let mut h = crate::Fnv64::new();
                    for &i in &sample {
                        h.write_u64(i as u64);
                    }
                    Pin::Digest(h.finish())
                }
            };
            assert_eq!(actual, pin, "({seed}, {bound}, {n})");
            assert_eq!(r.next_u64(), next, "state after ({seed}, {bound}, {n})");
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut base = Rng::new(3);
        let mut f1 = base.fork(1);
        let mut f2 = base.fork(1);
        // Forks taken at different points differ even with the same salt.
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn pick_returns_member() {
        let mut r = Rng::new(8);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(r.pick(&items)));
        }
    }
}
