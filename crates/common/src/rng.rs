//! Deterministic random number generation.
//!
//! Every source of randomness in the workspace flows through [`Rng`], a
//! splitmix64/xorshift-based generator seeded explicitly. This keeps figure
//! regeneration reproducible run-to-run and machine-to-machine, which the
//! paper's trial-count comparisons (Figures 8–10) depend on.

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
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // small bounds used here (< 2^32), and determinism matters more.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
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
    /// returned in random order.
    ///
    /// The whole range is shuffled, so the scratch vector is `bound` long
    /// (the scale-256 database asks for 19.7 M): it holds `u32`s when the
    /// indices fit, which halves it. The draws depend on the length alone,
    /// so both widths return the same sample.
    pub fn sample_indices(&mut self, bound: usize, n: usize) -> Vec<usize> {
        assert!(n <= bound, "sample_indices: n > bound");
        match u32::try_from(bound) {
            Ok(bound) => {
                let mut all: Vec<u32> = (0..bound).collect();
                self.shuffle(&mut all);
                all[..n].iter().map(|&i| i as usize).collect()
            }
            Err(_) => {
                let mut all: Vec<usize> = (0..bound).collect();
                self.shuffle(&mut all);
                all.truncate(n);
                all
            }
        }
    }
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
