//! Sharded optimizer-invocation cache.
//!
//! A testing campaign optimizes the *same* logical tree under the *same*
//! rule mask many times: generation re-checks its own output, bipartite
//! edge probing recomputes `Plan(q, ¬R)` for targets sharing a rule set,
//! and correctness validation re-optimizes every `Plan(q)` per assignment.
//! Since [`Optimizer::optimize_with`](crate::Optimizer::optimize_with) is
//! a pure function of `(tree, mask, budgets)`, those repeats are pure
//! waste — this cache dedupes them.
//!
//! The cache is sharded (`Mutex<HashMap>` per shard, shard chosen by key
//! fingerprint) so concurrent campaign workers rarely contend, and every
//! entry stores the **full key** (tree + canonical mask + budgets), so a
//! fingerprint collision can never return a wrong plan. Results are
//! shared as `Arc<OptimizeResult>` — a hit costs one clone of a pointer.
//!
//! Caching never changes observable results (optimization is
//! deterministic; the determinism suite asserts cached ≡ uncached), only
//! the invocation count — which is exactly the §5.3.1 / Figure 14 cost
//! metric the campaign tries to minimize.

use crate::optimizer::{OptimizeResult, OptimizerConfig};
use ruletest_common::RuleId;
use ruletest_logical::LogicalTree;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Full cache key: the logical tree plus everything that can change the
/// optimization outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    tree: LogicalTree,
    /// Canonical mask form (ascending disabled ids) — two masks built in
    /// different orders or with different backing lengths compare equal.
    disabled: Vec<RuleId>,
    max_exprs: usize,
    max_passes: usize,
    /// Hard memo-growth cap, part of the key because it changes whether
    /// an invocation succeeds at all. The wall-clock `deadline` is
    /// deliberately *excluded*: timed-out computes are errors and never
    /// cached, and a cached result is valid under any deadline.
    hard_max_exprs: Option<usize>,
}

// `hard_max_exprs` is left out when unset so default-config keys keep the
// exact canonical bytes older snapshots were addressed by.
ruletest_common::wire_record!(CacheKey {
    "tree" => tree,
    "disabled" => disabled,
    "max_exprs" => max_exprs,
    "max_passes" => max_passes,
    "hard_max_exprs" => hard_max_exprs: omit_none,
});

impl CacheKey {
    pub fn new(tree: &LogicalTree, config: &OptimizerConfig) -> Self {
        Self {
            tree: tree.clone(),
            disabled: config.mask.disabled_rules(),
            max_exprs: config.max_exprs,
            max_passes: config.max_passes,
            hard_max_exprs: config.hard_max_exprs,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Cache observability counters (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Shard flushes forced by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded cache. Cheap to share via the owning [`crate::Optimizer`];
/// all methods take `&self`.
pub struct OptCache {
    shards: Vec<Mutex<HashMap<CacheKey, Arc<OptimizeResult>>>>,
    /// Entries per shard before the shard is flushed wholesale. Epoch
    /// flushing keeps the hot path branch-free; eviction only affects
    /// future hit rates, never results.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for OptCache {
    fn default() -> Self {
        Self::new(16, 4096)
    }
}

impl OptCache {
    /// `shards` mutex-protected maps of at most `shard_capacity` entries.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity: shard_capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Arc<OptimizeResult>>> {
        &self.shards[(key.fingerprint() % self.shards.len() as u64) as usize]
    }

    /// Returns the cached result for `key`, counting a hit or miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<OptimizeResult>> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a computed result. Concurrent inserts of the same key are
    /// fine: optimization is deterministic, so both values are identical.
    /// Returns `true` when the key was not already present — the caller
    /// that "wins" a racing duplicate compute, which is what telemetry
    /// uses to count each unique optimization exactly once.
    pub fn insert(&self, key: CacheKey, value: Arc<OptimizeResult>) -> bool {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if shard.len() >= self.shard_capacity {
            shard.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.insert(key, value).is_none()
    }

    /// Total entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::RuleMask;

    fn dummy_result() -> Arc<OptimizeResult> {
        Arc::new(OptimizeResult {
            plan: crate::physical::PhysicalPlan {
                op: crate::physical::PhysOp::HashDistinct,
                children: vec![],
                schema: vec![],
                est_rows: 1.0,
                est_cost: 1.0,
            },
            cost: 1.0,
            rule_set: Default::default(),
            rule_dependencies: Default::default(),
            groups: 0,
            exprs: 0,
            truncated: false,
        })
    }

    fn leaf(tag: u32) -> LogicalTree {
        LogicalTree::get_with_cols(
            ruletest_common::TableId(tag),
            vec![ruletest_common::ColId(tag)],
        )
    }

    #[test]
    fn mask_form_is_canonical() {
        let tree = leaf(0);
        let a = CacheKey::new(
            &tree,
            &OptimizerConfig {
                mask: RuleMask::disabling(&[RuleId(5), RuleId(2)]),
                ..Default::default()
            },
        );
        let mut mask = RuleMask::disabling(&[RuleId(2), RuleId(5), RuleId(90)]);
        mask.enable(RuleId(90)); // leaves a longer backing vec behind
        let b = CacheKey::new(
            &tree,
            &OptimizerConfig {
                mask,
                ..Default::default()
            },
        );
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn budgets_are_part_of_the_key() {
        let tree = leaf(0);
        let a = CacheKey::new(&tree, &OptimizerConfig::default());
        let b = CacheKey::new(
            &tree,
            &OptimizerConfig {
                max_exprs: 10,
                ..Default::default()
            },
        );
        assert_ne!(a, b);
    }

    #[test]
    fn deadline_is_not_part_of_the_key_but_hard_cap_is() {
        let tree = leaf(0);
        let a = CacheKey::new(&tree, &OptimizerConfig::default());
        let timed = CacheKey::new(
            &tree,
            &OptimizerConfig {
                deadline: ruletest_common::Deadline::after_ms(5),
                ..Default::default()
            },
        );
        // Wall-clock state never addresses cached results.
        assert_eq!(a, timed);
        let capped = CacheKey::new(
            &tree,
            &OptimizerConfig {
                hard_max_exprs: Some(100),
                ..Default::default()
            },
        );
        assert_ne!(a, capped);
    }

    #[test]
    fn lookup_insert_roundtrip_and_stats() {
        let cache = OptCache::new(4, 64);
        let key = CacheKey::new(&leaf(1), &OptimizerConfig::default());
        assert!(cache.lookup(&key).is_none());
        cache.insert(key.clone(), dummy_result());
        assert!(cache.lookup(&key).is_some());
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn insert_reports_first_insertion() {
        let cache = OptCache::new(4, 64);
        let key = CacheKey::new(&leaf(9), &OptimizerConfig::default());
        assert!(
            cache.insert(key.clone(), dummy_result()),
            "first insert wins"
        );
        assert!(!cache.insert(key, dummy_result()), "duplicate loses");
    }

    #[test]
    fn capacity_bound_flushes_the_shard() {
        let cache = OptCache::new(1, 8);
        for tag in 0..100u32 {
            let key = CacheKey::new(&leaf(tag), &OptimizerConfig::default());
            cache.insert(key, dummy_result());
        }
        assert!(cache.len() <= 8, "shard exceeded its capacity");
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(OptCache::new(8, 1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let key = CacheKey::new(&leaf(i % 50), &OptimizerConfig::default());
                        if cache.lookup(&key).is_none() {
                            cache.insert(key, dummy_result());
                        }
                        let _ = t;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 50);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
    }
}
