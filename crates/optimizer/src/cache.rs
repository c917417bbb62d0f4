//! Sharded optimizer-invocation cache.
//!
//! A testing campaign optimizes the *same* logical tree under the *same*
//! rule mask many times: generation re-checks its own output, bipartite
//! edge probing recomputes `Plan(q, ¬R)` for targets sharing a rule set,
//! and correctness validation re-optimizes every `Plan(q)` per assignment.
//! Since [`Optimizer::optimize_with`](crate::Optimizer::optimize_with) is
//! a pure function of `(tree, mask)`, those repeats are pure
//! waste — this cache dedupes them.
//!
//! The cache is sharded (`Mutex<HashMap>` per shard, shard chosen by key
//! fingerprint) so concurrent campaign workers rarely contend, and every
//! entry stores the **full key** (tree + canonical mask), so a
//! fingerprint collision can never return a wrong plan. Results are
//! shared as `Arc<OptimizeResult>` — a hit costs one clone of a pointer.
//!
//! Caching never changes observable results (optimization is
//! deterministic; the determinism suite asserts cached ≡ uncached), only
//! the invocation count — which is exactly the §5.3.1 / Figure 14 cost
//! metric the campaign tries to minimize.
//!
//! An entry is a full result, or — for a caller that rejects truncated
//! searches — a search that stopped at the memo cap, kept without the
//! plan nobody would read ([`Cached::Truncated`]). A caller that needs the
//! plan treats the latter as a miss, and its full result replaces it.

use crate::optimizer::{Explored, OptimizeResult, OptimizerConfig};
use ruletest_common::RuleId;
use ruletest_logical::LogicalTree;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Full cache key: the logical tree plus the disabled rules, everything
/// that can change the optimization outcome (the search budgets are
/// constants, hashed into a snapshot's campaign fingerprint).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    tree: LogicalTree,
    /// Canonical mask form (ascending disabled ids) — two masks built in
    /// different orders or with different backing lengths compare equal.
    disabled: Vec<RuleId>,
}

ruletest_common::wire_record!(CacheKey {
    "disabled" => disabled,
    "tree" => tree,
});

impl CacheKey {
    pub fn new(tree: &LogicalTree, config: &OptimizerConfig) -> Self {
        Self {
            tree: tree.clone(),
            disabled: config.disabled_rules(),
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// What the cache holds for a key.
#[derive(Debug, Clone)]
pub enum Cached {
    /// The whole optimization: plan, cost and rule set, truncated or not.
    Full(Arc<OptimizeResult>),
    /// A search that stopped at the memo cap, without a plan.
    Truncated(Arc<Explored>),
}

impl Cached {
    /// Whether `self` takes the place of `held` under one key: only a full
    /// result replaces, and only a truncated outcome.
    pub(crate) fn upgrades(&self, held: &Cached) -> bool {
        matches!((held, self), (Cached::Truncated(_), Cached::Full(_)))
    }
}

/// What [`OptCache::insert`] found under its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted {
    /// Nothing: the value was stored.
    New,
    /// A truncated outcome, which the full result replaced.
    Upgraded,
    /// A value at least as complete, which was kept.
    Present,
}

/// Cache observability counters (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Shard flushes forced by the capacity bound.
    pub evictions: u64,
}

/// The sharded cache. Cheap to share via the owning [`crate::Optimizer`];
/// all methods take `&self`.
pub struct OptCache {
    shards: Vec<Mutex<HashMap<CacheKey, Cached>>>,
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

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Cached>> {
        &self.shards[(key.fingerprint() % self.shards.len() as u64) as usize]
    }

    /// Returns the cached value for `key`, counting a hit or miss. With
    /// `needs_plan`, a truncated outcome is a miss and is not returned.
    pub fn lookup(&self, key: &CacheKey, needs_plan: bool) -> Option<Cached> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .filter(|v| !needs_plan || matches!(v, Cached::Full(_)))
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a computed value; a full result replaces a truncated
    /// outcome, anything else already present is kept. Concurrent inserts
    /// of the same key are fine: optimization is deterministic, so both
    /// values agree. The answer tells the caller what its value added —
    /// which is what telemetry uses to count each unique optimization
    /// exactly once, whichever caller reached it first.
    pub fn insert(&self, key: CacheKey, value: Cached) -> Inserted {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if shard.len() >= self.shard_capacity {
            shard.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        match shard.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(value);
                Inserted::New
            }
            Entry::Occupied(mut slot) if value.upgrades(slot.get()) => {
                slot.insert(value);
                Inserted::Upgraded
            }
            Entry::Occupied(_) => Inserted::Present,
        }
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

    fn dummy_result() -> Cached {
        Cached::Full(Arc::new(OptimizeResult {
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
        }))
    }

    fn truncated_outcome() -> Cached {
        Cached::Truncated(Arc::new(Explored {
            rule_set: Default::default(),
            groups: 0,
            exprs: 0,
        }))
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
        let a = CacheKey::new(&tree, &RuleMask::disabling(&[RuleId(5), RuleId(2)]));
        let mut mask = RuleMask::disabling(&[RuleId(2), RuleId(5), RuleId(90)]);
        mask.enable(RuleId(90)); // leaves a longer backing vec behind
        let b = CacheKey::new(&tree, &mask);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, CacheKey::new(&tree, &OptimizerConfig::default()));
    }

    #[test]
    fn lookup_insert_roundtrip_and_stats() {
        let cache = OptCache::new(4, 64);
        let key = CacheKey::new(&leaf(1), &OptimizerConfig::default());
        assert!(cache.lookup(&key, false).is_none());
        cache.insert(key.clone(), dummy_result());
        assert!(cache.lookup(&key, true).is_some());
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn insert_reports_first_insertion() {
        let cache = OptCache::new(4, 64);
        let key = CacheKey::new(&leaf(9), &OptimizerConfig::default());
        assert_eq!(cache.insert(key.clone(), dummy_result()), Inserted::New);
        assert_eq!(cache.insert(key, dummy_result()), Inserted::Present);
    }

    #[test]
    fn a_full_result_replaces_a_truncated_outcome_and_nothing_else() {
        let cache = OptCache::new(4, 64);
        let key = CacheKey::new(&leaf(3), &OptimizerConfig::default());
        assert_eq!(
            cache.insert(key.clone(), truncated_outcome()),
            Inserted::New
        );
        assert!(cache.lookup(&key, true).is_none(), "no plan: a miss");
        assert!(matches!(
            cache.lookup(&key, false),
            Some(Cached::Truncated(_))
        ));
        assert_eq!(
            cache.insert(key.clone(), truncated_outcome()),
            Inserted::Present
        );
        assert_eq!(
            cache.insert(key.clone(), dummy_result()),
            Inserted::Upgraded
        );
        assert!(matches!(cache.lookup(&key, true), Some(Cached::Full(_))));
        assert_eq!(
            cache.insert(key.clone(), truncated_outcome()),
            Inserted::Present,
            "a truncated outcome never replaces a plan"
        );
        assert!(matches!(cache.lookup(&key, false), Some(Cached::Full(_))));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, cache.len()), (3, 1, 1));
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
                        if cache.lookup(&key, true).is_none() {
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
