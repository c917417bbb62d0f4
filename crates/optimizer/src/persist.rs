//! Disk-backed, content-addressed persistence for the invocation cache.
//!
//! A testing campaign's cost model is optimizer invocations (§5.3.1), and
//! the in-memory [`OptCache`](crate::OptCache) already dedupes repeats
//! within one process. This module extends that saving across process
//! boundaries: computed `(tree, mask, budgets)` entries are written to a
//! versioned JSONL snapshot, and a later run with `--cache-dir` answers
//! those probes from disk without re-computing.
//!
//! Three properties shape the design:
//!
//! * **Content addressing.** Entries are keyed by the *exact* serialized
//!   [`CacheKey`] (canonical compact JSON, sorted object keys), never by a
//!   lossy fingerprint, so a collision can't serve a wrong plan. The
//!   snapshot as a whole is guarded by a campaign fingerprint (catalog
//!   hash, rule-catalog hash, seed, scale): if the rule catalog changed,
//!   the whole snapshot is rejected rather than risking poisoned entries.
//! * **Determinism.** Serialized floats round-trip bit-exactly (hex
//!   `f64::to_bits`), entries are written sorted by key, and each entry
//!   carries the [`ProfileSample`] its original compute produced so a
//!   warm hit can replay the exact telemetry of a cold compute. Hashes
//!   use FNV-1a (self-contained, stable across processes and releases) —
//!   `DefaultHasher` is documented as unstable and never touches disk.
//! * **Atomicity.** Every file is written to a temp sibling and renamed
//!   into place, so a `kill -9` mid-save leaves the previous snapshot
//!   intact. Shards serialize independently and load lazily on first
//!   probe.

use crate::cache::CacheKey;
use crate::optimizer::OptimizeResult;
use crate::rule::Rule;
use ruletest_common::wire::{object, optional, required, Decode, DecodeError, Encode};
use ruletest_common::{fnv1a, wire_record, Fnv64, Json};
use ruletest_storage::Catalog;
use ruletest_telemetry::ProfileSample;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Snapshot layout version; bump on breaking serialization changes. A
/// version mismatch rejects the snapshot the same way a fingerprint
/// mismatch does.
pub const FORMAT_VERSION: u64 = 1;

/// Fixed number of on-disk shard files. Independent of the in-memory
/// cache's shard count so either can change without invalidating
/// snapshots.
pub const DISK_SHARDS: usize = 16;

/// The campaign fingerprint guarding a snapshot: schema catalog, rule
/// catalog (names, kinds, preconditions, in id order), database seed and
/// scale, and the snapshot format version. Budgets and masks are *not*
/// included — they are per-entry key components.
pub fn campaign_fingerprint<'a>(
    catalog: &Catalog,
    rules: impl Iterator<Item = &'a Rule>,
    db_seed: u64,
    scale: u64,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(FORMAT_VERSION);
    for def in catalog.tables() {
        h.write_u64(u64::from(def.id.0)).write_str(&def.name);
        for col in &def.columns {
            h.write_str(&col.name)
                .write_str(col.data_type.name())
                .write_u64(u64::from(col.nullable));
        }
        for &pk in &def.primary_key {
            h.write_u64(pk as u64);
        }
    }
    for (i, rule) in rules.enumerate() {
        h.write_u64(i as u64)
            .write_str(rule.name)
            .write_u64(matches!(rule.kind, crate::rule::RuleKind::Exploration) as u64)
            .write_str(rule.precondition);
    }
    h.write_u64(db_seed).write_u64(scale);
    h.finish()
}

/// Canonical byte form of a cache key: its wire form, compact-printed
/// (sorted object keys). Content-addresses the snapshot entries — no lossy
/// hashing, so a collision can't serve a wrong plan.
pub fn canonical_key(key: &CacheKey) -> String {
    key.encode().to_string_compact()
}

// ---------------------------------------------------------------------
// The snapshot store.

/// Atomic write: temp sibling + rename. A crash mid-write leaves the old
/// file (or no file), never a torn one. Shared by every file the campaign
/// persists (shards, manifest, stage checkpoints, quarantine).
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// `MANIFEST.json`: what a snapshot directory was written under.
#[derive(PartialEq)]
struct Manifest {
    format: u64,
    /// The campaign fingerprint, as 16 hex digits.
    fingerprint: String,
}

wire_record!(Manifest { "format" => format, "fingerprint" => fingerprint });

impl Manifest {
    fn of(fingerprint: u64) -> Self {
        Manifest {
            format: FORMAT_VERSION,
            fingerprint: format!("{fingerprint:016x}"),
        }
    }
}

/// A warm entry handed back by [`SnapshotStore::peek_warm`].
pub struct WarmHit {
    pub result: Arc<OptimizeResult>,
    /// The profile sample the original compute produced, replayed by the
    /// warm hit so cold and warm span trees match exactly.
    pub sample: Option<ProfileSample>,
    /// True when the entry's telemetry is already included in an absorbed
    /// checkpoint report (`--resume`): the warm hit must NOT re-record it.
    pub counted_in_base: bool,
}

/// Boundary stamp meaning "recorded outside any checkpointed campaign" —
/// such entries are never considered part of a resumed base report.
const NO_BOUNDARY: u64 = u64::MAX;

struct StoredEntry {
    result: Arc<OptimizeResult>,
    sample: Option<ProfileSample>,
    /// Checkpoint boundary whose report snapshot first covers this
    /// entry's telemetry (see [`SnapshotStore::set_boundary`]).
    boundary: u64,
}

type Shard = Mutex<Option<HashMap<String, StoredEntry>>>;

/// Disk-backed warm store for the invocation cache.
///
/// Layout under `<dir>/cache/`: `MANIFEST.json` (format version +
/// campaign fingerprint) and `shard-<i>.jsonl` files (one entry per
/// line, sorted by canonical key). Shards load lazily on the first probe
/// that maps to them; `save` writes every shard atomically.
pub struct SnapshotStore {
    dir: PathBuf,
    fingerprint: u64,
    /// A snapshot existed but its fingerprint (or format) didn't match —
    /// it is ignored wholesale and will be overwritten on save.
    rejected: bool,
    /// A matching snapshot exists on disk to load shards from.
    has_snapshot: bool,
    /// Resume mode: entries stamped with a boundary `<=` this value are
    /// already counted in the absorbed base report.
    counted_through: Option<u64>,
    /// Stamp applied to freshly recorded entries (the checkpoint boundary
    /// whose snapshot will cover them).
    boundary: AtomicU64,
    shards: Vec<Shard>,
}

impl SnapshotStore {
    /// Opens (or initializes) the store under `dir`. `counted_through`
    /// is resume mode: disk entries stamped with a checkpoint boundary
    /// `<=` the value are already counted in the absorbed base report and
    /// must not re-record on a warm hit. Never fails on a *stale*
    /// snapshot — that sets [`SnapshotStore::rejected`] and starts cold.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        counted_through: Option<u64>,
    ) -> std::io::Result<Self> {
        let dir = dir.join("cache");
        fs::create_dir_all(&dir)?;
        let manifest = dir.join("MANIFEST.json");
        let (rejected, has_snapshot) = match fs::read_to_string(&manifest) {
            Ok(text) => {
                let ok = Json::parse(&text)
                    .ok()
                    .and_then(|doc| Manifest::decode(&doc).ok())
                    .is_some_and(|m| m == Manifest::of(fingerprint));
                (!ok, ok)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (false, false),
            Err(e) => return Err(e),
        };
        Ok(SnapshotStore {
            dir,
            fingerprint,
            rejected,
            has_snapshot,
            counted_through,
            boundary: AtomicU64::new(NO_BOUNDARY),
            shards: (0..DISK_SHARDS).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// Sets the checkpoint boundary stamped onto subsequently recorded
    /// entries. A checkpointed campaign calls this when entering stage
    /// `b`, then snapshots its report after saving — so a later
    /// `--resume` from boundary `b` knows exactly which disk entries that
    /// snapshot already counted. Never called → entries are stamped as
    /// boundary-less and never treated as part of a resumed base.
    pub fn set_boundary(&self, b: u64) {
        self.boundary.store(b, Ordering::Relaxed);
    }

    /// True when a snapshot was found but discarded (stale fingerprint or
    /// format). Telemetry counts this as `cache.fingerprint_rejected`.
    pub fn rejected(&self) -> bool {
        self.rejected
    }

    fn shard_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx}.jsonl"))
    }

    fn load_shard(&self, idx: usize) -> HashMap<String, StoredEntry> {
        let mut map = HashMap::new();
        if !self.has_snapshot {
            return map;
        }
        // Chaos site: an injected cache-I/O fault degrades this shard to
        // a cold start — exactly the graceful path a real read error takes.
        if let Err(e) = ruletest_common::chaos::point("cache.load") {
            eprintln!("warning: cache shard {idx} load failed ({e}); starting cold");
            return map;
        }
        let text = match fs::read_to_string(self.shard_path(idx)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return map,
            Err(e) => {
                eprintln!("warning: cache shard {idx} unreadable ({e}); starting cold");
                return map;
            }
        };
        let mut corrupted = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            // A malformed line (truncated write from a pre-atomic-rename
            // era, disk corruption, manual edit) only loses that entry's
            // warmth; intact lines in the same shard stay usable.
            let Ok((key_str, entry)) = parse_entry_line(line) else {
                corrupted += 1;
                continue;
            };
            map.insert(key_str, entry);
        }
        if corrupted > 0 {
            eprintln!(
                "warning: cache shard {idx}: skipped {corrupted} corrupted entr{} (kept {})",
                if corrupted == 1 { "y" } else { "ies" },
                map.len()
            );
        }
        map
    }

    fn locked_shard(&self, idx: usize) -> MutexGuard<'_, Option<HashMap<String, StoredEntry>>> {
        let mut guard = self.shards[idx].lock().expect("snapshot shard poisoned");
        if guard.is_none() {
            *guard = Some(self.load_shard(idx));
        }
        guard
    }

    fn shard_index(key_str: &str) -> usize {
        (fnv1a(key_str.as_bytes()) % DISK_SHARDS as u64) as usize
    }

    /// Returns the warm entry for `key`, leaving it in the store. Peek
    /// (rather than take) semantics keep racing probes consistent: both
    /// see the same entry, and the in-memory cache's first-insertion-wins
    /// dedup decides who records telemetry.
    pub fn peek_warm(&self, key: &CacheKey) -> Option<WarmHit> {
        let key_str = canonical_key(key);
        let idx = Self::shard_index(&key_str);
        let guard = self.locked_shard(idx);
        let map = guard.as_ref().expect("shard loaded above");
        map.get(&key_str).map(|e| WarmHit {
            result: Arc::clone(&e.result),
            sample: e.sample.clone(),
            counted_in_base: self.counted_through.is_some_and(|ct| e.boundary <= ct),
        })
    }

    /// Registers a freshly computed result (with the sample its compute
    /// produced) for the next save. Idempotent: an existing entry for the
    /// key is kept (optimization is deterministic, values are identical).
    pub fn record_fresh(
        &self,
        key: &CacheKey,
        result: &Arc<OptimizeResult>,
        sample: Option<&ProfileSample>,
    ) {
        let key_str = canonical_key(key);
        let idx = Self::shard_index(&key_str);
        let mut guard = self.locked_shard(idx);
        let map = guard.as_mut().expect("shard loaded above");
        map.entry(key_str).or_insert_with(|| StoredEntry {
            result: Arc::clone(result),
            sample: sample.cloned(),
            boundary: self.boundary.load(Ordering::Relaxed),
        });
    }

    /// Writes the manifest and every shard (disk entries merged with
    /// fresh ones, sorted by key) via atomic renames. Returns the number
    /// of entries persisted.
    pub fn save(&self) -> std::io::Result<u64> {
        // Chaos site: an injected fault skips the save — the previous
        // snapshot stays intact (same guarantee a failed atomic rename
        // gives), the process just loses this round of warmth.
        if let Err(e) = ruletest_common::chaos::point("cache.save") {
            eprintln!("warning: cache snapshot save skipped ({e})");
            return Ok(0);
        }
        let mut persisted = 0u64;
        for idx in 0..DISK_SHARDS {
            let guard = self.locked_shard(idx);
            let map = guard.as_ref().expect("shard loaded above");
            let mut keys: Vec<&String> = map.keys().collect();
            keys.sort_unstable();
            let mut out = String::new();
            for key_str in keys {
                let e = &map[key_str];
                out.push_str(&entry_line(key_str, e));
                out.push('\n');
                persisted += 1;
            }
            write_atomic(&self.shard_path(idx), &out)?;
        }
        write_atomic(
            &self.dir.join("MANIFEST.json"),
            Manifest::of(self.fingerprint).encode().to_string_pretty(),
        )?;
        Ok(persisted)
    }

    /// Entries currently resident (loaded or fresh); loads nothing.
    pub fn resident_entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("snapshot shard poisoned")
                    .as_ref()
                    .map_or(0, HashMap::len)
            })
            .sum()
    }
}

/// One shard line. Hand-written, not an `Encode` impl: the key is spliced
/// in as the raw canonical JSON it was addressed by (not re-built from a
/// decoded tree), and the members keep their historical order — `key`,
/// `result`, `sample`, then `b` only for entries that carry a boundary.
fn entry_line(key_str: &str, e: &StoredEntry) -> String {
    // Parsing the line and compact-printing the "key" member reproduces
    // `key_str` exactly, because compact printing with sorted keys is
    // canonical.
    let boundary = if e.boundary == NO_BOUNDARY {
        String::new()
    } else {
        format!(",\"b\":{}", e.boundary.encode().to_string_compact())
    };
    format!(
        "{{\"key\":{key_str},\"result\":{},\"sample\":{}{boundary}}}",
        e.result.encode().to_string_compact(),
        e.sample.encode().to_string_compact(),
    )
}

/// Inverse of [`entry_line`]; the key is never decoded, only re-printed.
fn parse_entry_line(line: &str) -> Result<(String, StoredEntry), DecodeError> {
    let doc = Json::parse(line).map_err(DecodeError::new)?;
    let m = object(&doc)?;
    let entry = StoredEntry {
        result: Arc::new(required(m, "result", Decode::decode)?),
        sample: optional(m, "sample", Decode::decode)?,
        boundary: optional(m, "b", Decode::decode)?.unwrap_or(NO_BOUNDARY),
    };
    Ok((required(m, "key", |k| Ok(k.to_string_compact()))?, entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::RuleMask;
    use crate::optimizer::OptimizerConfig;
    use crate::physical::{PhysOp, PhysicalPlan};
    use ruletest_common::{ColId, DataType, Rng, RuleId, TableId};
    use ruletest_logical::{ColumnInfo, LogicalTree};

    fn leaf(tag: u32) -> LogicalTree {
        LogicalTree::get_with_cols(TableId(tag), vec![ColId(tag), ColId(tag + 1)])
    }

    #[test]
    fn canonical_key_is_stable_and_mask_canonical() {
        let tree = leaf(0);
        let a = CacheKey::new(
            &tree,
            &OptimizerConfig {
                mask: RuleMask::disabling(&[RuleId(5), RuleId(2)]),
                ..Default::default()
            },
        );
        let b = CacheKey::new(
            &tree,
            &OptimizerConfig {
                mask: RuleMask::disabling(&[RuleId(2), RuleId(5)]),
                ..Default::default()
            },
        );
        assert_eq!(canonical_key(&a), canonical_key(&b));
        // Round-tripping the canonical form through the parser reproduces
        // it byte-for-byte (the content-addressing invariant).
        let parsed = Json::parse(&canonical_key(&a)).unwrap();
        assert_eq!(parsed.to_string_compact(), canonical_key(&a));
    }

    fn dummy_result(cost: f64) -> Arc<OptimizeResult> {
        Arc::new(OptimizeResult {
            plan: PhysicalPlan {
                op: PhysOp::SeqScan {
                    table: TableId(0),
                    cols: vec![ColId(0), ColId(1)],
                },
                children: vec![],
                schema: vec![
                    ColumnInfo {
                        id: ColId(0),
                        data_type: DataType::Int,
                        nullable: false,
                    },
                    ColumnInfo {
                        id: ColId(1),
                        data_type: DataType::Str,
                        nullable: true,
                    },
                ],
                est_rows: 10.25,
                est_cost: cost,
            },
            cost,
            rule_set: [RuleId(1), RuleId(4)].into_iter().collect(),
            rule_dependencies: [(RuleId(1), RuleId(4))].into_iter().collect(),
            groups: 3,
            exprs: 9,
            truncated: false,
        })
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut rng = Rng::new(std::process::id() as u64);
        let dir = std::env::temp_dir().join(format!(
            "ruletest-persist-{tag}-{}-{}",
            std::process::id(),
            rng.next_u64()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_round_trips_and_warms() {
        let dir = temp_dir("roundtrip");
        let key = CacheKey::new(&leaf(5), &OptimizerConfig::default());
        {
            let store = SnapshotStore::open(&dir, 42, None).unwrap();
            assert!(!store.rejected());
            assert!(store.peek_warm(&key).is_none(), "store starts cold");
            store.record_fresh(&key, &dummy_result(5.5), None);
            assert_eq!(store.save().unwrap(), 1);
        }
        let store = SnapshotStore::open(&dir, 42, None).unwrap();
        assert!(!store.rejected());
        let hit = store.peek_warm(&key).expect("warm hit after reopen");
        assert_eq!(hit.result.cost.to_bits(), 5.5f64.to_bits());
        assert!(!hit.counted_in_base);
        // Peek leaves the entry in place.
        assert!(store.peek_warm(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_rejects_the_snapshot() {
        let dir = temp_dir("reject");
        let key = CacheKey::new(&leaf(3), &OptimizerConfig::default());
        {
            let store = SnapshotStore::open(&dir, 1, None).unwrap();
            store.record_fresh(&key, &dummy_result(1.0), None);
            store.save().unwrap();
        }
        let store = SnapshotStore::open(&dir, 2, None).unwrap();
        assert!(store.rejected(), "stale fingerprint must be rejected");
        assert!(store.peek_warm(&key).is_none(), "no poisoned entries");
        // Saving under the new fingerprint replaces the stale snapshot.
        store.record_fresh(&key, &dummy_result(2.0), None);
        store.save().unwrap();
        let store = SnapshotStore::open(&dir, 2, None).unwrap();
        assert!(!store.rejected());
        assert!(store.peek_warm(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_mode_marks_disk_entries_counted() {
        let dir = temp_dir("resume");
        let key = CacheKey::new(&leaf(7), &OptimizerConfig::default());
        let key2 = CacheKey::new(&leaf(8), &OptimizerConfig::default());
        {
            let store = SnapshotStore::open(&dir, 9, None).unwrap();
            store.set_boundary(1);
            store.record_fresh(&key, &dummy_result(1.0), None);
            store.set_boundary(2);
            store.record_fresh(&key2, &dummy_result(2.0), None);
            store.save().unwrap();
        }
        // Resuming from the stage-1 checkpoint: the stage-1 entry is
        // already counted in the base report; the stage-2 entry is not.
        let store = SnapshotStore::open(&dir, 9, Some(1)).unwrap();
        assert!(store.peek_warm(&key).unwrap().counted_in_base);
        assert!(!store.peek_warm(&key2).unwrap().counted_in_base);
        // A cold open counts nothing as already reported.
        let cold = SnapshotStore::open(&dir, 9, None).unwrap();
        assert!(!cold.peek_warm(&key).unwrap().counted_in_base);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shard_degrades_to_the_intact_entries() {
        let dir = temp_dir("truncate");
        let keys: Vec<CacheKey> = (0..8)
            .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
            .collect();
        {
            let store = SnapshotStore::open(&dir, 5, None).unwrap();
            for k in &keys {
                store.record_fresh(k, &dummy_result(3.0), None);
            }
            store.save().unwrap();
        }
        // Chop the tail off every non-empty shard, mid-record: the last
        // line becomes unparseable garbage, earlier lines stay intact.
        let mut chopped = 0usize;
        for i in 0..DISK_SHARDS {
            let path = dir.join("cache").join(format!("shard-{i}.jsonl"));
            let text = fs::read_to_string(&path).unwrap();
            if text.len() < 40 {
                continue;
            }
            fs::write(&path, &text[..text.len() - 30]).unwrap();
            chopped += 1;
        }
        assert!(chopped > 0, "no shard was large enough to truncate");
        // Reopen: no panic, no error — every entry on an intact line is
        // still warm, only the torn records lost their warmth.
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        assert!(!store.rejected());
        let warm = keys.iter().filter(|k| store.peek_warm(k).is_some()).count();
        assert!(warm < keys.len(), "truncation must cost some warmth");
        // A fresh save repairs the snapshot.
        for k in &keys {
            store.record_fresh(k, &dummy_result(3.0), None);
        }
        store.save().unwrap();
        let repaired = SnapshotStore::open(&dir, 5, None).unwrap();
        assert_eq!(
            keys.iter()
                .filter(|k| repaired.peek_warm(k).is_some())
                .count(),
            keys.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let write = |dir: &Path| {
            let store = SnapshotStore::open(dir, 7, None).unwrap();
            // Insertion order differs between the two runs.
            let keys: Vec<CacheKey> = (0..20)
                .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
                .collect();
            for k in keys.iter() {
                store.record_fresh(k, &dummy_result(1.0), None);
            }
            store.save().unwrap();
        };
        let write_rev = |dir: &Path| {
            let store = SnapshotStore::open(dir, 7, None).unwrap();
            let keys: Vec<CacheKey> = (0..20)
                .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
                .collect();
            for k in keys.iter().rev() {
                store.record_fresh(k, &dummy_result(1.0), None);
            }
            store.save().unwrap();
        };
        let (a, b) = (temp_dir("det-a"), temp_dir("det-b"));
        write(&a);
        write_rev(&b);
        for i in 0..DISK_SHARDS {
            let fa = fs::read_to_string(a.join("cache").join(format!("shard-{i}.jsonl"))).unwrap();
            let fb = fs::read_to_string(b.join("cache").join(format!("shard-{i}.jsonl"))).unwrap();
            assert_eq!(fa, fb, "shard {i} bytes differ");
        }
        let _ = fs::remove_dir_all(&a);
        let _ = fs::remove_dir_all(&b);
    }
}
