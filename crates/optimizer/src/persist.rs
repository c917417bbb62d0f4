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
//!   lossy fingerprint, so a collision can't serve a wrong plan. A shard
//!   line opens with its key, and a load takes the key's bytes as written
//!   (they are neither decoded nor printed again). The
//!   snapshot as a whole is guarded by a campaign fingerprint (catalog
//!   hash, rule-catalog hash, seed, scale): if the rule catalog changed,
//!   the whole snapshot is rejected rather than risking poisoned entries.
//! * **Determinism.** Serialized floats round-trip bit-exactly (hex
//!   `f64::to_bits`), entries are written sorted by key, and each entry
//!   carries the counts of the [`ProfileSample`] its original compute
//!   produced so a warm hit can replay the counts of a cold compute. Hashes
//!   use FNV-1a (self-contained, stable across processes and releases) —
//!   `DefaultHasher` is documented as unstable and never touches disk.
//! * **Atomicity.** Every file is written to a temp sibling and renamed
//!   into place, so a `kill -9` mid-save leaves the previous snapshot
//!   intact. Shards serialize independently, load lazily on first probe,
//!   and are rewritten only when their entries differ from the file.
//!
//! An entry holds either form of [`Cached`] value: a full result
//! (`"result"`), or a search kept without its plan because it stopped at
//! the memo cap (`"explored"`: its exploration rules and memo size). A full
//! result recorded for a key replaces a truncated outcome.

use crate::cache::{CacheKey, Cached};
use crate::rule::Rule;
use ruletest_common::chaos::Chaos;
use ruletest_common::wire::{
    field, from_str, missing, read_all, to_compact, to_pretty, DecodeError, Encode,
};
use ruletest_common::{fnv1a, wire_record, Fnv64, JsonReader, JsonWriter};
use ruletest_storage::Catalog;
use ruletest_telemetry::ProfileSample;
use std::collections::hash_map::{Entry, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Snapshot layout version; bump on breaking serialization changes. A
/// version mismatch rejects the snapshot the same way a fingerprint
/// mismatch does. Version 2: a profile sample holds counts only.
pub const FORMAT_VERSION: u64 = 2;

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

/// Canonical byte form of a cache key: its wire form, written compact (keys
/// ascending) straight into one buffer. Content-addresses the snapshot
/// entries — no lossy hashing, so a collision can't serve a wrong plan.
pub fn canonical_key(key: &CacheKey) -> String {
    to_compact(key)
}

// ---------------------------------------------------------------------
// The snapshot store.

/// Atomic write: temp sibling + rename. A crash mid-write leaves the old
/// file (or no file), never a torn one. Shared by every file the campaign
/// persists (shards, manifest, quarantine).
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

wire_record!(Manifest { "fingerprint" => fingerprint, "format" => format });

impl Manifest {
    fn of(fingerprint: u64) -> Self {
        Manifest {
            format: FORMAT_VERSION,
            fingerprint: format!("{fingerprint:016x}"),
        }
    }
}

/// A snapshot entry: what a shard line holds beside its key, and what
/// [`SnapshotStore::peek_warm`] hands back.
#[derive(Clone)]
pub struct WarmHit {
    pub value: Cached,
    /// The counts of the profile sample the original compute produced,
    /// replayed by the warm hit so cold and warm span trees match exactly.
    pub sample: Option<ProfileSample>,
}

/// One disk shard once loaded: its entries by canonical key, and whether
/// they differ from the shard's file.
struct LoadedShard {
    entries: HashMap<String, WarmHit>,
    /// The next [`SnapshotStore::save`] must rewrite the file: an entry
    /// was recorded since the load, the load dropped corrupt lines (the
    /// rewrite heals the torn file), or there is no accepted snapshot on
    /// disk at all.
    dirty: bool,
}

type Shard = Mutex<Option<LoadedShard>>;

/// Disk-backed warm store for the invocation cache.
///
/// Layout under `<dir>/cache/`: `MANIFEST.json` (format version +
/// campaign fingerprint) and `shard-<i>.jsonl` files (one entry per
/// line, sorted by canonical key). Shards load lazily on the first probe
/// that maps to them; `save` atomically rewrites the shards that changed.
pub struct SnapshotStore {
    dir: PathBuf,
    fingerprint: u64,
    /// A snapshot existed but its fingerprint (or format) didn't match —
    /// it is ignored wholesale and will be overwritten on save.
    rejected: bool,
    /// A matching snapshot exists on disk to load shards from.
    has_snapshot: bool,
    shards: Vec<Shard>,
}

impl SnapshotStore {
    /// Opens (or initializes) the store under `dir`. Never fails on a
    /// *stale* snapshot — that sets [`SnapshotStore::rejected`] and starts
    /// cold. The third parameter is ignored: it selected the retired
    /// checkpoint-resume mode, and is kept only because the benchmark's
    /// two call sites (`perfbench/src/workloads.rs`) pass `None` and may
    /// not be edited here; a benchmark PR drops it.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        _counted_through: Option<u64>,
    ) -> std::io::Result<Self> {
        let dir = dir.join("cache");
        fs::create_dir_all(&dir)?;
        let manifest = dir.join("MANIFEST.json");
        let (rejected, has_snapshot) = match fs::read_to_string(&manifest) {
            Ok(text) => {
                let ok = from_str::<Manifest>(&text).is_ok_and(|m| m == Manifest::of(fingerprint));
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
            shards: (0..DISK_SHARDS).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// True when a snapshot was found but discarded (stale fingerprint or
    /// format). Telemetry counts this as `cache.fingerprint_rejected`.
    pub fn rejected(&self) -> bool {
        self.rejected
    }

    fn shard_path(&self, idx: usize) -> PathBuf {
        self.dir.join(format!("shard-{idx}.jsonl"))
    }

    fn load_shard(&self, idx: usize, chaos: &Chaos) -> LoadedShard {
        // Without an accepted snapshot the next save writes every shard.
        // Over one, a shard starts clean even when its file cannot be
        // read: the file is left for a process that can.
        let mut shard = LoadedShard {
            entries: HashMap::new(),
            dirty: !self.has_snapshot,
        };
        if !self.has_snapshot {
            return shard;
        }
        // Chaos site: an injected cache-I/O fault degrades this shard to
        // a cold start — exactly the graceful path a real read error takes.
        if let Err(e) = chaos.point("cache.load") {
            eprintln!("warning: cache shard {idx} load failed ({e}); starting cold");
            return shard;
        }
        let bytes = match fs::read(self.shard_path(idx)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return shard,
            Err(e) => {
                eprintln!("warning: cache shard {idx} unreadable ({e}); starting cold");
                return shard;
            }
        };
        let mut corrupted = 0usize;
        for line in bytes.split(|&b| b == b'\n') {
            // A malformed line (truncated write from a pre-atomic-rename
            // era, disk corruption, manual edit, a byte that is not UTF-8)
            // only loses that entry's warmth; intact lines in the same
            // shard stay usable.
            let Ok(line) = std::str::from_utf8(line) else {
                corrupted += 1;
                continue;
            };
            if line.trim().is_empty() {
                continue;
            }
            let Ok((key_str, entry)) = parse_entry_line(line) else {
                corrupted += 1;
                continue;
            };
            shard.entries.insert(key_str, entry);
        }
        if corrupted > 0 {
            eprintln!(
                "warning: cache shard {idx}: skipped {corrupted} corrupted entr{} (kept {})",
                if corrupted == 1 { "y" } else { "ies" },
                shard.entries.len()
            );
            shard.dirty = true;
        }
        shard
    }

    fn locked_shard(&self, idx: usize, chaos: &Chaos) -> MutexGuard<'_, Option<LoadedShard>> {
        let mut guard = self.shards[idx].lock().expect("snapshot shard poisoned");
        if guard.is_none() {
            *guard = Some(self.load_shard(idx, chaos));
        }
        guard
    }

    fn shard_index(key_str: &str) -> usize {
        (fnv1a(key_str.as_bytes()) % DISK_SHARDS as u64) as usize
    }

    /// Returns the warm entry for `key`, leaving it in the store. Peek
    /// (rather than take) semantics keep racing probes consistent: both
    /// see the same entry, and the in-memory cache's first-insertion-wins
    /// dedup decides who records telemetry. A shard loads on its first
    /// probe, under `chaos`'s `cache.load` site.
    pub fn peek_warm(&self, key: &CacheKey, chaos: &Chaos) -> Option<WarmHit> {
        let key_str = canonical_key(key);
        let idx = Self::shard_index(&key_str);
        let guard = self.locked_shard(idx, chaos);
        let shard = guard.as_ref().expect("shard loaded above");
        shard.entries.get(&key_str).cloned()
    }

    /// Registers a freshly computed value (with the sample its compute
    /// produced) for the next save. Idempotent: an existing entry for the
    /// key is kept (optimization is deterministic, values agree), unless
    /// it is a truncated outcome and `value` the full result.
    pub fn record_fresh(
        &self,
        key: &CacheKey,
        value: &Cached,
        sample: Option<&ProfileSample>,
        chaos: &Chaos,
    ) {
        let key_str = canonical_key(key);
        let idx = Self::shard_index(&key_str);
        let mut guard = self.locked_shard(idx, chaos);
        let shard = guard.as_mut().expect("shard loaded above");
        let fresh = || WarmHit {
            value: value.clone(),
            sample: sample.cloned(),
        };
        match shard.entries.entry(key_str) {
            Entry::Vacant(slot) => {
                slot.insert(fresh());
            }
            Entry::Occupied(mut slot) if value.upgrades(&slot.get().value) => {
                slot.insert(fresh());
            }
            Entry::Occupied(_) => return,
        }
        shard.dirty = true;
    }

    /// [`Self::save_with`] outside any campaign: no fault plan.
    pub fn save(&self) -> std::io::Result<u64> {
        self.save_with(&Chaos::default())
    }

    /// Loads every shard and writes, via atomic renames, each shard whose
    /// entries differ from its file (disk entries merged with fresh ones,
    /// sorted by key), and the manifest unless the snapshot was accepted at
    /// open and no shard was rewritten. Returns the number of entries
    /// the snapshot now holds, rewritten or not. Probes `chaos`'s
    /// `cache.save` site first, and its `cache.load` site per shard it
    /// loads.
    pub fn save_with(&self, chaos: &Chaos) -> std::io::Result<u64> {
        // Chaos site: an injected fault skips the save — the previous
        // snapshot stays intact (same guarantee a failed atomic rename
        // gives), the process just loses this round of warmth.
        if let Err(e) = chaos.point("cache.save") {
            eprintln!("warning: cache snapshot save skipped ({e})");
            return Ok(0);
        }
        let (mut persisted, mut rewrote) = (0u64, false);
        for idx in 0..DISK_SHARDS {
            let mut guard = self.locked_shard(idx, chaos);
            let shard = guard.as_mut().expect("shard loaded above");
            persisted += shard.entries.len() as u64;
            if !shard.dirty {
                continue;
            }
            let mut keys: Vec<&String> = shard.entries.keys().collect();
            keys.sort_unstable();
            let mut out = String::new();
            for key_str in keys {
                write_entry_line(&mut out, key_str, &shard.entries[key_str]);
                out.push('\n');
            }
            write_atomic(&self.shard_path(idx), &out)?;
            shard.dirty = false;
            rewrote = true;
        }
        // A snapshot accepted at open that no shard changed is on disk as
        // it stands: its manifest already says what this one would.
        if rewrote || !self.has_snapshot {
            write_atomic(
                &self.dir.join("MANIFEST.json"),
                to_pretty(&Manifest::of(self.fingerprint)),
            )?;
        }
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
                    .map_or(0, |shard| shard.entries.len())
            })
            .sum()
    }
}

/// How every shard line opens: its key member comes first, so a reader can
/// take the key's bytes as written.
const KEY_MEMBER: &str = "{\"key\":";

/// Appends one shard line to `out`. Hand-written, not an `Encode` impl: the
/// key is spliced in as the raw canonical JSON it was addressed by (not
/// re-encoded from a decoded key), and the members keep their historical
/// order — `key`, `result` (or `explored`), `sample` — which is not sorted
/// when the value is `explored`. Each value goes through the writer.
fn write_entry_line(out: &mut String, key_str: &str, e: &WarmHit) {
    let (member, value): (&str, &dyn Encode) = match &e.value {
        Cached::Full(result) => (",\"result\":", &**result),
        Cached::Truncated(explored) => (",\"explored\":", &**explored),
    };
    out.push_str(KEY_MEMBER);
    out.push_str(key_str);
    out.push_str(member);
    value.encode(&mut JsonWriter::compact(out));
    out.push_str(",\"sample\":");
    e.sample.encode(&mut JsonWriter::compact(out));
    out.push('}');
}

/// Inverse of [`write_entry_line`]. The key is taken as written: the reader
/// only skips it to find where it ends, and it is neither built nor printed
/// again, so a key whose bytes are not canonical matches no probe (a miss,
/// never a wrong plan). A line that does not open with its key is corrupt.
/// The rest of the line is read as the rest of an object, its byte offsets
/// counted from the key's end. Members it does not name are ignored, which
/// is how a line written with the retired stage-boundary stamp (`"b":N`)
/// still loads.
pub fn parse_entry_line(line: &str) -> Result<(String, WarmHit), DecodeError> {
    let after = line
        .strip_prefix(KEY_MEMBER)
        .ok_or_else(|| DecodeError::new("a shard line opens with its key"))?;
    let mut key = JsonReader::new(after);
    key.skip()?;
    let (key, rest) = after.split_at(key.pos());
    let (mut result, mut explored, mut sample) = (None, None, None);
    let members = |r: &mut JsonReader<'_>| {
        r.object_rest();
        while let Some(name) = r.key()? {
            match &*name {
                "result" => result = field(r, "result")?,
                "explored" => explored = Some(field(r, "explored")?),
                "sample" => sample = field(r, "sample")?,
                _ => r.skip()?,
            }
        }
        Ok(())
    };
    let skip_members = |r: &mut JsonReader<'_>| {
        r.object_rest();
        r.skip_members()
    };
    read_all(rest, members, skip_members)?;
    let value = match result {
        Some(result) => Cached::Full(Arc::new(result)),
        None => Cached::Truncated(Arc::new(explored.ok_or_else(|| missing("explored"))?)),
    };
    Ok((key.to_string(), WarmHit { value, sample }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::RuleMask;
    use crate::optimizer::{Explored, OptimizeResult, OptimizerConfig};
    use crate::physical::{PhysOp, PhysicalPlan};
    use ruletest_common::{ColId, DataType, Json, Rng, RuleId, TableId};
    use ruletest_logical::{ColumnInfo, LogicalTree};

    fn entry_line(key_str: &str, e: &WarmHit) -> String {
        let mut line = String::new();
        write_entry_line(&mut line, key_str, e);
        line
    }

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

    fn dummy_result(cost: f64) -> Cached {
        Cached::Full(Arc::new(OptimizeResult {
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
        }))
    }

    fn cost(value: &Cached) -> f64 {
        match value {
            Cached::Full(result) => result.cost,
            Cached::Truncated(_) => panic!("no plan"),
        }
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
            assert!(
                store.peek_warm(&key, &Chaos::default()).is_none(),
                "store starts cold"
            );
            store.record_fresh(&key, &dummy_result(5.5), None, &Chaos::default());
            assert_eq!(store.save().unwrap(), 1);
        }
        let store = SnapshotStore::open(&dir, 42, None).unwrap();
        assert!(!store.rejected());
        let hit = store
            .peek_warm(&key, &Chaos::default())
            .expect("warm hit after reopen");
        assert_eq!(cost(&hit.value).to_bits(), 5.5f64.to_bits());
        // Peek leaves the entry in place.
        assert!(store.peek_warm(&key, &Chaos::default()).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_result_replaces_a_truncated_outcome_on_disk() {
        let dir = temp_dir("upgrade");
        let key = CacheKey::new(&leaf(6), &OptimizerConfig::default());
        let truncated = Cached::Truncated(Arc::new(Explored {
            rule_set: [RuleId(2)].into_iter().collect(),
            groups: 300,
            exprs: 3001,
        }));
        {
            let store = SnapshotStore::open(&dir, 42, None).unwrap();
            store.record_fresh(
                &key,
                &truncated,
                Some(&ProfileSample::default()),
                &Chaos::default(),
            );
            assert_eq!(store.save().unwrap(), 1);
        }
        let store = SnapshotStore::open(&dir, 42, None).unwrap();
        let hit = store.peek_warm(&key, &Chaos::default()).unwrap();
        assert!(
            matches!(&hit.value, Cached::Truncated(e) if **e == Explored {
                rule_set: [RuleId(2)].into_iter().collect(),
                groups: 300,
                exprs: 3001,
            })
        );
        assert_eq!(hit.sample, Some(ProfileSample::default()));
        store.record_fresh(&key, &dummy_result(7.0), None, &Chaos::default());
        store.record_fresh(&key, &truncated, None, &Chaos::default());
        store.save().unwrap();
        let reopened = SnapshotStore::open(&dir, 42, None).unwrap();
        assert_eq!(
            cost(&reopened.peek_warm(&key, &Chaos::default()).unwrap().value),
            7.0
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_rejects_the_snapshot() {
        let dir = temp_dir("reject");
        let key = CacheKey::new(&leaf(3), &OptimizerConfig::default());
        {
            let store = SnapshotStore::open(&dir, 1, None).unwrap();
            store.record_fresh(&key, &dummy_result(1.0), None, &Chaos::default());
            store.save().unwrap();
        }
        let store = SnapshotStore::open(&dir, 2, None).unwrap();
        assert!(store.rejected(), "stale fingerprint must be rejected");
        assert!(
            store.peek_warm(&key, &Chaos::default()).is_none(),
            "no poisoned entries"
        );
        // Saving under the new fingerprint replaces the stale snapshot.
        store.record_fresh(&key, &dummy_result(2.0), None, &Chaos::default());
        store.save().unwrap();
        let store = SnapshotStore::open(&dir, 2, None).unwrap();
        assert!(!store.rejected());
        assert!(store.peek_warm(&key, &Chaos::default()).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A saved eight-key snapshot whose shard files are all backdated, so
    /// a later rewrite shows as a changed mtime whatever the clock's
    /// granularity.
    fn backdated_snapshot(tag: &str) -> (PathBuf, Vec<CacheKey>) {
        let dir = temp_dir(tag);
        let keys: Vec<CacheKey> = (0..8)
            .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
            .collect();
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        for k in &keys {
            store.record_fresh(k, &dummy_result(3.0), None, &Chaos::default());
        }
        assert_eq!(store.save().unwrap(), 8);
        (0..DISK_SHARDS).for_each(|i| backdate(&dir, i));
        (dir, keys)
    }

    const BACKDATED: std::time::SystemTime = std::time::UNIX_EPOCH;

    fn shard_file(dir: &Path, idx: usize) -> PathBuf {
        dir.join("cache").join(format!("shard-{idx}.jsonl"))
    }

    fn backdate(dir: &Path, idx: usize) {
        let file = fs::File::options().write(true).open(shard_file(dir, idx));
        file.unwrap().set_modified(BACKDATED).unwrap();
    }

    /// Indexes of the shard files rewritten since [`backdated_snapshot`].
    fn rewritten(dir: &Path) -> Vec<usize> {
        (0..DISK_SHARDS)
            .filter(|&i| {
                fs::metadata(shard_file(dir, i))
                    .unwrap()
                    .modified()
                    .unwrap()
                    != BACKDATED
            })
            .collect()
    }

    #[test]
    fn save_with_nothing_recorded_rewrites_no_shard() {
        let (dir, keys) = backdated_snapshot("clean-save");
        let bytes = |dir: &Path| -> Vec<Vec<u8>> {
            (0..DISK_SHARDS)
                .map(|i| fs::read(shard_file(dir, i)).unwrap())
                .collect()
        };
        let before = bytes(&dir);
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        // Re-recording a key the snapshot holds changes nothing either.
        store.record_fresh(&keys[0], &dummy_result(3.0), None, &Chaos::default());
        assert_eq!(store.save().unwrap(), 8);
        assert_eq!(rewritten(&dir), Vec::<usize>::new());
        assert_eq!(bytes(&dir), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_fresh_entry_rewrites_exactly_its_shard() {
        let (dir, _) = backdated_snapshot("one-fresh");
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        let fresh = CacheKey::new(&leaf(100), &OptimizerConfig::default());
        store.record_fresh(&fresh, &dummy_result(4.0), None, &Chaos::default());
        assert_eq!(store.save().unwrap(), 9);
        let home = SnapshotStore::shard_index(&canonical_key(&fresh));
        assert_eq!(rewritten(&dir), [home]);
        // The shard is clean again: a further save leaves it alone.
        backdate(&dir, home);
        assert_eq!(store.save().unwrap(), 9);
        assert_eq!(rewritten(&dir), Vec::<usize>::new());
        let reopened = SnapshotStore::open(&dir, 5, None).unwrap();
        assert!(reopened.peek_warm(&fresh, &Chaos::default()).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_line_is_healed_by_the_next_save() {
        let (dir, keys) = backdated_snapshot("heal");
        let torn = SnapshotStore::shard_index(&canonical_key(&keys[0]));
        let intact = fs::read_to_string(shard_file(&dir, torn)).unwrap();
        fs::write(shard_file(&dir, torn), format!("{intact}{{\"key\":tru")).unwrap();
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        assert_eq!(store.save().unwrap(), 8);
        assert_eq!(fs::read_to_string(shard_file(&dir, torn)).unwrap(), intact);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Keys a million arrays or objects deep are two more corrupt lines,
    /// loaded on a spawned thread: the parser stops at its nesting limit
    /// instead of overflowing the stack.
    #[test]
    fn a_hostile_line_is_skipped_not_a_stack_overflow() {
        let (dir, keys) = backdated_snapshot("hostile");
        let home = SnapshotStore::shard_index(&canonical_key(&keys[0]));
        let intact = fs::read_to_string(shard_file(&dir, home)).unwrap();
        let arrays = format!("{KEY_MEMBER}{}", "[".repeat(1_000_000));
        let objects = format!("{KEY_MEMBER}{}", "{\"k\":".repeat(1_000_000));
        let hostile = format!("{intact}{arrays}\n{objects}\n");
        fs::write(shard_file(&dir, home), hostile).unwrap();
        let loaded = dir.clone();
        std::thread::spawn(move || {
            let store = SnapshotStore::open(&loaded, 5, None).unwrap();
            assert!(store.peek_warm(&keys[0], &Chaos::default()).is_some());
            assert_eq!(store.save().unwrap(), 8);
        })
        .join()
        .unwrap();
        assert_eq!(fs::read_to_string(shard_file(&dir, home)).unwrap(), intact);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn a_save_of_an_unchanged_snapshot_writes_no_file() {
        use std::os::unix::fs::MetadataExt;
        let (dir, keys) = backdated_snapshot("noop-save");
        let manifest = dir.join("cache").join("MANIFEST.json");
        let inode = || fs::metadata(&manifest).unwrap().ino();
        let before = inode();
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        assert!(store.peek_warm(&keys[0], &Chaos::default()).is_some());
        assert_eq!(store.save().unwrap(), 8);
        assert_eq!(inode(), before, "the manifest was rewritten");
        assert_eq!(rewritten(&dir), Vec::<usize>::new());
        // A save that rewrites a shard writes the manifest too.
        let fresh = CacheKey::new(&leaf(100), &OptimizerConfig::default());
        store.record_fresh(&fresh, &dummy_result(4.0), None, &Chaos::default());
        assert_eq!(store.save().unwrap(), 9);
        assert_ne!(inode(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_that_does_not_open_with_its_key_is_corrupt_and_healed() {
        let (dir, keys) = backdated_snapshot("reordered");
        let home = SnapshotStore::shard_index(&canonical_key(&keys[0]));
        let intact = fs::read_to_string(shard_file(&dir, home)).unwrap();
        // A well-formed entry for another key, its members out of order.
        let other = CacheKey::new(&leaf(100), &OptimizerConfig::default());
        let line = entry_line(
            &canonical_key(&other),
            &WarmHit {
                value: dummy_result(2.0),
                sample: None,
            },
        );
        let (key_member, rest) = line.split_at(line.find(",\"result\":").unwrap());
        let reordered = format!("{{{},{}}}", &rest[1..rest.len() - 1], &key_member[1..]);
        assert!(Json::parse(&reordered).is_ok() && parse_entry_line(&reordered).is_err());
        fs::write(shard_file(&dir, home), format!("{intact}{reordered}\n")).unwrap();
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        assert!(store.peek_warm(&other, &Chaos::default()).is_none());
        assert!(store.peek_warm(&keys[0], &Chaos::default()).is_some());
        assert_eq!(store.save().unwrap(), 8);
        assert_eq!(fs::read_to_string(shard_file(&dir, home)).unwrap(), intact);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_whose_bytes_are_not_canonical_is_a_miss() {
        let (dir, keys) = backdated_snapshot("noncanonical");
        let canonical = canonical_key(&keys[0]);
        let home = SnapshotStore::shard_index(&canonical);
        // The same key with its members in reverse order: equal as JSON,
        // different as bytes.
        let members = Json::parse(&canonical).unwrap();
        let reversed: Vec<String> = members
            .as_obj()
            .unwrap()
            .iter()
            .rev()
            .map(|(k, v)| format!("{}:{}", to_compact(k.as_str()), v.to_string_compact()))
            .collect();
        let written = format!("{{{}}}", reversed.join(","));
        assert_eq!(Json::parse(&written).unwrap(), members);
        let text = fs::read_to_string(shard_file(&dir, home)).unwrap();
        let needle = format!("{KEY_MEMBER}{canonical},");
        assert!(text.contains(&needle));
        let text = text.replace(&needle, &format!("{KEY_MEMBER}{written},"));
        fs::write(shard_file(&dir, home), &text).unwrap();
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        assert!(store.peek_warm(&keys[0], &Chaos::default()).is_none());
        // The line is not corrupt: it loads under the bytes it was written
        // with, and a save leaves the shard as it is.
        assert_eq!(store.save().unwrap(), 8);
        assert_eq!(fs::read_to_string(shard_file(&dir, home)).unwrap(), text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_shard_is_left_alone() {
        let (dir, keys) = backdated_snapshot("unreadable");
        let bad = SnapshotStore::shard_index(&canonical_key(&keys[0]));
        // A directory where the shard file should be: reading it is an I/O
        // error, not a missing file.
        fs::remove_file(shard_file(&dir, bad)).unwrap();
        fs::create_dir(shard_file(&dir, bad)).unwrap();
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        assert!(
            store.peek_warm(&keys[0], &Chaos::default()).is_none(),
            "the shard starts cold"
        );
        assert!(store.save().unwrap() < 8);
        assert!(shard_file(&dir, bad).is_dir());
        let _ = fs::remove_dir_all(&dir);
    }

    /// One byte that is not UTF-8 costs its line's entry, not the shard:
    /// the other lines stay warm and the next save heals the file.
    #[test]
    fn a_line_that_is_not_utf8_is_one_corrupt_entry() {
        let (dir, keys) = backdated_snapshot("not-utf8");
        let bad = SnapshotStore::shard_index(&canonical_key(&keys[0]));
        let path = shard_file(&dir, bad);
        let mut bytes = fs::read(&path).unwrap();
        let line = bytes.split(|&b| b == b'\n').count() - 1;
        let key = canonical_key(&keys[0]);
        let at = bytes
            .windows(key.len())
            .position(|w| w == key.as_bytes())
            .unwrap();
        bytes[at + key.len() + 5] = 0xff;
        fs::write(&path, &bytes).unwrap();
        let store = SnapshotStore::open(&dir, 5, None).unwrap();
        let warm = (keys.iter())
            .filter(|k| store.peek_warm(k, &Chaos::default()).is_some())
            .count();
        assert_eq!(warm, keys.len() - 1, "only the torn line went cold");
        assert_eq!(store.save().unwrap(), keys.len() as u64 - 1);
        let healed = fs::read_to_string(&path).expect("the save rewrote the shard as UTF-8");
        assert_eq!(healed.lines().count(), line - 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_boundary_member_is_ignored_on_read() {
        let key_str = canonical_key(&CacheKey::new(&leaf(7), &OptimizerConfig::default()));
        let entry = WarmHit {
            value: dummy_result(1.5),
            sample: Some(ProfileSample::default()),
        };
        let line = entry_line(&key_str, &entry);
        let stamped = format!("{},\"b\":2}}", line.strip_suffix('}').unwrap());
        let (key, decoded) = parse_entry_line(&stamped).unwrap();
        assert_eq!(key, key_str);
        assert_eq!(entry_line(&key, &decoded), line);
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
                store.record_fresh(k, &dummy_result(3.0), None, &Chaos::default());
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
        let warm = keys
            .iter()
            .filter(|k| store.peek_warm(k, &Chaos::default()).is_some())
            .count();
        assert!(warm < keys.len(), "truncation must cost some warmth");
        // A fresh save repairs the snapshot.
        for k in &keys {
            store.record_fresh(k, &dummy_result(3.0), None, &Chaos::default());
        }
        store.save().unwrap();
        let repaired = SnapshotStore::open(&dir, 5, None).unwrap();
        assert_eq!(
            keys.iter()
                .filter(|k| repaired.peek_warm(k, &Chaos::default()).is_some())
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
                store.record_fresh(k, &dummy_result(1.0), None, &Chaos::default());
            }
            store.save().unwrap();
        };
        let write_rev = |dir: &Path| {
            let store = SnapshotStore::open(dir, 7, None).unwrap();
            let keys: Vec<CacheKey> = (0..20)
                .map(|i| CacheKey::new(&leaf(i), &OptimizerConfig::default()))
                .collect();
            for k in keys.iter().rev() {
                store.record_fresh(k, &dummy_result(1.0), None, &Chaos::default());
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

    #[allow(dead_code)]
    mod decode_edits {
        include!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/support/decode_edits.rs"
        ));
    }

    /// The snapshot sections of `tests/golden/decode_corpus.txt` (the rest
    /// are `tests/decode_corpus.rs`'s): every manifest and shard line under
    /// `tests/golden/wire/cache*/`, re-read after each edit; an entry that
    /// reads is written back as a shard line.
    #[test]
    fn decode_corpus_pins_shard_lines_and_manifests() {
        use decode_edits::{assert_sections, section};
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
        let mut actual = Vec::new();
        for dir in ["cache", "cache_truncated", "cache_with_boundary"] {
            let mut names: Vec<String> = fs::read_dir(golden.join("wire").join(dir))
                .unwrap()
                .map(|f| f.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            for name in names {
                let fixture = format!("{dir}/{name}");
                let text = fs::read_to_string(golden.join("wire").join(&fixture)).unwrap();
                let text = if name == "MANIFEST.json" {
                    section(&fixture, &[&text], &|t| {
                        Ok(to_compact(&from_str::<Manifest>(t)?))
                    })
                } else {
                    let lines: Vec<&str> = text.lines().collect();
                    section(&fixture, &lines, &|t| {
                        let (key, entry) = parse_entry_line(t)?;
                        Ok(entry_line(&key, &entry))
                    })
                };
                actual.push((fixture, text));
            }
        }
        let corpus = fs::read_to_string(golden.join("decode_corpus.txt")).unwrap();
        assert_sections(&corpus, &actual);
    }
}
