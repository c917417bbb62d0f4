//! Campaign persistence for the audit pipeline: what a cache directory
//! carries from one process to the next.
//!
//! Computed work has one persistence layer, the optimizer-level snapshot
//! store (`ruletest_optimizer::persist`), which answers *invocation*
//! probes across processes. The campaign driver saves it at both stage
//! boundaries and the caller once more after execution (each inside a
//! [`Stage::Persist`] span), so a campaign killed mid-flight loses at most
//! the optimizations of the stage it was in. The next run on the same
//! cache dir regenerates the same queries from the same seed, finds every
//! saved optimization warm — a warm hit replays the telemetry its compute
//! produced — and computes only the rest: its report is a complete warm
//! run's report, which equals a cold run's on the deterministic slice.
//!
//! Beside the cache, `<cache-dir>/checkpoint/quarantine.json` records the
//! poisoned inputs of a supervised campaign. `--resume` is a warm rerun
//! that inherits it instead of clearing it. Both are guarded by the same
//! campaign fingerprint (catalog, rule catalog, seed, scale), so neither
//! can ever serve state produced under a different configuration.

use crate::framework::Framework;
use crate::generate::{GenConfig, Strategy};
use crate::suite::{
    build_graph_with, generate_suite_with, singleton_targets, BipartiteGraph, TestSuite,
};
use crate::supervise::Quarantine;
use ruletest_common::wire::{object, required, to_compact};
use ruletest_common::{wire_record, Decode, Encode, Error, Json, JsonWriter, Result};
use ruletest_optimizer::persist::write_atomic;
use ruletest_optimizer::SnapshotStore;
use ruletest_telemetry::Stage;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checkpoint layout version; a mismatch invalidates the checkpoint the
/// same way a fingerprint mismatch does.
pub const CHECKPOINT_FORMAT: u64 = 1;

fn io_err(what: &str, e: io::Error) -> Error {
    Error::unsupported(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------
// Parameters and fingerprinting.

/// The audit-campaign parameters that, together with the campaign
/// fingerprint, identify a checkpoint. Two runs with the same fingerprint
/// but different parameters (a different seed, `k`, target count, or
/// generation budget) must not inherit each other's quarantine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignParams {
    /// Number of (singleton) rule targets.
    pub rules: usize,
    /// Queries per target.
    pub k: usize,
    /// Generation seed.
    pub seed: u64,
    /// Padding operators above each instantiated pattern.
    pub pad_ops: usize,
    /// Generation trial budget per problem.
    pub max_trials: usize,
}

impl CampaignParams {
    /// The generation configuration these parameters induce.
    pub fn gen_config(&self) -> GenConfig {
        GenConfig {
            seed: self.seed,
            pad_ops: self.pad_ops,
            max_trials: self.max_trials,
            ..GenConfig::default()
        }
    }
}

wire_record!(CampaignParams {
    "k" => k,
    "max_trials" => max_trials,
    "pad_ops" => pad_ops,
    "rules" => rules,
    "seed" => seed,
});

// ---------------------------------------------------------------------
// The checkpoint store.

/// The checkpoint documents under `<cache-dir>/checkpoint/` — today only
/// `quarantine.json`. Every document is stamped with the [`Identity`] of
/// the campaign that wrote it and is only consumed by a campaign with the
/// same identity.
pub struct CampaignStore {
    dir: PathBuf,
    identity: Identity,
}

/// The stamp at the top of every checkpoint document: two campaigns that
/// differ in any member must not consume each other's files.
#[derive(PartialEq)]
struct Identity {
    format: u64,
    /// The campaign fingerprint, as 16 hex digits.
    fingerprint: String,
    params: CampaignParams,
}

wire_record!(Identity {
    "fingerprint" => fingerprint,
    "format" => format,
    "params" => params,
});

/// `quarantine.json`: a campaign's stamp and, after it, its quarantine.
struct QuarantineFile<'a>(&'a Identity, &'a Quarantine);

impl Encode for QuarantineFile<'_> {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        let QuarantineFile(stamp, quarantine) = self;
        w.object(|w| {
            w.member("fingerprint", &stamp.fingerprint);
            w.member("format", &stamp.format);
            w.member("params", &stamp.params);
            w.member("quarantine", quarantine);
        });
    }
}

impl CampaignStore {
    /// Opens (creating if needed) the checkpoint directory for a campaign
    /// identified by `fingerprint` and `params`.
    pub fn open(cache_dir: &Path, fingerprint: u64, params: &CampaignParams) -> io::Result<Self> {
        let dir = cache_dir.join("checkpoint");
        fs::create_dir_all(&dir)?;
        let identity = Identity {
            format: CHECKPOINT_FORMAT,
            fingerprint: format!("{fingerprint:016x}"),
            params: params.clone(),
        };
        Ok(CampaignStore { dir, identity })
    }

    fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.json")
    }

    /// Persists the campaign's quarantine, atomically: this campaign's
    /// stamp followed by a `quarantine` member (quarantine fingerprints are
    /// only meaningful for the campaign that wrote them).
    pub fn save_quarantine(&self, quarantine: &Quarantine) -> io::Result<()> {
        let file = QuarantineFile(&self.identity, quarantine);
        write_atomic(&self.quarantine_path(), to_compact(&file))
    }

    /// Loads the persisted quarantine. Empty when the file is absent,
    /// unreadable, or stamped by another campaign (a stale checkpoint is
    /// silently ignored, never an error). A file that exists but does not
    /// decode (truncated by a crash mid-write of a non-atomic editor, disk
    /// corruption) is *warned about* first, naming the offending field, so
    /// the operator learns the resume was partial.
    pub fn load_quarantine(&self) -> Quarantine {
        let Ok(text) = fs::read_to_string(self.quarantine_path()) else {
            return Quarantine::new();
        };
        let decoded = Json::parse(&text).and_then(|doc| {
            if Identity::decode(&doc)? != self.identity {
                return Ok(Quarantine::new());
            }
            Ok(required(object(&doc)?, "quarantine", Quarantine::decode)?)
        });
        decoded.unwrap_or_else(|e: String| {
            eprintln!(
                "warning: campaign checkpoint quarantine.json is corrupted ({e}); \
                 starting with an empty quarantine"
            );
            Quarantine::new()
        })
    }

    /// Removes the quarantine (a fresh non-resume run must not leave a
    /// previous campaign's poisoned inputs behind for a later `--resume`).
    pub fn clear(&self) -> io::Result<()> {
        match fs::remove_file(self.quarantine_path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// The checkpointed campaign driver.

/// The suite and graph an audit campaign runs its compression and
/// correctness stages over.
pub struct CampaignRun {
    pub suite: TestSuite,
    pub graph: BipartiteGraph,
    /// The checkpoint store, when one is attached — the caller uses it to
    /// persist the final quarantine after the execute stage.
    pub store: Option<CampaignStore>,
}

/// Runs the generation and graph stages of an audit campaign with
/// optional persistence (`cache_dir`).
///
/// With a cache dir, the optimizer's snapshot store is attached (warm
/// invocation entries answer probes without recomputing) and the cache is
/// saved after each stage; the caller runs compression/execution and
/// finishes with [`final_persist`]. A kill mid-stage loses that stage's
/// unsaved optimizations and nothing else: rerunning the same command
/// recomputes exactly those.
///
/// `quarantine` is the failure policy of both stages. With one, absorbed
/// failures land in it, quarantined targets shrink the suite instead of
/// aborting the run, and it is persisted in the checkpoint dir at every
/// stage boundary. `resume` merges the persisted quarantine back in, so
/// the rerun skips known-poisoned inputs instead of re-crashing on them;
/// without `resume` the persisted quarantine is cleared. Without a
/// quarantine, the first failure propagates.
pub fn run_checkpointed_campaign(
    fw: &Framework,
    params: &CampaignParams,
    cache_dir: Option<&Path>,
    resume: bool,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<CampaignRun> {
    let cstore = match cache_dir {
        Some(dir) => {
            let fingerprint = fw.campaign_fingerprint();
            let cs = CampaignStore::open(dir, fingerprint, params)
                .map_err(|e| io_err("opening checkpoint dir", e))?;
            let store = SnapshotStore::open(dir, fingerprint, None)
                .map_err(|e| io_err("opening cache snapshot", e))?;
            fw.optimizer.attach_snapshot_store(Arc::new(store));
            if !resume {
                cs.clear()
                    .map_err(|e| io_err("clearing stale checkpoints", e))?;
            } else if let Some(q) = quarantine.as_deref_mut() {
                q.merge(cs.load_quarantine());
            }
            Some(cs)
        }
        None => None,
    };

    // Stage 1: suite generation.
    let suite = generate_suite_with(
        fw,
        singleton_targets(fw, params.rules),
        params.k,
        Strategy::Pattern,
        &params.gen_config(),
        quarantine.as_deref_mut(),
    )?;
    checkpoint(fw, &cstore, quarantine.as_deref())?;

    // Stage 2: bipartite graph. With a quarantine the stage may shrink the
    // suite (quarantined targets drop with their queries).
    let (suite, graph) = build_graph_with(fw, suite, quarantine.as_deref_mut())?;
    checkpoint(fw, &cstore, quarantine.as_deref())?;

    Ok(CampaignRun {
        suite,
        graph,
        store: cstore,
    })
}

/// One stage boundary of a campaign with a cache dir: save the invocation
/// cache, then the quarantine when the run has one.
fn checkpoint(
    fw: &Framework,
    cstore: &Option<CampaignStore>,
    quarantine: Option<&Quarantine>,
) -> Result<()> {
    let Some(cs) = cstore else {
        return Ok(());
    };
    final_persist(fw)?;
    if let Some(q) = quarantine {
        cs.save_quarantine(q)
            .map_err(|e| io_err("writing quarantine", e))?;
    }
    Ok(())
}

/// Saves the invocation cache inside a [`Stage::Persist`] span (no-op
/// without an attached store). The span count — two stage boundaries plus
/// the caller's save after the execute stage — is part of the
/// deterministic slice and is identical for cold, warm, and resumed runs.
pub fn final_persist(fw: &Framework) -> Result<u64> {
    if fw.optimizer.snapshot_store().is_none() {
        return Ok(0);
    }
    let _span = fw.telemetry.span(Stage::Persist);
    fw.optimizer
        .persist_cache()
        .map_err(|e| io_err("persisting invocation cache", e))
}
