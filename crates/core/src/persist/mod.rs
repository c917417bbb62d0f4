//! Campaign checkpoint/resume: stage-boundary persistence for the audit
//! pipeline.
//!
//! The optimizer-level snapshot store (`ruletest_optimizer::persist`)
//! answers *invocation* probes across processes; this module persists
//! *campaign progress* — the generated test suite and the bipartite graph
//! — so a campaign killed mid-flight resumes at its last completed stage
//! instead of restarting. Both layers are guarded by the same campaign
//! fingerprint (catalog, rule catalog, seed, scale), so neither can ever
//! serve state produced under a different configuration.
//!
//! The checkpoint protocol keeps the resumed report byte-identical to an
//! uninterrupted run on the deterministic slice:
//!
//! 1. Entering stage *k*, the snapshot store's boundary stamp is set to
//!    *k*: invocation entries recorded during the stage are tagged with
//!    it.
//! 2. At the boundary after stage *k*, the invocation cache is saved
//!    (inside a [`Stage::Persist`] span), the cumulative [`RunReport`] is
//!    snapshotted (it includes that span), and the stage file is written
//!    via atomic rename.
//! 3. A kill mid-stage therefore discards the partial stage from *both*
//!    the report (the base is the previous boundary's snapshot) and the
//!    disk cache (saves only happen at boundaries) — the resumed process
//!    recomputes the whole stage, warm-started by entries the boundary
//!    saves did persist.
//!
//! On `--resume`, disk entries whose boundary stamp is covered by the
//! loaded checkpoint (`boundary <= counted_through`) are already counted
//! in the base report and replay silently; later entries replay their
//! telemetry exactly as a cold compute would.

use crate::framework::Framework;
use crate::generate::{GenConfig, Strategy};
use crate::suite::{
    build_graph_with, generate_suite_with, singleton_targets, BipartiteGraph, TestSuite,
};
use crate::supervise::Quarantine;
use ruletest_common::{wire_record, Decode, DecodeError, Encode, Error, Json, Result};
use ruletest_optimizer::persist::write_atomic;
use ruletest_optimizer::SnapshotStore;
use ruletest_telemetry::{RunReport, Stage};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Checkpoint layout version; a mismatch invalidates the checkpoint the
/// same way a fingerprint mismatch does.
pub const CHECKPOINT_FORMAT: u64 = 1;

/// Stage names (also the checkpoint file names).
pub const STAGE_SUITE: &str = "suite";
pub const STAGE_GRAPH: &str = "graph";

/// Boundary stamps for the snapshot store: which completed stage an
/// invocation-cache entry belongs to. The final save after the execute
/// stage uses [`BOUNDARY_EXECUTE`] and writes no stage file — compression
/// is pure arithmetic and execution results are never checkpointed.
pub const BOUNDARY_SUITE: u64 = 1;
pub const BOUNDARY_GRAPH: u64 = 2;
pub const BOUNDARY_EXECUTE: u64 = 3;

fn io_err(what: &str, e: io::Error) -> Error {
    Error::unsupported(format!("{what}: {e}"))
}

/// A stage payload that passed the identity guard but does not decode.
fn bad_payload(e: DecodeError) -> Error {
    Error::unsupported(format!("campaign checkpoint: malformed {e}"))
}

// ---------------------------------------------------------------------
// Parameters and fingerprinting.

/// The audit-campaign parameters that, together with the campaign
/// fingerprint, identify a checkpoint. Two runs with the same fingerprint
/// but different parameters (a different seed, `k`, target count, or
/// generation budget) must not consume each other's checkpoints.
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
    "rules" => rules,
    "k" => k,
    "seed" => seed,
    "pad_ops" => pad_ops,
    "max_trials" => max_trials,
});

// ---------------------------------------------------------------------
// The checkpoint store.

/// Stage-boundary checkpoint files under `<cache-dir>/checkpoint/`. Every
/// file is stamped with the [`Identity`] of the campaign that wrote it and
/// is only consumed by a campaign with the same identity.
pub struct CampaignStore {
    dir: PathBuf,
    identity: Identity,
    metrics: bool,
}

/// The stamp at the top of every checkpoint document: two campaigns that
/// differ in any member must not consume each other's files.
#[derive(PartialEq)]
struct Identity {
    format: u64,
    /// The campaign fingerprint, as 16 hex digits.
    fingerprint: String,
    /// Wire form of the [`CampaignParams`].
    params: Json,
}

wire_record!(Identity {
    "format" => format,
    "fingerprint" => fingerprint,
    "params" => params,
});

/// `stage-<name>.json` below the stamp: whether telemetry observed the
/// campaign, the boundary stamp, the stage payload, and the cumulative
/// run-report snapshot at that boundary.
struct StageDoc {
    metrics: bool,
    boundary: u64,
    payload: Json,
    report: RunReport,
}

wire_record!(StageDoc {
    "metrics" => metrics,
    "boundary" => boundary,
    "payload" => payload,
    "report" => report,
});

/// `quarantine.json` below the stamp: the poisoned inputs.
struct QuarantineDoc {
    quarantine: Quarantine,
}

wire_record!(QuarantineDoc { "quarantine" => quarantine });

/// The graph-stage payload of a campaign run with a quarantine: the stage
/// may shrink the suite (quarantined targets drop with their queries), so
/// the shrunk suite travels with the graph — the two must stay consistent
/// on resume. (Without a quarantine the payload is the bare graph.)
struct ShrunkGraph {
    suite: TestSuite,
    graph: BipartiteGraph,
}

wire_record!(ShrunkGraph { "suite" => suite, "graph" => graph });

impl CampaignStore {
    /// Opens (creating if needed) the checkpoint directory for a campaign
    /// identified by `fingerprint` and `params`. `metrics` records whether
    /// telemetry is observing the campaign — it is part of a stage file's
    /// identity, because a metrics-enabled resume merging the empty base
    /// report of an unobserved original would claim zero invocations for
    /// stages that very much ran (and trip `report --check`). Switching
    /// telemetry on or off between runs recomputes instead.
    pub fn open(
        cache_dir: &Path,
        fingerprint: u64,
        params: &CampaignParams,
        metrics: bool,
    ) -> io::Result<Self> {
        let dir = cache_dir.join("checkpoint");
        fs::create_dir_all(&dir)?;
        let identity = Identity {
            format: CHECKPOINT_FORMAT,
            fingerprint: format!("{fingerprint:016x}"),
            params: params.encode(),
        };
        Ok(CampaignStore {
            dir,
            identity,
            metrics,
        })
    }

    fn stage_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("stage-{name}.json"))
    }

    /// Writes one checkpoint document — this campaign's stamp followed by
    /// the members of `body` — atomically.
    fn write_doc(&self, path: &Path, body: &impl Encode) -> io::Result<()> {
        let mut doc = self.identity.encode();
        if let (Json::Obj(doc), Json::Obj(body)) = (&mut doc, body.encode()) {
            doc.extend(body);
        }
        write_atomic(path, doc.to_string_compact())
    }

    /// Reads one checkpoint document. `None` when the file is absent,
    /// unreadable, or stamped by another campaign (a stale checkpoint
    /// silently falls back to recomputation, never to an error). A file
    /// that exists but does not decode (truncated by a crash mid-write of
    /// a non-atomic editor, disk corruption) is *warned about* first,
    /// naming the offending field, so the operator learns the resume was
    /// partial.
    fn read_doc<T: Decode>(&self, path: &Path, fallback: &str) -> Option<T> {
        let text = fs::read_to_string(path).ok()?;
        let decoded = Json::parse(&text).and_then(|doc| {
            let ours = Identity::decode(&doc)? == self.identity;
            Ok(if ours { Some(T::decode(&doc)?) } else { None })
        });
        decoded.unwrap_or_else(|e: String| {
            let file = path.file_name().unwrap_or_default().to_string_lossy();
            eprintln!("warning: campaign checkpoint {file} is corrupted ({e}); {fallback}");
            None
        })
    }

    /// Writes the checkpoint for one completed stage.
    pub fn save_stage(
        &self,
        name: &str,
        boundary: u64,
        payload: Json,
        report: RunReport,
    ) -> io::Result<()> {
        let doc = StageDoc {
            metrics: self.metrics,
            boundary,
            payload,
            report,
        };
        self.write_doc(&self.stage_path(name), &doc)
    }

    /// Loads a stage checkpoint — its boundary stamp, payload and report
    /// snapshot — or `None` when [`CampaignStore::read_doc`] finds nothing
    /// usable or the file was written under the other telemetry mode.
    pub fn load_stage(&self, name: &str) -> Option<(u64, Json, RunReport)> {
        let doc: StageDoc = self.read_doc(&self.stage_path(name), "recomputing the stage")?;
        (doc.metrics == self.metrics).then_some((doc.boundary, doc.payload, doc.report))
    }

    fn quarantine_path(&self) -> PathBuf {
        self.dir.join("quarantine.json")
    }

    /// Persists the campaign's quarantine, under the same stamp as the
    /// stage files (quarantine fingerprints are only meaningful for the
    /// campaign that wrote them). Telemetry on/off is deliberately *not*
    /// part of it: the quarantine records poisoned inputs, not counted work.
    pub fn save_quarantine(&self, quarantine: &Quarantine) -> io::Result<()> {
        let doc = QuarantineDoc {
            quarantine: quarantine.clone(),
        };
        self.write_doc(&self.quarantine_path(), &doc)
    }

    /// Loads the persisted quarantine; anything but a decodable file of
    /// this campaign yields an empty quarantine (same soft-fail contract
    /// as [`CampaignStore::load_stage`], with the same corruption warning).
    pub fn load_quarantine(&self) -> Quarantine {
        self.read_doc(&self.quarantine_path(), "starting with an empty quarantine")
            .map_or_else(Quarantine::new, |doc: QuarantineDoc| doc.quarantine)
    }

    /// Removes all stage files and the quarantine (a fresh non-resume run
    /// must not leave a previous campaign's checkpoints behind for a
    /// later `--resume`).
    pub fn clear(&self) -> io::Result<()> {
        for path in [
            self.stage_path(STAGE_SUITE),
            self.stage_path(STAGE_GRAPH),
            self.quarantine_path(),
        ] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The checkpointed campaign driver.

/// The suite and graph an audit campaign runs its compression and
/// correctness stages over, plus which stages came from checkpoints.
pub struct CampaignRun {
    pub suite: TestSuite,
    pub graph: BipartiteGraph,
    /// Stage names answered from a checkpoint instead of recomputed.
    pub resumed: Vec<&'static str>,
    /// The checkpoint store, when one is attached — the caller uses it to
    /// persist the final quarantine after the execute stage.
    pub store: Option<CampaignStore>,
}

/// Runs the generation and graph stages of an audit campaign with
/// optional persistence (`cache_dir`) and resume.
///
/// With a cache dir, the optimizer's snapshot store is attached (warm
/// invocation entries answer probes without recomputing) and each
/// completed stage is checkpointed; with `resume`, valid checkpoints are
/// loaded instead of recomputed and their report snapshot becomes the
/// framework's base report. Returns `None` when `stop_after` names the
/// last completed stage — the test hook simulating a `kill -9` at a
/// stage boundary (a kill mid-stage is equivalent to a kill at the
/// previous boundary: neither the report nor the disk cache retains
/// partial-stage state).
///
/// `quarantine` is the failure policy of both stages. With one, absorbed
/// failures land in it, quarantined targets shrink the suite instead of
/// aborting the run, and it is persisted in the checkpoint dir at every
/// stage boundary and merged back on `resume`, so a resumed campaign
/// skips known-poisoned inputs instead of re-crashing on them. Without
/// one, the first failure propagates.
///
/// On return, the snapshot store's boundary is set to
/// [`BOUNDARY_EXECUTE`]; the caller runs compression/execution and
/// finishes with [`final_persist`].
pub fn run_checkpointed_campaign(
    fw: &Framework,
    params: &CampaignParams,
    cache_dir: Option<&Path>,
    resume: bool,
    stop_after: Option<&str>,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<Option<CampaignRun>> {
    let fingerprint = fw.campaign_fingerprint();
    let cstore = match cache_dir {
        Some(dir) => Some(
            CampaignStore::open(dir, fingerprint, params, fw.telemetry.is_enabled())
                .map_err(|e| io_err("opening checkpoint dir", e))?,
        ),
        None => None,
    };
    // Load usable checkpoints before opening the snapshot store: the warm
    // store must know which boundary the base report already covers. A
    // graph checkpoint is only usable together with the suite it was
    // derived from.
    let (suite_ck, graph_ck) = match (&cstore, resume) {
        (Some(cs), true) => {
            let suite_ck = cs.load_stage(STAGE_SUITE);
            let graph_ck = if suite_ck.is_some() {
                cs.load_stage(STAGE_GRAPH)
            } else {
                None
            };
            (suite_ck, graph_ck)
        }
        _ => (None, None),
    };
    if let (Some(cs), false) = (&cstore, resume) {
        cs.clear()
            .map_err(|e| io_err("clearing stale checkpoints", e))?;
    }
    // A resume inherits the persisted quarantine: inputs that crashed the
    // previous run are skipped, not retried.
    if let (Some(cs), true, Some(q)) = (&cstore, resume, quarantine.as_deref_mut()) {
        q.merge(cs.load_quarantine());
    }
    let counted_through = graph_ck
        .as_ref()
        .or(suite_ck.as_ref())
        .map(|(boundary, _, _)| *boundary);
    let store = match cache_dir {
        Some(dir) => {
            let s = Arc::new(
                SnapshotStore::open(dir, fingerprint, counted_through)
                    .map_err(|e| io_err("opening cache snapshot", e))?,
            );
            fw.optimizer.attach_snapshot_store(Arc::clone(&s));
            Some(s)
        }
        None => None,
    };
    let mut resumed = Vec::new();
    if suite_ck.is_some() {
        resumed.push(STAGE_SUITE);
    }
    if graph_ck.is_some() {
        resumed.push(STAGE_GRAPH);
    }
    // The newest checkpoint's report snapshot is cumulative through its
    // boundary — it becomes the base the resumed process builds on.
    if let Some((_, _, report)) = graph_ck.as_ref().or(suite_ck.as_ref()) {
        fw.set_report_base(report.clone());
    }

    // Stage 1: suite generation.
    let suite = match &suite_ck {
        Some((_, payload, _)) => TestSuite::decode(payload).map_err(bad_payload)?,
        None => {
            if let Some(s) = &store {
                s.set_boundary(BOUNDARY_SUITE);
            }
            let targets = singleton_targets(fw, params.rules);
            let suite = generate_suite_with(
                fw,
                targets,
                params.k,
                Strategy::Pattern,
                &params.gen_config(),
                quarantine.as_deref_mut(),
            )?;
            checkpoint(fw, &cstore, STAGE_SUITE, BOUNDARY_SUITE, suite.encode())?;
            save_quarantine(&cstore, quarantine.as_deref())?;
            suite
        }
    };
    if stop_after == Some(STAGE_SUITE) {
        return Ok(None);
    }

    // Stage 2: bipartite graph (payload: `ShrunkGraph` with a quarantine,
    // the bare graph otherwise).
    let (suite, graph) = match &graph_ck {
        Some((_, payload, _)) if payload.get("graph").is_some() => {
            let shrunk = ShrunkGraph::decode(payload).map_err(bad_payload)?;
            (shrunk.suite, shrunk.graph)
        }
        Some((_, payload, _)) => (suite, BipartiteGraph::decode(payload).map_err(bad_payload)?),
        None => {
            if let Some(s) = &store {
                s.set_boundary(BOUNDARY_GRAPH);
            }
            let (suite, graph) = build_graph_with(fw, suite, quarantine.as_deref_mut())?;
            if quarantine.is_some() {
                let shrunk = ShrunkGraph { suite, graph };
                checkpoint(fw, &cstore, STAGE_GRAPH, BOUNDARY_GRAPH, shrunk.encode())?;
                save_quarantine(&cstore, quarantine.as_deref())?;
                (shrunk.suite, shrunk.graph)
            } else {
                checkpoint(fw, &cstore, STAGE_GRAPH, BOUNDARY_GRAPH, graph.encode())?;
                (suite, graph)
            }
        }
    };
    if stop_after == Some(STAGE_GRAPH) {
        return Ok(None);
    }
    // Compression is pure arithmetic (always recomputed); execution
    // entries recorded from here on belong to the final boundary.
    if let Some(s) = &store {
        s.set_boundary(BOUNDARY_EXECUTE);
    }
    Ok(Some(CampaignRun {
        suite,
        graph,
        resumed,
        store: cstore,
    }))
}

/// Persists the quarantine at a stage boundary, when the run has one.
fn save_quarantine(cstore: &Option<CampaignStore>, quarantine: Option<&Quarantine>) -> Result<()> {
    if let (Some(cs), Some(q)) = (cstore, quarantine) {
        cs.save_quarantine(q)
            .map_err(|e| io_err("writing quarantine", e))?;
    }
    Ok(())
}

/// One stage boundary: persist the invocation cache (inside the persist
/// span — the span count is part of the deterministic slice and must be
/// identical for cold, warm, and resumed runs), then snapshot the
/// cumulative report (which includes that span), then write the stage
/// file.
fn checkpoint(
    fw: &Framework,
    cstore: &Option<CampaignStore>,
    name: &str,
    boundary: u64,
    payload: Json,
) -> Result<()> {
    let Some(cs) = cstore else {
        return Ok(());
    };
    {
        let _span = fw.telemetry.span(Stage::Persist);
        fw.optimizer
            .persist_cache()
            .map_err(|e| io_err("persisting invocation cache", e))?;
    }
    cs.save_stage(name, boundary, payload, fw.run_report())
        .map_err(|e| io_err("writing stage checkpoint", e))
}

/// The final invocation-cache save after the execute stage. No stage file
/// follows it: a completed campaign's checkpoints stay at the graph
/// boundary, and the boundary stamps on the execute-stage entries tell a
/// later resume they were never counted in any checkpointed report.
pub fn final_persist(fw: &Framework) -> Result<u64> {
    if fw.optimizer.snapshot_store().is_none() {
        return Ok(0);
    }
    let _span = fw.telemetry.span(Stage::Persist);
    fw.optimizer
        .persist_cache()
        .map_err(|e| io_err("persisting invocation cache", e))
}
