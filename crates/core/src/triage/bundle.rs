//! Repro bundles: self-contained, deterministic bug reproductions.
//!
//! A bundle records everything a fresh process needs to re-derive the
//! divergence: the database generator seed and scale, the mutant to
//! inject (if the run used one), the masked rule names, and the
//! minimized SQL. [`replay`] rebuilds the database and optimizer from
//! those fields alone, re-parses the SQL (the dialect round-trips
//! exactly), re-optimizes both ways, re-executes, and re-diffs — the
//! diff summary must come out byte-identical to the recorded one.
//!
//! Bundles serialize one-per-line as JSONL so campaign artifacts can be
//! concatenated, grepped, and replayed individually.

use crate::mutate::{optimizer_for, Mutant};
use crate::oracle::{Oracle, Outcome};
use ruletest_common::{from_str, to_compact, wire_record, Error, Result, RuleId};
use ruletest_executor::ExecConfig;
use ruletest_sql::parse_sql;
use ruletest_storage::{tpch_database, TpchConfig};
use ruletest_telemetry::Telemetry;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Bump when the bundle schema changes incompatibly.
pub const BUNDLE_VERSION: u64 = 1;

/// One serialized bug repro.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproBundle {
    pub version: u64,
    /// Human-readable target label (rule name or "A+B" pair).
    pub target_label: String,
    /// Names of the rules masked in `Plan(q, ¬R)`.
    pub rule_mask: Vec<String>,
    /// Id of the injected [`Mutant`], when the run was fault-injected.
    pub fault: Option<String>,
    /// Suite generation seed (provenance; not needed to replay).
    pub seed: u64,
    /// Test-database generator seed.
    pub db_seed: u64,
    /// Test-database scale factor.
    pub scale: u64,
    /// Minimized witness SQL.
    pub sql: String,
    /// Logical operator count of the minimized witness.
    pub ops: u64,
    /// The bug's signature key (dedup identity).
    pub signature: String,
    /// Raw findings that collapsed into this signature.
    pub duplicates: u64,
    /// Recorded result diff — replay must reproduce this byte-for-byte.
    pub diff_summary: String,
    /// `Plan(q)` pretty-print at detection time.
    pub base_plan: String,
    /// `Plan(q, ¬R)` pretty-print at detection time.
    pub masked_plan: String,
}

wire_record!(ReproBundle {
    "base_plan" => base_plan,
    "db_seed" => db_seed,
    "diff_summary" => diff_summary,
    "duplicates" => duplicates,
    "fault" => fault: omit_none,
    "masked_plan" => masked_plan,
    "ops" => ops,
    "rule_mask" => rule_mask,
    "scale" => scale,
    "seed" => seed,
    "signature" => signature,
    "sql" => sql,
    "target" => target_label,
    "version" => version,
});

/// The version of a bundle line; every other member is skipped.
struct Stamp {
    version: u64,
}

wire_record!(Stamp { "version" => version });

/// Writes bundles as JSONL, one per line.
pub fn write_bundles<W: Write>(w: &mut W, bundles: &[ReproBundle]) -> std::io::Result<()> {
    for b in bundles {
        writeln!(w, "{}", to_compact(b))?;
    }
    Ok(())
}

/// Reads a JSONL bundle stream (blank lines ignored). The version is
/// checked before anything else: another version's fields are not ours to
/// interpret.
pub fn read_bundles<R: BufRead>(r: R) -> std::result::Result<Vec<ReproBundle>, String> {
    let read_one = |line: &str| -> std::result::Result<ReproBundle, String> {
        let Stamp { version } = from_str(line)?;
        if version != BUNDLE_VERSION {
            return Err(format!(
                "bundle version {version} unsupported (expected {BUNDLE_VERSION})"
            ));
        }
        Ok(from_str(line)?)
    };
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        if !line.trim().is_empty() {
            out.push(read_one(&line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
    }
    Ok(out)
}

/// What replaying a bundle produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The two plans disagreed on executed results.
    pub diverged: bool,
    /// The re-derived diff summary.
    pub diff_summary: String,
    /// `diverged` *and* the diff summary matches the recorded one
    /// byte-for-byte — the deterministic-repro guarantee.
    pub confirmed: bool,
}

/// Re-executes a bundle from scratch: fresh database (same generator seed
/// and scale), fresh optimizer (same mutant), re-parsed SQL. No state from
/// the detecting process is consulted.
pub fn replay(bundle: &ReproBundle) -> Result<ReplayOutcome> {
    let db = Arc::new(tpch_database(&TpchConfig::scaled(
        bundle.db_seed,
        bundle.scale as usize,
    ))?);
    let fault = bundle.fault.as_deref().map(Mutant::by_id).transpose()?;
    let optimizer = optimizer_for(db.clone(), fault);
    let rules: Vec<RuleId> = bundle
        .rule_mask
        .iter()
        .map(|n| {
            optimizer
                .rule_id(n)
                .ok_or_else(|| Error::invalid(format!("unknown rule '{n}' in bundle")))
        })
        .collect::<Result<_>>()?;
    let tree = parse_sql(&db.catalog, &bundle.sql)?;
    let (tel, exec) = (Telemetry::disabled(), ExecConfig::default());
    let (diverged, diff_summary) =
        match Oracle::new(&optimizer, &tel, &exec).check(&tree, &rules, None) {
            Ok((_, Outcome::Identical)) => (false, "plans identical".to_string()),
            Ok((_, Outcome::Equal)) => (false, "results identical".to_string()),
            Ok((_, Outcome::Differ(diff))) => (true, diff.summary()),
            Ok((_, Outcome::Failed(failed))) | Err(failed) => return Err(failed.into_error()),
        };
    let confirmed = diverged && diff_summary == bundle.diff_summary;
    Ok(ReplayOutcome {
        diverged,
        diff_summary,
        confirmed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReproBundle {
        ReproBundle {
            version: BUNDLE_VERSION,
            target_label: "SelectIntoInnerJoin".to_string(),
            rule_mask: vec!["SelectIntoInnerJoin".to_string()],
            fault: Some("SelectMergedIntoOuterJoin".to_string()),
            seed: 3,
            db_seed: 0xC0FFEE,
            scale: 1,
            sql: "SELECT 1".to_string(),
            ops: 3,
            signature: "rules=[SelectIntoInnerJoin] delta=[..] diff=1e0".to_string(),
            duplicates: 2,
            diff_summary: "results differ: ...".to_string(),
            base_plan: "Filter\n  NLJoin\n".to_string(),
            masked_plan: "NLJoin\n".to_string(),
        }
    }

    #[test]
    fn bundles_round_trip_through_jsonl() {
        let mut no_fault = sample();
        no_fault.fault = None;
        let bundles = vec![sample(), no_fault];
        let mut buf = Vec::new();
        write_bundles(&mut buf, &bundles).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back = read_bundles(&buf[..]).unwrap();
        assert_eq!(back, bundles);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut b = sample();
        b.version = 99;
        let mut buf = Vec::new();
        write_bundles(&mut buf, &[b]).unwrap();
        let err = read_bundles(&buf[..]).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn unknown_fault_name_fails_replay_cleanly() {
        let mut b = sample();
        b.fault = Some("NoSuchFault".to_string());
        assert!(replay(&b).is_err());
    }
}
