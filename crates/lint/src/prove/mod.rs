//! Symbolic rule-equivalence prover (§3.1's sufficient-condition side,
//! checked algebraically before any query runs).
//!
//! The concrete auditor ([`crate::lint_rules`]) checks rule substitutes
//! against *necessary* conditions over small concrete corpora; the
//! dynamic campaign then hunts the rest by executing queries. This
//! module closes part of the gap between the two: it instantiates every
//! exploration rule's pattern over *symbolic* relations (typed columns,
//! candidate keys, nullability — no rows), applies the rule's action,
//! and compares input and substitute algebraically.
//!
//! Verdicts are three-valued, and both non-`Unknown` verdicts are
//! proofs:
//!
//! * [`ProveVerdict::Equivalent`] — both sides reduce to the same
//!   canonical normal form ([`normalize`]); every rewrite step is a
//!   sound algebraic identity, so the rule preserves results on every
//!   database instance (within the instantiated shapes).
//! * [`ProveVerdict::Inequivalent`] — an inequivalence witness fired
//!   ([`verdict`]): a concrete audit violation, an unbound column, a
//!   provably-empty side, a union leaf-set mismatch, or a
//!   conjunct-set difference under an identical skeleton. Each
//!   [`ProofViolation`] names the witness.
//! * [`ProveVerdict::Unknown`] — outside the decidable fragment
//!   (fresh-id minting rules, `UnionAll` shapes, diverging normal
//!   forms). These fall back to the concrete auditor and the dynamic
//!   campaign; `prove.unknown` counts them so CI can gate regressions.

pub mod normalize;
pub mod verdict;

use ruletest_common::{wire_names, wire_record, DataType, Result, TableId};
use ruletest_optimizer::Optimizer;
use ruletest_storage::{Catalog, ColumnDef, Database, TableDef};
use ruletest_telemetry::{Counter, Stage, Telemetry};

/// Three-valued proof outcome for one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProveVerdict {
    Equivalent,
    Inequivalent,
    Unknown,
}

wire_names!(ProveVerdict {
    Equivalent => "equivalent",
    Inequivalent => "inequivalent",
    Unknown => "unknown",
});

impl std::fmt::Display for ProveVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One symbolic counterexample: the witness pass that fired and what it
/// found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofViolation {
    /// Witness name (`WellFormed`, `ColumnScope`, `ProvablyEmpty`, ...).
    pub component: String,
    pub detail: String,
}

wire_record!(ProofViolation { "component" => component, "detail" => detail });

/// The proof outcome for one rule.
#[derive(Debug, Clone)]
pub struct RuleProof {
    pub rule: String,
    pub verdict: ProveVerdict,
    /// Why the verdict is `Unknown` (or a note on a vacuous proof).
    pub reason: Option<String>,
    pub violations: Vec<ProofViolation>,
    /// Substitutes examined across the extended corpus.
    pub substitutes: usize,
}

wire_record!(RuleProof {
    "reason" => reason,
    "rule" => rule,
    "substitutes" => substitutes,
    "verdict" => verdict,
    "violations" => violations,
});

/// Whole-catalog proof report.
#[derive(Debug, Clone)]
pub struct ProveReport {
    pub schema_version: u32,
    /// Per-rule proofs, sorted by rule name.
    pub rules: Vec<RuleProof>,
    pub equivalent: u64,
    pub inequivalent: u64,
    pub unknown: u64,
}

// `ruletest prove --json`'s document.
wire_record!(ProveReport {
    "equivalent" => equivalent,
    "inequivalent" => inequivalent,
    "rules" => rules,
    "schema_version" => schema_version,
    "unknown" => unknown,
});

/// Bumped on breaking changes to [`ProveReport`]'s wire form.
pub const PROVE_SCHEMA_VERSION: u32 = 1;

impl ProveReport {
    pub fn verdict_of(&self, rule: &str) -> Option<ProveVerdict> {
        self.rules
            .iter()
            .find(|r| r.rule == rule)
            .map(|r| r.verdict)
    }

    pub fn has_inequivalent(&self) -> bool {
        self.inequivalent > 0
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "prove: {} rules — {} equivalent, {} inequivalent, {} unknown\n",
            self.rules.len(),
            self.equivalent,
            self.inequivalent,
            self.unknown
        ));
        for r in &self.rules {
            out.push_str(&format!("  {:<34} {}", r.rule, r.verdict));
            if let Some(reason) = &r.reason {
                out.push_str(&format!("  ({reason})"));
            }
            out.push('\n');
            for v in &r.violations {
                out.push_str(&format!("      [{}] {}\n", v.component, v.detail));
            }
        }
        out
    }
}

/// The symbolic catalog: three identically-shaped relations, each with a
/// non-nullable single-column primary key, a non-nullable data column,
/// and a nullable one. Identical shapes keep union variants arity-
/// compatible; the key/nullability mix exercises every precondition the
/// rule catalog states.
pub fn symbolic_catalog() -> Catalog {
    let mut cat = Catalog::new();
    for (i, name) in ["s0", "s1", "s2"].iter().enumerate() {
        cat.add_table(TableDef {
            id: TableId(i as u32),
            name: (*name).to_string(),
            columns: vec![
                ColumnDef::new("k", DataType::Int, false),
                ColumnDef::new("a", DataType::Int, false),
                ColumnDef::new("b", DataType::Int, true),
            ],
            primary_key: vec![0],
            unique_keys: vec![],
            foreign_keys: vec![],
        })
        .expect("symbolic catalog is well-formed");
    }
    cat
}

/// A rowless database over [`symbolic_catalog`] — proofs never execute,
/// so the tables stay unmaterialized.
pub fn symbolic_database() -> Database {
    Database::new(symbolic_catalog())
}

/// Proves every exploration rule in `opt`'s catalog. Telemetry gets one
/// `prove` stage span with nested per-rule spans, plus the
/// `prove.{equivalent,inequivalent,unknown}` counters.
pub fn prove_rules(opt: &Optimizer, telemetry: &Telemetry) -> Result<ProveReport> {
    prove_selected(opt, telemetry, None)
}

/// Proves only the named rule — used to focus a fault investigation.
/// Fails if the name is not an exploration rule of this optimizer.
pub fn prove_rules_focused(
    opt: &Optimizer,
    rule_name: &str,
    telemetry: &Telemetry,
) -> Result<ProveReport> {
    if !opt
        .exploration_rule_ids()
        .iter()
        .any(|&id| opt.rule(id).name == rule_name)
    {
        return Err(ruletest_common::Error::unsupported(format!(
            "unknown exploration rule '{rule_name}'"
        )));
    }
    prove_selected(opt, telemetry, Some(rule_name))
}

fn prove_selected(
    opt: &Optimizer,
    telemetry: &Telemetry,
    only: Option<&str>,
) -> Result<ProveReport> {
    let db = opt.database();
    let _stage = telemetry.span(Stage::Prove);
    let mut rules = Vec::new();
    for id in opt.exploration_rule_ids() {
        let rule = opt.rule(id);
        if only.is_some_and(|name| name != rule.name) {
            continue;
        }
        let proof = {
            let _rule_span = telemetry.rule_span(id.0);
            verdict::prove_rule(db, rule)?
        };
        telemetry.incr(match proof.verdict {
            ProveVerdict::Equivalent => Counter::ProveEquivalent,
            ProveVerdict::Inequivalent => Counter::ProveInequivalent,
            ProveVerdict::Unknown => Counter::ProveUnknown,
        });
        rules.push(proof);
    }
    rules.sort_by(|a, b| a.rule.cmp(&b.rule));
    let count = |v: ProveVerdict| rules.iter().filter(|r| r.verdict == v).count() as u64;
    Ok(ProveReport {
        schema_version: PROVE_SCHEMA_VERSION,
        equivalent: count(ProveVerdict::Equivalent),
        inequivalent: count(ProveVerdict::Inequivalent),
        unknown: count(ProveVerdict::Unknown),
        rules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbolic_catalog_shape() {
        let cat = symbolic_catalog();
        for name in ["s0", "s1", "s2"] {
            let def = cat.table_by_name(name).unwrap();
            assert_eq!(def.columns.len(), 3);
            assert_eq!(def.primary_key, vec![0]);
            assert!(!def.columns[0].nullable);
            assert!(def.columns[2].nullable);
        }
    }

    #[test]
    fn report_json_has_greppable_counts() {
        let report = ProveReport {
            schema_version: PROVE_SCHEMA_VERSION,
            rules: vec![RuleProof {
                rule: "X".to_string(),
                verdict: ProveVerdict::Unknown,
                reason: Some("why".to_string()),
                violations: vec![],
                substitutes: 2,
            }],
            equivalent: 0,
            inequivalent: 0,
            unknown: 1,
        };
        let text = ruletest_common::to_pretty(&report);
        assert!(text.contains("\"unknown\": 1"));
        assert!(text.contains("\"verdict\": \"unknown\""));
    }
}
