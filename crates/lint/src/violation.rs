//! Lint violation records — the static-analysis analogue of the dynamic
//! campaign's bug reports. Each violation names the pass that produced it,
//! the rule under audit (when there is one), and a human-readable detail
//! string; violations deduplicate on `(pass, rule)` so one broken rule
//! yields one signature no matter how many corpus trees expose it.

use ruletest_common::{wire_names, wire_record};
use std::collections::BTreeSet;
use std::fmt;

/// Which pass family produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintPass {
    /// Plan well-formedness: schema derivation, predicate typing, Union
    /// invariants over a single tree.
    WellFormed,
    /// Substitute audit: schema equivalence between input group and
    /// substitute.
    SchemaEquivalence,
    /// Substitute audit: outer-join row-provenance (padded/preserved)
    /// preservation.
    RowProvenance,
    /// Substitute audit: duplicate-sensitivity (set/bag cardinality class)
    /// preservation.
    DuplicateSensitivity,
    /// Pattern audit: exported pattern must be a necessary firing
    /// condition and structurally satisfiable.
    PatternNecessity,
}

wire_names!(LintPass {
    WellFormed => "well_formed",
    SchemaEquivalence => "schema_equivalence",
    RowProvenance => "row_provenance",
    DuplicateSensitivity => "duplicate_sensitivity",
    PatternNecessity => "pattern_necessity",
});

impl fmt::Display for LintPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Severity of a violation. `Error` violations are definite rule bugs;
/// `Warning` marks checks that can have benign explanations (currently
/// unused by the shipped passes, kept for downstream hooks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Warning,
    Error,
}

wire_names!(Severity { Warning => "warning", Error => "error" });

/// One statically detected problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintViolation {
    pub pass: LintPass,
    pub severity: Severity,
    /// Rule under audit, when the violation is attributable to one.
    pub rule: Option<String>,
    /// Human-readable description: what invariant broke and on which
    /// corpus shape.
    pub detail: String,
}

wire_record!(LintViolation {
    "detail" => detail,
    "pass" => pass,
    "rule" => rule,
    "severity" => severity,
});

impl LintViolation {
    pub fn new(
        pass: LintPass,
        severity: Severity,
        rule: Option<&str>,
        detail: impl Into<String>,
    ) -> Self {
        LintViolation {
            pass,
            severity,
            rule: rule.map(str::to_string),
            detail: detail.into(),
        }
    }

    /// Dedup signature: one per (pass, rule). A rule that mangles schemas
    /// on twelve corpus trees is one bug, not twelve.
    pub fn signature(&self) -> (LintPass, Option<String>) {
        (self.pass, self.rule.clone())
    }
}

impl fmt::Display for LintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.rule {
            Some(r) => write!(
                f,
                "[{}] {} rule {}: {}",
                self.severity.name(),
                self.pass,
                r,
                self.detail
            ),
            None => write!(
                f,
                "[{}] {}: {}",
                self.severity.name(),
                self.pass,
                self.detail
            ),
        }
    }
}

/// Collapses violations to one representative per signature, preserving
/// first-seen order.
pub fn dedup_violations(violations: Vec<LintViolation>) -> Vec<LintViolation> {
    let mut seen = BTreeSet::new();
    violations
        .into_iter()
        .filter(|v| seen.insert(v.signature()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_collapses_same_pass_and_rule() {
        let v = |detail: &str| {
            LintViolation::new(
                LintPass::SchemaEquivalence,
                Severity::Error,
                Some("R"),
                detail,
            )
        };
        let out = dedup_violations(vec![v("a"), v("b"), v("a")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].detail, "a");
    }

    #[test]
    fn dedup_keeps_distinct_rules_and_passes() {
        let out = dedup_violations(vec![
            LintViolation::new(
                LintPass::SchemaEquivalence,
                Severity::Error,
                Some("R1"),
                "x",
            ),
            LintViolation::new(
                LintPass::SchemaEquivalence,
                Severity::Error,
                Some("R2"),
                "x",
            ),
            LintViolation::new(LintPass::RowProvenance, Severity::Error, Some("R1"), "x"),
            LintViolation::new(LintPass::WellFormed, Severity::Error, None, "x"),
        ]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn display_includes_pass_and_rule() {
        let v = LintViolation::new(LintPass::RowProvenance, Severity::Error, Some("Foo"), "bad");
        let s = v.to_string();
        assert!(s.contains("row_provenance"), "{s}");
        assert!(s.contains("Foo"), "{s}");
    }
}
