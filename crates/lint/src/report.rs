//! The lint report: per-pass violation counts, audit coverage stats, and
//! a canonical JSON rendering (the workspace's wire codec) for CI
//! artifacts.

use crate::audit::AuditStats;
use crate::violation::{LintPass, LintViolation};
use ruletest_common::{Encode, JsonWriter};
use std::collections::BTreeMap;

/// Result of one full static lint run over an optimizer's rule catalog.
#[derive(Debug)]
pub struct LintReport {
    pub rules_audited: usize,
    pub stats: AuditStats,
    /// Deduplicated violations, in discovery order.
    pub violations: Vec<LintViolation>,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn count_for(&self, pass: LintPass) -> usize {
        self.violations.iter().filter(|v| v.pass == pass).count()
    }

    /// Rules with at least one violation, sorted and deduplicated.
    pub fn flagged_rules(&self) -> Vec<String> {
        let mut rules: Vec<String> = self
            .violations
            .iter()
            .filter_map(|v| v.rule.clone())
            .collect();
        rules.sort();
        rules.dedup();
        rules
    }

    /// Human-readable summary for terminal output.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lint: {} rules audited, {} corpus trees, {} substitutes checked, {} necessity probes\n",
            self.rules_audited,
            self.stats.corpus_trees,
            self.stats.substitutes_audited,
            self.stats.necessity_probes,
        ));
        if self.is_clean() {
            out.push_str("lint: clean — no violations\n");
        } else {
            out.push_str(&format!("lint: {} violation(s)\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// `ruletest lint --json`'s document.
impl Encode for LintReport {
    fn encode(&self, w: &mut JsonWriter<'_>) {
        let by_pass: BTreeMap<String, usize> = LintPass::ALL
            .iter()
            .map(|p| (p.name().to_string(), self.count_for(*p)))
            .collect();
        w.object(|w| {
            w.member("clean", &self.is_clean());
            w.key("coverage");
            w.object(|w| {
                w.member("bindings_audited", &self.stats.bindings_audited);
                w.member("corpus_trees", &self.stats.corpus_trees);
                w.member("necessity_probes", &self.stats.necessity_probes);
                w.member("substitutes_audited", &self.stats.substitutes_audited);
            });
            w.member("rules_audited", &self.rules_audited);
            w.member("schema_version", &1u64);
            w.member("violations", &self.violations);
            w.member("violations_by_pass", &by_pass);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::Severity;
    use ruletest_common::{to_compact, to_pretty, Json};

    fn report(violations: Vec<LintViolation>) -> LintReport {
        LintReport {
            rules_audited: 3,
            stats: AuditStats {
                corpus_trees: 5,
                bindings_audited: 7,
                substitutes_audited: 11,
                necessity_probes: 13,
                firings_matched: 7,
            },
            violations,
        }
    }

    #[test]
    fn clean_report_json_shape() {
        let r = report(vec![]);
        assert!(r.is_clean());
        let j = Json::parse(&to_compact(&r)).unwrap();
        assert_eq!(j.get("clean"), Some(&Json::Bool(true)));
        assert_eq!(j.get("rules_audited").and_then(Json::as_u64), Some(3));
        assert_eq!(
            j.get("violations").and_then(Json::as_arr).map(<[_]>::len),
            Some(0)
        );
        // Canonical round trip through the shared parser.
        let text = to_pretty(&j);
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn violations_grouped_by_pass() {
        let r = report(vec![
            LintViolation::new(LintPass::RowProvenance, Severity::Error, Some("RuleA"), "x"),
            LintViolation::new(LintPass::RowProvenance, Severity::Error, Some("RuleB"), "y"),
            LintViolation::new(LintPass::WellFormed, Severity::Error, None, "z"),
        ]);
        assert_eq!(r.count_for(LintPass::RowProvenance), 2);
        assert_eq!(r.count_for(LintPass::WellFormed), 1);
        assert_eq!(r.count_for(LintPass::PatternNecessity), 0);
        assert_eq!(
            r.flagged_rules(),
            vec!["RuleA".to_string(), "RuleB".to_string()]
        );
        let text = r.render_text();
        assert!(text.contains("3 violation(s)"));
    }
}
