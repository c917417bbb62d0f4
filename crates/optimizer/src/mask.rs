//! Rule enable/disable masks.
//!
//! The correctness-testing methodology (§2.3) requires "the ability to
//! optimize (and execute) a query when a given set of transformation rules
//! is turned off" — `Plan(q, ¬R)`. A [`RuleMask`] is that set ¬R, a dense
//! bitset over rule ids, and all an optimization is configured by
//! ([`OptimizerConfig`](crate::OptimizerConfig) names the same type).

use ruletest_common::RuleId;

/// A set of *disabled* rules. The default mask disables nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleMask {
    bits: Vec<u64>,
}

impl RuleMask {
    /// All rules enabled.
    pub fn all_enabled() -> Self {
        Self::default()
    }

    /// Disables exactly the given rules.
    pub fn disabling(rules: &[RuleId]) -> Self {
        let mut m = Self::default();
        for &r in rules {
            m.disable(r);
        }
        m
    }

    /// Marks a rule as disabled.
    pub fn disable(&mut self, rule: RuleId) {
        let (word, bit) = (rule.0 as usize / 64, rule.0 as usize % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << bit;
    }

    /// Re-enables a rule.
    pub fn enable(&mut self, rule: RuleId) {
        let (word, bit) = (rule.0 as usize / 64, rule.0 as usize % 64);
        if word < self.bits.len() {
            self.bits[word] &= !(1 << bit);
        }
    }

    /// True iff the rule is disabled by this mask.
    pub fn is_disabled(&self, rule: RuleId) -> bool {
        let (word, bit) = (rule.0 as usize / 64, rule.0 as usize % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// The disabled rules, ascending.
    pub fn disabled_rules(&self) -> Vec<RuleId> {
        let mut out = Vec::new();
        for (w, &word) in self.bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(RuleId((w * 64 + b) as u16));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Number of disabled rules.
    pub fn disabled_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff nothing is disabled.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_disables_nothing() {
        let m = RuleMask::all_enabled();
        assert!(m.is_empty());
        assert!(!m.is_disabled(RuleId(0)));
        assert!(!m.is_disabled(RuleId(200)));
        assert_eq!(m.disabled_count(), 0);
    }

    #[test]
    fn disable_enable_roundtrip() {
        let mut m = RuleMask::all_enabled();
        m.disable(RuleId(3));
        m.disable(RuleId(70));
        assert!(m.is_disabled(RuleId(3)));
        assert!(m.is_disabled(RuleId(70)));
        assert!(!m.is_disabled(RuleId(4)));
        assert_eq!(m.disabled_rules(), vec![RuleId(3), RuleId(70)]);
        assert_eq!(m.disabled_count(), 2);
        m.enable(RuleId(3));
        assert!(!m.is_disabled(RuleId(3)));
        assert_eq!(m.disabled_rules(), vec![RuleId(70)]);
    }

    #[test]
    fn disabling_constructor() {
        let m = RuleMask::disabling(&[RuleId(1), RuleId(1), RuleId(65)]);
        assert_eq!(m.disabled_count(), 2);
        assert!(m.is_disabled(RuleId(65)));
    }

    #[test]
    fn enable_beyond_allocation_is_noop() {
        let mut m = RuleMask::all_enabled();
        m.enable(RuleId(500));
        assert!(m.is_empty());
    }
}
