//! Query generation (paper §3).
//!
//! Two strategies are implemented, mirroring the paper's evaluation:
//!
//! * [`Strategy::Random`] — the state-of-the-art trial-and-error baseline:
//!   stochastically generated valid queries (RAGS-style [17], genetic
//!   extensions [1]) are optimized until one exercises the target rules.
//! * [`Strategy::Pattern`] — the paper's contribution: the target rule's
//!   pattern is fetched from the optimizer's export API and instantiated
//!   directly into a logical query tree (§3.1); rule pairs compose the two
//!   patterns (§3.2).

pub mod args;
pub mod dependency;
pub mod pairs;
pub mod pattern;
pub mod random;
pub mod relevant;

use ruletest_logical::LogicalTree;
use ruletest_optimizer::Searched;

/// Which query-generation method to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Stochastic trial-and-error (the baseline in Figures 8–10).
    Random,
    /// Rule-pattern instantiation (the paper's method).
    Pattern,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Random => "RANDOM",
            Strategy::Pattern => "PATTERN",
        }
    }
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    pub seed: u64,
    /// Give up after this many optimize-and-check trials.
    pub max_trials: usize,
    /// Operator budget for RANDOM queries and for padding PATTERN queries
    /// ("generate a logical query tree with 10 operators that exercises a
    /// given rule", §2.3).
    pub target_ops: usize,
    /// Extra random operators stacked on top of an instantiated pattern
    /// (0 = the minimal pattern query).
    pub pad_ops: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            max_trials: 500,
            target_ops: 8,
            pad_ops: 0,
        }
    }
}

/// The outcome of a successful generation.
#[derive(Debug, Clone)]
pub struct GenOutcome {
    /// The generated logical query tree.
    pub query: LogicalTree,
    /// Its SQL rendering (the Generate SQL module's output).
    pub sql: String,
    /// Number of optimize-and-check trials used (the paper's efficiency
    /// metric in Figures 8 and 9).
    pub trials: usize,
    /// Wall-clock time spent (Figure 10's metric).
    pub elapsed: std::time::Duration,
    /// Operators in the query.
    pub ops: usize,
    /// The hit trial's search of `query` (all rules enabled): its full
    /// result, or — when it stopped at the memo cap — only its rules.
    pub searched: Searched,
}
