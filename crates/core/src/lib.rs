//! **The testing framework of the paper** (Figure 2): pattern-based query
//! generation for rule coverage (§3), test suite generation and the
//! bipartite-graph formulation of test suite compression (§4), compression
//! algorithms (§5), and correctness-validation execution (§2.3) — built on
//! the rule-based optimizer, executor, SQL, and storage substrates of the
//! sibling crates.

pub mod compress;
pub mod correctness;
pub mod framework;
pub mod generate;
pub mod mutate;
pub(crate) mod oracle;
pub mod perf;
pub mod persist;
pub mod suite;
pub mod supervise;
pub mod triage;

pub use compress::{Instance, Solution};
pub use correctness::{execute_solution_with, BugReport, CorrectnessReport};
pub use framework::{DbProfile, Framework, FrameworkConfig};
pub use generate::{GenConfig, GenOutcome, Strategy};
pub use mutate::{
    detect_with_methodology, mutant_optimizer, optimizer_for, run_mutation_campaign, BugClass,
    Detection, DynamicKill, KillKind, Mutant, MutantOutcome, MutationBudget, MutationConfig,
    MutationReport, Verdict,
};
pub use perf::{rule_impact, RuleImpact};
pub use persist::{
    final_persist, run_checkpointed_campaign, CampaignParams, CampaignRun, CampaignStore,
};
pub use suite::{
    build_graph, build_graph_pruned, build_graph_with, generate_suite, generate_suite_lenient,
    generate_suite_with, pair_targets, singleton_targets, BipartiteGraph, RuleTarget, SuiteQuery,
    TestSuite,
};
pub use supervise::{
    crash_bundles, input_fingerprint, quarantine_summary, Quarantine, QuarantineEntry,
};
pub use triage::{
    read_bundles, replay, to_bundles, triage_report, write_bundles, BugSignature, ReplayOutcome,
    ReproBundle, TriageConfig, TriageReport, TriagedBug,
};
