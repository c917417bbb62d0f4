//! The paper's one test (§2.3), written once: optimize a query with and
//! without a rule mask, execute `Plan(q)` and `Plan(q, ¬R)` unless the
//! two plans are identical (footnote 1), and compare the result
//! multisets. The campaign's pair stage, the mutation sweep, triage and
//! bundle replay each read the one [`Outcome`].

use ruletest_common::{diff_multisets, Error, Result, ResultDiff, RuleId};
use ruletest_executor::{execute_profiled, ExecConfig, ResultSet};
use ruletest_logical::LogicalTree;
use ruletest_optimizer::{OptimizeResult, Optimizer, OptimizerConfig, PhysicalPlan};
use ruletest_telemetry::Telemetry;
use std::borrow::Cow;
use std::sync::Arc;

/// `Plan(q)` and `Plan(q, ¬R)`, in that order.
pub type Plans = (Arc<OptimizeResult>, Arc<OptimizeResult>);

/// How one site runs the check.
pub struct Oracle<'a> {
    pub optimizer: &'a Optimizer,
    /// Where executions open their span (a disabled handle opens none).
    pub tel: &'a Telemetry,
    pub exec: &'a ExecConfig,
    /// Run the masked side after a failed base side (the mutation sweep).
    pub both_sides: bool,
}

/// What executing both plans showed.
#[derive(Debug)]
pub enum Outcome {
    /// The plans have the same shape; nothing executed.
    Identical,
    /// Both plans executed to the same result multiset.
    Equal,
    /// The results differ (base left, masked right).
    Differ(ResultDiff),
    /// A side failed executing ([`Oracle::check`] returns a failed
    /// optimization as its `Err`).
    Failed(Failed),
}

/// Which side or sides failed, optimizing or executing.
#[derive(Debug)]
pub enum Failed {
    /// The base side failed; `masked` is the masked side's error when it
    /// ran too and failed.
    Base { error: Error, masked: Option<Error> },
    /// Only the masked side failed.
    Masked(Error),
}

impl Failed {
    /// The error of the first side that failed.
    pub fn into_error(self) -> Error {
        match self {
            Failed::Base { error, .. } | Failed::Masked(error) => error,
        }
    }
}

impl<'a> Oracle<'a> {
    /// Stopping at the first failed side.
    pub fn new(optimizer: &'a Optimizer, tel: &'a Telemetry, exec: &'a ExecConfig) -> Self {
        Oracle {
            optimizer,
            tel,
            exec,
            both_sides: false,
        }
    }

    /// Checks `tree` with `rules` masked: both plans and the outcome, or
    /// the side or sides whose optimization failed. `base_rows` are
    /// `Plan(q)`'s results when the caller already holds them (the
    /// campaign executes each query once, §4.1).
    pub fn check(
        &self,
        tree: &LogicalTree,
        rules: &[RuleId],
        base_rows: Option<&Result<ResultSet>>,
    ) -> std::result::Result<(Plans, Outcome), Failed> {
        let optimize = |config: &OptimizerConfig| self.optimizer.optimize_with_cached(tree, config);
        let masked = OptimizerConfig::disabling(rules);
        let (base, masked) = self.both(optimize(&Default::default()), || optimize(&masked))?;
        if base.plan.same_shape(&masked.plan) {
            return Ok(((base, masked), Outcome::Identical));
        }
        let expected =
            base_rows.map_or_else(|| Cow::Owned(self.execute(&base.plan)), Cow::Borrowed);
        let rows = self.both(Result::as_ref(&expected).map_err(Error::clone), || {
            self.execute(&masked.plan)
        });
        let outcome = match rows.map(|(expected, actual)| diff_multisets(expected, &actual)) {
            Ok(diff) if diff.is_empty() => Outcome::Equal,
            Ok(diff) => Outcome::Differ(diff),
            Err(failed) => Outcome::Failed(failed),
        };
        Ok(((base, masked), outcome))
    }

    /// Executes one plan under this site's config and telemetry.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<ResultSet> {
        execute_profiled(self.optimizer.database(), plan, self.exec, self.tel)
    }

    /// Runs the base side, then the masked side unless the base side
    /// failed and [`Oracle::both_sides`] is off: both values, or the
    /// failed side or sides.
    fn both<A, B>(
        &self,
        base: Result<A>,
        masked: impl FnOnce() -> Result<B>,
    ) -> std::result::Result<(A, B), Failed> {
        match base {
            Ok(base) => masked().map(|m| (base, m)).map_err(Failed::Masked),
            Err(error) => Err(Failed::Base {
                error,
                masked: self.both_sides.then(masked).and_then(Result::err),
            }),
        }
    }
}
