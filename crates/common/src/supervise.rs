//! Cooperative supervision primitives: structured failures, wall-clock
//! deadlines, and a panic sandbox.
//!
//! A testing campaign must survive the very bugs it hunts (§2.3): a
//! sabotaged rule may panic inside `Plan(q, ¬R)`, loop forever, or blow
//! through a memory budget, yet the campaign should record the failure,
//! quarantine the input, and keep going. This module is the bottom layer
//! of that story:
//!
//! * [`Failure`] — the structured failure taxonomy (panic / timeout /
//!   budget) a supervised invocation can end in;
//! * [`Deadline`] — a cheap, copyable wall-clock budget token threaded
//!   into the optimizer's memo search loop and the executor's batch loop,
//!   checked cooperatively at task-expansion and per-batch boundaries;
//! * [`sandbox`] — `catch_unwind` around a fallible closure, converting
//!   a panic payload into `Failure::Panic` (message + site) and mapping
//!   `Error::Timeout` / `Error::Budget` into their `Failure` kinds — the
//!   one place that decides whether an outcome is a `Failure`.
//!
//! The campaign layer (in `ruletest-core`) builds quarantine and resume
//! semantics on top; nothing here allocates unless a failure actually
//! happens, so supervision costs nothing measurable on the clean path.

use crate::error::{Error, Result};
use std::any::Any;
use std::fmt;
use std::time::{Duration, Instant};

/// How a supervised invocation failed. Every variant carries a
/// human-readable message; `Panic` also records the supervision site so
/// quarantine entries and repro bundles can say *where* the payload
/// escaped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The invocation panicked; the sandbox caught the unwind.
    Panic {
        /// The panic payload, downcast to a string when possible.
        message: String,
        /// The supervision site label (e.g. `optimize:RuleName`).
        site: String,
    },
    /// A cooperative [`Deadline`] expired (or a chaos stall was injected).
    Timeout { message: String },
    /// A resource cap was exhausted (memo growth, row count, work units).
    BudgetExhausted { message: String },
}

/// The three ways a supervised invocation can fail, as the stable tag
/// telemetry events, quarantine files and report sections carry. A tag
/// from outside the program that is none of these is a decode error, not
/// a fourth kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    Panic,
    Timeout,
    Budget,
}

crate::wire_names!(FailureKind {
    Panic => "panic",
    Timeout => "timeout",
    Budget => "budget",
});

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Failure {
    pub fn panic(message: impl Into<String>, site: impl Into<String>) -> Self {
        Failure::Panic {
            message: message.into(),
            site: site.into(),
        }
    }

    pub fn timeout(message: impl Into<String>) -> Self {
        Failure::Timeout {
            message: message.into(),
        }
    }

    pub fn budget(message: impl Into<String>) -> Self {
        Failure::BudgetExhausted {
            message: message.into(),
        }
    }

    /// Which of the three kinds this failure is.
    pub fn kind(&self) -> FailureKind {
        match self {
            Failure::Panic { .. } => FailureKind::Panic,
            Failure::Timeout { .. } => FailureKind::Timeout,
            Failure::BudgetExhausted { .. } => FailureKind::Budget,
        }
    }

    /// The human-readable message (panic payload / deadline description).
    pub fn message(&self) -> &str {
        match self {
            Failure::Panic { message, .. }
            | Failure::Timeout { message }
            | Failure::BudgetExhausted { message } => message,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Panic { message, site } => write!(f, "panic at {site}: {message}"),
            Failure::Timeout { message } => write!(f, "timeout: {message}"),
            Failure::BudgetExhausted { message } => write!(f, "budget exhausted: {message}"),
        }
    }
}

/// A cooperative wall-clock budget token.
///
/// `Deadline::none()` (the default) never expires and checks compile to
/// one branch on an `Option`. An armed deadline is checked at coarse
/// boundaries — optimizer pass/task expansion, executor batches — so a
/// runaway rule or plan is abandoned within one boundary of the limit.
///
/// Equality deliberately ignores the absolute [`Instant`]: two configs
/// with the same limit are the same configuration, regardless of when
/// each was armed. Wall-clock state must never leak into cache keys —
/// [`Deadline`] is excluded from `CacheKey` entirely.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Option<Instant>,
    limit_ms: u64,
}

impl Deadline {
    /// The unarmed deadline: never expires.
    pub const fn none() -> Self {
        Deadline {
            at: None,
            limit_ms: 0,
        }
    }

    /// Arms a deadline `ms` milliseconds from now. `0` means unarmed.
    pub fn after_ms(ms: u64) -> Self {
        if ms == 0 {
            return Deadline::none();
        }
        Deadline {
            at: Instant::now().checked_add(Duration::from_millis(ms)),
            limit_ms: ms,
        }
    }

    /// True when a limit is armed.
    pub fn is_set(&self) -> bool {
        self.at.is_some()
    }

    /// Re-arms the same limit from *now*. A `Deadline` stored in a
    /// config outlives the moment it was parsed; re-arming at the start
    /// of each supervised operation turns it into a per-operation budget
    /// instead of one wall-clock ticking from process start. Unarmed
    /// deadlines stay unarmed.
    pub fn rearm(&self) -> Self {
        Deadline::after_ms(self.limit_ms)
    }

    /// The configured limit in milliseconds (0 when unarmed).
    pub fn limit_ms(&self) -> u64 {
        self.limit_ms
    }

    /// True when the armed limit has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|t| Instant::now() >= t)
    }

    /// Cooperative check: `Err(Error::Timeout)` once expired, tagged with
    /// `what` so the failure names the loop that was abandoned.
    #[inline]
    pub fn check(&self, what: &str) -> Result<()> {
        if self.expired() {
            Err(Error::timeout(format!(
                "{what} exceeded {}ms deadline",
                self.limit_ms
            )))
        } else {
            Ok(())
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        // Same limit = same configuration; the absolute instant is
        // wall-clock state, not configuration.
        self.at.is_some() == other.at.is_some() && self.limit_ms == other.limit_ms
    }
}

impl Eq for Deadline {}

/// Renders a caught panic payload as a message. Panic payloads are
/// `&str` or `String` in practice; anything else gets a stable marker.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` in a panic sandbox and classifies the outcome:
///
/// * a panic is caught and becomes [`Failure::Panic`] (payload message +
///   `site`);
/// * `Err(Error::Timeout)` / `Err(Error::Budget)` become their
///   [`Failure`] kinds;
/// * every other error passes through as `Ok(Err(_))` — it is an ordinary
///   error the caller already has semantics for, not a sandbox event.
pub fn sandbox<T>(
    site: &str,
    f: impl FnOnce() -> Result<T>,
) -> std::result::Result<Result<T>, Failure> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Err(Error::Timeout(m))) => Err(Failure::timeout(m)),
        Ok(Err(Error::Budget(m))) => Err(Failure::budget(m)),
        Ok(result) => Ok(result),
        Err(payload) => Err(Failure::panic(panic_message(payload.as_ref()), site)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_deadline_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_set());
        assert!(!d.expired());
        assert_eq!(d.limit_ms(), 0);
        d.check("loop").unwrap();
        assert_eq!(Deadline::after_ms(0), Deadline::none());
    }

    #[test]
    fn armed_deadline_expires_and_checks_fail() {
        let d = Deadline::after_ms(1);
        assert!(d.is_set());
        // A genuine runaway loop: spin until the cooperative check fires.
        let start = Instant::now();
        loop {
            if let Err(e) = d.check("spin loop") {
                assert!(matches!(e, Error::Timeout(_)), "{e}");
                assert!(e.to_string().contains("spin loop"), "{e}");
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "deadline never fired"
            );
        }
    }

    #[test]
    fn deadline_equality_ignores_the_instant() {
        let a = Deadline::after_ms(50);
        std::thread::sleep(Duration::from_millis(2));
        let b = Deadline::after_ms(50);
        assert_eq!(a, b);
        assert_ne!(a, Deadline::after_ms(60));
        assert_ne!(a, Deadline::none());
    }

    #[test]
    fn sandbox_catches_panics_with_message_and_site() {
        let out: std::result::Result<Result<u32>, Failure> =
            sandbox("optimize:BadRule", || panic!("rule exploded"));
        let fail = out.unwrap_err();
        assert_eq!(fail.kind(), FailureKind::Panic);
        assert_eq!(fail.message(), "rule exploded");
        assert!(fail.to_string().contains("optimize:BadRule"), "{fail}");
        // String payloads too.
        let out: std::result::Result<Result<u32>, Failure> =
            sandbox("s", || panic!("{}", format!("dynamic {}", 7)));
        assert_eq!(out.unwrap_err().message(), "dynamic 7");
    }

    #[test]
    fn sandbox_classifies_timeout_and_budget_errors() {
        let out = sandbox("s", || -> Result<u32> { Err(Error::timeout("memo loop")) });
        assert_eq!(out.unwrap_err(), Failure::timeout("memo loop"));
        let out = sandbox("s", || -> Result<u32> { Err(Error::budget("rows")) });
        assert_eq!(out.unwrap_err(), Failure::budget("rows"));
        // Ordinary errors pass through unclassified.
        let out = sandbox("s", || -> Result<u32> { Err(Error::invalid("tree")) });
        assert_eq!(out.unwrap().unwrap_err(), Error::invalid("tree"));
        // Clean results pass through.
        let out = sandbox("s", || Ok(41));
        assert_eq!(out.unwrap().unwrap(), 41);
    }

    #[test]
    fn failure_kinds_keep_their_wire_names_and_admit_no_others() {
        assert_eq!(Failure::panic("p", "s").kind().name(), "panic");
        assert_eq!(Failure::timeout("x").kind().name(), "timeout");
        assert_eq!(Failure::budget("y").kind().name(), "budget");
        assert_eq!(FailureKind::from_name("oom"), None);
    }
}
