//! Shared primitives for the `ruletest` workspace.
//!
//! This crate deliberately has no dependencies: it defines the data model
//! (SQL values and rows), deterministic randomness, identifier newtypes,
//! error types, multiset-based result comparison, and the JSON value model
//! plus the one wire codec ([`wire`]) every persisted format is declared in
//! — everything every other crate builds on.

pub mod chaos;
pub mod check;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod multiset;
pub mod pool;
pub mod rng;
pub mod supervise;
pub mod value;
pub mod wire;

pub use error::{Error, Result};
pub use hash::{fnv1a, Fnv64, WordBuild, WordHasher};
pub use ids::{ColId, RuleId, TableId};
pub use json::{Json, JsonWriter, Members};
pub use multiset::{diff_multisets, multisets_equal, ResultDiff};
pub use pool::{par_map, Parallelism, PoolSection, PoolStats};
pub use rng::Rng;
pub use supervise::{sandbox, Deadline, Failure, FailureKind};
pub use value::{DataType, Row, Value};
pub use wire::{to_compact, to_pretty, Decode, DecodeError, Encode};
