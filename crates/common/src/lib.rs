//! Core types shared by every crate in the trijoin workspace.
//!
//! This crate holds what the paper's Table 6 calls the *system dependent*
//! and *system performance dependent* parameters ([`params::SystemParams`]),
//! the simulated-cost accounting machinery ([`cost::Cost`]) that charges the
//! paper's device constants (`IO`, `comp`, `hash`, `move`) to every primitive
//! operation the execution engine performs, and the tuple/record types shared
//! by the storage, index, and execution crates.
//!
//! Nothing in this workspace ever sleeps or measures wall-clock time to model
//! a 1989 disk: the "disk" is a [`cost::Cost`] ledger, which is what makes
//! engine-versus-analytical-model comparisons deterministic and exact.

pub mod codec;
pub mod cost;
pub mod error;
pub mod events;
pub mod fx;
pub mod json;
pub mod metrics;
pub mod params;
pub mod rng;
pub mod script;
pub mod telemetry;
pub mod trace;
pub mod types;

pub use cost::{Cost, CostTracker, OpCounts, SpanRecord};
pub use error::{Error, FaultKind, FaultOp, Result};
pub use events::{Event, EventKind, EventLog};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet};
pub use json::Json;
pub use metrics::{CounterId, Histogram, Metrics, MetricsSnapshot};
pub use params::SystemParams;
pub use script::{Adversary, AdversaryShape, Script, ScriptOp, ScriptSpec};
pub use telemetry::{DriftAlert, SeriesSnapshot, Telemetry, TelemetryConfig};
pub use trace::{ModelDelta, RunReport, ShardedRunReport};
pub use types::{shard_of_key, BaseTuple, JiEntry, JoinKey, Surrogate, ViewTuple};
