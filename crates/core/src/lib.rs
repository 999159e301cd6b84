//! # trijoin
//!
//! A full reproduction of *Blakeley & Martin, "Join Index, Materialized
//! View, and Hybrid-Hash Join: A Performance Analysis"* (Indiana University
//! TR 280, June 1989; ICDE 1990): the three strategies for answering an
//! equi-join under deferred updates, implemented as real operators over a
//! simulated 1989 storage stack, together with the paper's analytical cost
//! model and the harnesses that regenerate its figures.
//!
//! ## Quick start
//!
//! ```
//! use trijoin::{Database, WorkloadSpec};
//! use trijoin_common::SystemParams;
//! use trijoin_exec::{execute_collect, JoinStrategy, Mutation};
//!
//! // A small scenario from the paper's parameter family.
//! let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
//! let spec = WorkloadSpec {
//!     r_tuples: 1000, s_tuples: 1000, tuple_bytes: 200,
//!     sr: 0.05, group_size: 5, pra: 0.1, update_rate: 0.05, seed: 1,
//! };
//! let gen = spec.generate();
//! let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
//!
//! // Cache the view, run some updates, query: the answer reflects them.
//! let mut mv = db.materialized_view().unwrap();
//! for u in gen.update_stream().take(50) {
//!     let m = Mutation::Update(u);
//!     // `R` admits it, the view logs it, `R` queues it.
//!     db.mutate(false, &m, |_| mv.on_mutation(&m)).unwrap();
//! }
//! db.reset_cost();
//! // The view's query never goes back to R: R's tree catches up, in one
//! // sorted sweep, when something reads it, its log fills or a commit asks.
//! let result = execute_collect(&mut mv, db.r(), db.s()).unwrap();
//! assert!(!result.is_empty() && db.r().pending_ops() == 50);
//! println!("{} tuples in {:.3} simulated seconds",
//!          result.len(), db.cost().elapsed_secs(db.params()));
//! ```
//!
//! ## Crate map
//!
//! * [`Database`] — Table 5's storage organization on a simulated disk;
//! * [`WorkloadSpec`] / [`GeneratedWorkload`] — the paper's synthetic
//!   parameter family with exact selectivity control;
//! * [`Advisor`] — the Section 5 selection heuristics + model-based pick;
//! * [`Experiment`] — engine-vs-model epochs with oracle verification;
//! * re-exports of the strategy types from [`trijoin_exec`] and the cost
//!   model from [`trijoin_model`].

pub mod adaptive;
pub mod advisor;
pub mod breakdown;
pub mod catalog;
pub mod db;
pub mod experiment;
pub mod policy;
pub mod workload;

pub use adaptive::{AdaptiveController, AdaptiveStrategy, CachedStrategy};
pub use advisor::{Advisor, Recommendation};
pub use breakdown::Fig5Breakdown;
pub use db::{Database, EpochCost};
pub use experiment::{EpochReport, Experiment, MethodOutcome};
pub use workload::{
    measure_workload, GeneratedWorkload, MutationMix, MutationStream, UpdateStream, WorkloadSpec,
};

// The pieces users compose with, re-exported for one-stop imports.
pub use trijoin_common::{Cost, OpCounts, SystemParams};
pub use trijoin_exec::{
    execute_collect, HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView, Mutation,
    Update,
};
pub use trijoin_model::{Method, Workload};
pub use trijoin_storage::{Durability, FaultPlan, FaultSpec};
