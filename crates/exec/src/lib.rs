//! Execution engine: the paper's three join strategies as real operators.
//!
//! Everything here runs for real against the simulated storage stack —
//! tuples are sorted, spilled, merged, probed and joined — while every
//! primitive operation (random page I/O, key comparison, hash, tuple move)
//! is charged into the shared [`Cost`](trijoin_common::Cost) ledger at the
//! paper's Table 7 device constants. The analytical model in
//! `trijoin-model` predicts these charges; the engine measures them.
//!
//! * [`relation::StoredRelation`] — base relations per Table 5;
//! * [`diff`] — differential logging with spill runs and net-merge;
//! * [`mv::MaterializedView`] — §3.2, deferred on-the-fly view maintenance
//!   (of `S`'s mutations too, over an `R` with the symmetric access path);
//! * [`joinindex::JoinIndexStrategy`] — §3.3, incremental join-index
//!   maintenance (the paper's byproduct contribution);
//! * [`hybridhash::HybridHash`] — §3.4, full re-evaluation;
//! * [`oracle`] — trivially-auditable reference joins for testing;
//! * [`recovery`] — bounded retry and oracle-validated rebuild of cached
//!   state after injected device faults;
//! * [`sort`] — operation-counted quicksort and k-way merging;
//! * [`batch`] — columnar row batches backing the vectorized probe loops
//!   (a wall-clock representation; charges stay in the operators).

pub mod batch;
pub mod diff;
pub mod hybridhash;
pub mod joinindex;
pub mod mv;
pub mod oracle;
pub mod recovery;
pub mod relation;
pub mod sort;
pub mod strategy;
pub mod viewdef;

pub use batch::{RowBatch, TupleRef};
pub use hybridhash::HybridHash;
pub use joinindex::JoinIndexStrategy;
pub use mv::MaterializedView;
pub use relation::{Reader, StoredRelation};
pub use strategy::{execute_collect, JoinStrategy, Mutation, Update};
pub use viewdef::{Predicate, ViewDef};
