//! `trijoin-serve`: a sharded, multi-threaded query-serving layer over the
//! single-threaded trijoin engine.
//!
//! The engine models one machine of the paper's era — a single device, a
//! single memory budget, `Rc`-based handles. This crate scales it out the
//! way an equi-join shards: both relations are hash-partitioned on the
//! join attribute ([`trijoin_common::shard_of_key`]), so
//! `R ⋈ S = ⋃ᵢ (Rᵢ ⋈ Sᵢ)` exhaustively and disjointly, and each partition
//! pair is owned by one *shard thread* with its own simulated disk,
//! [`trijoin::Database`], and the cached structures (materialized view,
//! join index) its queries actually use — built on first use, evicted
//! when their differential logs go unread.
//!
//! On top sit four pieces:
//!
//! - **Submission/completion ring** (`ring`): client sessions enqueue
//!   requests into one fixed-capacity ring (backpressure when full);
//!   updates are fire-and-forget, blocking calls take a completion
//!   ticket, and the scheduler drains whole slices per wakeup and posts
//!   all of a slice's completions with a single notification — no
//!   per-request channel round-trips.
//! - **Admission scheduler** ([`Server`]): updates are coalesced into
//!   per-shard differential batches (the serving analogue of the paper's
//!   deferred maintenance) and flushed when a batch fills or a query
//!   arrives; a query carries each shard's share of the pending batch.
//!   Channel FIFO ordering per shard makes apply-before-query a
//!   structural guarantee — and is also what lets the scheduler keep
//!   draining and handing off new update batches *while* a query is in
//!   flight on the shards (pipelined differential application).
//! - **Router** ([`router::route`]): mutations follow their join key; an
//!   update that changes the join attribute across shards splits into a
//!   delete and an insert — the paper's own decomposition of an update.
//! - **Rollup observability**: a [`Request::Report`] snapshots every
//!   shard's [`trijoin_common::RunReport`] and merges them into a
//!   [`trijoin_common::ShardedRunReport`] whose rollup metrics are the
//!   exact per-shard sums, with scheduler-only counters overlaid under
//!   the reserved `serve.` prefix (including ring depth/latency stats).
//!
//! Determinism is end-to-end: one root seed ([`ServeConfig::seed`])
//! derives every client RNG stream, multi-client traffic uses
//! disjoint ownership classes ([`ClientTraffic`]), and each shard sorts
//! its answer by the globally-unique surrogate pair so the server's
//! streaming k-way merge yields one total order — any shard count and
//! any client interleaving produce the same answers at batch boundaries.

pub mod config;
mod ring;
pub mod router;
pub mod server;
pub mod shard;
pub mod traffic;
pub mod validate;

pub use config::ServeConfig;
pub use server::{ClientSession, Request, Response, Server};
pub use shard::{ShardCommand, ShardSpec};
pub use traffic::{merged_current, ClientTraffic};

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything that crosses a thread boundary must be `Send` even
    /// though the engine underneath is `Rc`-based and is not.
    #[test]
    fn boundary_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Request>();
        assert_send::<Response>();
        assert_send::<ShardCommand>();
        assert_send::<ShardSpec>();
        assert_send::<ClientSession>();
        assert_send::<ServeConfig>();
    }
}
