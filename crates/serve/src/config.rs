//! Serving-layer configuration and the deterministic seed tree.
//!
//! Shards draw nothing at random: a shard's work is a function of its
//! partition and its command order. The one random input is client
//! traffic, and client `j` draws from `derive_indexed(root, "serve/client",
//! j)` of one root seed. There are no ad-hoc seed constants anywhere in
//! the layer, so a serve run is bit-identical under reruns and its logical
//! outputs are independent of thread scheduling.

use std::path::{Path, PathBuf};

use trijoin_common::{rng, SystemParams, TelemetryConfig};
use trijoin_storage::Durability;

/// Configuration of a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// System parameters every shard instantiates its own engine with
    /// (shard-per-thread is a share-nothing model: each shard owns a full
    /// simulated device and memory budget, like a node in a cluster).
    pub params: SystemParams,
    /// Number of shards (threads). Relations are hash-partitioned on the
    /// join attribute with [`trijoin_common::shard_of_key`].
    pub shards: usize,
    /// Admission batch size: pending updates are coalesced until this many
    /// accumulate (or a query/report forces a flush), then applied to the
    /// shards as per-shard differential batches.
    pub batch: usize,
    /// Capacity of the submission ring clients enqueue requests into. A
    /// full ring applies backpressure: submitters wait for the scheduler
    /// to drain a batch before the next request is admitted.
    pub ring: usize,
    /// Root seed of the deterministic seed tree (client traffic).
    pub seed: u64,
    /// Windowed telemetry configuration, applied to every shard engine and
    /// to the scheduler's own batch-domain sampler. `None` disables
    /// telemetry entirely (the shard reports then carry no `series`, which
    /// is what the bit-identity goldens of the engine layer pin). The
    /// default is on: serving is where live series matter.
    pub telemetry: Option<TelemetryConfig>,
    /// Root directory for durable shard storage. `None` (the default)
    /// keeps every shard on the in-memory backend. When set, shard `i`
    /// owns `<dir>/shard<i>` — its own data files and its own write-ahead
    /// log — and the server exposes commit barriers
    /// ([`crate::ClientSession::commit`]) plus recover-mode startup
    /// ([`crate::Server::recover`]): each shard replays *its own* WAL,
    /// shard-locally, with no cross-shard coordination needed because
    /// commits only ever happen at server-wide barriers (every shard's
    /// last commit is the same logical barrier).
    pub durable_dir: Option<PathBuf>,
    /// Durability level of commit barriers ([`crate::ClientSession::commit`]).
    /// [`Durability::Barrier`] (the default) fsyncs every shard's WAL
    /// inside the barrier; [`Durability::Deferred`] turns barriers into
    /// group-commit appends — consecutive barriers coalesce into one
    /// fsync per shard, issued when the scheduler goes idle, at the next
    /// report, or at an explicit [`crate::ClientSession::sync`]. A crash
    /// before that seal rolls the deferred barriers back wholesale.
    /// Irrelevant without `durable_dir`.
    pub durability: Durability,
    /// True to serve adaptively: every shard tracks its own observed
    /// update/query mix and `Pr_A`, takes exact selectivities off each
    /// answer, re-prices MV/JI/HH with the §3 cost model after each
    /// query, and *migrates* inside that query (the winner is built from
    /// its answer, then swapped in) when a different method wins by the
    /// hysteresis margin. The `Method` of
    /// query requests becomes advisory only. Off by default — the fixed
    /// serving path (and its golden ledgers) is byte-identical to a build
    /// without this field.
    pub adaptive: bool,
}

impl ServeConfig {
    /// A serving configuration with the given shard count and defaults for
    /// the rest (batch = 64, ring = 1024, seed = 42, telemetry on).
    pub fn new(params: SystemParams, shards: usize) -> Self {
        ServeConfig {
            params,
            shards,
            batch: 64,
            ring: 1024,
            seed: 42,
            telemetry: Some(TelemetryConfig::default()),
            durable_dir: None,
            durability: Durability::Barrier,
            adaptive: false,
        }
    }

    /// The storage directory of shard `i` (`None` when not durable).
    pub fn shard_dir(&self, i: usize) -> Option<PathBuf> {
        self.durable_dir.as_deref().map(|d: &Path| d.join(format!("shard{i}")))
    }

    /// The derived RNG seed of client `j`'s stream.
    pub fn client_seed(&self, j: usize) -> u64 {
        rng::derive_indexed(self.seed, "serve/client", j as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_tree_is_stable_and_disjoint() {
        let cfg = ServeConfig { seed: 7, ..ServeConfig::new(SystemParams::default(), 4) };
        assert_eq!(cfg.client_seed(0), cfg.client_seed(0));
        assert_ne!(cfg.client_seed(0), cfg.client_seed(1));
        let other = ServeConfig { seed: 8, ..cfg.clone() };
        assert_ne!(cfg.client_seed(2), other.client_seed(2), "root seed feeds every stream");
    }
}
