//! One shard: a thread owning its own simulated engine.
//!
//! The engine's handles (`Rc<SimDisk>`, `Rc<RefCell<..>>` cost ledger) are
//! deliberately single-threaded, so a shard never shares engine state: the
//! thread receives plain `Send` data (parameters and tuple sets), builds a
//! private [`Database`], and then serves commands off an `mpsc` channel;
//! cached structures are built when a query first names their method (see
//! [`ResidentSet`]). Channel FIFO order is the only synchronization needed:
//! a batch sent before a query — as an `Apply`, or as the query's own
//! share — is folded first, which is what makes the scheduler's batched
//! differential application correct without acknowledgements. Each
//! mutation passes its relation's admission check before any cached
//! structure logs it.

use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use trijoin::{AdaptiveController, CachedStrategy, Database, Method, Workload};
use trijoin_common::{
    BaseTuple, CounterId, Error, Result, RunReport, SystemParams, TelemetryConfig, ViewTuple,
};
use trijoin_exec::recovery::with_retry;
use trijoin_exec::{HybridHash, JoinStrategy, Mutation};
use trijoin_storage::{Durability, FaultPlan};

/// A command processed by a shard thread, in arrival order.
pub enum ShardCommand {
    /// Fold one differential batch into the shard: mutations of the local
    /// partitions of `R` and `S` (already routed here by key).
    Apply {
        /// Mutations of the shard's `R` partition.
        r: Vec<Mutation>,
        /// Mutations of the shard's `S` partition.
        s: Vec<Mutation>,
    },
    /// Fold this shard's share of the pending batch (`r`, `s`, possibly
    /// both empty), then answer the shard-local join with the given
    /// method. The reply rows are sorted by `(r_sur, s_sur)` — the
    /// server's streaming cross-shard merge relies on every per-shard run
    /// already being ordered. Carrying the share here wakes each shard
    /// once per round instead of twice.
    Query {
        /// Mutations of the shard's `R` partition.
        r: Vec<Mutation>,
        /// Mutations of the shard's `S` partition.
        s: Vec<Mutation>,
        /// Strategy to execute.
        method: Method,
        /// Where to send `(shard_index, result)`.
        reply: Sender<(usize, Result<Vec<ViewTuple>>)>,
    },
    /// Snapshot the shard's observability state.
    Report {
        /// Where to send `(shard_index, report)`; a report never fails.
        reply: Sender<(usize, Result<Box<RunReport>>)>,
    },
    /// Install a device-fault plan on this shard's simulated disk.
    InstallFaultPlan(FaultPlan),
    /// Poison the next read of this shard's cached view file. The shard
    /// resolves the file id itself (clients cannot know it), making this a
    /// deterministic way to drive the materialized view's documented
    /// recovery path (`mv.recover`) on one shard. A pinned shard whose
    /// view is not resident builds it first, so the next MV read hits the
    /// poison either way.
    PoisonCachedView,
    /// Clear pending faults and heal damaged pages on this shard.
    ClearFaults,
    /// Apply everything the shard's relations have queued to their trees
    /// now (`Database::settle`): what a harness asks for before it arms
    /// faults that must not land in a sweep.
    Settle {
        /// Where to send `(shard_index, result)`.
        reply: Sender<(usize, Result<()>)>,
    },
    /// Make everything applied so far durable: seal the shard's apply logs
    /// into its catalog and group-flush through its write-ahead log. The server
    /// issues this to every shard at once (a commit *barrier*) and waits
    /// for all acknowledgements, so the set of WALs always agrees on which
    /// barrier was last sealed. A non-durable shard's relations settle.
    ///
    /// Under [`Durability::Deferred`] the shard appends the commit group to
    /// its WAL buffer but skips the fsync — the scheduler later seals all
    /// pending groups at once with a [`Durability::Barrier`] commit (one
    /// fsync per shard regardless of how many barriers it covers).
    Commit {
        /// Whether this barrier must fsync or may defer to a later seal.
        durability: Durability,
        /// Where to send `(shard_index, result)`.
        reply: Sender<(usize, Result<()>)>,
    },
}

/// Everything a shard thread needs to build its engine — plain data, so it
/// crosses the thread boundary even though the engine itself cannot.
pub struct ShardSpec {
    /// Shard index (position in the server's shard vector).
    pub index: usize,
    /// Engine parameters (each shard owns a full device and memory budget).
    pub params: SystemParams,
    /// This shard's partition of `R`.
    pub r: Vec<BaseTuple>,
    /// This shard's partition of `S`.
    pub s: Vec<BaseTuple>,
    /// Windowed telemetry for the shard engine (`None` = off). When set,
    /// the shard also arms the predicted-vs-actual cost audit against the
    /// measured statistics of its own partitions.
    pub telemetry: Option<TelemetryConfig>,
    /// Durable storage directory for this shard (`None` = in-memory).
    pub durable_dir: Option<PathBuf>,
    /// True to *reopen* `durable_dir` instead of creating it: the shard
    /// runs WAL recovery and reattaches its relations from its catalog.
    /// `r`/`s` must be empty — the tuples live on disk already.
    pub recover: bool,
    /// True to serve adaptively: the shard holds *one* cached structure,
    /// re-prices the three methods from observed traffic after every
    /// query, and migrates incrementally when a different method wins by
    /// the hysteresis margin. The `method` of query commands is ignored —
    /// the shard serves with whatever it currently holds.
    pub adaptive: bool,
}

/// Spawn a shard thread. Blocks until the shard has built its engine;
/// construction failure is returned here rather than poisoning later
/// commands.
pub fn spawn(spec: ShardSpec) -> Result<(Sender<ShardCommand>, JoinHandle<()>)> {
    let (tx, rx) = channel::<ShardCommand>();
    let (ready_tx, ready_rx) = channel::<Result<()>>();
    let index = spec.index;
    let handle = std::thread::Builder::new()
        .name(format!("trijoin-shard-{index}"))
        .spawn(move || match ShardWorker::build(spec) {
            Ok(mut worker) => {
                let _ = ready_tx.send(Ok(()));
                worker.serve(rx);
            }
            Err(e) => {
                let _ = ready_tx.send(Err(e));
            }
        })
        .map_err(|e| Error::Invariant(format!("spawn shard {index}: {e}")))?;
    let e = match ready_rx.recv() {
        Ok(Ok(())) => return Ok((tx, handle)),
        Ok(Err(e)) => e,
        Err(_) => Error::Invariant(format!("shard {index} died during construction")),
    };
    // The thread exits right after reporting the failure: reap it, so an
    // error return never leaks a dangling JoinHandle.
    let _ = handle.join();
    Err(e)
}

/// How a shard serves queries.
// One instance per shard thread, held for the thread's lifetime — the
// variant size gap buys nothing to box away.
#[allow(clippy::large_enum_variant)]
enum Mode {
    /// The scheduler names the method of every query; the shard keeps the
    /// structures those queries use (see [`ResidentSet`]).
    Pinned(ResidentSet),
    /// One *current* structure plus the online selection and migration
    /// machinery of [`AdaptiveController`].
    Adaptive(AdaptiveController),
}

/// The cached structures alive on a pinned shard, driven by demand. The
/// paper prices a deferred-maintenance structure by the differential file
/// its next query must fold, so a structure no query reads should cost
/// nothing: it exists only once a query has named its method, mutations
/// (of `R` and of `S`) are logged only into structures that exist, and one
/// whose log nobody folds is destroyed again ([`ResidentSet::evict_idle`])
/// and rebuilt on its next use. Disk pages per shard stay within base
/// relations + 2 × resident structures + `Z` (one spilled run past the
/// eviction test).
struct ResidentSet {
    /// At most one structure per caching method (MV, JI), in build order.
    cached: Vec<CachedStrategy>,
    /// Hybrid hash caches nothing, so it is always at hand.
    hh: HybridHash,
    /// The method that answered the shard's last query, or that a
    /// `PoisonCachedView` command has since set up for the next one.
    last: Option<Method>,
    /// `shard.builds`, `shard.build_errors`, `shard.evictions`.
    counters: [CounterId; 3],
}

impl ResidentSet {
    fn new(db: &Database) -> ResidentSet {
        let counters = ["shard.builds", "shard.build_errors", "shard.evictions"]
            .map(|name| db.metrics().counter_handle(name));
        let hh = db.hybrid_hash();
        ResidentSet { cached: Vec::new(), hh, last: None, counters }
    }

    /// The resident structure of a caching `method`, built from the current
    /// stored relations on first use (every applied mutation is already
    /// reflected there, so it starts with an empty log). The relations
    /// settle first, so the build reads them caught up and does not pay
    /// for that; it is charged under `shard.build`, outside any query; its
    /// scans run under whatever fault plan is armed, so transient faults
    /// are retried; a build that still fails is counted in
    /// `shard.build_errors`.
    fn resident(&mut self, db: &Database, method: Method) -> Result<&mut CachedStrategy> {
        let at = match self.cached.iter().position(|c| c.method() == method) {
            Some(at) => at,
            None => {
                let [builds, build_errors, _] = self.counters;
                db.settle()?;
                let built = {
                    let _section = db.cost().section("shard.build");
                    with_retry(|| CachedStrategy::build(db, method))
                        .inspect_err(|_| db.metrics().incr_id(build_errors))?
                };
                db.metrics().incr_id(builds);
                db.audit_rebaseline(method);
                self.cached.push(built);
                self.cached.len() - 1
            }
        };
        Ok(&mut self.cached[at])
    }

    /// The strategy that answers `method`.
    fn strategy(&mut self, db: &Database, method: Method) -> Result<&mut dyn JoinStrategy> {
        if method == Method::HybridHash {
            return Ok(&mut self.hh);
        }
        Ok(self.resident(db, method)?.as_dyn())
    }

    /// Log one mutation, of `R` or (`of_s`) of `S`, into every resident
    /// structure. One that refuses it logs nothing, and the mutation is
    /// not applied: the structures that took it are evicted.
    fn log(&mut self, db: &Database, of_s: bool, m: &Mutation) -> Result<()> {
        for at in 0..self.cached.len() {
            if let Err(e) = self.cached[at].on_mutation_of(of_s, m) {
                for c in self.cached.drain(..at) {
                    db.metrics().incr_id(self.counters[2]);
                    c.destroy();
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// The eviction rule, run whenever the shard has folded a batch or
    /// answered a query: destroy a structure whose spilled differential
    /// log has outgrown the structure itself, unless it answered the last
    /// query. Folding such a log would read more pages than rebuilding
    /// from the base relations writes, and nobody is asking for the fold.
    /// Both inputs are simulated quantities, so the ledger stays
    /// reproducible for a seed.
    fn evict_idle(&mut self, db: &Database) {
        let mut at = 0;
        while let Some(c) = self.cached.get(at) {
            if Some(c.method()) != self.last && c.pending_log_pages() > c.cached_pages() {
                db.metrics().incr_id(self.counters[2]);
                self.cached.remove(at).destroy();
            } else {
                at += 1;
            }
        }
    }

    /// Stamp what the shard keeps beyond its base relations: which
    /// structures are resident, their pages, and the spilled pages of
    /// their pending differential logs.
    fn stamp_gauges(&self, db: &Database) {
        let resident = |method| self.cached.iter().any(|c| c.method() == method) as u8 as f64;
        let pages: u64 = self.cached.iter().map(CachedStrategy::cached_pages).sum();
        let log_pages: u64 = self.cached.iter().map(CachedStrategy::pending_log_pages).sum();
        let metrics = db.metrics();
        metrics.gauge_set("shard.resident.mv", resident(Method::MaterializedView));
        metrics.gauge_set("shard.resident.ji", resident(Method::JoinIndex));
        metrics.gauge_set("shard.resident_pages", pages as f64);
        metrics.gauge_set("shard.log_pages", log_pages as f64);
        metrics.gauge_set("shard.disk_pages", db.disk().total_pages() as f64);
    }
}

/// The per-thread state: one engine plus its serving mode.
struct ShardWorker {
    index: usize,
    db: Database,
    mode: Mode,
    /// `R` mutations received (logged or not) since the last answered
    /// query; 0 marks a report as taken right after a query round.
    since_query: u64,
    /// Mutations `R` and `S` had refused when last looked at
    /// ([`ShardWorker::count_rejected`]).
    rejected_seen: [u64; 2],
    /// `shard.apply_errors`, then its split by relation: `.R`, `.S`.
    apply_errors: [CounterId; 3],
    /// `shard.s_mutations`.
    s_mutations: CounterId,
}

impl ShardWorker {
    fn build(spec: ShardSpec) -> Result<ShardWorker> {
        if spec.recover {
            return Self::build_recovered(spec);
        }
        // Measure the partition statistics before the relations move into
        // the engine; the audit prices the analytical model against them.
        let audit = spec.telemetry.map(|cfg| {
            let workload = trijoin::measure_workload(&spec.r, &spec.s, 0.1, 0.0);
            (cfg, move |_: &Database| Ok(workload))
        });
        let db = match &spec.durable_dir {
            Some(dir) => Database::create_durable(&spec.params, spec.r, spec.s, dir)?,
            None => Database::new(&spec.params, spec.r, spec.s)?,
        };
        Self::serving(spec.index, spec.adaptive, db, &[], audit)
    }

    /// Recover-mode construction: reopen this shard's durable directory
    /// (replaying its own WAL — shard-local, no cross-shard coordination).
    /// Derived caches are not durable; they come back the way they first
    /// came. The recovery counters charged by the reopen are *kept*
    /// across the observability reset: `wal.recovered.*` is exactly what
    /// a post-crash report needs to show.
    fn build_recovered(spec: ShardSpec) -> Result<ShardWorker> {
        debug_assert!(spec.r.is_empty() && spec.s.is_empty(), "recovery reads tuples from disk");
        let dir = spec
            .durable_dir
            .as_deref()
            .ok_or_else(|| Error::Invariant("shard recovery needs a durable dir".into()))?;
        let db = Database::open_durable(&spec.params, dir)?;
        let kept = [
            "wal.recovered.frames",
            "wal.recovered.pages",
            "wal.recovered.commits",
            "wal.recovered.torn_bytes",
            "wal.recovered.queued_ops",
        ]
        .map(|name| (name, db.metrics().counter(name)));
        // The audit needs partition statistics: measure them from the
        // recovered relations (uncharged oracle scans, the ledger is reset).
        let audit = spec.telemetry.map(|cfg| {
            let measure = |db: &Database| {
                let (mut r, mut s) = (Vec::new(), Vec::new());
                db.r().scan(|t| r.push(t))?;
                db.s().scan(|t| s.push(t))?;
                db.reset_cost();
                Ok(trijoin::measure_workload(&r, &s, 0.1, 0.0))
            };
            (cfg, measure)
        });
        Self::serving(spec.index, spec.adaptive, db, &kept, audit)
    }

    /// The tail both constructions share once the engine is open: build
    /// the serving mode, start the shard's observable life from a clean
    /// slate (loading and cache construction are setup, not serving work)
    /// but for the `kept` counters, then arm telemetry and the cost audit
    /// against the partition statistics `audit` measures.
    ///
    /// Adaptive shards start from the cached view — the paper's favourite
    /// at low update rates — and migrate away as soon as observed traffic
    /// says otherwise. Pinned shards start with nothing cached: their
    /// queries decide what gets built.
    fn serving(
        index: usize,
        adaptive: bool,
        db: Database,
        kept: &[(&str, u64)],
        audit: Option<(TelemetryConfig, impl FnOnce(&Database) -> Result<Workload>)>,
    ) -> Result<ShardWorker> {
        let mode = if adaptive {
            let initial = CachedStrategy::build(&db, Method::MaterializedView)?;
            Mode::Adaptive(AdaptiveController::new(db.disk(), db.params(), db.cost(), initial))
        } else {
            Mode::Pinned(ResidentSet::new(&db))
        };
        db.reset_observability();
        let metrics = db.metrics();
        if let Mode::Adaptive(a) = &mode {
            a.register_metrics();
        }
        for &(name, value) in kept {
            metrics.counter_add(name, value);
        }
        if let Some((cfg, measure)) = audit {
            let workload = measure(&db)?;
            db.enable_telemetry(cfg);
            db.enable_cost_audit(workload, 1.0);
        }
        let apply_errors = ["shard.apply_errors", "shard.apply_errors.R", "shard.apply_errors.S"]
            .map(|name| metrics.counter_handle(name));
        let s_mutations = metrics.counter_handle("shard.s_mutations");
        Ok(ShardWorker {
            index,
            db,
            mode,
            since_query: 0,
            rejected_seen: [0; 2],
            apply_errors,
            s_mutations,
        })
    }

    /// Process commands until every sender is gone. Errors degrade (they
    /// are reported to the requester and counted) — the thread itself only
    /// exits when the server drops the channel.
    fn serve(&mut self, rx: Receiver<ShardCommand>) {
        while let Ok(cmd) = rx.recv() {
            match cmd {
                ShardCommand::Apply { r, s } => self.apply(r, s),
                ShardCommand::Query { r, s, method, reply } => {
                    // `apply` ends a batch with the eviction rule or a
                    // migration step: a query with nothing to fold goes
                    // straight to its strategy.
                    if !r.is_empty() || !s.is_empty() {
                        self.apply(r, s);
                    }
                    let result = self.query(method);
                    let _ = reply.send((self.index, result));
                }
                ShardCommand::Report { reply } => {
                    let _ = reply.send((self.index, Ok(Box::new(self.report()))));
                }
                ShardCommand::InstallFaultPlan(plan) => self.db.install_fault_plan(plan),
                ShardCommand::PoisonCachedView => {
                    // The poisoned file is whatever cached structure would
                    // serve the next MV read: the pinned shard's view, made
                    // resident first, or the adaptive incumbent's cache (a
                    // no-op for hybrid-hash, which caches nothing). The view
                    // takes the last-query exemption from eviction, so it
                    // is still there when that read comes. A view that
                    // fails to build (`shard.build_errors`) poisons
                    // nothing; the next MV query retries the build and
                    // reports to its client.
                    let file = match &mut self.mode {
                        Mode::Pinned(set) => {
                            let view = set.resident(&self.db, Method::MaterializedView);
                            let file = view.ok().and_then(|view| view.cached_file());
                            if file.is_some() {
                                set.last = Some(Method::MaterializedView);
                            }
                            file
                        }
                        Mode::Adaptive(a) => a.cached_file(),
                    };
                    if let Some(file) = file {
                        let plan = FaultPlan::new().poison_nth_read(Some(file), 0);
                        self.db.install_fault_plan(plan);
                    }
                }
                ShardCommand::ClearFaults => self.db.clear_faults(),
                ShardCommand::Settle { reply } => {
                    let _ = reply.send((self.index, self.db.settle()));
                }
                ShardCommand::Commit { durability, reply } => {
                    let result = self.db.commit_with(durability).map(|_| ());
                    let _ = reply.send((self.index, result));
                }
            }
            // Any command may have settled a relation (a full log, a
            // strategy about to read it, a build, a frozen log's seal at a
            // commit, a report).
            self.count_rejected();
        }
    }

    /// Fold one differential batch: log each mutation into the resident
    /// structures and queue it for the stored relation, whose tree changes
    /// when that relation next settles (a query that reads it, a full log,
    /// a build, a commit, a report).
    /// Each mutation that fails is counted in `shard.apply_errors` and
    /// skipped — at once if it is refused here (wrong tuple size, or a
    /// device fault while a full apply log made room: it was not queued),
    /// at the settle if the tree refuses it there (unknown or reused
    /// surrogate, [`ShardWorker::count_rejected`]); the shard keeps
    /// serving. The end of a batch is where a pinned shard applies its
    /// eviction rule and an adaptive shard advances any in-flight migration
    /// by one step — migrations make progress on every command, not just
    /// queries.
    fn apply(&mut self, r: Vec<Mutation>, s: Vec<Mutation>) {
        for (of_s, m) in s.iter().map(|m| (true, m)).chain(r.iter().map(|m| (false, m))) {
            if self.apply_one(of_s, m).is_err() {
                self.count_apply_errors(of_s, 1);
            }
        }
        match &mut self.mode {
            Mode::Pinned(set) => set.evict_idle(&self.db),
            Mode::Adaptive(a) => a.advance(),
        }
    }

    /// One mutation of `R` or (`of_s`) `S` through the deferred-maintenance
    /// contract ([`Database::mutate`]), the resident structures logging it
    /// (an in-flight migration replays it into its target).
    fn apply_one(&mut self, of_s: bool, m: &Mutation) -> Result<()> {
        if of_s {
            self.db.metrics().incr_id(self.s_mutations);
        } else {
            self.since_query += 1;
        }
        let mode = &mut self.mode;
        self.db.mutate(of_s, m, |db| match mode {
            Mode::Pinned(set) => set.log(db, of_s, m),
            Mode::Adaptive(a) if of_s => a.on_s_mutation(m),
            Mode::Adaptive(a) => a.on_mutation(m),
        })
    }

    fn count_apply_errors(&self, of_s: bool, n: u64) {
        let metrics = self.db.metrics();
        metrics.counter_add_id(self.apply_errors[0], n);
        metrics.counter_add_id(self.apply_errors[1 + of_s as usize], n);
    }

    /// Count what the base relations refused at their settles since this
    /// last looked as apply errors. A relation settles on demand, so the
    /// shard looks after every command ([`ShardWorker::serve`]).
    fn count_rejected(&mut self) {
        let now = [self.db.r().rejected_ops(), self.db.s().rejected_ops()];
        for ((of_s, now), seen) in [false, true].into_iter().zip(now).zip(self.rejected_seen) {
            if now > seen {
                self.count_apply_errors(of_s, now - seen);
            }
        }
        self.rejected_seen = now;
    }

    fn query(&mut self, method: Method) -> Result<Vec<ViewTuple>> {
        // The strategy reads the logs of what it reads through, or settles
        // (a view leaves `R`'s log to grow); a structure this query has to
        // build first reads both relations, settled ahead of its section.
        let mut rows = match &mut self.mode {
            Mode::Pinned(set) => self.db.query(set.strategy(&self.db, method)?)?,
            // Adaptive shards ignore the requested method: the incumbent
            // serves, and the freshly produced answer feeds the selection
            // statistics (and, if a migration starts, the staging source).
            Mode::Adaptive(a) => self.db.query(a.strategy())?,
        };
        self.since_query = 0;
        // Sort the shard-local answer so the server can k-way merge the
        // per-shard runs instead of re-sorting the concatenation. This is
        // presentation work on the serving path, not simulated strategy
        // work, so it is deliberately uncharged (the strategy's own ledger
        // stays identical to a non-sharded run of the same query).
        rows.sort_by_key(|t| (t.r_sur, t.s_sur));
        match &mut self.mode {
            // The structure that answered the previous query has just lost
            // its exemption: apply the eviction rule here too, so that
            // right after a query no idle log exceeds its structure.
            Mode::Pinned(set) => {
                set.last = Some(method);
                set.evict_idle(&self.db);
            }
            Mode::Adaptive(a) => {
                a.after_query(self.db.r(), self.db.s(), &rows);
                a.advance();
            }
        }
        Ok(rows)
    }

    /// Snapshot the shard's observability state, stamping health gauges
    /// (live tuple counts, base-relation pages against their packed size,
    /// damaged pages, fired faults, residency) so the
    /// server rollup can aggregate shard health without extra round-trips.
    fn report(&mut self) -> RunReport {
        // Settle first, so the counters the report carries include what
        // this settle refused.
        let _ = self.db.settle();
        self.count_rejected();
        let metrics = self.db.metrics();
        metrics.gauge_set("shard.r_tuples", self.db.r().len() as f64);
        metrics.gauge_set("shard.s_tuples", self.db.s().len() as f64);
        metrics.gauge_set("shard.base_pages.r", self.db.r().node_pages() as f64);
        metrics.gauge_set("shard.base_packed.r", self.db.r().packed_pages() as f64);
        metrics.gauge_set("shard.base_pages.s", self.db.s().node_pages() as f64);
        metrics.gauge_set("shard.base_packed.s", self.db.s().packed_pages() as f64);
        metrics.gauge_set("shard.damaged_pages", self.db.disk().damaged_pages() as f64);
        metrics.gauge_set("shard.faults_fired", self.db.faults_fired() as f64);
        match &self.mode {
            Mode::Pinned(set) => {
                metrics.gauge_set("shard.updates_since_query", self.since_query as f64);
                set.stamp_gauges(&self.db);
            }
            Mode::Adaptive(a) => a.stamp_gauges(),
        }
        self.db.run_report(format!("shard{}", self.index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::Surrogate;

    fn params() -> SystemParams {
        SystemParams { page_size: 512, mem_pages: 24, ..Default::default() }
    }

    fn tuples(n: u32, stride: u64) -> Vec<BaseTuple> {
        (0..n).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % stride, 48)).collect()
    }

    #[test]
    fn shard_answers_queries_and_reports() {
        let (tx, handle) = spawn(ShardSpec {
            index: 3,
            params: params(),
            r: tuples(80, 7),
            s: tuples(60, 7),
            telemetry: Some(TelemetryConfig::default()),
            durable_dir: None,
            recover: false,
            adaptive: false,
        })
        .unwrap();
        let (reply, rx) = channel();
        tx.send(ShardCommand::Query { r: vec![], s: vec![], method: Method::HybridHash, reply })
            .unwrap();
        let (idx, rows) = rx.recv().unwrap();
        assert_eq!(idx, 3);
        let rows = rows.unwrap();
        let want = trijoin_exec::oracle::join_tuples(&tuples(80, 7), &tuples(60, 7));
        assert_eq!(rows.len(), want.len());

        let (reply, rx) = channel();
        tx.send(ShardCommand::Report { reply }).unwrap();
        let report = rx.recv().unwrap().1.unwrap();
        assert_eq!(report.name, "shard3");
        assert_eq!(report.metrics.counter("db.queries"), 1);
        assert_eq!(report.metrics.gauge("shard.r_tuples"), Some(80.0));
        drop(tx);
        handle.join().unwrap();
    }

    fn query(tx: &Sender<ShardCommand>, method: Method) -> Vec<ViewTuple> {
        let (reply, rx) = channel();
        tx.send(ShardCommand::Query { r: vec![], s: vec![], method, reply }).unwrap();
        rx.recv().unwrap().1.unwrap()
    }

    fn report(tx: &Sender<ShardCommand>) -> RunReport {
        let (reply, rx) = channel();
        tx.send(ShardCommand::Report { reply }).unwrap();
        *rx.recv().unwrap().1.unwrap()
    }

    #[test]
    fn s_mutation_folds_into_the_resident_view() {
        let r = tuples(50, 5);
        let s = tuples(40, 5);
        let (tx, handle) = spawn(ShardSpec {
            index: 0,
            params: params(),
            r: r.clone(),
            s: s.clone(),
            telemetry: None,
            durable_dir: None,
            recover: false,
            adaptive: false,
        })
        .unwrap();
        // Nothing is cached until a query names a caching method.
        assert_eq!(report(&tx).metrics.gauge("shard.resident.mv"), Some(0.0));
        query(&tx, Method::MaterializedView);
        let warm = report(&tx);
        assert_eq!(warm.metrics.gauge("shard.resident.mv"), Some(1.0));
        assert_eq!(warm.metrics.gauge("shard.resident.ji"), Some(0.0));
        // Delete one S tuple, then ask the cached MV for the join: the
        // view logged the delete and stays resident.
        let victim = s[7].clone();
        tx.send(ShardCommand::Apply { r: vec![], s: vec![Mutation::Delete(victim.clone())] })
            .unwrap();
        assert_eq!(report(&tx).metrics.gauge("shard.resident.mv"), Some(1.0));
        let rows = query(&tx, Method::MaterializedView);
        let s_after: Vec<BaseTuple> = s.iter().filter(|t| t.sur != victim.sur).cloned().collect();
        let want = trijoin_exec::oracle::join_tuples(&r, &s_after);
        trijoin_exec::oracle::assert_same_join("mv after S delete", rows, want);

        let report = report(&tx);
        assert_eq!(report.metrics.counter("shard.s_mutations"), 1);
        assert_eq!(report.metrics.counter("shard.builds"), 1);
        drop(tx);
        handle.join().unwrap();
    }

    #[test]
    fn construction_failure_surfaces_in_spawn() {
        // A tuple wider than a page cannot be stored at all.
        let oversized = vec![BaseTuple::padded(Surrogate(0), 1, 4096)];
        let result = spawn(ShardSpec {
            index: 0,
            params: params(),
            r: oversized,
            s: tuples(10, 3),
            telemetry: None,
            durable_dir: None,
            recover: false,
            adaptive: false,
        });
        assert!(result.is_err());
    }
}
