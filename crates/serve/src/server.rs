//! The serving front-end: client sessions, the admission scheduler, and
//! the cross-shard streaming merge. Clients reach the one scheduler thread
//! through the submission/completion ring ([`crate::ring`]).
//!
//! Updates are *admitted* in ring order into per-shard differential
//! batches, and *handed off* to the shards when a batch fills or a
//! blocking request needs them — the serving-layer analogue of the
//! paper's deferred maintenance: differential work is coalesced and
//! folded in right before the next query needs a consistent answer. A
//! query carries each shard's share of the pending batch in its own
//! [`ShardCommand::Query`], so a shard wakes once per round. Each shard
//! channel is FIFO, so a batch handed off before a query is folded before
//! it; no acknowledgement protocol is needed. The same per-shard FIFO
//! invariant lets the scheduler **pipeline**: while the shards compute a
//! query, it keeps draining the ring, and batches that fill meanwhile land
//! *behind* the in-flight query in every shard's queue, so the answer
//! reflects exactly the updates admitted before the query. The invariant
//! is per shard: a query is a point in each shard's own command order.
//!
//! Every round trip to the shards — query, commit barrier, report — is one
//! fan-out (dispatch to every live shard, then fail with the first dead
//! one) and, for the `Result` replies, one gather. Query results are
//! merged deterministically and *streamingly*: each shard sorts its own
//! answer by `(r_sur, s_sur)` (surrogate pairs are globally unique across
//! shards — partitioning is disjoint), and the scheduler k-way merges the
//! per-shard runs, so the total order is independent of shard count and
//! thread timing.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use trijoin::Method;
use trijoin_common::{
    shard_of_key, BaseTuple, Cost, Error, Metrics, Result, RunReport, ShardedRunReport, Telemetry,
    ViewTuple,
};
use trijoin_exec::sort::KWayMerge;
use trijoin_exec::Mutation;
use trijoin_storage::{Durability, FaultPlan};

use crate::config::ServeConfig;
use crate::ring::{server_down, Ring, Slot, YIELD_BUDGET};
use crate::router;
use crate::shard::{self, ShardCommand, ShardSpec};

/// A client request.
pub enum Request {
    /// Answer `R ⋈ S` with the given method (forces a flush of pending
    /// updates first, so the answer reflects every admitted update).
    Query(Method),
    /// Admit one mutation of `R` (batched; applied at the next flush).
    UpdateR(Mutation),
    /// Admit one mutation of `S` (batched; applied at the next flush).
    UpdateS(Mutation),
    /// Force pending updates out to the shards now.
    Flush,
    /// Flush, then snapshot every shard and roll the reports up.
    Report,
    /// Install a device-fault plan on one shard's simulated disk
    /// (takes effect immediately, not batched).
    InstallFaultPlan {
        /// Target shard index.
        shard: usize,
        /// The plan to install.
        plan: FaultPlan,
    },
    /// Poison the next read of one shard's cached view file (the shard
    /// resolves its own file id), deterministically forcing that shard
    /// through the materialized view's recovery path on its next query.
    PoisonCachedView {
        /// Target shard index.
        shard: usize,
    },
    /// Clear faults and heal damaged pages on one shard.
    ClearFaults {
        /// Target shard index.
        shard: usize,
    },
    /// Flush pending updates, then commit every shard (a server-wide
    /// durability barrier: each shard seals its applied state into its own
    /// WAL, and the call returns only when all shards have acknowledged).
    /// Because shards *only* commit here, every shard's last sealed commit
    /// is the same logical barrier — which is what makes shard-local
    /// recovery globally consistent.
    ///
    /// Under [`Durability::Deferred`] (see [`ServeConfig::durability`])
    /// the barrier appends each shard's commit group to its WAL buffer
    /// without fsyncing; consecutive barriers coalesce until a *seal* —
    /// an explicit [`Request::Sync`], the next [`Request::Report`], or
    /// the scheduler going idle — pays one fsync per shard for all of
    /// them. A crash before the seal rolls the deferred barriers back.
    Commit,
    /// Flush pending updates, then settle every shard's relations: their
    /// queued mutations land in their trees.
    Settle,
    /// Seal every deferred commit barrier now: one `Durability::Barrier`
    /// round fsyncs each shard's buffered commit groups. A no-op ack when
    /// nothing is pending (including on non-durable or always-`Barrier`
    /// servers).
    Sync,
}

/// A server response.
pub enum Response {
    /// Merged query rows in the deterministic `(r_sur, s_sur)` order.
    Rows(Vec<ViewTuple>),
    /// The request was admitted/applied.
    Ack,
    /// Per-shard reports plus their rollup.
    Report(Box<ShardedRunReport>),
}

fn protocol_error(what: &str) -> Error {
    Error::Invariant(format!("serve: unexpected response to {what}"))
}

/// A handle for submitting requests. Cheap to clone; clones can live on
/// other threads (sessions are `Send`). Updates return as soon as they
/// are enqueued; queries, flushes and reports block until the scheduler
/// posts their completion.
#[derive(Clone)]
pub struct ClientSession {
    ring: Arc<Ring>,
}

impl ClientSession {
    /// Submit one request and wait for its response.
    pub fn call(&self, request: Request) -> Result<Response> {
        self.ring.call(request)
    }

    /// Query the current join (flushing pending updates first).
    pub fn query(&self, method: Method) -> Result<Vec<ViewTuple>> {
        match self.call(Request::Query(method))? {
            Response::Rows(rows) => Ok(rows),
            _ => Err(protocol_error("query")),
        }
    }

    /// Admit one `R` mutation. Fire-and-forget: returns once the request
    /// is in the ring (backpressure applies when the ring is full); an
    /// error applying it surfaces on the next blocking call.
    pub fn update_r(&self, m: Mutation) -> Result<()> {
        self.ring.submit(Request::UpdateR(m))
    }

    /// Admit one `S` mutation (fire-and-forget, like [`Self::update_r`]).
    pub fn update_s(&self, m: Mutation) -> Result<()> {
        self.ring.submit(Request::UpdateS(m))
    }

    /// Force pending updates out to the shards.
    pub fn flush(&self) -> Result<()> {
        self.call(Request::Flush).map(|_| ())
    }

    /// Collect per-shard reports and their rollup.
    pub fn report(&self) -> Result<ShardedRunReport> {
        match self.call(Request::Report)? {
            Response::Report(r) => Ok(*r),
            _ => Err(protocol_error("report")),
        }
    }

    /// Install a fault plan on one shard.
    pub fn install_fault_plan(&self, shard: usize, plan: FaultPlan) -> Result<()> {
        self.call(Request::InstallFaultPlan { shard, plan }).map(|_| ())
    }

    /// Poison one shard's cached view (drives its recovery path).
    pub fn poison_cached_view(&self, shard: usize) -> Result<()> {
        self.call(Request::PoisonCachedView { shard }).map(|_| ())
    }

    /// Heal one shard.
    pub fn clear_faults(&self, shard: usize) -> Result<()> {
        self.call(Request::ClearFaults { shard }).map(|_| ())
    }

    /// Flush, then settle every shard's relations ([`Request::Settle`]).
    pub fn settle(&self) -> Result<()> {
        self.call(Request::Settle).map(|_| ())
    }

    /// Flush, then drive the server-wide commit barrier: every shard
    /// seals its state into its own WAL before this returns. On a
    /// non-durable server the shards' relations settle.
    pub fn commit(&self) -> Result<()> {
        self.call(Request::Commit).map(|_| ())
    }

    /// Seal every deferred commit barrier: one fsync per shard covers all
    /// commit groups buffered since the last seal. A no-op ack when
    /// nothing is pending (non-durable servers, `Durability::Barrier`
    /// servers, or simply no deferred barrier since the last seal).
    pub fn sync(&self) -> Result<()> {
        self.call(Request::Sync).map(|_| ())
    }
}

/// The sharded serving instance: N shard threads plus one scheduler.
pub struct Server {
    ring: Arc<Ring>,
    scheduler: Option<JoinHandle<()>>,
    /// Every shard's thread, in construction order, with a clone of its
    /// command channel's `Sender`. The scheduler sends on its own clones;
    /// these only keep each channel open until [`Self::shutdown`] reaches
    /// that shard, so the threads exit one at a time, last built first.
    shard_threads: Vec<(Sender<ShardCommand>, JoinHandle<()>)>,
    shards: usize,
}

impl Server {
    /// Hash-partition `r` and `s` on the join attribute, spawn one engine
    /// thread per shard, and start the admission scheduler. Blocks until
    /// every shard has built its engine (construction errors surface here).
    pub fn start(config: &ServeConfig, r: Vec<BaseTuple>, s: Vec<BaseTuple>) -> Result<Server> {
        Self::launch(config, r, s, false)
    }

    /// Reopen a durable server from `config.durable_dir`: each shard runs
    /// WAL recovery on its own directory (replaying frames sealed by the
    /// last commit barrier, truncating any torn tail) and reattaches its
    /// relations from its shard-local catalog. No tuples are passed in —
    /// the data is already on disk. Derived caches rebuild exactly as at
    /// first start.
    pub fn recover(config: &ServeConfig) -> Result<Server> {
        if config.durable_dir.is_none() {
            return Err(Error::Invariant("serve: recover needs a durable_dir".into()));
        }
        Self::launch(config, Vec::new(), Vec::new(), true)
    }

    fn launch(
        config: &ServeConfig,
        r: Vec<BaseTuple>,
        s: Vec<BaseTuple>,
        recover: bool,
    ) -> Result<Server> {
        let n = config.shards;
        if n == 0 {
            return Err(Error::Invariant("serve: shard count must be positive".into()));
        }
        let mut parts: Vec<(Vec<BaseTuple>, Vec<BaseTuple>)> = vec![Default::default(); n];
        for t in r {
            parts[shard_of_key(t.key, n)].0.push(t);
        }
        for t in s {
            parts[shard_of_key(t.key, n)].1.push(t);
        }
        let mut shard_threads = Vec::with_capacity(n);
        for (index, (r, s)) in parts.into_iter().enumerate() {
            let spec = ShardSpec {
                index,
                params: config.params.clone(),
                r,
                s,
                telemetry: config.telemetry,
                durable_dir: config.shard_dir(index),
                recover,
                adaptive: config.adaptive,
            };
            match shard::spawn(spec) {
                Ok(thread) => shard_threads.push(thread),
                Err(e) => {
                    // Tear down the shards that did start.
                    while join_last_shard(&mut shard_threads) {}
                    return Err(e);
                }
            }
        }
        let shard_txs: Vec<Sender<ShardCommand>> =
            shard_threads.iter().map(|(tx, _)| tx.clone()).collect();

        let ring = Ring::new(config.ring);
        let (sched_ring, sched_config) = (Arc::clone(&ring), config.clone());
        let scheduler = std::thread::Builder::new()
            .name("trijoin-serve-scheduler".into())
            .spawn(move || Scheduler::new(sched_config, sched_ring, shard_txs).run())
            .map_err(|e| Error::Invariant(format!("serve: spawn scheduler: {e}")));
        let scheduler = match scheduler {
            Ok(handle) => handle,
            Err(e) => {
                while join_last_shard(&mut shard_threads) {}
                return Err(e);
            }
        };

        Ok(Server { ring, scheduler: Some(scheduler), shard_threads, shards: n })
    }

    /// The shard count in force.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Open a client session. Sessions are independent and cloneable; all
    /// of them feed the single submission ring. After [`Self::shutdown`]
    /// this returns a typed error instead of panicking.
    pub fn session(&self) -> Result<ClientSession> {
        if self.scheduler.is_none() {
            return Err(server_down());
        }
        Ok(ClientSession { ring: Arc::clone(&self.ring) })
    }

    /// Stop the scheduler and every shard thread, waiting for them to
    /// exit. Idempotent; also runs on drop. Outstanding sessions receive
    /// errors for calls made after shutdown.
    ///
    /// Threads go one at a time in reverse construction order: the
    /// scheduler, then shard *n*−1 … 0, each joined before the next
    /// channel closes. A shard frees its whole engine as it exits; when
    /// all of them did that at once, beside the scheduler's own exit, the
    /// order in which their malloc arenas were handed back — and so which
    /// arena each role got at the next `start` in this process — was a
    /// race, and the process's peak RSS with it.
    fn shutdown(&mut self) {
        self.ring.close();
        self.join_scheduler();
        while join_last_shard(&mut self.shard_threads) {}
    }

    fn join_scheduler(&mut self) {
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

/// Close the last shard's command channel and wait for its thread, which
/// drains what was sent and exits. False when no shard is left.
fn join_last_shard(shard_threads: &mut Vec<(Sender<ShardCommand>, JoinHandle<()>)>) -> bool {
    let Some((tx, handle)) = shard_threads.pop() else { return false };
    drop(tx);
    let _ = handle.join();
    true
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Scheduler-side metric names that depend on wall-clock timing (drain
/// chunking, backpressure, latency percentiles). Everything else the
/// scheduler emits is a pure function of the submission order and stays
/// bit-identical across reruns; consumers that pin reports byte-for-byte
/// scrub exactly this set.
pub const VOLATILE_METRICS: [&str; 6] = [
    "serve.ring.drains",
    "serve.ring.drain.len",
    "serve.ring.full_waits",
    "serve.latency.p50_us",
    "serve.latency.p99_us",
    // Idle-triggered seals of deferred commit barriers depend on when the
    // scheduler's poll budget ran out relative to client submissions.
    "serve.seals",
];

/// One shard's share of a differential batch: its mutations of `R`, then
/// of `S`.
type Share = (Vec<Mutation>, Vec<Mutation>);

/// The single-threaded admission scheduler: owns the shard channels, the
/// pending differential batch, and the drained-but-unprocessed slice of
/// the ring.
struct Scheduler {
    config: ServeConfig,
    ring: Arc<Ring>,
    shard_txs: Vec<Sender<ShardCommand>>,
    /// Drained submissions not yet processed, in ring order. Non-empty
    /// only transiently: the pipelining drains during an in-flight query
    /// carry ticketed requests (and everything after them) over here.
    work: VecDeque<Slot>,
    /// The pending batch, one share per shard.
    shares: Vec<Share>,
    /// Logical updates admitted since the last hand-off.
    pending: usize,
    /// Lifetime count of handed-off batches — the logical clock of the
    /// scheduler's telemetry sampler (mirrors the `serve.batches` counter
    /// without a registry read per tick).
    batches: u64,
    /// Scheduler-only counters under the reserved `serve.` prefix; shards
    /// never write that namespace, so in a rollup every non-`serve.`
    /// metric remains the exact sum of the per-shard metrics.
    metrics: Metrics,
    /// Batch-domain series sampler (`None` when `ServeConfig.telemetry`
    /// is off). Its snapshot lands in the report rollup as the series
    /// named `serve`, alongside the merged per-shard `engine` series.
    telemetry: Option<Telemetry>,
    /// First error hit while applying fire-and-forget updates (e.g. a
    /// dead shard at a full-batch flush); surfaced to the next blocking
    /// call instead of being lost.
    deferred: Option<Error>,
    /// Submission-to-completion latency of every blocking call, in µs;
    /// powers the `serve.latency.p50_us`/`p99_us` gauges.
    latencies_us: Vec<u64>,
    /// True when deferred commit barriers are buffered but not yet
    /// fsynced on the shards; cleared by the next seal (explicit
    /// [`Request::Sync`], a report, scheduler idle, or exit).
    sync_pending: bool,
}

/// Receive a shard reply, yielding the CPU to the computing shards before
/// parking. Blocking straight into `recv` is pathological when shards and
/// scheduler share cores: the scheduler parks (one syscall), the shard's
/// reply `send` has to wake it (another), and the wakeup preempts the
/// shard mid-batch — two syscalls and two context switches per reply.
/// `yield_now` hands the CPU directly to a runnable shard instead, and
/// the reply `send` then finds the scheduler unparked, making the common
/// case syscall-free. The spin is bounded so a genuinely slow shard falls
/// back to a blocking `recv` rather than busy-looping a core.
fn recv_yielding<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..YIELD_BUDGET {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

fn shard_down(shard: usize) -> Error {
    Error::Invariant(format!("serve: shard {shard} is down"))
}

impl Scheduler {
    /// The scheduler of a freshly launched server. The metrics registry
    /// and telemetry sampler are single-threaded (Rc-based), so this runs
    /// inside the thread that owns them. The sampler's logical clock is
    /// the number of handed-off batches, not engine ops.
    fn new(config: ServeConfig, ring: Arc<Ring>, shard_txs: Vec<Sender<ShardCommand>>) -> Self {
        let metrics = Metrics::new();
        let telemetry = config.telemetry.map(|c| {
            let t = Telemetry::new(c.serve(), "serve", "batches");
            t.tick(0, &metrics);
            t
        });
        Scheduler {
            shares: vec![Share::default(); shard_txs.len()],
            config,
            ring,
            shard_txs,
            work: VecDeque::new(),
            pending: 0,
            batches: 0,
            metrics,
            telemetry,
            deferred: None,
            latencies_us: Vec::new(),
            sync_pending: false,
        }
    }

    fn run(&mut self) {
        // Register the seal counter up front (a zero-delta add pins the
        // name into the registry): consumers that scrub the volatile set
        // assert presence first, and a `Barrier`-mode run never seals.
        self.metrics.counter_add("serve.seals", 0);
        loop {
            if self.work.is_empty() {
                let mut fresh = Vec::new();
                // The ring handle is cloned out so the idle hook can
                // borrow `self` mutably (it fans a Barrier commit out to
                // the shards).
                let ring = Arc::clone(&self.ring);
                if !ring.drain_wait(&mut fresh, || self.idle_seal()) {
                    break;
                }
                self.drained(&fresh);
                self.work.extend(fresh);
            }
            let mut done: Vec<(u64, Result<Response>)> = Vec::new();
            while let Some(slot) = self.work.pop_front() {
                match slot.ticket {
                    None => self.admit_request(slot.request),
                    Some(ticket) => {
                        let result = self.handle(slot.request);
                        self.latencies_us.push(slot.at.elapsed().as_micros() as u64);
                        done.push((ticket, result));
                    }
                }
            }
            // One wakeup for the whole drained batch.
            self.ring.complete(done);
        }
        // Normal exit only happens after `close`, but make it
        // unconditional so no client can ever be left blocked.
        self.ring.close();
        // Seal any still-deferred commit barriers before the shard
        // channels close: an orderly shutdown must not roll back commits
        // the client was promised would reach a seal point. (A *crash*
        // before this line is exactly the case deferred durability
        // documents as rolling back.) Best-effort — there is no client
        // left to report an error to.
        let _ = self.seal_pending();
        // The shard channels stay open behind this thread's exit: the
        // `Server` holds a `Sender` of each and closes them one by one.
    }

    /// Ring-drain accounting. `serve.ring.submitted` counts every request
    /// that entered the ring (deterministic: FIFO processing means the
    /// count at any blocking call is a pure function of the submission
    /// order); the drain shape metrics are wall-clock shaped and listed
    /// in [`VOLATILE_METRICS`].
    fn drained(&mut self, slots: &[Slot]) {
        self.metrics.counter_add("serve.ring.submitted", slots.len() as u64);
        self.metrics.incr("serve.ring.drains");
        self.metrics.observe("serve.ring.drain.len", slots.len() as u64);
    }

    /// Pipelining pump: while a query is in flight on the shards, fold in
    /// whatever arrived meanwhile. Fire-and-forget updates are admitted
    /// (and a batch they fill is handed off — FIFO puts it safely behind
    /// the in-flight query); ticketed requests, and everything submitted
    /// after them, are carried over so global submission order is
    /// preserved exactly.
    fn pump(&mut self) {
        let mut fresh = Vec::new();
        self.ring.drain_now(&mut fresh);
        if fresh.is_empty() {
            return;
        }
        self.drained(&fresh);
        for slot in fresh {
            if slot.ticket.is_none() && self.work.is_empty() {
                self.admit_request(slot.request);
            } else {
                self.work.push_back(slot);
            }
        }
    }

    /// Process a fire-and-forget submission (ring order, no completion).
    /// Only updates are submitted without a ticket; anything else here
    /// would be a client-side bug, and is a no-op rather than poisoning
    /// the scheduler.
    fn admit_request(&mut self, request: Request) {
        match request {
            Request::UpdateR(m) => self.admit(false, m),
            Request::UpdateS(m) => self.admit(true, m),
            _ => {}
        }
    }

    fn handle(&mut self, request: Request) -> Result<Response> {
        // An error from applying earlier fire-and-forget updates owns the
        // next blocking call: the client that would otherwise observe an
        // inconsistent server gets the root cause instead.
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        match request {
            Request::UpdateR(m) => self.admit(false, m),
            Request::UpdateS(m) => self.admit(true, m),
            Request::Flush => self.flush()?,
            Request::Query(method) => return self.query(method).map(Response::Rows),
            Request::Report => {
                self.flush()?;
                // A report is a durability point: seal deferred barriers
                // first so the shard snapshots carry settled `wal.*`
                // accounting (fsyncs ≤ commits, but never an unsealed
                // tail the report's reader could mistake for durable).
                self.seal_pending()?;
                return self.report().map(|r| Response::Report(Box::new(r)));
            }
            Request::InstallFaultPlan { shard, plan } => {
                self.send_to(shard, ShardCommand::InstallFaultPlan(plan))?
            }
            Request::PoisonCachedView { shard } => {
                self.send_to(shard, ShardCommand::PoisonCachedView)?
            }
            Request::ClearFaults { shard } => self.send_to(shard, ShardCommand::ClearFaults)?,
            Request::Commit => {
                self.flush()?;
                self.commit_barrier(self.config.durability)?;
                if self.config.durability == Durability::Deferred {
                    self.sync_pending = true;
                }
            }
            Request::Sync => {
                self.flush()?;
                self.seal_pending()?;
            }
            Request::Settle => {
                self.flush()?;
                self.round("settle", false, |_, reply| ShardCommand::Settle { reply })?;
            }
        }
        Ok(Response::Ack)
    }

    /// Seal deferred commit barriers, if any are pending: one
    /// `Durability::Barrier` round fsyncs every shard's buffered commit
    /// groups at once. The coalescing win of deferred durability lives
    /// here — N barriers since the last seal cost N appends and exactly
    /// one fsync per shard.
    fn seal_pending(&mut self) -> Result<()> {
        if !self.sync_pending {
            return Ok(());
        }
        self.metrics.incr("serve.seals");
        self.commit_barrier(Durability::Barrier)?;
        self.sync_pending = false;
        Ok(())
    }

    /// Idle hook (see [`Ring::drain_wait`]): the ring went quiet with
    /// deferred barriers still buffered, so pay the fsync now. There is
    /// no requester to report to — an error defers to the next blocking
    /// call, like a failed batch flush.
    fn idle_seal(&mut self) {
        if let Err(e) = self.seal_pending() {
            self.deferred.get_or_insert(e);
        }
    }

    /// The server-wide durability barrier: every shard seals its applied
    /// state into its own WAL; this returns only when all have
    /// acknowledged. Shard channels are FIFO, so each shard's commit
    /// covers exactly the batches handed off before the barrier — all
    /// WALs agree on which barrier was last sealed, which is the invariant
    /// shard-local recovery relies on. The command reaches every shard
    /// before any acknowledgement is collected, so the per-shard WAL
    /// appends (and fsyncs) overlap across shard threads.
    fn commit_barrier(&mut self, durability: Durability) -> Result<()> {
        self.metrics.incr("serve.commits");
        self.round("commit", false, |_, reply| ShardCommand::Commit { durability, reply }).map(drop)
    }

    fn send_to(&self, shard: usize, cmd: ShardCommand) -> Result<()> {
        let tx = self
            .shard_txs
            .get(shard)
            .ok_or_else(|| Error::Invariant(format!("serve: no shard {shard}")))?;
        tx.send(cmd).map_err(|_| shard_down(shard))
    }

    /// Admit one mutation of `R` or (`of_s`) of `S` into the pending
    /// batch: routed to its shard, or split across two when an update
    /// moves its tuple. A full batch is handed off at once; a dead shard
    /// then is deferred and owns the next blocking call.
    fn admit(&mut self, of_s: bool, m: Mutation) {
        self.metrics.incr(if of_s { "serve.updates.s" } else { "serve.updates.r" });
        let n = self.shard_txs.len();
        if router::is_cross_shard(&m, n) {
            self.metrics.incr("serve.updates.cross_shard");
        }
        for (shard, part) in router::route(m, n) {
            let (r, s) = &mut self.shares[shard];
            if of_s { s } else { r }.push(part);
        }
        self.pending += 1;
        if self.pending >= self.config.batch.max(1) {
            if let Err(e) = self.flush() {
                self.deferred.get_or_insert(e);
            }
        }
    }

    /// The one batch hand-off, a flush's and a query's: count the pending
    /// batch (`serve.batches`, `serve.batch.len`), advance the telemetry
    /// clock, and take every shard's share. With nothing pending every
    /// share is empty and nothing is counted, so a query or report right
    /// after a flush does not inflate the batch statistics.
    fn hand_off(&mut self) -> Vec<Share> {
        let empty = vec![Share::default(); self.shard_txs.len()];
        if self.pending == 0 {
            return empty;
        }
        let total: usize = self.shares.iter().map(|(r, s)| r.len() + s.len()).sum();
        self.metrics.incr("serve.batches");
        self.metrics.observe("serve.batch.len", total as u64);
        self.batches += 1;
        self.telemetry_tick();
        self.pending = 0;
        std::mem::replace(&mut self.shares, empty)
    }

    /// Hand the pending batch off now, to the shards it has mutations for.
    fn flush(&mut self) -> Result<()> {
        let mut shares = self.hand_off();
        self.fan_out(|i| {
            let (r, s) = std::mem::take(&mut shares[i]);
            (!r.is_empty() || !s.is_empty()).then_some(ShardCommand::Apply { r, s })
        })
    }

    /// The one fan-out: send every shard `i` the command `cmd(i)` names
    /// for it (`None` skips it). A dead shard does not stop the others —
    /// their shares of a batch must not be dropped on the floor — and the
    /// first dead one fails the call once all live ones have theirs.
    fn fan_out(&self, mut cmd: impl FnMut(usize) -> Option<ShardCommand>) -> Result<()> {
        let mut dead = None;
        for (i, tx) in self.shard_txs.iter().enumerate() {
            let Some(cmd) = cmd(i) else { continue };
            if tx.send(cmd).is_err() {
                self.metrics.incr("serve.shard_send_errors");
                dead.get_or_insert(i);
            }
        }
        dead.map_or(Ok(()), |i| Err(shard_down(i)))
    }

    /// One round trip to every shard, a query's, a commit barrier's or a
    /// report's: the fan-out of `cmd(i, reply)`, then the one gather of
    /// the `Result` replies, returned in shard order. Each error counts in
    /// `serve.<what>_errors`, and the first one received fails the round.
    /// A query `pump`s the ring between receives, pipelining differential
    /// work with its execution; the commit barrier must not, because it
    /// also runs from the ring's idle hook, where a pump would strand the
    /// requests it drains.
    fn round<T>(
        &mut self,
        what: &str,
        pump: bool,
        mut cmd: impl FnMut(usize, Sender<(usize, Result<T>)>) -> ShardCommand,
    ) -> Result<Vec<T>> {
        let (reply, rx) = channel();
        self.fan_out(|i| Some(cmd(i, reply.clone())))?;
        drop(reply);
        let expected = self.shard_txs.len();
        let mut replies: Vec<Option<T>> = (0..expected).map(|_| None).collect();
        let mut first_err = None;
        let mut answered = 0;
        while answered < expected {
            if pump {
                self.pump();
            }
            let Some((shard, result)) = recv_yielding(&rx) else { break };
            answered += 1;
            match result {
                Ok(reply) => replies[shard] = Some(reply),
                Err(e) => {
                    self.metrics.incr(&format!("serve.{what}_errors"));
                    first_err.get_or_insert_with(|| {
                        Error::Invariant(format!("serve: shard {shard} {what} failed: {e}"))
                    });
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if answered != expected {
            return Err(Error::Invariant(format!(
                "serve: {answered}/{expected} shards answered the {what}"
            )));
        }
        Ok(replies.into_iter().flatten().collect())
    }

    /// Fan a query out to every shard, each carrying its share of the
    /// pending batch, then stream-merge the answers. One shard's failure
    /// fails this query (the merged answer would be incomplete) but not
    /// the server; strategies recover from planned device faults
    /// internally, so this surfaces only truly unrecoverable damage.
    fn query(&mut self, method: Method) -> Result<Vec<ViewTuple>> {
        self.metrics.incr("serve.queries");
        let mut shares = self.hand_off();
        let parts = self.round("query", true, |i, reply| {
            let (r, s) = std::mem::take(&mut shares[i]);
            ShardCommand::Query { r, s, method, reply }
        })?;
        // Each shard's answer arrives sorted by (r_sur, s_sur), and
        // surrogate pairs are globally unique (partitions are disjoint):
        // the k-way merge of the per-shard runs is one deterministic total
        // order. The merge is wall-clock work only — it runs on a
        // throwaway cost ledger.
        let total: usize = parts.iter().map(Vec::len).sum();
        let sources: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
        let merge = KWayMerge::new(sources, |t: &ViewTuple| (t.r_sur, t.s_sur), Cost::new());
        let mut rows = Vec::with_capacity(total);
        rows.extend(merge);
        Ok(rows)
    }

    /// Gather per-shard reports and roll them up, overlaying the
    /// scheduler's own `serve.*` counters on the rollup afterwards (a pure
    /// overlay: shard metrics are never touched, so their sums stay exact).
    fn report(&mut self) -> Result<ShardedRunReport> {
        let replies = self.round("report", false, |_, reply| ShardCommand::Report { reply })?;
        let shards: Vec<RunReport> = replies.into_iter().map(|boxed| *boxed).collect();
        self.stamp_gauges();
        if let Some(tel) = &self.telemetry {
            // Close the open batch window so even a short run serializes a
            // scheduler series. No audit runs here, so alerts are empty.
            let _ = tel.force_close(self.batches, &self.metrics);
        }
        let mut sharded = ShardedRunReport::rollup_of("serve", &self.config.params, shards);
        sharded.rollup.metrics.merge(&self.metrics.snapshot());
        if let Some(tel) = &self.telemetry {
            sharded.rollup.series.push(tel.series());
        }
        Ok(sharded)
    }

    /// Advance the batch-domain telemetry clock. When the tick is about to
    /// close a window, the volatile ring/latency gauges are stamped first
    /// so the closing window captures their current values.
    fn telemetry_tick(&mut self) {
        let Some(tel) = self.telemetry.clone() else { return };
        if tel.due(self.batches) {
            self.stamp_gauges();
        }
        let _ = tel.tick(self.batches, &self.metrics);
    }

    /// Stamp the ring/latency gauges the report validator requires:
    /// capacity (deterministic), backpressure waits and the blocking-call
    /// latency percentiles (wall-clock shaped, see [`VOLATILE_METRICS`]).
    fn stamp_gauges(&mut self) {
        self.metrics.gauge_set("serve.ring.capacity", self.ring.capacity as f64);
        self.metrics.gauge_set("serve.ring.full_waits", self.ring.full_waits() as f64);
        let (p50, p99) = percentiles(&mut self.latencies_us);
        self.metrics.gauge_set("serve.latency.p50_us", p50 as f64);
        self.metrics.gauge_set("serve.latency.p99_us", p99 as f64);
        // Only stamped when on: a non-adaptive run's report (and the
        // golden ledgers pinning it) carries no trace of the feature;
        // with it, validation knows to require the `migrate.*` counters.
        if self.config.adaptive {
            self.metrics.gauge_set("serve.adaptive", 1.0);
        }
    }
}

/// `(p50, p99)` of the recorded latencies (`(0, 0)` before any blocking
/// call completes). Sorts in place; completion order is irrelevant.
fn percentiles(latencies_us: &mut [u64]) -> (u64, u64) {
    if latencies_us.is_empty() {
        return (0, 0);
    }
    latencies_us.sort_unstable();
    let pct = |p: usize| latencies_us[(latencies_us.len() - 1) * p / 100];
    (pct(50), pct(99))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::{Surrogate, SystemParams};

    fn params() -> SystemParams {
        SystemParams { page_size: 512, mem_pages: 24, ..Default::default() }
    }

    fn config(shards: usize, batch: usize) -> ServeConfig {
        ServeConfig { batch, seed: 11, ..ServeConfig::new(params(), shards) }
    }

    fn tuples(n: u32, stride: u64) -> Vec<BaseTuple> {
        (0..n).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % stride, 48)).collect()
    }

    #[test]
    fn serves_queries_across_shards() {
        let r = tuples(120, 11);
        let s = tuples(90, 11);
        let want = trijoin_exec::oracle::canonicalize(trijoin_exec::oracle::join_tuples(&r, &s));
        let mut server = Server::start(&config(4, 8), r, s).unwrap();
        let session = server.session().unwrap();
        for method in Method::all() {
            let got = session.query(method).unwrap();
            assert_eq!(got, want, "{method} diverged from oracle");
        }
        server.shutdown();
        // Calls after shutdown error rather than hang.
        assert!(session.query(Method::HybridHash).is_err());
        assert!(session.update_r(Mutation::Delete(tuples(1, 1).remove(0))).is_err());
    }

    #[test]
    fn session_after_shutdown_is_a_typed_error() {
        let mut server = Server::start(&config(2, 8), tuples(30, 5), tuples(30, 5)).unwrap();
        assert!(server.session().is_ok(), "live server hands out sessions");
        server.shutdown();
        let err = match server.session() {
            Ok(_) => panic!("session after shutdown must fail, not panic"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("shut down"), "typed server-down error, got: {err}");
        // Idempotent shutdown keeps the same behavior.
        server.shutdown();
        assert!(server.session().is_err());
    }

    #[test]
    fn shutdown_joins_the_scheduler_then_the_shards_last_built_first() {
        let mut server = Server::start(&config(3, 8), tuples(30, 5), tuples(30, 5)).unwrap();
        let session = server.session().unwrap();
        let running = |server: &Server| -> Vec<bool> {
            server.shard_threads.iter().map(|(_, handle)| !handle.is_finished()).collect()
        };
        // The scheduler's exit drops its `Sender`s; the server's own keep
        // every shard serving, so a scheduler that dies takes none along.
        server.ring.close();
        server.join_scheduler();
        assert_eq!(running(&server), [true; 3]);
        assert!(session.query(Method::HybridHash).is_err(), "typed error, not a hang");
        // Each shard is gone before the next one's channel closes.
        assert!(join_last_shard(&mut server.shard_threads));
        assert_eq!(running(&server), [true; 2]);
        assert!(join_last_shard(&mut server.shard_threads));
        assert_eq!(running(&server), [true; 1]);
        server.shutdown();
        assert!(server.shard_threads.is_empty() && server.scheduler.is_none());
        assert!(!join_last_shard(&mut server.shard_threads));
        server.shutdown();
    }

    #[test]
    fn updates_are_batched_until_query() {
        let r = tuples(60, 7);
        let s = tuples(60, 7);
        let server = Server::start(&config(2, 1000), r.clone(), s).unwrap();
        let session = server.session().unwrap();
        // Admit three payload-only updates (no cross-shard splits): under
        // the huge batch size they stay pending until the report flushes.
        let mut current = r;
        for (i, slot) in current.iter_mut().enumerate().take(3) {
            let old = slot.clone();
            let new = BaseTuple::with_payload(old.sur, old.key, &[i as u8 + 1], 48).unwrap();
            *slot = new.clone();
            session.update_r(Mutation::Update(trijoin_exec::Update { old, new })).unwrap();
        }
        let report = session.report().unwrap();
        // The flush forced by the report coalesced all three into one batch.
        assert_eq!(report.rollup.metrics.counter("serve.updates.r"), 3);
        assert_eq!(report.rollup.metrics.counter("serve.batches"), 1);
        let batch = report.rollup.metrics.histogram("serve.batch.len").unwrap();
        assert_eq!(batch.count, 1);
        assert_eq!(batch.sum, 3);
        // Ring accounting: 3 updates + the report itself went through.
        assert_eq!(report.rollup.metrics.counter("serve.ring.submitted"), 4);
        assert_eq!(report.rollup.metrics.gauge("serve.ring.capacity"), Some(1024.0));
    }

    #[test]
    fn tiny_ring_applies_backpressure_without_loss() {
        let r = tuples(60, 7);
        let s = tuples(60, 7);
        let want = trijoin_exec::oracle::canonicalize(trijoin_exec::oracle::join_tuples(&r, &s));
        let cfg = ServeConfig { ring: 1, ..config(2, 4) };
        let server = Server::start(&cfg, r.clone(), s.clone()).unwrap();
        let session = server.session().unwrap();
        // Far more submissions than the ring holds: every one must wait
        // its turn and none may be dropped.
        for slot in r.iter().take(20) {
            let old = slot.clone();
            let new = BaseTuple::with_payload(old.sur, old.key, b"bp", 48).unwrap();
            session.update_r(Mutation::Update(trijoin_exec::Update { old, new })).unwrap();
            let back = Mutation::Update(trijoin_exec::Update {
                old: BaseTuple::with_payload(slot.sur, slot.key, b"bp", 48).unwrap(),
                new: slot.clone(),
            });
            session.update_r(back).unwrap();
        }
        assert_eq!(session.query(Method::HybridHash).unwrap(), want);
        let report = session.report().unwrap();
        assert_eq!(report.rollup.metrics.counter("serve.updates.r"), 40);
        assert_eq!(report.rollup.metrics.gauge("serve.ring.capacity"), Some(1.0));
    }

    #[test]
    fn concurrent_updates_pipeline_with_queries() {
        // One thread hammers fire-and-forget updates while another runs
        // queries: the pipelined scheduler must keep every answer equal
        // to the oracle over the updates admitted before that query —
        // which the final flushed state verifies exactly.
        let r = tuples(120, 11);
        let s = tuples(90, 11);
        let server = Server::start(&config(4, 8), r.clone(), s.clone()).unwrap();
        let session = server.session().unwrap();
        let writer = server.session().unwrap();
        let r_writer = r.clone();
        let handle = std::thread::spawn(move || {
            // Flip every tuple's payload once; join keys never change, so
            // the final relation is r with every payload retagged.
            for t in &r_writer {
                let new = BaseTuple::with_payload(t.sur, t.key, b"pipelined", 48).unwrap();
                writer
                    .update_r(Mutation::Update(trijoin_exec::Update { old: t.clone(), new }))
                    .unwrap();
            }
        });
        // Queries interleave with the writer; answers must never error.
        for _ in 0..6 {
            session.query(Method::HybridHash).unwrap();
        }
        handle.join().unwrap();
        session.flush().unwrap();
        let r_final: Vec<BaseTuple> = r
            .iter()
            .map(|t| BaseTuple::with_payload(t.sur, t.key, b"pipelined", 48).unwrap())
            .collect();
        let want =
            trijoin_exec::oracle::canonicalize(trijoin_exec::oracle::join_tuples(&r_final, &s));
        for method in Method::all() {
            assert_eq!(session.query(method).unwrap(), want, "{method} lost a pipelined update");
        }
        let report = session.report().unwrap();
        assert_eq!(report.rollup.metrics.counter("serve.updates.r"), 120);
    }

    #[test]
    fn report_rollup_covers_every_shard() {
        let server = Server::start(&config(3, 4), tuples(80, 9), tuples(80, 9)).unwrap();
        let session = server.session().unwrap();
        session.query(Method::JoinIndex).unwrap();
        let report = session.report().unwrap();
        assert_eq!(report.shards.len(), 3);
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.name, format!("shard{i}"));
            assert_eq!(shard.metrics.counter("db.queries"), 1);
        }
        assert_eq!(report.rollup.metrics.counter("db.queries"), 3);
        assert_eq!(report.rollup.metrics.counter("serve.queries"), 1);
        // The latency gauges are stamped on every report (the validator
        // requires them); with one completed query they are non-zero.
        let p50 = report.rollup.metrics.gauge("serve.latency.p50_us").unwrap();
        let p99 = report.rollup.metrics.gauge("serve.latency.p99_us").unwrap();
        assert!(p50 > 0.0 && p99 >= p50, "p50 {p50} / p99 {p99}");
    }

    #[test]
    fn bad_shard_index_is_rejected() {
        let server = Server::start(&config(2, 4), tuples(20, 3), tuples(20, 3)).unwrap();
        let session = server.session().unwrap();
        assert!(session.clear_faults(5).is_err());
        assert!(session.clear_faults(1).is_ok());
    }
}
