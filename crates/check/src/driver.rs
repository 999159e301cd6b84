//! Differential script replay: one script, every implementation.
//!
//! The driver replays a [`Script`] simultaneously against
//!
//! - three single-node engines, one per strategy (each with its own
//!   [`Database`] and simulated disk, so per-engine fault plans stay
//!   isolated),
//! - an in-memory mirror of both relations (`BTreeMap` keyed by
//!   surrogate) feeding the brute-force oracle, and
//! - one running [`trijoin_serve::Server`] per configured shard count,
//!
//! and at every `Checkpoint` op asserts MV ≡ JI ≡ HH ≡ oracle ≡
//! sharded-serve, plus metamorphic relations on the analytical cost
//! model. Fault ops arm seeded [`FaultPlan`]s that are installed at the
//! next checkpoint immediately before query execution — the placement
//! `tests/faults.rs` establishes as recoverable by design (§8 recovery
//! must absorb transient and cached-state faults during query work;
//! damage to base relations during the apply phase is unrecoverable and
//! would fail the run spuriously).
//!
//! With [`CheckConfig::durable_root`] set, the whole replay moves onto
//! the WAL-backed file backend: `batch` and `checkpoint` ops double as
//! commit barriers, and `crash` ops kill every engine and server at a
//! seeded sabotage point (cold drop, torn log tail, or sealed-but-
//! unapplied log), recover each from its own WAL, re-apply the
//! uncommitted tail, and let the very same equivalence checks prove the
//! recovery correct — the mirrors never crash, so the oracle is exactly
//! the state durability must reproduce.
//!
//! Failures come back as structured [`CheckFailure`]s rather than
//! panics, so the shrinker can probe candidate scripts cheaply.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rand::prelude::*;
use trijoin::{CachedStrategy, Database, WorkloadSpec};
use trijoin_common::{
    rng, BaseTuple, Error, EventKind, Script, ScriptOp, Surrogate, SystemParams, TelemetryConfig,
    ViewTuple,
};
use trijoin_exec::{oracle, Mutation, Update};
use trijoin_model::{all_costs, Method, Workload};
use trijoin_serve::validate::check_recovery_bound;
use trijoin_serve::{ClientSession, ServeConfig, Server};
use trijoin_storage::{CommitSabotage, FaultPlan};

/// Deliberate bugs the driver can plant in its own replay path, used to
/// demonstrate that the harness catches (and the shrinker minimizes) a
/// real divergence. Sabotage never touches library code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Replay faithfully.
    None,
    /// Apply the join index's `Pr_A` filter to *every* cached structure:
    /// payload-only updates are not forwarded to the strategies. The
    /// materialized view then serves stale payloads — exactly the bug the
    /// paper's §3.2 maintenance discussion warns the filter must not
    /// introduce.
    SkipPraFilter,
}

/// Configuration of one replay.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// System parameters for every engine and server shard.
    pub params: SystemParams,
    /// Planted bug (tests only).
    pub sabotage: Sabotage,
    /// Run the cost-model metamorphic checks at checkpoints.
    pub model_checks: bool,
    /// Scale factor applied to every analytical prediction the engines'
    /// cost audit makes. `1.0` audits the stock model (which must stay
    /// under the drift threshold on the corpus); a factor far from 1.0
    /// simulates a miscalibrated model parameter so the `CostDrift`
    /// detection path can be exercised deliberately.
    pub audit_calibration: f64,
    /// Root directory for durable replay. `None` (the default) replays on
    /// the in-memory backend and `crash` ops are inert. When set, the
    /// three engines and every server shard live on the WAL-backed file
    /// backend under this directory, `batch` and `checkpoint` ops become
    /// commit barriers, and `crash` ops kill every implementation at a
    /// seeded sabotage point and recover it from its own log. The
    /// directory is reused (and wiped) across shrink probes and left on
    /// disk afterwards for post-mortem inspection.
    pub durable_root: Option<PathBuf>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            params: SystemParams::test_small(),
            sabotage: Sabotage::None,
            model_checks: true,
            audit_calibration: 1.0,
            durable_root: None,
        }
    }
}

/// Statistics of a passing replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Checkpoints verified.
    pub checkpoints: usize,
    /// Mutation ops applied.
    pub applied: usize,
    /// Mutation ops deterministically skipped (duplicate-surrogate
    /// inserts, deletes on a ≤ 1-tuple relation).
    pub skipped: usize,
    /// Fault plans installed across engines and servers.
    pub faults_installed: usize,
    /// `CostDrift` events the engines' predicted-vs-actual audit raised
    /// over the whole replay (0 when the model tracks the ledger).
    pub cost_drift_events: usize,
    /// Crash-recovery cycles performed (durable mode; `crash` ops are
    /// inert — and uncounted — on the in-memory backend).
    pub crashes: usize,
    /// Queued mutations the recoveries reopened in sealed apply logs
    /// (`wal.recovered.queued_ops`): every engine's at each crash, each
    /// server shard's at its last one.
    pub recovered_queued_ops: u64,
    /// Completed strategy migrations across every adaptive server
    /// (adaptive scripts only; 0 when `spec.adaptive` is off).
    pub migrations: usize,
    /// Migration rollbacks across every adaptive server (device faults
    /// landing mid-migration).
    pub migration_rollbacks: usize,
    /// Per-adaptive-server migration totals as `(shard_count, migrations)`,
    /// in `shard_counts` order — lets callers assert that every
    /// configured shard count actually exercised the migration machinery.
    pub migrations_by_server: Vec<(usize, usize)>,
}

/// A failed replay: which checkpoint, which implementation, and why.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// Index of the failing op in the script (usually a checkpoint).
    pub op_index: usize,
    /// The diverging site: `engine:<method>`, `serve:<shards>:<method>`,
    /// `model:<relation>`, or `script` for malformed input.
    pub site: String,
    /// Human-readable diagnosis.
    pub message: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: {}: {}", self.op_index, self.site, self.message)
    }
}

/// One single-node engine replaying the script with one strategy.
struct Engine {
    method: Method,
    db: Database,
    cached: CachedStrategy,
    /// Durable-store directory (`None` on the in-memory backend).
    dir: Option<PathBuf>,
    /// Audit workload of the initial relations, re-installed after every
    /// crash recovery (the audit is calibrated once per run, not re-fit).
    audit: Workload,
}

impl Engine {
    fn new(
        method: Method,
        cfg: &CheckConfig,
        r: Vec<BaseTuple>,
        s: Vec<BaseTuple>,
        dir: Option<PathBuf>,
    ) -> trijoin_common::Result<Engine> {
        // The audit prices the model against the initial measured
        // statistics (same pra the metamorphic checks use); enable it
        // before any script work so every query cycle is audited.
        let workload = trijoin::measure_workload(&r, &s, 0.1, 0.0);
        let db = match &dir {
            Some(d) => Database::create_durable(&cfg.params, r, s, d)?,
            None => Database::new(&cfg.params, r, s)?,
        };
        db.enable_telemetry(TelemetryConfig::default());
        db.enable_cost_audit(workload.clone(), cfg.audit_calibration);
        let cached = CachedStrategy::build(&db, method)?;
        Ok(Engine { method, db, cached, dir, audit: workload })
    }

    /// Kill this engine at a seeded sabotage point and recover it from
    /// its durable store (durable mode only). Returns whether the
    /// in-flight commit became durable anyway — [`CommitSabotage`]'s
    /// `SkipApply` seals the log before "dying", so recovery redoes the
    /// commit and the caller must treat the tail as committed here.
    fn crash_recover(
        &mut self,
        mode: Option<CommitSabotage>,
        cfg: &CheckConfig,
    ) -> trijoin_common::Result<bool> {
        let dir = self.dir.clone().expect("crash_recover needs a durable engine");
        let committed = match mode {
            // Die cold: the buffered overlay vanishes with the process.
            None => false,
            Some(CommitSabotage::TornWal) => {
                self.db.sabotage_next_commit(CommitSabotage::TornWal);
                if self.db.commit().is_ok() {
                    return Err(Error::Invariant(
                        "torn-WAL sabotage did not fail the commit".into(),
                    ));
                }
                false
            }
            Some(CommitSabotage::SkipApply) => {
                self.db.sabotage_next_commit(CommitSabotage::SkipApply);
                self.db.commit()?;
                true
            }
        };
        // The "process" dies here: dropping the database releases every
        // handle; reopening runs WAL recovery (replay sealed groups,
        // truncate any torn tail) and reattaches the catalog. Derived
        // caches are gone by design — rebuild as at first start.
        self.db = Database::open_durable(&cfg.params, &dir)?;
        check_recovery_bound(&dir.to_string_lossy(), "engine", &self.db.metrics().snapshot())
            .map_err(Error::Invariant)?;
        self.db.enable_telemetry(TelemetryConfig::default());
        self.db.enable_cost_audit(self.audit.clone(), cfg.audit_calibration);
        self.cached = CachedStrategy::build(&self.db, self.method)?;
        Ok(committed)
    }

    /// One mutation of `R` or of `S` through the deferred-maintenance
    /// contract ([`Database::mutate`]), as a serve shard applies it.
    fn apply(
        &mut self,
        side: Side,
        m: &Mutation,
        sabotage: Sabotage,
    ) -> trijoin_common::Result<()> {
        let skip_notify = sabotage == Sabotage::SkipPraFilter
            && side == Side::R
            && matches!(m, Mutation::Update(u) if !u.changes_join_attr());
        let cached = &mut self.cached;
        self.db.mutate(side == Side::S, m, |_| {
            if skip_notify {
                Ok(())
            } else {
                cached.on_mutation_of(side == Side::S, m)
            }
        })
    }

    /// Derive and install this engine's fault plan for one `Fault` op.
    ///
    /// Scoping follows the recoverability contract of `tests/faults.rs`:
    /// transient read faults may land anywhere (absorbed by retry in every
    /// strategy), but poisoned reads are pinned to the strategy's *cached*
    /// file — a poisoned base-relation page is unrecoverable by design.
    fn install_faults(&mut self, fault_seed: u64) -> usize {
        let stream = rng::derive_indexed(fault_seed, "check/engine", self.method as u64);
        let mut rn = rng::seeded(stream);
        let mut plan = FaultPlan::new();
        for _ in 0..rn.gen_range(1u32..=2) {
            plan = plan.fail_nth_read(None, rn.gen_range(0u64..32));
        }
        if let Some(file) = self.cached.cached_file() {
            if rn.gen_bool(0.5) {
                plan = plan.poison_nth_read(Some(file), rn.gen_range(0u64..8));
            }
        }
        self.db.install_fault_plan(plan);
        1
    }

    fn query(&mut self) -> trijoin_common::Result<Vec<ViewTuple>> {
        self.db.query(self.cached.as_dyn())
    }
}

/// One running server plus its session (and, for durable-mode crash
/// recovery, the configuration to reopen it with).
struct Serving {
    /// Failure-site label: `serve:<shards>` or `serve-adaptive:<shards>`.
    site: String,
    config: ServeConfig,
    _server: Server,
    session: ClientSession,
}

impl Serving {
    /// Start the server `config` describes over `relations`, or recover it
    /// from its durable directory when there are none, and open a session.
    fn open(
        config: ServeConfig,
        relations: Option<(Vec<BaseTuple>, Vec<BaseTuple>)>,
    ) -> trijoin_common::Result<Serving> {
        let server = match relations {
            Some((r, s)) => Server::start(&config, r, s)?,
            None => Server::recover(&config)?,
        };
        let session = server.session()?;
        let kind = if config.adaptive { "serve-adaptive" } else { "serve" };
        let site = format!("{kind}:{}", config.shards);
        Ok(Serving { site, config, _server: server, session })
    }
}

/// Sort into the (r_sur, s_sur) total order every implementation reports
/// in. Unlike `oracle::canonicalize` this never panics on duplicates —
/// a buggy implementation emitting duplicate pairs must surface as a
/// comparison failure, not a harness crash.
fn canon(mut v: Vec<ViewTuple>) -> Vec<ViewTuple> {
    v.sort_by_key(|t| (t.r_sur.0, t.s_sur.0));
    v
}

/// Compare an implementation's answer against the oracle.
fn diff_join(got: &[ViewTuple], want: &[ViewTuple]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    if got.len() != want.len() {
        return Err(format!("cardinality {} != oracle {}", got.len(), want.len()));
    }
    let (i, (g, w)) = got
        .iter()
        .zip(want)
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .expect("unequal vectors of equal length differ somewhere");
    if g.r_sur == w.r_sur && g.s_sur == w.s_sur && g.key == w.key {
        return Err(format!(
            "pair {i} (r{}, s{}) has stale payloads (key {} matches)",
            g.r_sur.0, g.s_sur.0, g.key
        ));
    }
    Err(format!(
        "pair {i}: got (r{}, s{}, key {}), oracle has (r{}, s{}, key {})",
        g.r_sur.0, g.s_sur.0, g.key, w.r_sur.0, w.s_sur.0, w.key
    ))
}

/// The replay state machine.
struct Driver<'a> {
    script: &'a Script,
    cfg: &'a CheckConfig,
    engines: Vec<Engine>,
    /// One pinned server per shard count, then — for `spec.adaptive`
    /// scripts — one adaptive server per shard count
    /// (`ServeConfig::adaptive` set, own seed stream). Every server
    /// receives every mutation and is checked against the oracle at every
    /// checkpoint, the adaptive ones on whichever structure their last
    /// migration left serving — the metamorphic claim that migration never
    /// changes answers.
    servers: Vec<Serving>,
    r_mirror: BTreeMap<u32, BaseTuple>,
    s_mirror: BTreeMap<u32, BaseTuple>,
    armed_faults: Vec<u64>,
    /// Durable mode only: mutations applied since the last commit
    /// barrier, re-applied after a crash recovery (the mirrors never
    /// crash, so the tail is exactly what recovery rolls back).
    tail: Vec<(Side, Mutation)>,
    durable: bool,
    outcome: CheckOutcome,
}

/// Either side of the schema, for the shared mutation-resolution path.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    R,
    S,
}

/// Build a boxed failure (free function: call sites hold field borrows).
fn fail(op_index: usize, site: &str, message: String) -> Box<CheckFailure> {
    Box::new(CheckFailure { op_index, site: site.to_string(), message })
}

impl Driver<'_> {
    fn payload_tuple(&self, sur: u32, key: u64, tag: u64) -> Result<BaseTuple, String> {
        BaseTuple::with_payload(
            Surrogate(sur),
            key,
            &tag.to_le_bytes(),
            self.script.spec.tuple_bytes,
        )
        .map_err(|e| format!("tuple_bytes {} too small: {e}", self.script.spec.tuple_bytes))
    }

    /// Resolve a pick against a mirror (BTreeMap order = surrogate order).
    fn victim(mirror: &BTreeMap<u32, BaseTuple>, pick: u64) -> BaseTuple {
        let idx = (pick % mirror.len() as u64) as usize;
        mirror.values().nth(idx).expect("index is reduced modulo len").clone()
    }

    /// Turn a script op into a concrete mutation against one side, or
    /// `None` when the op is deterministically inert.
    fn resolve(&self, op: &ScriptOp) -> Result<Option<(Side, Mutation)>, String> {
        let m = match *op {
            ScriptOp::InsertR { sur, key, tag } => {
                if self.r_mirror.contains_key(&sur) {
                    return Ok(None);
                }
                (Side::R, Mutation::Insert(self.payload_tuple(sur, key, tag)?))
            }
            ScriptOp::InsertS { sur, key, tag } => {
                if self.s_mirror.contains_key(&sur) {
                    return Ok(None);
                }
                (Side::S, Mutation::Insert(self.payload_tuple(sur, key, tag)?))
            }
            ScriptOp::DeleteR { pick } => {
                if self.r_mirror.len() <= 1 {
                    return Ok(None);
                }
                (Side::R, Mutation::Delete(Self::victim(&self.r_mirror, pick)))
            }
            ScriptOp::DeleteS { pick } => {
                if self.s_mirror.len() <= 1 {
                    return Ok(None);
                }
                (Side::S, Mutation::Delete(Self::victim(&self.s_mirror, pick)))
            }
            ScriptOp::ModifyJoinR { pick, key, tag } => {
                let old = Self::victim(&self.r_mirror, pick);
                let new = self.payload_tuple(old.sur.0, key, tag)?;
                (Side::R, Mutation::Update(Update { old, new }))
            }
            ScriptOp::ModifyJoinS { pick, key, tag } => {
                let old = Self::victim(&self.s_mirror, pick);
                let new = self.payload_tuple(old.sur.0, key, tag)?;
                (Side::S, Mutation::Update(Update { old, new }))
            }
            ScriptOp::ModifyPayloadR { pick, tag } => {
                let old = Self::victim(&self.r_mirror, pick);
                let new = self.payload_tuple(old.sur.0, old.key, tag)?;
                (Side::R, Mutation::Update(Update { old, new }))
            }
            ScriptOp::ModifyPayloadS { pick, tag } => {
                let old = Self::victim(&self.s_mirror, pick);
                let new = self.payload_tuple(old.sur.0, old.key, tag)?;
                (Side::S, Mutation::Update(Update { old, new }))
            }
            ScriptOp::Checkpoint
            | ScriptOp::Fault { .. }
            | ScriptOp::Batch
            | ScriptOp::Crash { .. } => {
                unreachable!("control-flow ops are handled by the main loop")
            }
        };
        Ok(Some(m))
    }

    /// Send one mutation to every server and, unless `engines` is false, to
    /// every engine; `what` names the step in a failure.
    fn send(
        &mut self,
        i: usize,
        what: &str,
        side: Side,
        m: &Mutation,
        engines: bool,
    ) -> Result<(), Box<CheckFailure>> {
        let sabotage = self.cfg.sabotage;
        for e in self.engines.iter_mut().filter(|_| engines) {
            e.apply(side, m, sabotage).map_err(|err| {
                fail(i, &format!("engine:{}", e.method), format!("{what}: {err}"))
            })?;
        }
        for srv in &self.servers {
            let res = match side {
                Side::R => srv.session.update_r(m.clone()),
                Side::S => srv.session.update_s(m.clone()),
            };
            res.map_err(|err| fail(i, &srv.site, format!("{what}: {err}")))?;
        }
        Ok(())
    }

    fn apply(&mut self, i: usize, side: Side, m: &Mutation) -> Result<(), Box<CheckFailure>> {
        self.send(i, "apply failed", side, m, true)?;
        match (side, m) {
            (Side::R, Mutation::Insert(t)) => {
                self.r_mirror.insert(t.sur.0, t.clone());
            }
            (Side::R, Mutation::Delete(t)) => {
                self.r_mirror.remove(&t.sur.0);
            }
            (Side::R, Mutation::Update(u)) => {
                self.r_mirror.insert(u.new.sur.0, u.new.clone());
            }
            (Side::S, Mutation::Insert(t)) => {
                self.s_mirror.insert(t.sur.0, t.clone());
            }
            (Side::S, Mutation::Delete(t)) => {
                self.s_mirror.remove(&t.sur.0);
            }
            (Side::S, Mutation::Update(u)) => {
                self.s_mirror.insert(u.new.sur.0, u.new.clone());
            }
        }
        if self.durable {
            self.tail.push((side, m.clone()));
        }
        Ok(())
    }

    /// Durable-mode commit barrier: every engine commits, every server
    /// drives its shard-commit barrier, and the uncommitted tail is gone.
    /// A no-op on the in-memory backend.
    fn commit_all(&mut self, i: usize) -> Result<(), Box<CheckFailure>> {
        if !self.durable {
            return Ok(());
        }
        for e in &self.engines {
            e.db.commit().map_err(|err| {
                fail(i, &format!("engine:{}", e.method), format!("commit: {err}"))
            })?;
        }
        for srv in &self.servers {
            srv.session.commit().map_err(|e| fail(i, &srv.site, format!("commit barrier: {e}")))?;
        }
        self.tail.clear();
        Ok(())
    }

    /// Durable-mode crash: kill every implementation at the sabotage
    /// point `seed` derives, recover each from its own log, then re-apply
    /// the uncommitted tail so state converges back to the mirrors.
    fn crash(&mut self, i: usize, seed: u64) -> Result<(), Box<CheckFailure>> {
        let mut rn = rng::seeded(rng::derive(seed, "check/crash"));
        let mode = match rn.gen_range(0u32..3) {
            0 => None,                            // die cold (overlay dropped)
            1 => Some(CommitSabotage::TornWal),   // die mid log flush
            _ => Some(CommitSabotage::SkipApply), // die before the data-file apply
        };
        let mut engines_committed = false;
        for e in &mut self.engines {
            let site = format!("engine:{}", e.method);
            engines_committed = e
                .crash_recover(mode, self.cfg)
                .map_err(|err| fail(i, &site, format!("crash recovery: {err}")))?;
            self.outcome.recovered_queued_ops += e.db.metrics().counter("wal.recovered.queued_ops");
        }
        // Servers always die cold: shard threads exit on channel close
        // without committing, so their recovery point is the last commit
        // barrier regardless of the engines' sabotage flavour. Adaptive
        // servers restart on the materialized view over the recovered
        // relations (the structure a migration left is derived, never
        // persisted), which the checkpoint equivalence verifies.
        for old in std::mem::take(&mut self.servers) {
            let srv = Serving::open(old.config.clone(), None)
                .map_err(|e| fail(i, &old.site, format!("recover: {e}")))?;
            self.servers.push(srv);
        }
        // Re-apply the tail recovery rolled back. Engines whose in-flight
        // commit was sealed (`SkipApply`) already hold it via log redo.
        let tail = std::mem::take(&mut self.tail);
        for (side, m) in &tail {
            self.send(i, "tail replay", *side, m, !engines_committed)?;
        }
        if engines_committed {
            // The engines hold the tail durably; bring the servers to the
            // same commit point so every log agrees the tail is sealed.
            self.commit_all(i)?;
        } else {
            self.tail = tail;
        }
        self.outcome.crashes += 1;
        Ok(())
    }

    /// Flush + verify every implementation against the oracle, with any
    /// armed fault plans installed under the queries.
    fn checkpoint(&mut self, i: usize) -> Result<(), Box<CheckFailure>> {
        // 1. Drain server queues and warm caches *before* faults go in:
        //    apply-phase damage is unrecoverable by design. The warm-up
        //    query may leave `R`'s apply log alone (a view goes back to `R`
        //    only to fold `S`'s mutations), so the shards settle after it.
        let arming = !self.armed_faults.is_empty();
        for srv in &self.servers {
            srv.session.flush().map_err(|e| fail(i, &srv.site, format!("flush: {e}")))?;
            if arming {
                srv.session
                    .query(Method::MaterializedView)
                    .map_err(|e| fail(i, &srv.site, format!("warm-up query: {e}")))?;
                srv.session
                    .settle()
                    .map_err(|e| fail(i, &srv.site, format!("warm-up settle: {e}")))?;
            }
        }
        for e in &mut self.engines {
            let site = format!("engine:{}", e.method);
            // Applying queued mutations is apply-phase work too.
            e.db.settle().map_err(|err| fail(i, &site, format!("settle: {err}")))?;
        }
        // Checkpoints are commit barriers in durable mode — everything
        // the queries below observe is also what a crash recovers to.
        self.commit_all(i)?;

        // 2. Install armed fault plans (engines and one shard per server).
        let armed = std::mem::take(&mut self.armed_faults);
        for &fault_seed in &armed {
            for e in &mut self.engines {
                self.outcome.faults_installed += e.install_faults(fault_seed);
            }
            for srv in &self.servers {
                let stream =
                    rng::derive_indexed(fault_seed, "check/serve", srv.config.shards as u64);
                let mut rn = rng::seeded(stream);
                let shard = rn.gen_range(0u64..srv.config.shards as u64) as usize;
                let mut plan = FaultPlan::new();
                for _ in 0..rn.gen_range(1u32..=2) {
                    plan = plan.fail_nth_read(None, rn.gen_range(0u64..32));
                }
                let site = srv.site.clone();
                srv.session
                    .install_fault_plan(shard, plan)
                    .map_err(|e| fail(i, &site, format!("install faults: {e}")))?;
                if rn.gen_bool(0.5) {
                    srv.session
                        .poison_cached_view(shard)
                        .map_err(|e| fail(i, &site, format!("poison view: {e}")))?;
                }
                self.outcome.faults_installed += 1;
            }
        }

        // 3. Oracle answer from the mirrors.
        let r: Vec<BaseTuple> = self.r_mirror.values().cloned().collect();
        let s: Vec<BaseTuple> = self.s_mirror.values().cloned().collect();
        let want = canon(oracle::join_tuples(&r, &s));

        // 4. Every engine agrees.
        for e in &mut self.engines {
            let site = format!("engine:{}", e.method);
            let got = e.query().map_err(|err| fail(i, &site, format!("query: {err}")))?;
            diff_join(&canon(got), &want).map_err(|msg| fail(i, &site, msg))?;
        }

        // 5. Every server agrees: a pinned one for every method, an
        //    adaptive one once — the requested method is advisory there;
        //    each shard answers with its current structure, mid-migration
        //    or not, and the answer must still be the oracle's.
        let all = Method::all();
        for srv in &self.servers {
            let adaptive = srv.config.adaptive;
            for &method in if adaptive { &all[..1] } else { &all[..] } {
                let site =
                    if adaptive { srv.site.clone() } else { format!("{}:{method}", srv.site) };
                let got =
                    srv.session.query(method).map_err(|e| fail(i, &site, format!("query: {e}")))?;
                diff_join(&canon(got), &want).map_err(|msg| fail(i, &site, msg))?;
            }
        }

        // 6. Cost-model metamorphic relations at the live workload point.
        if self.cfg.model_checks {
            self.model_checks(i)?;
        }

        // 7. Heal: clear residual faults so the next apply phase is clean.
        if arming {
            for e in &self.engines {
                e.db.clear_faults();
            }
            for srv in &self.servers {
                for shard in 0..srv.config.shards {
                    let site = srv.site.clone();
                    srv.session
                        .clear_faults(shard)
                        .map_err(|e| fail(i, &site, format!("clear faults: {e}")))?;
                }
            }
        }

        self.outcome.checkpoints += 1;
        Ok(())
    }

    /// Metamorphic relations on the analytical model, evaluated at the
    /// *current* measured workload: (a) deferring updates is never
    /// cheaper than none, for every method; (b) predicted cost is
    /// non-decreasing in `‖dR‖` for MV and HH (strict) and for JI up to
    /// the small dips its page-access formulas are known to produce.
    fn model_checks(&self, i: usize) -> Result<(), Box<CheckFailure>> {
        // The live mirrors measured into a model workload.
        let (r, s): (Vec<BaseTuple>, Vec<BaseTuple>) =
            (self.r_mirror.values().cloned().collect(), self.s_mirror.values().cloned().collect());
        let w0 = trijoin::measure_workload(&r, &s, 0.1, 0.0);
        let live = self.r_mirror.len() as f64;
        let u1 = (live / 20.0).ceil().max(1.0);
        let totals = |updates: f64| -> Vec<f64> {
            let w = Workload { updates, ..w0.clone() };
            all_costs(&self.cfg.params, &w).iter().map(|c| c.total()).collect()
        };
        let base = totals(0.0);
        let at1 = totals(u1);
        let at2 = totals(2.0 * u1);
        for (k, method) in Method::all().into_iter().enumerate() {
            let site = format!("model:{method}");
            for (u, t) in [(u1, &at1), (2.0 * u1, &at2)] {
                if t[k] < base[k] - 1e-9 {
                    return Err(fail(
                        i,
                        &site,
                        format!(
                            "cost at ‖dR‖={u} is {} < {} at ‖dR‖=0 — deferred updates \
                             must never be predicted cheaper than none",
                            t[k], base[k]
                        ),
                    ));
                }
            }
            // JI's Yao-style page-access terms are non-monotone by a
            // hair (< 0.1% observed); MV and HH must be exactly monotone.
            let slack = if method == Method::JoinIndex { at1[k] * 2e-3 } else { 1e-9 };
            if at2[k] < at1[k] - slack {
                return Err(fail(
                    i,
                    &site,
                    format!(
                        "cost decreased from {} at ‖dR‖={u1} to {} at ‖dR‖={} — predicted \
                         I/O must be non-decreasing in the differential size",
                        at1[k],
                        at2[k],
                        2.0 * u1
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Replay `script` under `cfg`. Returns the run statistics, or the first
/// divergence as a structured failure.
pub fn run_script(script: &Script, cfg: &CheckConfig) -> Result<CheckOutcome, Box<CheckFailure>> {
    let bad_input = |msg: String| {
        Box::new(CheckFailure { op_index: 0, site: "script".to_string(), message: msg })
    };
    if script.spec.tuple_bytes < BaseTuple::HEADER_BYTES + 8 {
        return Err(bad_input(format!(
            "tuple_bytes {} cannot carry a tagged payload (need ≥ {})",
            script.spec.tuple_bytes,
            BaseTuple::HEADER_BYTES + 8
        )));
    }
    // The initial relations come from the core generator, so scripts
    // start from the same workload family every other suite uses.
    let spec = WorkloadSpec {
        r_tuples: script.spec.r_tuples,
        s_tuples: script.spec.s_tuples,
        tuple_bytes: script.spec.tuple_bytes,
        sr: script.spec.sr,
        group_size: script.spec.group_size,
        pra: 0.0,
        update_rate: 0.0,
        seed: script.spec.seed,
    };
    let generated = spec.generate();

    let mut engines = Vec::with_capacity(3);
    for method in Method::all() {
        let dir = cfg.durable_root.as_ref().map(|root| root.join(format!("engine-{method}")));
        engines.push(
            Engine::new(method, cfg, generated.r.clone(), generated.s.clone(), dir)
                .map_err(|e| bad_input(format!("engine {method} construction: {e}")))?,
        );
    }
    // An adaptive script adds a fleet in adaptive mode, replaying identical
    // traffic: its shards re-price and migrate online while the pinned
    // fleet (and the oracle) pins what the answers must be.
    let mut servers = Vec::new();
    for adaptive in [false, true].into_iter().filter(|&a| !a || script.spec.adaptive) {
        let kind = if adaptive { "serve-adaptive" } else { "serve" };
        for (idx, &shards) in script.shard_counts.iter().enumerate() {
            let config = ServeConfig {
                batch: script.batch,
                seed: rng::derive_indexed(
                    script.spec.seed,
                    &format!("check/{kind}"),
                    shards as u64,
                ),
                durable_dir: cfg
                    .durable_root
                    .as_ref()
                    .map(|root| root.join(format!("{kind}-{idx}-{shards}"))),
                adaptive,
                ..ServeConfig::new(cfg.params.clone(), shards)
            };
            let relations = Some((generated.r.clone(), generated.s.clone()));
            servers.push(
                Serving::open(config, relations)
                    .map_err(|e| bad_input(format!("{kind}({shards} shards) start: {e}")))?,
            );
        }
    }

    let mut driver = Driver {
        script,
        cfg,
        engines,
        servers,
        r_mirror: generated.r.iter().map(|t| (t.sur.0, t.clone())).collect(),
        s_mirror: generated.s.iter().map(|t| (t.sur.0, t.clone())).collect(),
        armed_faults: Vec::new(),
        tail: Vec::new(),
        durable: cfg.durable_root.is_some(),
        outcome: CheckOutcome::default(),
    };

    for (i, op) in script.ops.iter().enumerate() {
        match op {
            ScriptOp::Checkpoint => driver.checkpoint(i)?,
            ScriptOp::Fault { seed } => driver.armed_faults.push(*seed),
            ScriptOp::Batch => {
                for srv in &driver.servers {
                    srv.session.flush().map_err(|e| fail(i, &srv.site, format!("flush: {e}")))?;
                }
                driver.commit_all(i)?;
            }
            ScriptOp::Crash { seed } => {
                // Inert on the in-memory backend: nothing to reopen from.
                if driver.durable {
                    driver.crash(i, *seed)?;
                }
            }
            mutation => {
                let resolved = driver.resolve(mutation).map_err(|msg| fail(i, "script", msg))?;
                match resolved {
                    Some((side, m)) => {
                        driver.apply(i, side, &m)?;
                        driver.outcome.applied += 1;
                    }
                    None => driver.outcome.skipped += 1,
                }
            }
        }
    }
    // Close each engine's open telemetry window (the report capture does
    // that and lands any tail drift alerts in the event log first), then
    // total the audit's verdict over the whole replay.
    for e in &driver.engines {
        let report = e.db.run_report(format!("check:{}", e.method));
        driver.outcome.cost_drift_events +=
            report.events.iter().filter(|ev| ev.kind == EventKind::CostDrift).count();
    }
    // Adaptive fleet post-mortem: total the migration accounting and
    // enforce the liveness bound — a shard may migrate at most once per
    // two checkpoint decisions (the cooldown makes faster flapping a
    // controller bug, not a workload property).
    let last_op = script.ops.len().saturating_sub(1);
    let final_report = |srv: &Serving| {
        let report = srv
            .session
            .report()
            .map_err(|e| fail(last_op, &srv.site, format!("final report: {e}")))?;
        // What each shard says its last recovery did goes through the
        // rule `report-validate` applies to a report file. (Taken here,
        // not at the crash: capturing a report closes telemetry windows.)
        for shard in &report.shards {
            check_recovery_bound(&srv.site, &shard.name, &shard.metrics)
                .map_err(|msg| fail(last_op, &srv.site, msg))?;
        }
        Ok::<_, Box<CheckFailure>>(report)
    };
    let per_shard_cap = (driver.outcome.checkpoints as u64).div_ceil(2).max(1);
    for srv in &driver.servers {
        if !srv.config.adaptive && driver.outcome.crashes == 0 {
            continue;
        }
        let report = final_report(srv)?;
        let reopened = report.rollup.metrics.counter("wal.recovered.queued_ops");
        driver.outcome.recovered_queued_ops += reopened;
        if !srv.config.adaptive {
            continue;
        }
        let count = report.rollup.metrics.counter("migrate.count") as usize;
        driver.outcome.migrations += count;
        driver.outcome.migration_rollbacks +=
            report.rollup.metrics.counter("migrate.rollbacks") as usize;
        driver.outcome.migrations_by_server.push((srv.config.shards, count));
        for shard in &report.shards {
            let count = shard.metrics.counter("migrate.count");
            if count > per_shard_cap {
                return Err(fail(
                    last_op,
                    &srv.site,
                    format!(
                        "{} migrated {count} times over {} checkpoints (cap {per_shard_cap}) — \
                         the hysteresis/cooldown guard is flapping",
                        shard.name, driver.outcome.checkpoints
                    ),
                ));
            }
        }
    }
    Ok(driver.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `S` mutation arriving while the differential log has spilled
    /// runs: the query folds both relations' logs and leaves no run file
    /// behind — the device holds the relations' trees and the structure.
    #[test]
    fn s_mutation_folds_and_releases_spilled_log_runs() {
        let cfg = CheckConfig::default();
        let spec = WorkloadSpec {
            r_tuples: 2_000,
            s_tuples: 2_000,
            tuple_bytes: 200,
            sr: 0.05,
            group_size: 10,
            pra: 0.2,
            update_rate: 0.0,
            seed: 18,
        };
        let generated = spec.generate();
        for method in [Method::MaterializedView, Method::JoinIndex] {
            let mut engine =
                Engine::new(method, &cfg, generated.r.clone(), generated.s.clone(), None).unwrap();
            let mut updates = generated.update_stream();
            while engine.cached.pending_log_pages() == 0 {
                let m = Mutation::Update(updates.next_update());
                engine.apply(Side::R, &m, Sabotage::None).unwrap();
            }
            let old = generated.s[0].clone();
            let new =
                BaseTuple::with_payload(old.sur, old.key + 1, &[7; 8], spec.tuple_bytes).unwrap();
            engine.apply(Side::S, &Mutation::Update(Update { old, new }), Sabotage::None).unwrap();
            engine.query().unwrap();
            // `R`'s own apply log may still hold runs: they are not the
            // structure's.
            engine.db.settle().unwrap();

            let db = &engine.db;
            let mut owned: Vec<_> = db.r().file_ids().chain(db.s().file_ids()).collect();
            owned.extend(engine.cached.cached_file());
            owned.sort();
            assert_eq!(db.disk().live_files(), owned, "{method}: differential runs left behind");
        }
    }
}
