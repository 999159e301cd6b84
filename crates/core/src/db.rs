//! A small database instance wiring the paper's storage organization
//! (Table 5) to the simulated device.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use trijoin_common::telemetry::{DriftAlert, Telemetry, TelemetryConfig};
use trijoin_common::{
    BaseTuple, Cost, CounterId, Error, EventKind, EventLog, Json, Metrics, OpCounts, Result,
    RunReport, SystemParams, ViewTuple,
};
use trijoin_model::{sweep_cost, Method, Workload};

use trijoin_exec::relation::apply_log_floor_pages;
use trijoin_exec::{
    HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView, Mutation, StoredRelation, Update,
};
use trijoin_storage::{
    CheckpointStats, CommitSabotage, CommitStats, Disk, Durability, DurableBackend, FaultPlan,
    SimDisk,
};

use crate::catalog::{self, CATALOG_FILE, CATALOG_VERSION};

/// The engine's telemetry tick: total primitive ledger operations. Purely
/// a function of the simulated ledger, so window boundaries are
/// deterministic and identical across identical runs.
fn ops_tick(total: &OpCounts) -> u64 {
    total.ios + total.comps + total.hashes + total.moves
}

/// Predicted-vs-actual bookkeeping for the cost audit (lives inside the
/// optional [`EngineTelemetry`]).
struct CostAudit {
    /// Measured statistics of the loaded relations (the model's inputs).
    workload: Workload,
    /// Multiplier on every prediction. 1.0 = the stock model; tests
    /// deliberately miscalibrate it to prove drift detection fires.
    calibration: f64,
    /// Updates applied since the audit was armed.
    apply_seq: u64,
    /// `apply_seq` at each strategy's last audited query — the per-label
    /// pending-update count the next query cycle is priced with (each
    /// strategy folds only its own differential file).
    last_cycle_seq: BTreeMap<&'static str, u64>,
    /// Memoized predictions keyed by `(strategy label, pending updates)`:
    /// steady traffic re-prices the same pending count every cycle, and
    /// building the model's term table allocates, so each distinct key is
    /// priced once. Values are `(cycle µs, spill µs, base-pass pages)`.
    predicted: BTreeMap<(&'static str, u64), (f64, f64, f64)>,
}

/// The audit section a strategy's query cycles record under, without a
/// per-query allocation for the paper strategies.
fn cycle_section(label: &'static str) -> std::borrow::Cow<'static, str> {
    match label {
        "materialized-view" => std::borrow::Cow::Borrowed("cycle.materialized-view"),
        "join-index" => std::borrow::Cow::Borrowed("cycle.join-index"),
        "hybrid-hash" => std::borrow::Cow::Borrowed("cycle.hybrid-hash"),
        other => std::borrow::Cow::Owned(format!("cycle.{other}")),
    }
}

struct EngineTelemetry {
    tel: Telemetry,
    audit: Option<CostAudit>,
}

/// What one strategy's epoch ([`Database::run_epoch`]) charged, split by
/// who charged it. Over an epoch with one strategy the three parts are the
/// whole ledger: `log + base + query` is everything charged since it began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCost {
    /// Charged inside the strategy's logging of the epoch's mutations.
    pub log: OpCounts,
    /// Charged by the base relations themselves: apply-log spills and
    /// settles. The same for every strategy of the epoch; the §3 model
    /// prices none of it.
    pub base: OpCounts,
    /// Charged through the strategy's [`Database::query`].
    pub query: OpCounts,
}

impl EpochCost {
    /// The strategy's own cost, `log + query`: what the §3 model prices.
    pub fn strategy(&self) -> OpCounts {
        let mut ops = self.log;
        ops.add(&self.query);
        ops
    }
}

/// One simulated database: a disk, a cost ledger, and the two base
/// relations organized per Table 5 (`R` clustered on its surrogate; `S`
/// clustered on its surrogate plus a non-clustered index on the join
/// attribute, which `R` gains when `S` first changes).
pub struct Database {
    params: SystemParams,
    cost: Cost,
    disk: Disk,
    r: StoredRelation,
    s: StoredRelation,
    /// Opt-in windowed telemetry + cost audit. Strictly `None` unless
    /// [`Database::enable_telemetry`] ran: engines without it produce
    /// byte-identical reports to the pre-telemetry schema (golden safety).
    telemetry: RefCell<Option<EngineTelemetry>>,
    /// True for databases on a durable backend: [`Database::commit`]
    /// serializes the catalog into file 0 before flushing.
    durable: bool,
    /// `db.mutations`, `db.queries`.
    counters: [CounterId; 2],
}

impl Database {
    /// Build from tuple sets. Loading charges I/O; call
    /// [`Database::reset_cost`] before measuring (the paper does not price
    /// initial loading).
    pub fn new(params: &SystemParams, r: Vec<BaseTuple>, s: Vec<BaseTuple>) -> Result<Self> {
        let cost = Cost::new();
        let disk = SimDisk::new(params, cost.clone());
        let r = StoredRelation::build(&disk, params, "R", r, false)?;
        let s = StoredRelation::build(&disk, params, "S", s, true)?;
        Ok(Self::assemble(params, cost, disk, r, s, false))
    }

    fn assemble(
        params: &SystemParams,
        cost: Cost,
        disk: Disk,
        r: StoredRelation,
        s: StoredRelation,
        durable: bool,
    ) -> Self {
        let counters =
            ["db.mutations", "db.queries"].map(|name| disk.metrics().counter_handle(name));
        Database {
            params: params.clone(),
            cost,
            disk,
            r,
            s,
            telemetry: RefCell::new(None),
            durable,
            counters,
        }
    }

    // ---- durable lifecycle ----------------------------------------------

    /// Like [`Database::new`] but on the durable file backend rooted at
    /// `dir`: pages live in real files, every mutation is buffered until
    /// [`Database::commit`] seals it into the write-ahead log. The initial
    /// load is committed before returning, so a crash immediately after
    /// construction reopens to exactly these tuples.
    pub fn create_durable(
        params: &SystemParams,
        r: Vec<BaseTuple>,
        s: Vec<BaseTuple>,
        dir: &Path,
    ) -> Result<Self> {
        let cost = Cost::new();
        let backend = DurableBackend::create(dir, params.page_size)?;
        let disk = SimDisk::with_backend(params, cost.clone(), Box::new(backend));
        // The catalog claims file 0 before any relation structure exists.
        let cat = disk.create_file();
        debug_assert_eq!(cat, CATALOG_FILE);
        let r = StoredRelation::build(&disk, params, "R", r, false)?;
        let s = StoredRelation::build(&disk, params, "S", s, true)?;
        let db = Self::assemble(params, cost, disk, r, s, true);
        db.commit()?;
        Ok(db)
    }

    /// Reopen a durable database from `dir`. WAL recovery runs first
    /// (replaying committed frames, truncating any torn tail — the
    /// `wal.recovered.*` counters and a `RecoveryTriggered` event record
    /// it); then the relations are reattached from the catalog in file 0,
    /// each with the apply log its last commit sealed
    /// (`wal.recovered.queued_ops` counts what those logs hold). All
    /// derived state (MV, JI, hash tables) is gone — the page files the
    /// catalog does not name are deleted — rebuild it with the usual
    /// constructors, exactly as at first creation.
    pub fn open_durable(params: &SystemParams, dir: &Path) -> Result<Self> {
        let cost = Cost::new();
        let backend = DurableBackend::open(dir, params.page_size)?;
        let disk = SimDisk::with_backend(params, cost.clone(), Box::new(backend));
        let manifest = catalog::read_catalog(&disk)?;
        let version = manifest.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != CATALOG_VERSION {
            return Err(Error::Corrupt(format!(
                "catalog version {version} (this build reads {CATALOG_VERSION})"
            )));
        }
        let r_json =
            manifest.get("r").ok_or_else(|| Error::Corrupt("catalog missing relation r".into()))?;
        let s_json =
            manifest.get("s").ok_or_else(|| Error::Corrupt("catalog missing relation s".into()))?;
        let r = StoredRelation::open(&disk, params, r_json)?;
        let s = StoredRelation::open(&disk, params, s_json)?;
        // Nothing names the derived structures of the last session (or
        // the scratch files a crash interrupted) any more: give their
        // pages back, or every crash grows the store by one view.
        let named: Vec<_> =
            std::iter::once(CATALOG_FILE).chain(r.file_ids()).chain(s.file_ids()).collect();
        for file in disk.live_files() {
            if !named.contains(&file) {
                disk.delete_file(file);
            }
        }
        let queued = r.pending_ops() + s.pending_ops();
        if queued > 0 {
            disk.metrics().counter_add("wal.recovered.queued_ops", queued);
        }
        Ok(Self::assemble(params, cost, disk, r, s, true))
    }

    /// True when this database sits on a durable (WAL-backed) backend.
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// What a commit does with the relations' queued mutations. On a
    /// durable database both apply logs are sealed and the catalog naming
    /// their runs and trees goes into file 0. In memory there is no
    /// catalog to name a run in: the logs settle, as an in-memory commit
    /// always had them (the serving goldens pin it).
    fn seal_logs(&self) -> Result<()> {
        if !self.durable {
            return self.settle();
        }
        let (r, s) = (self.r.catalog_json(), self.s.catalog_json());
        // A frozen log settles at its seal.
        self.account_settles();
        let manifest = Json::obj().set("version", CATALOG_VERSION).set("r", r?).set("s", s?);
        catalog::write_catalog(&self.disk, &manifest)
    }

    /// Make everything since the last commit durable: seal the apply logs
    /// into the catalog in file 0 ([`StoredRelation::catalog_json`]: a
    /// queued mutation is durable in a run the catalog names, not in the
    /// leaves it will change), then seal the buffered page writes as one
    /// WAL frame group (page frames + one commit frame), fsynced before
    /// returning. On the in-memory backend it settles the logs and reports
    /// zero frames. The `wal.*` metrics and one I/O charge per
    /// frame (plus one for the commit record, under `wal.commit`) land in
    /// the ledger via the disk wrapper.
    pub fn commit(&self) -> Result<CommitStats> {
        self.commit_with(Durability::Barrier)
    }

    /// [`Database::commit`] with an explicit durability level:
    /// [`Durability::Barrier`] fsyncs before returning;
    /// [`Durability::Deferred`] appends the sealed group to the
    /// group-commit buffer and shares a later barrier's fsync — a crash
    /// before that barrier rolls the deferred commits back wholesale.
    pub fn commit_with(&self, durability: Durability) -> Result<CommitStats> {
        // Every acknowledged mutation must be in a page image the group
        // seals: in an apply-log run the catalog names.
        self.seal_logs()?;
        self.disk.commit_with(durability)
    }

    /// [`Database::commit`], then truncate the WAL (its contents are fully
    /// applied, so the log restarts empty — this is what bounds log length
    /// between restarts).
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        self.seal_logs()?;
        self.disk.checkpoint()
    }

    /// Close the database cleanly: checkpoint (commit + WAL truncate) and
    /// drop. Reopening after `close` replays nothing.
    pub fn close(self) -> Result<()> {
        self.checkpoint()?;
        Ok(())
    }

    /// Arm a simulated crash on the next [`Database::commit`] (test
    /// harness; see [`trijoin_storage::CommitSabotage`]).
    pub fn sabotage_next_commit(&self, mode: CommitSabotage) {
        self.disk.sabotage_next_commit(mode);
    }

    /// System parameters in force.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The shared cost ledger.
    pub fn cost(&self) -> &Cost {
        &self.cost
    }

    /// The simulated disk.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Relation `R`.
    pub fn r(&self) -> &StoredRelation {
        &self.r
    }

    /// Relation `S` (carries the inverted index on the join attribute).
    pub fn s(&self) -> &StoredRelation {
        &self.s
    }

    /// Mutable access to `R` for applying updates.
    pub fn r_mut(&mut self) -> &mut StoredRelation {
        &mut self.r
    }

    /// The paper's deferred-maintenance contract for one mutation of `R`,
    /// or (`of_s`) of `S`: the relation admits it
    /// ([`StoredRelation::admit`]), the caller's cached structures `log`
    /// it, and the relation queues it. A mutation the relation refuses
    /// reaches no structure; one the structures refuse is not queued.
    pub fn mutate(
        &mut self,
        of_s: bool,
        m: &Mutation,
        log: impl FnOnce(&Self) -> Result<()>,
    ) -> Result<()> {
        if of_s { &self.s } else { &self.r }.admit(m)?;
        log(self)?;
        if of_s {
            self.apply_s_mutation(m)
        } else {
            self.apply_r_mutation(m)
        }
    }

    /// One epoch of the paper's §3 cycle: every update lands through
    /// [`Database::mutate`] with each of `strategies` logging it, both
    /// relations settle, and each strategy answers once through
    /// [`Database::query`]. Returns, per strategy in order, its
    /// [`EpochCost`] and its answer.
    pub fn run_epoch(
        &mut self,
        strategies: &mut [&mut dyn JoinStrategy],
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<Vec<(EpochCost, Vec<ViewTuple>)>> {
        let start = self.cost.total();
        let mut logs = vec![OpCounts::default(); strategies.len()];
        for u in updates {
            let m = Mutation::Update(u);
            self.mutate(false, &m, |db| {
                for (strategy, log) in strategies.iter_mut().zip(&mut logs) {
                    let before = db.cost.total();
                    strategy.on_mutation(&m)?;
                    log.add(&db.cost.total().delta_since(&before));
                }
                Ok(())
            })?;
        }
        self.settle()?;
        let base = logs.iter().fold(self.cost.total().delta_since(&start), |b, l| b.delta_since(l));
        let mut runs = Vec::with_capacity(strategies.len());
        for (strategy, log) in strategies.iter_mut().zip(logs) {
            let before = self.cost.total();
            let rows = self.query(&mut **strategy)?;
            let query = self.cost.total().delta_since(&before);
            runs.push((EpochCost { log, base, query }, rows));
        }
        Ok(runs)
    }

    /// Queue one update to `R`, counting it in the metrics registry
    /// (`db.mutations`): the last step of [`Database::mutate`], for callers
    /// that log it themselves. The tree changes when the relation next
    /// settles: when its log is full or reading it through stops paying,
    /// or at a report (a durable commit seals the log instead).
    /// An `Err` means the update was not queued.
    pub fn apply_r_update(&mut self, upd: &Update) -> Result<()> {
        self.queue(|db| db.r.apply_update(&upd.old, &upd.new))
    }

    /// Queue one mutation of `R`, counting it in the metrics registry.
    pub fn apply_r_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.queue(|db| db.r.apply_mutation(m))
    }

    /// Queue one mutation of `S`, counting it in the metrics registry. The
    /// first one gives `R` its inverted index on the join attribute, through
    /// which the cached structures join `S`'s insertions
    /// ([`StoredRelation::build_inverted`]: `R` settles, then one scan and
    /// a bulk load, outside any query).
    pub fn apply_s_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.queue(|db| {
            db.r.build_inverted(&db.params)?;
            db.s.apply_mutation(m)
        })
    }

    fn queue(&mut self, enqueue: impl FnOnce(&mut Self) -> Result<()>) -> Result<()> {
        self.disk.metrics().incr_id(self.counters[0]);
        // A full log settles before it takes the mutation.
        let result = enqueue(self);
        self.account_settles();
        self.telemetry_on_apply();
        result
    }

    /// Apply every mutation queued for `R` and `S` to their trees now
    /// ([`StoredRelation::settle`]: one sweep per relation, in surrogate
    /// order, under the span `base.settle`). Nothing needs to call this
    /// for an answer to be right — a reader sees the queued mutations,
    /// and a durable commit seals them into runs — but
    /// [`Database::run_report`] and an in-memory commit do, and so does
    /// whoever wants the sweep's charge at a point of their choosing.
    pub fn settle(&self) -> Result<()> {
        let (r, s) = (self.r.settle(), self.s.settle());
        self.account_settles();
        r.and(s).map(drop)
    }

    /// Hear what the relations' settles did since this was last called
    /// ([`StoredRelation::take_settled`]) — whoever caused them: a sample
    /// for the `base.settle.us` histogram, one for the audit's `apply`
    /// section against the model's [`sweep_cost`], a telemetry tick.
    /// Returns what they charged.
    fn account_settles(&self) -> OpCounts {
        let (mut charged, mut predicted_us) = (OpCounts::default(), 0.0);
        for relation in [&self.r, &self.s] {
            let did = relation.take_settled();
            charged.add(&did.charged);
            if did.keys > 0 {
                let (k, m, n) = (did.keys as f64, did.leaf_pages as f64, did.tuples as f64);
                predicted_us += 1e6 * sweep_cost(&self.params, k, m, n);
            }
        }
        if !charged.is_zero() {
            let actual_us = charged.time_us(&self.params);
            self.disk.metrics().observe("base.settle.us", actual_us as u64);
            self.telemetry_on_settle(predicted_us, actual_us, &self.cost.total());
        }
        charged
    }

    /// The engine-wide metrics registry (carried by the simulated disk;
    /// every layer holding the disk reports into the same registry).
    pub fn metrics(&self) -> &Metrics {
        self.disk.metrics()
    }

    /// The engine-wide structured-event log.
    pub fn events(&self) -> &EventLog {
        self.disk.events()
    }

    /// Execute `strategy` as one *observed* query: emits query start/end
    /// events, bumps the query counter, records the simulated latency into
    /// the `query.us` histogram, and returns the collected join result.
    /// The strategy reads the relations' apply logs through, or settles a
    /// relation before its first section when that pays
    /// ([`StoredRelation::reader`]); the query's clock starts once it has,
    /// so that sweep stays outside the query's latency and audit sample.
    pub fn query(&self, strategy: &mut dyn JoinStrategy) -> Result<Vec<ViewTuple>> {
        // A settle from before this call is not this query's.
        self.account_settles();
        let mut start = self.cost.total();
        let recovery_start = self.recovery_counts();
        let detail = format!("strategy={}", strategy.name());
        let started = self.disk.events().emit(EventKind::QueryStart, detail, start);
        let mut out = Vec::new();
        let result = strategy.execute(&self.r, &self.s, &mut |vt| out.push(vt));
        let settled = self.account_settles();
        if !settled.is_zero() {
            start.add(&settled);
            self.disk.events().restamp(started, start);
        }
        let end = self.cost.total();
        let detail = match &result {
            Ok(_) => format!("strategy={} tuples={}", strategy.name(), out.len()),
            Err(e) => format!("strategy={} failed: {e}", strategy.name()),
        };
        self.disk.events().emit(EventKind::QueryEnd, detail, end);
        let metrics = self.disk.metrics();
        metrics.incr_id(self.counters[1]);
        metrics.observe("query.us", end.delta_since(&start).time_us(&self.params) as u64);
        self.telemetry_on_query(strategy.name(), &start, &end, &recovery_start);
        result?;
        Ok(out)
    }

    /// Enable windowed telemetry on this engine (opt-in; see the field
    /// docs). The sampler arms its baseline at the current ledger tick.
    pub fn enable_telemetry(&self, config: TelemetryConfig) {
        let tel = Telemetry::new(config, "engine", "ops");
        tel.tick(ops_tick(&self.cost.total()), self.disk.metrics());
        *self.telemetry.borrow_mut() = Some(EngineTelemetry { tel, audit: None });
    }

    /// Arm the predicted-vs-actual cost audit (enables telemetry with the
    /// default config if [`Database::enable_telemetry`] didn't run first).
    /// `workload` is the measured statistics of the loaded relations (see
    /// `workload::measure_workload`); `calibration` scales every model
    /// prediction — 1.0 audits the stock model, anything far from 1.0
    /// simulates a miscalibrated model so `CostDrift` detection can be
    /// exercised deliberately.
    pub fn enable_cost_audit(&self, workload: Workload, calibration: f64) {
        if self.telemetry.borrow().is_none() {
            self.enable_telemetry(TelemetryConfig::default());
        }
        if let Some(t) = self.telemetry.borrow_mut().as_mut() {
            t.audit = Some(CostAudit {
                workload,
                calibration,
                apply_seq: 0,
                last_cycle_seq: BTreeMap::new(),
                predicted: BTreeMap::new(),
            });
        }
    }

    /// Restart `method`'s audit baseline at the current apply count, so its
    /// next query cycle is priced at the updates applied from here on. For
    /// owners that build or destroy a cached structure outside
    /// [`Database::query`]: a structure fresh from the stored relations
    /// has no pending differentials, whatever was applied before it
    /// existed. A no-op without the cost audit.
    pub fn audit_rebaseline(&self, method: Method) {
        if let Some(audit) = self.telemetry.borrow_mut().as_mut().and_then(|t| t.audit.as_mut()) {
            audit.last_cycle_seq.insert(method.label(), audit.apply_seq);
        }
    }

    /// The analytical prediction for one query cycle of a paper strategy
    /// (`None` for ablation strategies the model does not price), through
    /// the same [`trijoin_model::cost_of`] the adaptive policy selects with.
    fn model_report(&self, label: &str, w: &Workload) -> Option<trijoin_model::CostReport> {
        let method = Method::all().into_iter().find(|m| m.label() == label)?;
        Some(trijoin_model::cost_of(&self.params, w, method))
    }

    /// Audit one finished query cycle and advance the telemetry clock.
    fn telemetry_on_query(
        &self,
        label: &'static str,
        start: &OpCounts,
        end: &OpCounts,
        recovery_start: &OpCounts,
    ) {
        let alerts = {
            let mut guard = self.telemetry.borrow_mut();
            let Some(t) = guard.as_mut() else { return };
            let actual_us = end.delta_since(start).time_us(&self.params);
            if let Some(audit) = t.audit.as_mut() {
                let pending =
                    audit.apply_seq - audit.last_cycle_seq.get(label).copied().unwrap_or(0);
                let key = (label, pending);
                let (predicted_us, predicted_spill, base_pages) =
                    match audit.predicted.get(&key).copied() {
                        Some(cached) => cached,
                        None => {
                            let w = Workload { updates: pending as f64, ..audit.workload.clone() };
                            let report = self.model_report(label, &w);
                            // The grace-hash ablation has no model: its
                            // cycles record with
                            // predicted = 0, which the drift detector treats
                            // as "no prediction".
                            let predicted_us = report
                                .as_ref()
                                .map(|r| audit.calibration * r.total() * 1e6)
                                .unwrap_or(0.0);
                            let (spill, base) = match &report {
                                Some(report) if label == "hybrid-hash" => {
                                    let d = w.derived(&self.params);
                                    let spill = audit.calibration
                                        * (report.term("write spilled partitions")
                                            + report.term("read spilled partitions back"))
                                        * 1e6;
                                    (spill, d.r_pages + d.s_pages)
                                }
                                _ => (0.0, 0.0),
                            };
                            audit.predicted.insert(key, (predicted_us, spill, base));
                            (predicted_us, spill, base)
                        }
                    };
                t.tel.record_audit(&cycle_section(label), predicted_us, actual_us);
                let spilled = self.disk.metrics().gauge("hh.spilled_partitions").unwrap_or(0.0);
                if label == "hybrid-hash" && spilled > 0.0 {
                    // Actual spill I/O ≈ page reads+writes beyond the one
                    // base pass over |R| + |S|.
                    let extra_ios = (end.delta_since(start).ios as f64 - base_pages).max(0.0);
                    t.tel.record_audit(
                        "spill.hybrid-hash",
                        predicted_spill,
                        extra_ios * self.params.io_us,
                    );
                }
                audit.last_cycle_seq.insert(label, audit.apply_seq);
            }
            let recovery = self.recovery_counts().delta_since(recovery_start);
            if !recovery.is_zero() {
                // The model never prices recovery: predicted 0 keeps the
                // section visible in the series without ever drifting.
                t.tel.record_audit("recovery", 0.0, recovery.time_us(&self.params));
            }
            t.tel.tick(ops_tick(end), self.disk.metrics())
        };
        self.emit_drift(&alerts, *end);
    }

    /// Count one queued mutation for the audit: query-cycle predictions
    /// are priced at the mutations queued since the strategy's last cycle.
    /// Queueing moves the ledger only when the apply log spills, so the
    /// clock is read but rarely advances.
    fn telemetry_on_apply(&self) {
        let end = self.cost.total();
        let alerts = {
            let mut guard = self.telemetry.borrow_mut();
            let Some(t) = guard.as_mut() else { return };
            if let Some(audit) = t.audit.as_mut() {
                audit.apply_seq += 1;
            }
            t.tel.tick(ops_tick(&end), self.disk.metrics())
        };
        self.emit_drift(&alerts, end);
    }

    /// Audit one settle — the base trees' sweep against the model's
    /// scheduled access — and advance the telemetry clock: this is where
    /// applying mutations moves the ledger.
    fn telemetry_on_settle(&self, predicted_us: f64, actual_us: f64, end: &OpCounts) {
        let alerts = {
            let mut guard = self.telemetry.borrow_mut();
            let Some(t) = guard.as_mut() else { return };
            if let Some(audit) = t.audit.as_ref() {
                t.tel.record_audit("apply", audit.calibration * predicted_us, actual_us);
            }
            t.tel.tick(ops_tick(end), self.disk.metrics())
        };
        self.emit_drift(&alerts, *end);
    }

    fn emit_drift(&self, alerts: &[DriftAlert], at: OpCounts) {
        for alert in alerts {
            self.disk.events().emit(EventKind::CostDrift, alert.detail(), at);
        }
    }

    /// Snapshot the full observability state (params, span tree, metrics,
    /// events) into a serializable [`RunReport`] labelled `name`.
    pub fn run_report(&self, name: impl Into<String>) -> RunReport {
        // A report describes relations with nothing queued. A device fault
        // that stops the settle shows as `base.apply_log.pending` > 0,
        // which `report-validate` rejects.
        let _ = self.settle();
        let metrics = self.disk.metrics();
        let peak = self.r.apply_log_peak_pages().max(self.s.apply_log_peak_pages());
        metrics.gauge_set("base.apply_log.peak_pages", peak as f64);
        metrics.gauge_set(
            "base.apply_log.pending",
            (self.r.pending_ops() + self.s.pending_ops()) as f64,
        );
        let height = self.r.height().max(self.s.height());
        metrics.gauge_set("base.tree_height", height as f64);
        // A log at its floor of `APPLY_LOG_RUNS` runs is bounded by
        // constants, the page size (its fences) and the sweep's path (the
        // height and a second leaf); the gauge says when space lifts it.
        let bound = self.r.apply_log_bound_pages().max(self.s.apply_log_bound_pages());
        if bound > apply_log_floor_pages(height, self.params.page_size) {
            metrics.gauge_set("base.apply_log.bound_pages", bound as f64);
        }
        // Per-file I/O counters die with their file: the report lists at
        // most this many (a `report-validate` rule).
        metrics.gauge_set("disk.live_files", self.disk.live_files().len() as f64);
        // Close the open telemetry window first so even a run shorter than
        // one window serializes a series (drift alerts it raises land in
        // the captured event log).
        if let Some(t) = self.telemetry.borrow().as_ref() {
            let end = self.cost.total();
            let alerts = t.tel.force_close(ops_tick(&end), self.disk.metrics());
            self.emit_drift(&alerts, end);
        }
        // Durable engines carry the WAL marker on every report, even right
        // after a `reset_observability` boundary (the in-memory backend
        // never stamps these, keeping golden reports byte-identical).
        if self.disk.wal_enabled() {
            let metrics = self.disk.metrics();
            metrics.gauge_set("wal.enabled", 1.0);
            metrics.gauge_set("wal.len_bytes", self.disk.wal_len_bytes() as f64);
            metrics.gauge_set("wal.apply_lag", self.disk.wal_apply_lag() as f64);
            // Zero-delta adds pin the commit-accounting counters into the
            // registry: the report validator requires them alongside
            // `wal.enabled` even when no commit ran since the last
            // observability reset.
            for counter in ["wal.commits", "wal.fsyncs", "wal.frames_skipped"] {
                metrics.counter_add(counter, 0);
            }
        }
        let mut report = RunReport::capture(
            name,
            &self.params,
            &self.cost,
            self.disk.metrics(),
            self.disk.events(),
        );
        if let Some(t) = self.telemetry.borrow().as_ref() {
            report.series.push(t.tel.series());
        }
        report
    }

    /// Zero the cost ledger (e.g. after setup). Metrics and events are left
    /// alone; use [`Database::reset_observability`] to clear those too.
    pub fn reset_cost(&self) {
        self.cost.reset();
    }

    /// Zero the cost ledger, the metrics registry, and the event log in one
    /// step (a clean measurement boundary).
    pub fn reset_observability(&self) {
        self.cost.reset();
        self.disk.metrics().reset();
        self.disk.events().reset();
        if let Some(t) = self.telemetry.borrow_mut().as_mut() {
            // Telemetry stays enabled but forgets its windows and re-arms
            // at the zeroed ledger; the audit's pending-update bookkeeping
            // restarts with it.
            t.tel.reset();
            t.tel.tick(ops_tick(&self.cost.total()), self.disk.metrics());
            if let Some(audit) = t.audit.as_mut() {
                audit.apply_seq = 0;
                audit.last_cycle_seq.clear();
            }
        }
    }

    /// Install a device-fault plan on the simulated disk (see
    /// [`trijoin_storage::FaultPlan`]); faults fire on subsequent charged
    /// page accesses and strategies recover per their documented paths.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        self.disk.install_fault_plan(plan);
    }

    /// Clear every pending fault and heal all damaged pages.
    pub fn clear_faults(&self) {
        self.disk.clear_faults();
    }

    /// How many planned faults have fired so far.
    pub fn faults_fired(&self) -> u64 {
        self.disk.faults_fired()
    }

    /// The names of the recovery-related cost sections.
    pub const RECOVERY_SECTIONS: [&'static str; 5] =
        ["mv.recover", "ji.recover", "hh.retry", "hh.recover", "diff.retry"];

    /// Combined operation counts of all recovery work charged so far
    /// (retries, fallback recomputation, cache rebuilds) — zero when no
    /// fault ever disturbed a query.
    pub fn recovery_counts(&self) -> OpCounts {
        let mut total = OpCounts::default();
        for name in Self::RECOVERY_SECTIONS {
            total.add(&self.cost.section_counts(name));
        }
        total
    }

    /// Random page I/Os spent on recovery work so far.
    pub fn recovery_ios(&self) -> u64 {
        self.recovery_counts().ios
    }

    /// Materialize `V = R ⋈ S` and return the MV strategy (§3.2).
    pub fn materialized_view(&self) -> Result<MaterializedView> {
        MaterializedView::build(&self.disk, &self.params, &self.cost, &self.r, &self.s)
    }

    /// Build the join index and return the JI strategy (§3.3).
    pub fn join_index(&self) -> Result<JoinIndexStrategy> {
        JoinIndexStrategy::build(&self.disk, &self.params, &self.cost, &self.r, &self.s)
    }

    /// The hybrid-hash strategy (§3.4; stateless).
    pub fn hybrid_hash(&self) -> HybridHash {
        HybridHash::new(&self.disk, &self.params, &self.cost)
    }

    /// Grace-hash variant (ablation baseline).
    pub fn grace_hash(&self) -> HybridHash {
        HybridHash::grace(&self.disk, &self.params, &self.cost)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("r_tuples", &self.r.len_estimate())
            .field("s_tuples", &self.s.len_estimate())
            .field("mem_pages", &self.params.mem_pages)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::Surrogate;

    fn tuples(n: u32) -> Vec<BaseTuple> {
        (0..n).map(|i| BaseTuple::padded(Surrogate(i), (i % 7) as u64, 64)).collect()
    }

    #[test]
    fn database_wires_table5_organization() {
        let params = SystemParams { page_size: 512, mem_pages: 32, ..Default::default() };
        let db = Database::new(&params, tuples(200), tuples(150)).unwrap();
        assert_eq!(db.r().len(), 200);
        assert_eq!(db.s().len(), 150);
        assert!(!db.r().has_inverted(), "R has no inverted index per Table 5");
        assert!(db.s().has_inverted(), "S carries the join-attribute index");
        db.reset_cost();
        assert!(db.cost().total().is_zero());
    }

    #[test]
    fn durable_lifecycle_roundtrips_through_reopen() {
        let params = SystemParams { page_size: 512, mem_pages: 32, ..Default::default() };
        let dir = std::env::temp_dir().join(format!("trijoin-db-life-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let db = Database::create_durable(&params, tuples(120), tuples(90), &dir).unwrap();
        assert!(db.is_durable());
        let mut mv = db.materialized_view().unwrap();
        let baseline = db.query(&mut mv).unwrap();
        db.close().unwrap();

        let db = Database::open_durable(&params, &dir).unwrap();
        assert!(db.is_durable());
        assert_eq!(db.r().len(), 120);
        assert_eq!(db.s().len(), 90);
        assert!(db.s().has_inverted() && !db.r().has_inverted());
        // Derived state rebuilds; answers match the pre-restart run.
        let mut mv = db.materialized_view().unwrap();
        let mut after = db.query(&mut mv).unwrap();
        let mut want = baseline.clone();
        let order = |t: &trijoin_common::ViewTuple| (t.r_sur, t.s_sur);
        want.sort_by_key(order);
        after.sort_by_key(order);
        assert_eq!(after, want);
        // Clean close left nothing to replay.
        assert_eq!(db.metrics().counter("wal.recovered.commits"), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_mutations_rewind_on_reopen() {
        let params = SystemParams { page_size: 512, mem_pages: 32, ..Default::default() };
        let dir = std::env::temp_dir().join(format!("trijoin-db-rewind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut db = Database::create_durable(&params, tuples(60), tuples(60), &dir).unwrap();
        let old = db.r().get(Surrogate(3)).unwrap().unwrap();
        let new = BaseTuple::padded(Surrogate(3), 999, 64);
        db.r_mut().apply_update(&old, &new).unwrap();
        db.commit().unwrap();
        // A second mutation stays uncommitted: drop without commit = crash.
        let old2 = db.r().get(Surrogate(4)).unwrap().unwrap();
        db.r_mut().apply_update(&old2, &BaseTuple::padded(Surrogate(4), 888, 64)).unwrap();
        drop(db);

        let db = Database::open_durable(&params, &dir).unwrap();
        assert_eq!(db.r().get(Surrogate(3)).unwrap().unwrap().key, 999, "committed survives");
        assert_eq!(db.r().get(Surrogate(4)).unwrap().unwrap().key, old2.key, "uncommitted rewinds");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strategies_construct_and_agree_on_cardinality() {
        let params = SystemParams { page_size: 512, mem_pages: 32, ..Default::default() };
        let db = Database::new(&params, tuples(100), tuples(100)).unwrap();
        let mut mv = db.materialized_view().unwrap();
        let mut ji = db.join_index().unwrap();
        let mut hh = db.hybrid_hash();
        db.reset_cost();
        use trijoin_exec::execute_collect;
        let a = execute_collect(&mut mv, db.r(), db.s()).unwrap();
        let b = execute_collect(&mut ji, db.r(), db.s()).unwrap();
        let c = execute_collect(&mut hh, db.r(), db.s()).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(b.len(), c.len());
        // 100 tuples with keys mod 7: each key class squared.
        let want: usize = (0..7u32)
            .map(|k| {
                let n = (0..100u32).filter(|i| i % 7 == k).count();
                n * n
            })
            .sum();
        assert_eq!(a.len(), want);
    }
}
