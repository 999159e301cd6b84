//! Self-adapting strategy selection — the paper's closing vision:
//! "a system which used the designer's estimates to initially select among
//! algorithms ... but also maintained usage statistics so that the system
//! could automatically adapt to the appropriate structures and algorithms
//! after a suitable period of time."
//!
//! [`AdaptiveController`] is the one implementation of that loop. It holds
//! the incumbent [`CachedStrategy`], feeds every mutation and every answer
//! to the pure policy in [`crate::policy`], and when the policy says so it
//! *migrates* instead of rebuilding: the target structure is staged from
//! the rows the incumbent just produced (its contents with every pending
//! differential folded in — never a base-relation rescan), in bounded
//! steps, and caught up from the mutations that arrived meanwhile. The
//! incumbent serves until the swap:
//!
//! ```text
//! Stable ──(cost crossover at a query)──▶ Building ──(staged + built)──▶
//! Draining ──(pending log replayed, swap)──▶ Stable
//! ```
//!
//! Any device fault while building or draining rolls back: the partial
//! target is destroyed, the incumbent (never touched by the migration)
//! keeps serving, and `migrate.rollbacks` counts the abort. Mutations of
//! `S` are logged like `R`'s: into the incumbent, and into the pending log
//! the target replays.
//!
//! A serve shard drives the steps one per shard command;
//! [`AdaptiveStrategy`] drives them to completion inside one `execute`.

use trijoin_common::{Cost, CounterId, EventKind, Metrics, Result, SystemParams, ViewTuple};
use trijoin_exec::{
    HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView, Mutation, StoredRelation,
};
use trijoin_model::{Method, Workload};
use trijoin_storage::{Disk, FileId};

use crate::db::Database;
use crate::policy::{decide, WindowStats, MIGRATION_COOLDOWN};

/// One concrete cached strategy, known by variant — the shape a strategy
/// hand-off needs. `Box<dyn JoinStrategy>` hides which cache is live, so a
/// migration could only rebuild from the base relations; this enum lets the
/// owner snapshot the incumbent's structure and destroy it after a switch.
pub enum CachedStrategy {
    /// The materialized view of §3.1.
    Mv(MaterializedView),
    /// The join index of §3.2.
    Ji(JoinIndexStrategy),
    /// The cache-less hybrid-hash join of §3.3.
    Hh(HybridHash),
}

impl CachedStrategy {
    /// Which method this cache implements.
    pub fn method(&self) -> Method {
        match self {
            CachedStrategy::Mv(_) => Method::MaterializedView,
            CachedStrategy::Ji(_) => Method::JoinIndex,
            CachedStrategy::Hh(_) => Method::HybridHash,
        }
    }

    /// Build `method`'s structure from the current stored relations (a
    /// base-relation scan plus the structure's page writes, charged to the
    /// caller's open ledger section).
    pub fn build(db: &Database, method: Method) -> Result<CachedStrategy> {
        Ok(match method {
            Method::MaterializedView => CachedStrategy::Mv(db.materialized_view()?),
            Method::JoinIndex => CachedStrategy::Ji(db.join_index()?),
            Method::HybridHash => CachedStrategy::Hh(db.hybrid_hash()),
        })
    }

    /// The strategy as a trait object (queries, mutation logging).
    pub fn as_dyn(&mut self) -> &mut dyn JoinStrategy {
        match self {
            CachedStrategy::Mv(mv) => mv,
            CachedStrategy::Ji(ji) => ji,
            CachedStrategy::Hh(hh) => hh,
        }
    }

    /// Observe one mutation of `S` before it is applied: the view and the
    /// join index log it beside `R`'s; hybrid hash caches nothing.
    pub fn on_s_mutation(&mut self, m: &Mutation) -> Result<()> {
        match self {
            CachedStrategy::Mv(mv) => mv.on_s_mutation(m),
            CachedStrategy::Ji(ji) => ji.on_s_mutation(m),
            CachedStrategy::Hh(_) => Ok(()),
        }
    }

    /// Observe one mutation of `R` (`of_s` false) or of `S`.
    pub fn on_mutation_of(&mut self, of_s: bool, m: &Mutation) -> Result<()> {
        if of_s {
            self.on_s_mutation(m)
        } else {
            self.as_dyn().on_mutation(m)
        }
    }

    /// Incremental hand-off: build the `target` cache from join rows the
    /// incumbent already produced (a fresh query answer *is* the view
    /// contents with every pending differential folded in). The only I/O
    /// charged is writing the target structure — no base-relation rescan.
    pub fn from_rows(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        target: Method,
        rows: &[ViewTuple],
        r_tuple_bytes: usize,
        s_tuple_bytes: usize,
    ) -> Result<CachedStrategy> {
        Ok(match target {
            Method::MaterializedView => CachedStrategy::Mv(MaterializedView::build_from_tuples(
                disk,
                params,
                cost,
                rows,
                r_tuple_bytes,
                s_tuple_bytes,
            )?),
            Method::JoinIndex => {
                let entries = rows.iter().map(ViewTuple::ji_entry).collect();
                CachedStrategy::Ji(JoinIndexStrategy::build_from_entries(
                    disk,
                    params,
                    cost,
                    entries,
                    r_tuple_bytes,
                    s_tuple_bytes,
                )?)
            }
            Method::HybridHash => CachedStrategy::Hh(HybridHash::new(disk, params, cost)),
        })
    }

    /// Pages the cached structure occupies (0 for hybrid hash) — what a
    /// hand-off to this cache had to write, and what `migrate.rebuild_pages`
    /// accounts.
    pub fn cached_pages(&self) -> u64 {
        match self {
            CachedStrategy::Mv(mv) => mv.view_pages(),
            CachedStrategy::Ji(ji) => ji.index_pages(),
            CachedStrategy::Hh(_) => 0,
        }
    }

    /// The cached structure's backing file (fault-injection targeting);
    /// `None` for hybrid hash, which caches nothing.
    pub fn cached_file(&self) -> Option<FileId> {
        match self {
            CachedStrategy::Mv(mv) => Some(mv.view_file()),
            CachedStrategy::Ji(ji) => Some(ji.index_file()),
            CachedStrategy::Hh(_) => None,
        }
    }

    /// Pages of the pending differential log already spilled to disk (0
    /// for hybrid hash, which logs nothing).
    pub fn pending_log_pages(&self) -> u64 {
        match self {
            CachedStrategy::Mv(mv) => mv.pending_log_pages(),
            CachedStrategy::Ji(ji) => ji.pending_log_pages(),
            CachedStrategy::Hh(_) => 0,
        }
    }

    /// Release the cache's files (view/index plus differential logs).
    pub fn destroy(self) {
        match self {
            CachedStrategy::Mv(mv) => mv.destroy(),
            CachedStrategy::Ji(ji) => ji.destroy(),
            CachedStrategy::Hh(_) => {}
        }
    }
}

/// Rows staged per migration step. Small enough that several shard
/// commands (and thus several checkpoints, in the harness) pass while a
/// migration is in flight; large enough that migrations finish within a
/// regime of adversarial traffic.
const MIGRATION_CHUNK: usize = 96;

/// The migration state machine of one [`AdaptiveController`].
pub enum MigrationState {
    /// No migration in flight.
    Stable,
    /// Staging the target structure from the incumbent's rows, a bounded
    /// chunk per step.
    Building {
        /// Method being migrated to.
        target: Method,
        /// The incumbent's full answer at decision time (its structure
        /// plus every differential entry, folded by the decision query).
        rows: Vec<ViewTuple>,
        /// Rows staged so far.
        cursor: usize,
        /// Tuple widths of `R` and `S`, which size the target's pages.
        tuple_bytes: (usize, usize),
        /// Mutations (`true`: of `S`) that arrived while building; replayed.
        pending: Vec<(bool, Mutation)>,
    },
    /// Target built; catching it up from the pending differential log.
    Draining {
        /// The built target structure, not yet serving. Boxed: a cached
        /// strategy is an order of magnitude wider than the other
        /// variants, and `Stable` is the state every controller idles in.
        built: Box<CachedStrategy>,
        /// Mutations to replay into it before the swap (`true`: of `S`).
        pending: Vec<(bool, Mutation)>,
    },
}

impl MigrationState {
    /// Gauge encoding: 0 = stable, 1 = building, 2 = draining.
    pub fn gauge(&self) -> f64 {
        match self {
            MigrationState::Stable => 0.0,
            MigrationState::Building { .. } => 1.0,
            MigrationState::Draining { .. } => 2.0,
        }
    }
}

fn step_event(disk: &Disk, cost: &Cost, detail: String) {
    disk.events().emit(EventKind::MigrationStep, detail, cost.total());
}

/// The controller's counters, interned once at construction (`migrate.*`).
struct Counters {
    pending_logged: CounterId,
    steps: CounterId,
    count: CounterId,
    started: CounterId,
    rollbacks: CounterId,
    rebuild_pages: CounterId,
}

impl Counters {
    fn new(metrics: &Metrics) -> Counters {
        let id = |name| metrics.counter_handle(name);
        Counters {
            pending_logged: id("migrate.pending_logged"),
            steps: id("migrate.steps"),
            count: id("migrate.count"),
            started: id("migrate.started"),
            rollbacks: id("migrate.rollbacks"),
            rebuild_pages: id("migrate.rebuild_pages"),
        }
    }
}

/// The adaptive controller: the incumbent structure, the usage statistics
/// the policy prices (window counts), and the migration in flight (if
/// any).
pub struct AdaptiveController {
    disk: Disk,
    params: SystemParams,
    cost: Cost,
    current: CachedStrategy,
    migration: MigrationState,
    stats: WindowStats,
    /// Queries left before another migration may start.
    cooldown: u64,
    counters: Counters,
}

impl AdaptiveController {
    /// Start serving with `initial` (built and charged by the caller).
    pub fn new(disk: &Disk, params: &SystemParams, cost: &Cost, initial: CachedStrategy) -> Self {
        AdaptiveController {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            current: initial,
            migration: MigrationState::Stable,
            stats: WindowStats::default(),
            cooldown: 0,
            counters: Counters::new(disk.metrics()),
        }
    }

    /// Register the `migrate.*` counters at zero so an adaptive run that
    /// never migrates still reports them (the report validator requires
    /// their presence whenever `serve.adaptive` is set). Call after the
    /// owner's post-construction observability reset.
    pub fn register_metrics(&self) {
        let c = &self.counters;
        for id in [c.count, c.steps, c.rebuild_pages, c.rollbacks] {
            self.disk.metrics().counter_add_id(id, 0);
        }
    }

    /// The method currently serving queries.
    pub fn current_method(&self) -> Method {
        self.current.method()
    }

    /// The migration state (for gauges and tests).
    pub fn state(&self) -> &MigrationState {
        &self.migration
    }

    /// The incumbent as a strategy (query execution).
    pub fn strategy(&mut self) -> &mut dyn JoinStrategy {
        self.current.as_dyn()
    }

    /// The incumbent's cached file, if it has one (`PoisonCachedView`
    /// resolution).
    pub fn cached_file(&self) -> Option<FileId> {
        self.current.cached_file()
    }

    /// Observe one `R` mutation: log it into the incumbent (which keeps
    /// serving) and — when a migration is in flight — append it to the
    /// pending differential log so the target catches up before the swap;
    /// then, the mutation accepted, feed the statistics.
    pub fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.log(false, m)?;
        self.stats.observe(m);
        Ok(())
    }

    /// Observe one `S` mutation: log it into the incumbent and, with a
    /// migration in flight, into the pending differential log.
    pub fn on_s_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.log(true, m)
    }

    fn log(&mut self, of_s: bool, m: &Mutation) -> Result<()> {
        self.current.on_mutation_of(of_s, m)?;
        // Log into the migration's differential only after the incumbent
        // accepted the mutation: a rejected mutation is skipped by the
        // owner (never applied to the base relation), and replaying it
        // into the target would make the two structures disagree.
        match &mut self.migration {
            MigrationState::Stable => {}
            MigrationState::Building { pending, .. } | MigrationState::Draining { pending, .. } => {
                pending.push((of_s, m.clone()));
                self.disk.metrics().incr_id(self.counters.pending_logged);
            }
        }
        Ok(())
    }

    /// Advance an in-flight migration by one bounded step. A shard calls
    /// this once per command, so a migration spans several commands (and,
    /// in the harness, checkpoints land with migrations genuinely in
    /// flight). Any error rolls the migration back; the incumbent is
    /// untouched and keeps serving.
    pub fn advance(&mut self) {
        if matches!(self.migration, MigrationState::Stable) {
            return;
        }
        if let Err(e) = self.try_advance() {
            self.rollback(&format!("device fault: {e}"));
        }
    }

    fn try_advance(&mut self) -> Result<()> {
        match &mut self.migration {
            MigrationState::Stable => Ok(()),
            MigrationState::Building { target, rows, cursor, tuple_bytes, pending } => {
                let end = (*cursor + MIGRATION_CHUNK).min(rows.len());
                let staged = end - *cursor;
                {
                    // Staging is in-memory differential work: charge the
                    // tuple moves, not I/O.
                    let _g = self.cost.section("migrate.build");
                    self.cost.mov(staged as u64);
                }
                *cursor = end;
                let (target, total) = (*target, rows.len());
                self.disk.metrics().incr_id(self.counters.steps);
                let detail = format!("build chunk {staged} rows ({end}/{total} staged)");
                step_event(&self.disk, &self.cost, detail);
                if end < total {
                    return Ok(());
                }
                // Fully staged: write the target structure. The only I/O
                // of the whole migration is these writes — strictly fewer
                // pages than any base-relation rebuild would read.
                let built = {
                    let _g = self.cost.section("migrate.build");
                    let (rb, sb) = *tuple_bytes;
                    let (disk, params, cost) = (&self.disk, &self.params, &self.cost);
                    CachedStrategy::from_rows(disk, params, cost, target, rows, rb, sb)?
                };
                let pages = built.cached_pages();
                let pending = std::mem::take(pending);
                self.disk.metrics().counter_add_id(self.counters.rebuild_pages, pages);
                let detail = format!("built {target:?} ({pages} pages), draining");
                step_event(&self.disk, &self.cost, detail);
                self.migration = MigrationState::Draining { built: Box::new(built), pending };
                Ok(())
            }
            MigrationState::Draining { built, pending } => {
                {
                    let _g = self.cost.section("migrate.drain");
                    pending.iter().try_for_each(|(of_s, m)| built.on_mutation_of(*of_s, m))?;
                }
                let drained = pending.len();
                self.disk.metrics().incr_id(self.counters.steps);
                // Swap: the caught-up target takes over; the old structure
                // is destroyed. From here every mutation and query goes to
                // the new incumbent.
                let MigrationState::Draining { built, .. } =
                    std::mem::replace(&mut self.migration, MigrationState::Stable)
                else {
                    unreachable!("matched Draining above")
                };
                let (from, to) = (self.current.method(), built.method());
                std::mem::replace(&mut self.current, *built).destroy();
                self.cooldown = MIGRATION_COOLDOWN;
                self.disk.metrics().incr_id(self.counters.count);
                step_event(&self.disk, &self.cost, format!("drained {drained} pending, swapped"));
                self.disk.events().emit(
                    EventKind::StrategySwitch,
                    format!("{from:?} -> {to:?} (migration complete)"),
                    self.cost.total(),
                );
                Ok(())
            }
        }
    }

    /// Abort the migration: destroy any partial target, keep the
    /// incumbent, count the rollback.
    fn rollback(&mut self, why: &str) {
        let state = std::mem::replace(&mut self.migration, MigrationState::Stable);
        if let MigrationState::Draining { built, .. } = state {
            built.destroy();
        }
        self.disk.metrics().incr_id(self.counters.rollbacks);
        step_event(&self.disk, &self.cost, format!("rollback: {why}"));
    }

    /// Post-query bookkeeping and the migration decision. `rows` is the
    /// answer the incumbent just produced over `r` and `s` — when a
    /// migration starts, it is the staging source for the target. The
    /// relation sizes are [`StoredRelation::len_estimate`]s — a statistic
    /// does not settle a relation. Returns the workload the next cycle was
    /// priced at.
    pub fn after_query(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        rows: &[ViewTuple],
    ) -> Workload {
        let tuple_bytes = (r.tuple_bytes(), s.tuple_bytes());
        let w = self.stats.close(r.len_estimate(), s.len_estimate(), tuple_bytes, rows);
        if !matches!(self.migration, MigrationState::Stable) {
            return w;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return w;
        }
        let kind = self.current.method();
        let decision = decide(&self.params, &w, kind);
        if decision.migrate {
            let best = decision.best;
            let detail = format!(
                "start {kind:?} -> {best:?} (predicted {:.2}s vs {:.2}s, {} rows to stage)",
                decision.predicted(kind),
                decision.predicted(best),
                rows.len()
            );
            step_event(&self.disk, &self.cost, detail);
            self.disk.metrics().incr_id(self.counters.started);
            self.migration = MigrationState::Building {
                target: best,
                rows: rows.to_vec(),
                cursor: 0,
                tuple_bytes,
                pending: Vec::new(),
            };
        }
        w
    }

    /// Stamp the adaptive gauges into the engine's metrics (called on
    /// every shard report snapshot). The serving method is encoded as its
    /// index in [`Method::all`] (0 = MV, 1 = JI, 2 = HH); `trijoin top`
    /// renders it back to a name.
    pub fn stamp_gauges(&self) {
        let method = Method::all().iter().position(|m| *m == self.current.method());
        let metrics = self.disk.metrics();
        metrics.gauge_set("shard.strategy", method.unwrap_or(0) as f64);
        metrics.gauge_set("shard.migration_state", self.migration.gauge());
    }
}

/// The controller as a drop-in [`JoinStrategy`] for a single engine: every
/// `execute` answers through the incumbent, lets the controller decide,
/// and — no mutation can arrive inside `execute` — steps any migration to
/// completion (or rollback) before returning.
pub struct AdaptiveStrategy(AdaptiveController);

impl AdaptiveStrategy {
    /// Start with `initial` (built and charged by the caller via
    /// `Database`), typically the advisor's heuristic pick.
    pub fn new(disk: &Disk, params: &SystemParams, cost: &Cost, initial: CachedStrategy) -> Self {
        AdaptiveStrategy(AdaptiveController::new(disk, params, cost, initial))
    }

    /// The method currently in use.
    pub fn current_method(&self) -> Method {
        self.0.current_method()
    }
}

impl JoinStrategy for AdaptiveStrategy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.0.on_mutation(m)
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // Buffer the streamed rows: the controller reads the selectivities
        // off them, and they are the hand-off source if it migrates.
        let mut rows: Vec<ViewTuple> = Vec::new();
        let n = self.0.strategy().execute(r, s, &mut |v| {
            rows.push(v.clone());
            sink(v);
        })?;
        self.0.after_query(r, s, &rows);
        while !matches!(self.0.state(), MigrationState::Stable) {
            self.0.advance();
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{GeneratedWorkload, WorkloadSpec};
    use trijoin_common::BaseTuple;
    use trijoin_exec::{execute_collect, oracle, Update};

    fn spec(sr: f64, rate: f64, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            r_tuples: 1_500,
            s_tuples: 1_500,
            tuple_bytes: 96,
            sr,
            group_size: 4,
            pra: 0.1,
            update_rate: rate,
            seed,
        }
    }

    fn database(gen: &GeneratedWorkload) -> Database {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap()
    }

    fn switch_events(db: &Database) -> Vec<trijoin_common::Event> {
        let events = db.events().events().into_iter();
        events.filter(|e| e.kind == EventKind::StrategySwitch).collect()
    }

    /// Drive the controller exactly like a shard does: mutations arrive in
    /// batches of 64 with one migration step per batch, queries run the
    /// incumbent and feed the decision.
    struct Harness {
        db: Database,
        ctl: AdaptiveController,
        /// The workload the last query priced the next cycle at.
        priced: Option<Workload>,
    }

    impl Harness {
        fn new(spec: &WorkloadSpec) -> (Harness, GeneratedWorkload) {
            let gen = spec.generate();
            let db = database(&gen);
            let initial = CachedStrategy::build(&db, Method::MaterializedView).unwrap();
            let ctl = AdaptiveController::new(db.disk(), db.params(), db.cost(), initial);
            db.reset_observability();
            (Harness { db, ctl, priced: None }, gen)
        }

        fn apply_batch(&mut self, batch: &[Mutation]) {
            for m in batch {
                self.ctl.on_mutation(m).unwrap();
                self.db.apply_r_mutation(m).unwrap();
            }
            self.ctl.advance();
        }

        fn query(&mut self) -> Vec<ViewTuple> {
            let mut rows = self.db.query(self.ctl.strategy()).unwrap();
            rows.sort_by_key(|t| (t.r_sur, t.s_sur));
            self.priced = Some(self.ctl.after_query(self.db.r(), self.db.s(), &rows));
            self.ctl.advance();
            rows
        }

        /// The `R` size the last query priced at.
        fn priced_r(&self) -> u64 {
            self.priced.as_ref().expect("a query ran").r_tuples as u64
        }
    }

    #[test]
    fn statistics_price_without_settling_r() {
        // Light update-only traffic keeps the view, whose queries leave
        // `R`'s log alone: nothing settles `R` until its log is full.
        let s = spec(0.01, 0.02, 406);
        let (mut h, gen) = Harness::new(&s);
        let mut stream = gen.update_stream();
        let settles = |h: &Harness| h.db.metrics().counter("base.settles");
        let mut queries = 0;
        'fill: loop {
            for _ in 0..gen.updates_per_epoch() {
                if h.db.r().settle_due() {
                    break 'fill;
                }
                h.apply_batch(&[Mutation::Update(stream.next_update())]);
            }
            let got = h.query();
            oracle::assert_same_join("light", got, oracle::join_tuples(stream.current(), &gen.s));
            queries += 1;
            assert_eq!(settles(&h), 0, "query {queries} settled a relation");
            assert_eq!(h.priced_r(), u64::from(s.r_tuples), "update-only traffic prices exactly");
        }
        assert_eq!(h.ctl.current_method(), Method::MaterializedView);
        assert!(queries > 10 && h.db.r().pending_ops() > 0, "{queries} queries");
        // The full log settles when it takes the next mutation.
        h.apply_batch(&[Mutation::Update(stream.next_update())]);
        assert_eq!(settles(&h), 1);
    }

    #[test]
    fn priced_size_is_the_settled_size_under_inserts_and_deletes() {
        let s = spec(0.01, 0.02, 407);
        let (mut h, gen) = Harness::new(&s);
        let mut live: Vec<trijoin_common::BaseTuple> = gen.r.clone();
        for round in 0..6u32 {
            // Five inserts of fresh surrogates, then three deletes.
            let mut batch: Vec<Mutation> = (0..5)
                .map(|i| {
                    let sur = trijoin_common::Surrogate(1_000_000 + round * 5 + i);
                    let t = trijoin_common::BaseTuple::padded(sur, u64::from(i), s.tuple_bytes);
                    live.push(t.clone());
                    Mutation::Insert(t)
                })
                .collect();
            batch.extend((0..3).map(|_| Mutation::Delete(live.swap_remove(round as usize * 7))));
            h.apply_batch(&batch);
            h.query();
            assert!(h.db.r().pending_ops() > 0, "the query left R unsettled");
            let priced = h.priced_r();
            assert_eq!(priced, h.db.r().len(), "round {round}: len() settles, and agrees");
            assert_eq!(priced, live.len() as u64);
        }
    }

    #[test]
    fn migrates_incrementally_and_every_answer_matches_the_oracle() {
        // Start on the materialized view under a heavy update stream: the
        // cost model must move the controller off it, and the hand-off
        // must be invisible in the answers.
        let s = spec(0.01, 0.3, 403);
        let (mut h, gen) = Harness::new(&s);
        let mut stream = gen.update_stream();
        for epoch in 0..6 {
            let batch: Vec<Mutation> = (0..gen.updates_per_epoch())
                .map(|_| Mutation::Update(stream.next_update()))
                .collect();
            for chunk in batch.chunks(64) {
                h.apply_batch(chunk);
            }
            let got = h.query();
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(&format!("epoch {epoch}"), got, want);
        }
        assert_ne!(h.ctl.current_method(), Method::MaterializedView);
        let m = h.db.metrics();
        assert!(m.counter("migrate.count") >= 1, "no migration under an update storm");
        assert!(
            m.counter("migrate.steps") > m.counter("migrate.count"),
            "migration was not stepped"
        );
        assert!(h.db.events().count_of(EventKind::MigrationStep) > 0);
        assert!(!switch_events(&h.db).is_empty());
    }

    #[test]
    fn migration_is_cheaper_than_a_base_relation_rebuild() {
        let s = spec(0.01, 0.3, 404);
        let (mut h, gen) = Harness::new(&s);
        let mut stream = gen.update_stream();
        for _ in 0..6 {
            let batch: Vec<Mutation> = (0..gen.updates_per_epoch())
                .map(|_| Mutation::Update(stream.next_update()))
                .collect();
            for chunk in batch.chunks(64) {
                h.apply_batch(chunk);
            }
            h.query();
        }
        assert!(h.db.metrics().counter("migrate.count") >= 1);
        // The incremental contract, pinned two ways. The pages written for
        // the target structure are fewer than one pass over the base
        // relations; and the I/O charged to the build sections stays under
        // a base rescan too (staging is in-memory, the only I/O is writing
        // the target).
        let full_rebuild = h.db.r().data_pages() + h.db.s().data_pages();
        let rebuilt = h.db.metrics().counter("migrate.rebuild_pages");
        assert!(rebuilt > 0, "a cached structure was built");
        assert!(rebuilt < full_rebuild, "{rebuilt} pages vs {full_rebuild} for a full rebuild");
        let build_ios = h.db.cost().section_counts("migrate.build").ios;
        assert!(build_ios < full_rebuild, "{build_ios} I/Os vs {full_rebuild} page reads");
    }

    #[test]
    fn s_mutation_drains_into_the_inflight_migration() {
        let s = spec(0.01, 0.3, 405);
        let (mut h, gen) = Harness::new(&s);
        let mut stream = gen.update_stream();
        // Walk to the first migration start without letting it finish:
        // apply whole epochs but advance only via the query step.
        'outer: for _ in 0..6 {
            for _ in 0..gen.updates_per_epoch() {
                let m = Mutation::Update(stream.next_update());
                h.ctl.on_mutation(&m).unwrap();
                h.db.apply_r_mutation(&m).unwrap();
            }
            h.query();
            if !matches!(h.ctl.state(), MigrationState::Stable) {
                break 'outer;
            }
        }
        assert!(
            !matches!(h.ctl.state(), MigrationState::Stable),
            "workload never triggered a migration"
        );
        let before = h.ctl.current_method();
        // `S` changes under the migration: one tuple moves onto a key `R`
        // holds, another goes.
        let mut s_now = gen.s.clone();
        let moved = BaseTuple::padded(s_now[0].sur, stream.current()[0].key, s.tuple_bytes);
        let mutations = [
            Mutation::Update(Update { old: s_now[0].clone(), new: moved.clone() }),
            Mutation::Delete(s_now.remove(1)),
        ];
        s_now[0] = moved;
        for m in &mutations {
            h.ctl.on_s_mutation(m).unwrap();
            h.db.apply_s_mutation(m).unwrap();
        }
        while !matches!(h.ctl.state(), MigrationState::Stable) {
            h.ctl.advance();
        }
        assert_ne!(h.ctl.current_method(), before, "the swap happened");
        assert_eq!(h.db.metrics().counter("migrate.rollbacks"), 0);
        assert_eq!(h.db.metrics().counter("migrate.count"), 1);
        oracle::assert_same_join(
            "after the swap",
            h.query(),
            oracle::join_tuples(stream.current(), &s_now),
        );
    }

    /// Run `epochs` update-then-query epochs through the single-engine
    /// adapter, every answer checked against the oracle.
    fn run_adapter(
        spec: &WorkloadSpec,
        initial: Method,
        epochs: usize,
    ) -> (Database, AdaptiveStrategy) {
        let gen = spec.generate();
        let mut db = database(&gen);
        let initial = CachedStrategy::build(&db, initial).unwrap();
        let mut adaptive = AdaptiveStrategy::new(db.disk(), db.params(), db.cost(), initial);
        let mut stream = gen.update_stream();
        db.reset_observability();
        for epoch in 0..epochs {
            for _ in 0..gen.updates_per_epoch() {
                let u = stream.next_update();
                adaptive.on_update(&u).unwrap();
                db.r_mut().apply_update(&u.old, &u.new).unwrap();
            }
            let got = execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(&format!("epoch {epoch}"), got, want);
        }
        (db, adaptive)
    }

    #[test]
    fn adapter_moves_off_a_bad_initial_choice_by_hand_off() {
        // Tiny join, light updates: hash join is a terrible starting pick;
        // the adapter must move off it after the first epoch — inside
        // `execute`, which leaves no migration in flight behind it.
        let (db, adaptive) = run_adapter(&spec(0.005, 0.02, 401), Method::HybridHash, 3);
        assert_ne!(adaptive.current_method(), Method::HybridHash);
        assert!(matches!(adaptive.0.state(), MigrationState::Stable));
        let switches = switch_events(&db);
        assert!(switches[0].detail.starts_with("HybridHash -> "), "{}", switches[0].detail);
        // A hand-off, not a rebuild: the target is written from the
        // incumbent's rows, so the build section charges its own writes
        // and nothing like a base-relation scan.
        let build_ios = db.cost().section_counts("migrate.build").ios;
        let base_pages = db.r().data_pages() + db.s().data_pages();
        assert!(build_ios > 0, "the hand-off still charges the target's writes");
        assert!(build_ios < base_pages, "{build_ios} I/Os, a base rescan needs ≥ {base_pages}");
    }

    #[test]
    fn adapter_stays_put_when_the_choice_is_right() {
        // Low SR, busy: join index country.
        let (db, adaptive) = run_adapter(&spec(0.002, 0.2, 402), Method::JoinIndex, 3);
        assert_eq!(adaptive.current_method(), Method::JoinIndex);
        assert_eq!(db.metrics().counter("migrate.started"), 0);
        assert!(switch_events(&db).is_empty());
    }

    /// `StrategySwitch` events are stamped with the cost ledger's total
    /// primitive-op count, not the query ordinal, so switch points are
    /// comparable across runs with different query cadence: far above the
    /// handful of queries run, strictly increasing, and — the workload
    /// being deterministic — identical from run to run.
    #[test]
    fn strategy_switch_events_carry_reproducible_ledger_ticks() {
        let queries = 3;
        let run = || {
            let (db, _) = run_adapter(&spec(0.005, 0.02, 401), Method::HybridHash, queries);
            switch_events(&db).iter().map(|e| e.at.ticks()).collect::<Vec<u64>>()
        };
        let ticks = run();
        assert!(!ticks.is_empty(), "seed 401 must switch off hybrid hash");
        for tick in &ticks {
            assert!(*tick > queries as u64, "tick {tick} looks like a query ordinal");
        }
        assert!(ticks.windows(2).all(|w| w[0] < w[1]), "ticks are monotone: {ticks:?}");
        assert_eq!(ticks, run());
    }
}
