//! Per-shard online strategy selection with incremental migration.
//!
//! Each adaptive shard tracks its observed update/query mix, the measured
//! `Pr_A` fraction, and key skew (a top-k frequency sketch, decayed on the
//! shard engine's telemetry windows) and re-prices MV/JI/HH with the §3
//! cost model after every query. When the predicted winner beats the
//! incumbent by the hysteresis margin, the shard *migrates* instead of
//! rebuilding: the new cached structure is staged from the rows the
//! incumbent just produced (the old structure's contents with every
//! pending differential folded in — never a base-relation rescan), built
//! in bounded steps that advance one per shard command, and caught up
//! from the differential log of mutations that arrived while it was
//! building. Queries are served by the old structure until the hand-off
//! completes.
//!
//! The state machine per shard:
//!
//! ```text
//! Stable ──(cost crossover at a query)──▶ Building ──(staged + built)──▶
//! Draining ──(pending log replayed, swap)──▶ Stable
//! ```
//!
//! Any device fault while building or draining rolls back: the partial
//! target is destroyed, the incumbent (never touched by the migration)
//! keeps serving, and `migrate.rollbacks` counts the abort. A mutation of
//! `S` aborts the same way — it invalidates both cached structures, so
//! the ordinary `S`-rebuild path supersedes the migration.

use trijoin::{CachedStrategy, Database, Method};
use trijoin_common::{EventKind, JiEntry, Result, TopKSketch, ViewTuple};
use trijoin_exec::{HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView, Mutation};
use trijoin_model::{all_costs, Workload};

/// Rows staged per migration step. Small enough that several shard
/// commands (and thus several checkpoints, in the harness) pass while a
/// migration is in flight; large enough that migrations finish within a
/// regime of adversarial traffic.
const MIGRATION_CHUNK: usize = 96;

/// Queries a shard must serve after a completed migration before it may
/// start another — the flap guard on top of the hysteresis margin.
const MIGRATION_COOLDOWN: u64 = 2;

/// Hot keys tracked per shard (the space-saving sketch's capacity).
const SKEW_CAPACITY: usize = 16;

/// The migration state machine of one adaptive shard.
pub enum MigrationState {
    /// No migration in flight.
    Stable,
    /// Staging the target structure from the incumbent's rows, a bounded
    /// chunk per shard command.
    Building {
        /// Method being migrated to.
        target: Method,
        /// The incumbent's full answer at decision time (its structure
        /// plus every differential entry, folded by the decision query).
        rows: Vec<ViewTuple>,
        /// Rows staged so far.
        cursor: usize,
        /// Staged join-index entries (target = JI).
        entries: Vec<JiEntry>,
        /// Mutations that arrived while building; replayed in Draining.
        pending: Vec<Mutation>,
    },
    /// Target built; catching it up from the pending differential log.
    Draining {
        /// The built target structure, not yet serving. Boxed: a cached
        /// strategy is an order of magnitude wider than the other
        /// variants, and `Stable` is the state every shard idles in.
        built: Box<CachedStrategy>,
        /// Mutations to replay into it before the swap.
        pending: Vec<Mutation>,
    },
}

impl MigrationState {
    /// Short wire name for events and gauges.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationState::Stable => "stable",
            MigrationState::Building { .. } => "building",
            MigrationState::Draining { .. } => "draining",
        }
    }

    /// Gauge encoding: 0 = stable, 1 = building, 2 = draining.
    pub fn gauge(&self) -> f64 {
        match self {
            MigrationState::Stable => 0.0,
            MigrationState::Building { .. } => 1.0,
            MigrationState::Draining { .. } => 2.0,
        }
    }
}

/// Gauge encoding of the serving method: the index in [`Method::all`]
/// (0 = MV, 1 = JI, 2 = HH). `trijoin top` renders it back to a name.
pub fn method_gauge(method: Method) -> f64 {
    Method::all().iter().position(|m| *m == method).unwrap_or(0) as f64
}

/// The adaptive controller of one shard: the incumbent structure, the
/// rolling workload statistics, and the migration in flight (if any).
pub struct AdaptiveShard {
    current: CachedStrategy,
    /// `S` has been mutated since the incumbent was (re)built; it is
    /// rebuilt lazily before the next query it answers.
    s_dirty: bool,
    migration: MigrationState,
    /// Predicted-cost advantage required before migrating (1.3 = 30%).
    hysteresis: f64,
    /// Queries left before another migration may start.
    cooldown: u64,
    // Observed since the last query:
    mutations: u64,
    a_changes: u64,
    // Rolling estimates:
    pra_estimate: f64,
    sketch: TopKSketch,
    /// Telemetry windows seen at the last decay (engine-tick domain).
    seen_windows: u64,
    queries: u64,
    migrations: u64,
}

impl AdaptiveShard {
    /// Start serving with `initial`.
    pub fn new(initial: CachedStrategy) -> AdaptiveShard {
        AdaptiveShard {
            current: initial,
            s_dirty: false,
            migration: MigrationState::Stable,
            hysteresis: 1.3,
            cooldown: 0,
            mutations: 0,
            a_changes: 0,
            pra_estimate: 0.5,
            sketch: TopKSketch::new(SKEW_CAPACITY),
            seen_windows: 0,
            queries: 0,
            migrations: 0,
        }
    }

    /// Register the `migrate.*` counters at zero so an adaptive run that
    /// never migrates still reports them (the report validator requires
    /// their presence whenever `serve.adaptive` is set). Called after the
    /// shard's post-construction observability reset.
    pub fn register_metrics(&self, db: &Database) {
        let metrics = db.metrics();
        for name in ["migrate.count", "migrate.steps", "migrate.rebuild_pages", "migrate.rollbacks"]
        {
            metrics.counter_add(name, 0);
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

    /// Completed migrations.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The incumbent as a strategy (query execution).
    pub fn strategy(&mut self) -> &mut dyn JoinStrategy {
        self.current.as_dyn()
    }

    /// The incumbent's cached file, if it has one (`PoisonCachedView`
    /// resolution).
    pub fn cached_file(&self) -> Option<trijoin_storage::FileId> {
        self.current.cached_file()
    }

    /// Observe one `R` mutation: feed the rolling statistics, log it into
    /// the incumbent (which keeps serving), and — when a migration is in
    /// flight — append it to the pending differential log so the target
    /// catches up before the swap.
    pub fn on_mutation(&mut self, db: &Database, m: &Mutation) -> Result<()> {
        self.mutations += 1;
        if m.affects_join_index() {
            self.a_changes += 1;
        }
        match m {
            Mutation::Insert(t) | Mutation::Delete(t) => self.sketch.observe(t.key),
            Mutation::Update(u) => {
                self.sketch.observe(u.old.key);
                if u.new.key != u.old.key {
                    self.sketch.observe(u.new.key);
                }
            }
        }
        self.current.as_dyn().on_mutation(m)?;
        // Log into the migration's differential only after the incumbent
        // accepted the mutation: a rejected mutation is skipped by the
        // shard (never applied to the base relation), and replaying it
        // into the target would make the two structures disagree.
        match &mut self.migration {
            MigrationState::Stable => {}
            MigrationState::Building { pending, .. } | MigrationState::Draining { pending, .. } => {
                pending.push(m.clone());
                db.metrics().incr("migrate.pending_logged");
            }
        }
        Ok(())
    }

    /// A mutation of `S` invalidates every cached structure: mark the
    /// incumbent stale and abort any migration (the rebuild before the
    /// next query supersedes it).
    pub fn on_s_mutation(&mut self, db: &Database) {
        self.s_dirty = true;
        if !matches!(self.migration, MigrationState::Stable) {
            self.rollback(db, "S mutated during migration");
        }
    }

    /// Before a query: rebuild an incumbent that `S` mutations left stale
    /// from the current stored relations (all applied `R` mutations are
    /// already reflected there, so any not-yet-folded differential entries
    /// in the old cache are subsumed by the rebuild). A hybrid-hash
    /// incumbent caches nothing, so nothing is stale; should the shard
    /// later migrate, the target is staged from a fresh answer.
    pub fn rebuild_if_stale(&mut self, db: &Database) -> Result<()> {
        if self.s_dirty && self.current_method() != Method::HybridHash {
            let next = {
                let _section = db.cost().section("shard.s_rebuild");
                CachedStrategy::build(db, self.current_method())?
            };
            self.replace_current(next);
            db.audit_rebaseline(self.current_method());
            db.metrics().incr("shard.s_rebuilds");
        }
        self.s_dirty = false;
        Ok(())
    }

    /// Replace the incumbent (a finished migration, an `S`-driven rebuild).
    fn replace_current(&mut self, next: CachedStrategy) {
        let old = std::mem::replace(&mut self.current, next);
        old.destroy();
    }

    /// Advance an in-flight migration by one bounded step. Called once
    /// per shard command, so a migration spans several commands (and, in
    /// the harness, checkpoints land with migrations genuinely in
    /// flight). Any error rolls the migration back; the incumbent is
    /// untouched and keeps serving.
    pub fn advance(&mut self, db: &Database) {
        if matches!(self.migration, MigrationState::Stable) {
            return;
        }
        if let Err(e) = self.try_advance(db) {
            self.rollback(db, &format!("device fault: {e}"));
        }
    }

    fn try_advance(&mut self, db: &Database) -> Result<()> {
        let metrics = db.metrics();
        match &mut self.migration {
            MigrationState::Stable => Ok(()),
            MigrationState::Building { target, rows, cursor, entries, pending } => {
                let end = (*cursor + MIGRATION_CHUNK).min(rows.len());
                let staged = end - *cursor;
                {
                    // Staging is in-memory differential work: charge the
                    // tuple moves, not I/O.
                    let _g = db.cost().section("migrate.build");
                    db.cost().mov(staged as u64);
                    if *target == Method::JoinIndex {
                        entries.extend(rows[*cursor..end].iter().map(ViewTuple::ji_entry));
                    }
                }
                *cursor = end;
                metrics.incr("migrate.steps");
                db.disk().events().emit(
                    EventKind::MigrationStep,
                    format!("build chunk {staged} rows ({end}/{} staged)", rows.len()),
                    db.cost().total(),
                );
                if *cursor < rows.len() {
                    return Ok(());
                }
                // Fully staged: write the target structure. The only I/O
                // of the whole migration is these writes — strictly fewer
                // pages than any base-relation rebuild would read.
                let built = {
                    let _g = db.cost().section("migrate.build");
                    let (rb, sb) = (db.r().tuple_bytes(), db.s().tuple_bytes());
                    match *target {
                        Method::MaterializedView => {
                            CachedStrategy::Mv(MaterializedView::build_from_tuples(
                                db.disk(),
                                db.params(),
                                db.cost(),
                                rows,
                                rb,
                                sb,
                            )?)
                        }
                        Method::JoinIndex => {
                            CachedStrategy::Ji(JoinIndexStrategy::build_from_entries(
                                db.disk(),
                                db.params(),
                                db.cost(),
                                std::mem::take(entries),
                                rb,
                                sb,
                            )?)
                        }
                        Method::HybridHash => {
                            CachedStrategy::Hh(HybridHash::new(db.disk(), db.params(), db.cost()))
                        }
                    }
                };
                metrics.counter_add("migrate.rebuild_pages", built.cached_pages());
                db.disk().events().emit(
                    EventKind::MigrationStep,
                    format!("built {:?} ({} pages), draining", target, built.cached_pages()),
                    db.cost().total(),
                );
                self.migration = MigrationState::Draining {
                    built: Box::new(built),
                    pending: std::mem::take(pending),
                };
                Ok(())
            }
            MigrationState::Draining { built, pending } => {
                let drained = pending.len();
                {
                    let _g = db.cost().section("migrate.drain");
                    for m in pending.iter() {
                        built.as_dyn().on_mutation(m)?;
                    }
                }
                pending.clear();
                metrics.incr("migrate.steps");
                // Swap: the caught-up target takes over; the old structure
                // is destroyed. From here every mutation and query goes to
                // the new incumbent.
                let built = std::mem::replace(
                    &mut **built,
                    CachedStrategy::Hh(HybridHash::new(db.disk(), db.params(), db.cost())),
                );
                let from = self.current.method();
                let to = built.method();
                self.replace_current(built);
                self.migration = MigrationState::Stable;
                self.migrations += 1;
                self.cooldown = MIGRATION_COOLDOWN;
                metrics.incr("migrate.count");
                db.disk().events().emit(
                    EventKind::MigrationStep,
                    format!("drained {drained} pending, swapped"),
                    db.cost().total(),
                );
                db.disk().events().emit(
                    EventKind::StrategySwitch,
                    format!("{from:?} -> {to:?} (migration complete)"),
                    db.cost().total(),
                );
                Ok(())
            }
        }
    }

    /// Abort the migration: destroy any partial target, keep the
    /// incumbent, count the rollback.
    fn rollback(&mut self, db: &Database, why: &str) {
        let state = std::mem::replace(&mut self.migration, MigrationState::Stable);
        if let MigrationState::Draining { built, .. } = state {
            (*built).destroy();
        }
        db.metrics().incr("migrate.rollbacks");
        db.disk().events().emit(
            EventKind::MigrationStep,
            format!("rollback: {why}"),
            db.cost().total(),
        );
    }

    /// Post-query bookkeeping and the migration decision. `rows` is the
    /// answer the incumbent just produced — when a migration starts, it
    /// is the staging source for the target structure.
    pub fn after_query(&mut self, db: &Database, rows: &[ViewTuple]) {
        self.queries += 1;
        self.decay_on_window(db);
        if self.mutations > 0 {
            let observed = self.a_changes as f64 / self.mutations as f64;
            self.pra_estimate = 0.5 * self.pra_estimate + 0.5 * observed;
        }
        let updates = self.mutations;
        self.mutations = 0;
        self.a_changes = 0;
        if !matches!(self.migration, MigrationState::Stable) {
            return;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        let w = self.estimate(db, rows, updates);
        let costs = all_costs(db.params(), &w);
        let kind = self.current.method();
        let current_pred =
            costs.iter().find(|c| c.method == kind).map(|c| c.total()).unwrap_or(f64::INFINITY);
        let Some((best, best_pred)) =
            costs.iter().map(|c| (c.method, c.total())).min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            return;
        };
        if best != kind && current_pred > self.hysteresis * best_pred {
            db.disk().events().emit(
                EventKind::MigrationStep,
                format!(
                    "start {kind:?} -> {best:?} (predicted {current_pred:.2}s vs {best_pred:.2}s, \
                     {} rows to stage)",
                    rows.len()
                ),
                db.cost().total(),
            );
            db.metrics().incr("migrate.started");
            self.migration = MigrationState::Building {
                target: best,
                rows: rows.to_vec(),
                cursor: 0,
                entries: Vec::new(),
                pending: Vec::new(),
            };
        }
    }

    /// Workload estimate from the rows just observed (exact semijoin
    /// selectivities off the stream, like the core adaptive wrapper).
    fn estimate(&self, db: &Database, rows: &[ViewTuple], updates: u64) -> Workload {
        let mut distinct_r: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut distinct_s: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for v in rows {
            distinct_r.insert(v.r_sur.0);
            distinct_s.insert(v.s_sur.0);
        }
        let nr = (db.r().len() as f64).max(1.0);
        let ns = (db.s().len() as f64).max(1.0);
        Workload {
            r_tuples: nr,
            s_tuples: ns,
            tr: db.r().tuple_bytes() as f64,
            ts: db.s().tuple_bytes() as f64,
            sr: distinct_r.len() as f64 / nr,
            ss: distinct_s.len() as f64 / ns,
            js: rows.len() as f64 / (nr * ns),
            pra: self.pra_estimate,
            updates: updates as f64,
        }
    }

    /// Rolling-window decay, keyed to the shard engine's telemetry ticks:
    /// every time the engine closes a new telemetry window, the skew
    /// sketch halves, so hot keys of a past regime fade instead of
    /// pinning the statistics forever. Falls back to a query-count window
    /// when telemetry is off.
    fn decay_on_window(&mut self, db: &Database) {
        let windows = match db.telemetry_series() {
            Some(series) => series.dropped + series.windows.len() as u64,
            None => self.queries / 8,
        };
        if windows > self.seen_windows {
            self.seen_windows = windows;
            self.sketch.decay();
        }
    }

    /// Stamp the adaptive gauges into the shard's metrics (called on
    /// every report snapshot).
    pub fn stamp_gauges(&self, db: &Database) {
        let metrics = db.metrics();
        metrics.gauge_set("shard.strategy", method_gauge(self.current.method()));
        metrics.gauge_set("shard.migration_state", self.migration.gauge());
        metrics.gauge_set("shard.skew.top_mass", self.sketch.top_mass(4));
        metrics.gauge_set("shard.skew.observed", self.sketch.observed() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin::{SystemParams, WorkloadSpec};
    use trijoin_exec::oracle;

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

    /// Drive the controller exactly like a shard does: mutations arrive in
    /// batches of 64 with one migration step per batch, queries run the
    /// incumbent and feed the decision.
    struct Harness {
        db: Database,
        shard: AdaptiveShard,
    }

    impl Harness {
        fn new(spec: &WorkloadSpec) -> (Harness, trijoin::GeneratedWorkload) {
            let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
            let gen = spec.generate();
            let db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
            let shard = AdaptiveShard::new(CachedStrategy::Mv(db.materialized_view().unwrap()));
            db.reset_observability();
            shard.register_metrics(&db);
            (Harness { db, shard }, gen)
        }

        fn apply_batch(&mut self, batch: &[Mutation]) {
            for m in batch {
                self.shard.on_mutation(&self.db, m).unwrap();
                self.db.apply_r_mutation(m).unwrap();
            }
            self.shard.advance(&self.db);
        }

        fn query(&mut self) -> Vec<ViewTuple> {
            let mut rows = self.db.query(self.shard.strategy()).unwrap();
            rows.sort_by_key(|t| (t.r_sur, t.s_sur));
            self.shard.after_query(&self.db, &rows);
            self.shard.advance(&self.db);
            rows
        }
    }

    #[test]
    fn migrates_incrementally_and_every_answer_matches_the_oracle() {
        // Start on the materialized view under a heavy update stream: the
        // cost model must move the shard off it, and the hand-off must be
        // invisible in the answers.
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
        assert!(h.shard.migrations() >= 1, "no migration under an update storm");
        assert_ne!(h.shard.current_method(), Method::MaterializedView);
        let m = h.db.metrics();
        assert!(m.counter("migrate.count") >= 1);
        assert!(
            m.counter("migrate.steps") > m.counter("migrate.count"),
            "migration was not stepped"
        );
        assert!(h.db.disk().events().count_of(EventKind::MigrationStep) > 0);
        assert!(h.db.disk().events().count_of(EventKind::StrategySwitch) >= 1);
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
        assert!(h.shard.migrations() >= 1);
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
    fn s_mutation_aborts_the_inflight_migration() {
        let s = spec(0.01, 0.3, 405);
        let (mut h, gen) = Harness::new(&s);
        let mut stream = gen.update_stream();
        // Walk to the first migration start without letting it finish:
        // apply whole epochs but advance only via the query step.
        let mut started = false;
        'outer: for _ in 0..6 {
            for _ in 0..gen.updates_per_epoch() {
                let m = Mutation::Update(stream.next_update());
                h.shard.on_mutation(&h.db, &m).unwrap();
                h.db.apply_r_mutation(&m).unwrap();
            }
            h.query();
            if !matches!(h.shard.state(), MigrationState::Stable) {
                started = true;
                break 'outer;
            }
        }
        assert!(started, "workload never triggered a migration");
        let before = h.shard.current_method();
        h.shard.on_s_mutation(&h.db);
        assert!(matches!(h.shard.state(), MigrationState::Stable), "migration not aborted");
        assert_eq!(h.shard.current_method(), before, "incumbent must survive the abort");
        assert_eq!(h.db.metrics().counter("migrate.rollbacks"), 1);
        assert_eq!(h.db.metrics().counter("migrate.count"), 0);
    }
}
