//! Self-adapting strategy selection — the paper's closing vision:
//! "a system which used the designer's estimates to initially select among
//! algorithms ... but also maintained usage statistics so that the system
//! could automatically adapt to the appropriate structures and algorithms
//! after a suitable period of time."
//!
//! [`AdaptiveStrategy`] wraps one concrete strategy and, at the end of
//! every query, re-estimates the workload from what it just observed —
//! mutation counts, the measured `Pr_A` fraction, and the *exact* semijoin
//! selectivities read off the result stream — prices all three methods
//! with the §3 cost model, and switches when another method is predicted
//! to win by more than a hysteresis factor. The switch is *incremental*:
//! the target cache is built from the rows the incumbent just produced
//! (see [`CachedStrategy::from_rows`]), never from a base-relation rescan.

use std::collections::HashSet;

use trijoin_common::{Cost, EventKind, Result, Surrogate, SystemParams, ViewTuple};
use trijoin_exec::{
    HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView, Mutation, StoredRelation,
};
use trijoin_model::{all_costs, Method, Workload};
use trijoin_storage::{Disk, FileId};

use crate::db::Database;

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

/// A strategy that re-selects itself from observed statistics.
pub struct AdaptiveStrategy {
    disk: Disk,
    params: SystemParams,
    cost: Cost,
    current: CachedStrategy,
    /// Predicted-cost advantage another method must show before a switch
    /// (e.g. 1.3 = 30% better). Guards against boundary flapping.
    pub hysteresis: f64,
    // Observed since the last query:
    mutations: u64,
    a_changes: u64,
    // Rolling estimates:
    pra_estimate: f64,
    epoch: u64,
    switch_log: Vec<(u64, Method, Method)>,
}

impl AdaptiveStrategy {
    /// Start with `initial` (built and charged by the caller via
    /// `Database`), typically the advisor's heuristic pick.
    pub fn new(disk: &Disk, params: &SystemParams, cost: &Cost, initial: CachedStrategy) -> Self {
        AdaptiveStrategy {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            current: initial,
            hysteresis: 1.3,
            mutations: 0,
            a_changes: 0,
            pra_estimate: 0.5,
            epoch: 0,
            switch_log: Vec::new(),
        }
    }

    /// The method currently in use.
    pub fn current_method(&self) -> Method {
        self.current.method()
    }

    /// Every switch performed: `(ledger_tick, from, to)`. The tick is the
    /// cost ledger's total primitive-op count at the moment of the switch
    /// (see `OpCounts::ticks`) — *not* the query ordinal, so switch points
    /// line up with event timestamps and are comparable across runs with
    /// different query cadence.
    pub fn switch_log(&self) -> &[(u64, Method, Method)] {
        &self.switch_log
    }

    /// Workload estimate from the epoch just observed.
    fn estimate(
        &self,
        r: &StoredRelation,
        s: &StoredRelation,
        result_tuples: u64,
        distinct_r: u64,
        distinct_s: u64,
    ) -> Workload {
        let nr = (r.len() as f64).max(1.0);
        let ns = (s.len() as f64).max(1.0);
        Workload {
            r_tuples: nr,
            s_tuples: ns,
            tr: r.tuple_bytes() as f64,
            ts: s.tuple_bytes() as f64,
            sr: distinct_r as f64 / nr,
            ss: distinct_s as f64 / ns,
            js: result_tuples as f64 / (nr * ns),
            pra: self.pra_estimate,
            updates: self.mutations as f64,
        }
    }
}

impl JoinStrategy for AdaptiveStrategy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.mutations += 1;
        if m.affects_join_index() {
            self.a_changes += 1;
        }
        self.current.as_dyn().on_mutation(m)
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // Answer the query, measuring exact selectivities off the stream
        // and buffering the rows: if this epoch triggers a switch, they are
        // the hand-off source for the new cache (no base-relation rescan).
        let mut distinct_r: HashSet<Surrogate> = HashSet::new();
        let mut distinct_s: HashSet<Surrogate> = HashSet::new();
        let mut rows: Vec<ViewTuple> = Vec::new();
        let n = self.current.as_dyn().execute(r, s, &mut |v| {
            distinct_r.insert(v.r_sur);
            distinct_s.insert(v.s_sur);
            rows.push(v.clone());
            sink(v);
        })?;
        self.epoch += 1;

        // Fold the observed Pr_A into the rolling estimate.
        if self.mutations > 0 {
            let observed = self.a_changes as f64 / self.mutations as f64;
            self.pra_estimate = 0.5 * self.pra_estimate + 0.5 * observed;
        }
        let w = self.estimate(r, s, n, distinct_r.len() as u64, distinct_s.len() as u64);
        self.mutations = 0;
        self.a_changes = 0;

        // Re-select. A switch builds the winner from the rows just
        // streamed — the incumbent's answer with all pending differential
        // folded in — and is charged under `adaptive.switch`.
        let costs = all_costs(&self.params, &w);
        let kind = self.current.method();
        let current_pred =
            costs.iter().find(|c| c.method == kind).map(|c| c.total()).unwrap_or(f64::INFINITY);
        let (best, best_pred) =
            costs.iter().map(|c| (c.method, c.total())).min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        if best != kind && current_pred > self.hysteresis * best_pred {
            let tick = self.cost.total();
            self.disk.metrics().incr("adaptive.switches");
            self.disk.events().emit(
                EventKind::StrategySwitch,
                format!(
                    "epoch {}: {:?} -> {:?} (predicted {:.2}s vs {:.2}s)",
                    self.epoch, kind, best, current_pred, best_pred
                ),
                tick,
            );
            let next = {
                let _g = self.cost.section("adaptive.switch");
                CachedStrategy::from_rows(
                    &self.disk,
                    &self.params,
                    &self.cost,
                    best,
                    &rows,
                    r.tuple_bytes(),
                    s.tuple_bytes(),
                )?
            };
            std::mem::replace(&mut self.current, next).destroy();
            self.switch_log.push((tick.ticks(), kind, best));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use trijoin_exec::{execute_collect, oracle};

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

    fn adaptive_over(db: &Database, kind: Method) -> AdaptiveStrategy {
        let initial = CachedStrategy::build(db, kind).unwrap();
        AdaptiveStrategy::new(db.disk(), db.params(), db.cost(), initial)
    }

    #[test]
    fn adapts_from_a_bad_initial_choice() {
        // Tiny join, light updates: hash join is a terrible starting pick;
        // the adaptive wrapper must move off it after the first epoch.
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let s = spec(0.005, 0.02, 401);
        let gen = s.generate();
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut adaptive = adaptive_over(&db, Method::HybridHash);
        let mut stream = gen.update_stream();
        db.reset_cost();
        for _epoch in 0..3 {
            for _ in 0..gen.updates_per_epoch() {
                let u = stream.next_update();
                adaptive.on_update(&u).unwrap();
                db.r_mut().apply_update(&u.old, &u.new).unwrap();
            }
            let got = execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join("adaptive", got, want);
        }
        assert_ne!(adaptive.current_method(), Method::HybridHash);
        assert!(!adaptive.switch_log().is_empty());
        assert_eq!(adaptive.switch_log()[0].1, Method::HybridHash);
    }

    #[test]
    fn stays_put_when_the_choice_is_right() {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let s = spec(0.002, 0.2, 402); // low SR, busy: join index country
        let gen = s.generate();
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut adaptive = adaptive_over(&db, Method::JoinIndex);
        let mut stream = gen.update_stream();
        db.reset_cost();
        for _ in 0..3 {
            for _ in 0..gen.updates_per_epoch() {
                let u = stream.next_update();
                adaptive.on_update(&u).unwrap();
                db.r_mut().apply_update(&u.old, &u.new).unwrap();
            }
            execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
        }
        assert_eq!(adaptive.current_method(), Method::JoinIndex);
        assert!(adaptive.switch_log().is_empty(), "{:?}", adaptive.switch_log());
    }

    #[test]
    fn adaptive_stays_correct_through_a_switch() {
        // Verify tuple-exactness on the epoch where the switch happens.
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let s = spec(0.01, 0.3, 403);
        let gen = s.generate();
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut adaptive = adaptive_over(&db, Method::MaterializedView);
        let mut stream = gen.update_stream();
        db.reset_cost();
        for epoch in 0..4 {
            for _ in 0..gen.updates_per_epoch() {
                let u = stream.next_update();
                adaptive.on_update(&u).unwrap();
                db.r_mut().apply_update(&u.old, &u.new).unwrap();
            }
            let got = execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(&format!("epoch {epoch}"), got, want);
        }
    }

    /// The switch log records the ledger tick of each switch, not the query
    /// ordinal. On a deterministic workload the switch points are pinned:
    /// they match the `StrategySwitch` event timestamps exactly, they are
    /// strictly increasing, and they sit far above the handful of query
    /// ordinals the old accounting would have recorded.
    #[test]
    fn switch_log_records_ledger_ticks_not_query_ordinals() {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let run = || {
            let s = spec(0.005, 0.02, 401);
            let gen = s.generate();
            let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
            let mut adaptive = adaptive_over(&db, Method::HybridHash);
            let mut stream = gen.update_stream();
            db.reset_cost();
            db.disk().events().reset();
            let mut queries = 0u64;
            for _ in 0..3 {
                for _ in 0..gen.updates_per_epoch() {
                    let u = stream.next_update();
                    adaptive.on_update(&u).unwrap();
                    db.r_mut().apply_update(&u.old, &u.new).unwrap();
                }
                execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
                queries += 1;
            }
            let events: Vec<u64> = db
                .disk()
                .events()
                .events()
                .into_iter()
                .filter(|e| e.kind == EventKind::StrategySwitch)
                .map(|e| e.at.ticks())
                .collect();
            (adaptive.switch_log().to_vec(), events, queries)
        };
        let (log, event_ticks, queries) = run();
        assert!(!log.is_empty(), "seed 401 must switch off hybrid hash");
        let log_ticks: Vec<u64> = log.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(
            log_ticks, event_ticks,
            "switch log and StrategySwitch events must agree on the ledger tick"
        );
        for (tick, _, _) in &log {
            assert!(
                *tick > queries,
                "tick {tick} looks like a query ordinal (ran {queries} queries)"
            );
        }
        assert!(log_ticks.windows(2).all(|w| w[0] < w[1]), "ticks are monotone: {log_ticks:?}");
        // Pinned: the deterministic workload reproduces the exact switch points.
        let (log2, _, _) = run();
        assert_eq!(log, log2);
    }

    /// A switch is a hand-off, not a rebuild: the new cache is written from
    /// the incumbent's rows, so the switch section charges no base-relation
    /// read I/O beyond the target's own write path.
    #[test]
    fn switching_builds_from_rows_not_base_rescan() {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let s = spec(0.005, 0.02, 404);
        let gen = s.generate();
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut adaptive = adaptive_over(&db, Method::HybridHash);
        let mut stream = gen.update_stream();
        db.reset_cost();
        for _ in 0..3 {
            for _ in 0..gen.updates_per_epoch() {
                let u = stream.next_update();
                adaptive.on_update(&u).unwrap();
                db.r_mut().apply_update(&u.old, &u.new).unwrap();
            }
            execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
        }
        assert!(!adaptive.switch_log().is_empty());
        let switch_ios = db.cost().section_counts("adaptive.switch").ios;
        let base_pages = db.r().data_pages() + db.s().data_pages();
        assert!(switch_ios > 0, "the hand-off still charges the target's writes");
        assert!(
            switch_ios < base_pages,
            "hand-off charged {switch_ios} I/Os, a base rescan would need ≥ {base_pages}"
        );
    }
}
