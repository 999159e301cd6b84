//! Fault matrix: fault sites × strategies. Any single injected device
//! fault on cached join state — view pages, join-index pages, differential
//! runs, spilled runs — must leave every strategy returning the *exact*
//! oracle join, with the recovery work ledgered in a named cost section.
//!
//! Scoping notes: poisoned-read faults target the cached structure's file
//! (a poisoned *base-relation* page is unrecoverable by design — the base
//! relations are the recovery source of truth). Torn-write and transient
//! faults run unscoped: during a query every write lands on cached state
//! (view buckets, index pages, differential runs, spilled runs), and
//! transient reads clear on retry wherever they land.

use trijoin::{
    AdaptiveStrategy, CachedStrategy, Database, JoinStrategy, Method, Mutation, SystemParams,
    WorkloadSpec,
};
use trijoin_common::{BaseTuple, EventKind, Surrogate, ViewTuple};
use trijoin_exec::{execute_collect, oracle};
use trijoin_storage::FaultPlan;

fn params() -> SystemParams {
    SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() }
}

fn tuples(n: u32) -> Vec<BaseTuple> {
    (0..n).map(|i| BaseTuple::padded(Surrogate(i), (i % 7) as u64, 64)).collect()
}

/// Apply a mutation batch to `R` and every given strategy, so
/// deferred-maintenance strategies carry pending differential state into
/// the faulted query.
fn pend_mutations(db: &mut Database, strategies: &mut [&mut dyn JoinStrategy]) {
    let mut batch: Vec<Mutation> = Vec::new();
    for i in 0..20u32 {
        batch.push(Mutation::Insert(BaseTuple::padded(Surrogate(1000 + i), (i % 7) as u64, 64)));
    }
    for i in 0..10u32 {
        batch.push(Mutation::Delete(BaseTuple::padded(Surrogate(i * 3), ((i * 3) % 7) as u64, 64)));
    }
    for m in &batch {
        for strategy in strategies.iter_mut() {
            strategy.on_mutation(m).unwrap();
        }
        db.r_mut().apply_mutation(m).unwrap();
    }
}

fn oracle_answer(db: &Database) -> Vec<ViewTuple> {
    let mut r_all = Vec::new();
    db.r().scan(|t| r_all.push(t)).unwrap();
    let mut s_all = Vec::new();
    db.s().scan(|t| s_all.push(t)).unwrap();
    oracle::join_tuples(&r_all, &s_all)
}

/// One scenario: fresh database and strategy, pending mutations, install
/// the plan, query under fault, then query again clean. `expect_fire`
/// additionally asserts exactly-once fault accounting and that recovery
/// work landed in a named cost section.
fn check<S: JoinStrategy>(
    label: &str,
    mut db: Database,
    strategy: &mut S,
    plan: FaultPlan,
    expect_fire: bool,
) {
    pend_mutations(&mut db, &mut [strategy as &mut dyn JoinStrategy]);
    let want = oracle_answer(&db);
    let fired_before = db.faults_fired();
    db.install_fault_plan(plan);
    let got = execute_collect(strategy, db.r(), db.s()).unwrap();
    oracle::assert_same_join(label, got, want.clone());
    if expect_fire {
        assert_eq!(db.faults_fired() - fired_before, 1, "{label}: the fault must fire");
        assert!(
            !db.recovery_counts().is_zero(),
            "{label}: recovery work must appear in a named cost section"
        );
    }
    // A clean follow-up query sees the healed state.
    db.clear_faults();
    let again = execute_collect(strategy, db.r(), db.s()).unwrap();
    oracle::assert_same_join(&format!("{label} (follow-up)"), again, want);
}

fn fresh_db() -> Database {
    Database::new(&params(), tuples(150), tuples(150)).unwrap()
}

// ---------------------------------------------------------------------
// Materialized view.
// ---------------------------------------------------------------------

#[test]
fn matrix_mv_transient_reads() {
    for after in [0u64, 2, 5, 13] {
        let db = fresh_db();
        let mut mv = db.materialized_view().unwrap();
        let plan = FaultPlan::new().fail_nth_read(None, after);
        check(&format!("mv/transient-read@{after}"), db, &mut mv, plan, true);
    }
}

#[test]
fn matrix_mv_transient_writes() {
    for after in [0u64, 1, 5] {
        let db = fresh_db();
        let mut mv = db.materialized_view().unwrap();
        let plan = FaultPlan::new().fail_nth_write(None, after);
        check(&format!("mv/transient-write@{after}"), db, &mut mv, plan, true);
    }
}

#[test]
fn matrix_mv_poisoned_view_reads() {
    for after in [0u64, 7] {
        let db = fresh_db();
        let mut mv = db.materialized_view().unwrap();
        let plan = FaultPlan::new().poison_nth_read(Some(mv.view_file()), after);
        check(&format!("mv/poison-view@{after}"), db, &mut mv, plan, true);
    }
}

#[test]
fn matrix_mv_torn_writes() {
    for after in [0u64, 2] {
        let db = fresh_db();
        let mut mv = db.materialized_view().unwrap();
        let plan = FaultPlan::new().torn_write(None, after);
        check(&format!("mv/torn-write@{after}"), db, &mut mv, plan, true);
    }
}

#[test]
fn matrix_mv_seeded_plans() {
    for seed in [1u64, 2, 1990] {
        let db = fresh_db();
        let mut mv = db.materialized_view().unwrap();
        let plan = FaultPlan::from_seed(seed, &[mv.view_file()]);
        check(&format!("mv/seeded@{seed}"), db, &mut mv, plan, false);
    }
}

// ---------------------------------------------------------------------
// Join index.
// ---------------------------------------------------------------------

#[test]
fn matrix_ji_transient_reads() {
    for after in [0u64, 2, 5, 13] {
        let db = fresh_db();
        let mut ji = db.join_index().unwrap();
        let plan = FaultPlan::new().fail_nth_read(None, after);
        check(&format!("ji/transient-read@{after}"), db, &mut ji, plan, true);
    }
}

#[test]
fn matrix_ji_transient_writes() {
    for after in [0u64, 1, 5] {
        let db = fresh_db();
        let mut ji = db.join_index().unwrap();
        let plan = FaultPlan::new().fail_nth_write(None, after);
        check(&format!("ji/transient-write@{after}"), db, &mut ji, plan, true);
    }
}

#[test]
fn matrix_ji_poisoned_index_reads() {
    for after in [0u64, 7] {
        let db = fresh_db();
        let mut ji = db.join_index().unwrap();
        let plan = FaultPlan::new().poison_nth_read(Some(ji.index_file()), after);
        check(&format!("ji/poison-index@{after}"), db, &mut ji, plan, true);
    }
}

#[test]
fn matrix_ji_torn_writes() {
    for after in [0u64, 2] {
        let db = fresh_db();
        let mut ji = db.join_index().unwrap();
        let plan = FaultPlan::new().torn_write(None, after);
        check(&format!("ji/torn-write@{after}"), db, &mut ji, plan, true);
    }
}

#[test]
fn matrix_ji_seeded_plans() {
    for seed in [1u64, 2, 1990] {
        let db = fresh_db();
        let mut ji = db.join_index().unwrap();
        let plan = FaultPlan::from_seed(seed, &[ji.index_file()]);
        check(&format!("ji/seeded@{seed}"), db, &mut ji, plan, false);
    }
}

// ---------------------------------------------------------------------
// Hybrid hash (spilled-run faults; no cached structure to poison).
// ---------------------------------------------------------------------

#[test]
fn matrix_hh_transient_reads() {
    for after in [0u64, 2, 5, 13] {
        let db = fresh_db();
        let mut hh = db.hybrid_hash();
        let plan = FaultPlan::new().fail_nth_read(None, after);
        check(&format!("hh/transient-read@{after}"), db, &mut hh, plan, true);
    }
}

#[test]
fn matrix_hh_transient_spill_writes() {
    // During a hybrid-hash query every write is a spilled-run page.
    for after in [0u64, 1, 4] {
        let db = fresh_db();
        let mut hh = db.hybrid_hash();
        let plan = FaultPlan::new().fail_nth_write(None, after);
        check(&format!("hh/transient-write@{after}"), db, &mut hh, plan, true);
    }
}

#[test]
fn matrix_hh_torn_spill_writes() {
    for after in [0u64, 2] {
        let db = fresh_db();
        let mut hh = db.hybrid_hash();
        let plan = FaultPlan::new().torn_write(None, after);
        check(&format!("hh/torn-write@{after}"), db, &mut hh, plan, true);
    }
}

// ---------------------------------------------------------------------
// Adaptive wrapper: the matrix composes with online strategy selection.
// The wrapper serves through whatever it currently caches, so each fault
// must be absorbed by the incumbent's documented recovery path exactly as
// it is when the strategy is used bare.
// ---------------------------------------------------------------------

fn adaptive_over(db: &Database, kind: Method) -> AdaptiveStrategy {
    let initial = CachedStrategy::build(db, kind).unwrap();
    AdaptiveStrategy::new(db.disk(), db.params(), db.cost(), initial)
}

#[test]
fn matrix_adaptive_transient_reads() {
    for kind in Method::all() {
        for after in [0u64, 5] {
            let db = fresh_db();
            let mut adaptive = adaptive_over(&db, kind);
            let plan = FaultPlan::new().fail_nth_read(None, after);
            check(
                &format!("adaptive[{kind}]/transient-read@{after}"),
                db,
                &mut adaptive,
                plan,
                true,
            );
        }
    }
}

#[test]
fn matrix_adaptive_transient_writes() {
    for kind in Method::all() {
        for after in [0u64, 1] {
            let db = fresh_db();
            let mut adaptive = adaptive_over(&db, kind);
            let plan = FaultPlan::new().fail_nth_write(None, after);
            check(
                &format!("adaptive[{kind}]/transient-write@{after}"),
                db,
                &mut adaptive,
                plan,
                true,
            );
        }
    }
}

#[test]
fn matrix_adaptive_torn_writes() {
    for kind in Method::all() {
        let db = fresh_db();
        let mut adaptive = adaptive_over(&db, kind);
        let plan = FaultPlan::new().torn_write(None, 2);
        check(&format!("adaptive[{kind}]/torn-write@2"), db, &mut adaptive, plan, true);
    }
}

#[test]
fn matrix_adaptive_poisoned_cache_reads() {
    // Poison the incumbent's cached file specifically: the recovery must
    // run through the wrapper without disturbing its statistics.
    let db = fresh_db();
    let mv = db.materialized_view().unwrap();
    let view_file = mv.view_file();
    let mut adaptive =
        AdaptiveStrategy::new(db.disk(), db.params(), db.cost(), CachedStrategy::Mv(mv));
    let plan = FaultPlan::new().poison_nth_read(Some(view_file), 0);
    check("adaptive[mv]/poison-view@0", db, &mut adaptive, plan, true);
}

/// A write fault inside the hand-off is a rollback, never a failed query:
/// the answer was already streamed from the untouched incumbent, nothing
/// announces a switch that did not happen, and — a rollback arms no
/// cooldown — the next query retries and completes the migration.
#[test]
fn adaptive_hand_off_write_fault_rolls_back_then_retries() {
    // Tiny join, light updates, generous memory: hybrid hash is the wrong
    // incumbent (the first query's decision leaves it) and never spills,
    // so the query's first write is the target structure's build.
    let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
    let gen = WorkloadSpec {
        r_tuples: 1_500,
        s_tuples: 1_500,
        tuple_bytes: 96,
        sr: 0.005,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.02,
        seed: 401,
    }
    .generate();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let mut adaptive = adaptive_over(&db, Method::HybridHash);
    let mut stream = gen.update_stream();
    for _ in 0..gen.updates_per_epoch() {
        let u = stream.next_update();
        adaptive.on_update(&u).unwrap();
        db.r_mut().apply_update(&u.old, &u.new).unwrap();
    }
    let want = oracle::join_tuples(stream.current(), &gen.s);
    // The base relation catches up first: its leaf writes are not the
    // hand-off's.
    db.settle().unwrap();
    db.reset_observability();
    db.install_fault_plan(FaultPlan::new().fail_nth_write(None, 0));
    let got = execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
    oracle::assert_same_join("adaptive[hh]/hand-off-write@0", got, want.clone());
    assert_eq!(db.faults_fired(), 1, "the fault must fire");
    assert_eq!(db.metrics().counter("migrate.rollbacks"), 1);
    assert_eq!(db.metrics().counter("migrate.count"), 0);
    assert_eq!(db.events().count_of(EventKind::StrategySwitch), 0);
    assert_eq!(adaptive.current_method(), Method::HybridHash);

    db.clear_faults();
    let again = execute_collect(&mut adaptive, db.r(), db.s()).unwrap();
    oracle::assert_same_join("adaptive[hh]/hand-off retry", again, want);
    assert_ne!(adaptive.current_method(), Method::HybridHash);
    assert_eq!(db.metrics().counter("migrate.rollbacks"), 1);
    assert_eq!(db.metrics().counter("migrate.count"), 1);
    assert_eq!(db.events().count_of(EventKind::StrategySwitch), 1);
}

// ---------------------------------------------------------------------
// The base relations' own sweep.
// ---------------------------------------------------------------------

/// A transient read fault in the middle of the base relation's settle is
/// the settle's error, and costs nothing else: what landed stays, the rest
/// stays queued, the retry resumes there and every strategy answers the
/// oracle join. A query whose strategy reads `R` reads its log through
/// until the run pages read reach what a settle would touch; the query
/// whose reader then settles fails in its preamble, before any section of
/// its own opens. A view's query never goes back to `R`, answers, and
/// leaves the fault to the settle someone asks for. The batch is large
/// enough to have spilled runs, so the retry merges again.
#[test]
fn settle_fault_mid_sweep_fails_the_query_and_the_retry_completes() {
    for method in Method::all() {
        let mut db = fresh_db();
        let leaves = db.r().data_pages();
        let mut strategy = CachedStrategy::build(&db, method).unwrap();
        let mut mirror: std::collections::BTreeMap<u32, BaseTuple> =
            tuples(150).into_iter().map(|t| (t.sur.0, t)).collect();
        let mut batch: Vec<Mutation> = Vec::new();
        for round in 0..2u64 {
            for i in (0..150u32).rev() {
                let new = BaseTuple::padded(Surrogate(i), (i as u64 + round) % 7, 64);
                let old = mirror.insert(i, new.clone()).unwrap();
                batch.push(Mutation::Update(trijoin::Update { old, new }));
            }
        }
        for i in 0..20u32 {
            let t = BaseTuple::padded(Surrogate(1000 + i), (i % 7) as u64, 64);
            mirror.insert(t.sur.0, t.clone());
            batch.push(Mutation::Insert(t));
        }
        for i in 0..10u32 {
            batch.push(Mutation::Delete(mirror.remove(&(i * 3)).unwrap()));
        }
        for m in &batch {
            strategy.as_dyn().on_mutation(m).unwrap();
            db.apply_r_mutation(m).unwrap();
        }
        assert!(db.metrics().counter("base.apply_log.runs") >= 2, "{method}: the log spilled");
        let r_now: Vec<BaseTuple> = mirror.into_values().collect();
        let want = oracle::join_tuples(&r_now, &tuples(150));

        let clustered = db.r().file_ids().next().unwrap();
        let plan = FaultPlan::new().fail_nth_read(Some(clustered), 7);
        let err = if method == Method::MaterializedView {
            db.install_fault_plan(plan);
            let got = db.query(strategy.as_dyn()).unwrap();
            oracle::assert_same_join("mv/R-unsettled", got, want.clone());
            assert_eq!((db.faults_fired(), db.metrics().counter("base.settles")), (0, 0));
            db.settle().unwrap_err()
        } else {
            let settle_pages = 2 * leaves.min(batch.len() as u64);
            while db.metrics().counter("base.read_through.pages") < settle_pages {
                let got = db.query(strategy.as_dyn()).unwrap();
                oracle::assert_same_join(&format!("{method}/read-through"), got, want.clone());
                assert_eq!(db.metrics().counter("base.settles"), 0, "{method}");
                assert_eq!(db.r().pending_ops(), batch.len() as u64, "{method}");
            }
            db.reset_observability();
            db.install_fault_plan(plan);
            let err = db.query(strategy.as_dyn()).unwrap_err();
            let first = if method == Method::JoinIndex { "ji.read_diffs" } else { "hh.execute" };
            let spans = db.cost().span_tree();
            assert!(spans.iter().any(|s| s.path == "base.settle"), "{method}");
            assert!(spans.iter().all(|s| s.name != first), "{method}: failed before {first}");
            err
        };
        assert!(matches!(err, trijoin_common::Error::DeviceFault { .. }), "{method}: {err:?}");
        assert_eq!(db.faults_fired(), 1, "{method}");
        let landed = db.metrics().counter("base.settle.ops");
        assert!(landed > 0 && landed < batch.len() as u64, "{method}: {landed} landed");
        assert_eq!(db.r().pending_ops(), batch.len() as u64 - landed, "{method}");

        db.settle().unwrap();
        let got = db.query(strategy.as_dyn()).unwrap();
        oracle::assert_same_join(&format!("{method}/settle-retry"), got, want.clone());
        assert_eq!(db.metrics().counter("base.settle.ops"), batch.len() as u64, "{method}");
        assert_eq!((db.r().pending_ops(), db.r().rejected_ops()), (0, 0), "{method}");
        db.r().check_invariants().unwrap();
        let again = db.query(strategy.as_dyn()).unwrap();
        oracle::assert_same_join(&format!("{method}/settle-retry (follow-up)"), again, want);
    }
}

/// The same fault in a settle that spans epochs: a view's queries leave
/// `R`'s log to grow over four epochs of updates, a commit-time settle
/// fails part-way through the merged log, and the next one resumes from
/// the landed prefix — no operation applied twice, none lost, the tree
/// equal to one that settled every epoch. Run once as it is, then with the
/// retry failed too, at every run's first page (read before the retry has
/// skipped past the landed prefix) and at every run's last page (read
/// after it), before the commit after it gets through.
#[test]
fn settle_fault_in_a_multi_epoch_log_resumes_from_the_landed_prefix() {
    let failed_commit = || {
        let mut db = fresh_db();
        let mut mv = db.materialized_view().unwrap();
        let mut mirror = tuples(150);
        let mut queued = 0u64;
        for epoch in 0..4u64 {
            for i in (0..150usize).rev().filter(|i| (*i as u64 + epoch).is_multiple_of(2)) {
                let new = BaseTuple::padded(Surrogate(i as u32), (i as u64 + epoch) % 7, 64);
                let u =
                    trijoin::Update { old: std::mem::replace(&mut mirror[i], new.clone()), new };
                mv.on_update(&u).unwrap();
                db.apply_r_update(&u).unwrap();
                queued += 1;
            }
            let got = db.query(&mut mv).unwrap();
            oracle::assert_same_join("mv/epoch", got, oracle::join_tuples(&mirror, &tuples(150)));
        }
        assert_eq!(db.metrics().counter("base.settles"), 0, "four queries, R never read");
        assert_eq!(db.r().pending_ops(), queued);
        assert!(db.metrics().counter("base.apply_log.runs") >= 2, "the log spilled");

        let clustered = db.r().file_ids().next().unwrap();
        db.install_fault_plan(FaultPlan::new().fail_nth_read(Some(clustered), 9));
        let err = db.commit().unwrap_err();
        assert!(matches!(err, trijoin_common::Error::DeviceFault { .. }), "{err:?}");
        let landed = db.metrics().counter("base.settle.ops");
        assert!(landed > 0 && landed < queued, "{landed} of {queued} landed");
        assert_eq!(db.r().pending_ops(), queued - landed);
        (db, mirror, queued, landed)
    };
    // `R` has one tree, its clustered one; every other file is a run.
    let (db, ..) = failed_commit();
    let last = |run| db.disk().num_pages(run).unwrap() as u64 - 1;
    let run_pages: Vec<_> =
        db.r().file_ids().skip(1).flat_map(|run| [(run, 0), (run, last(run))]).collect();
    assert!(run_pages.iter().any(|&(_, page)| page > 0), "a run longer than a page");

    for retry_fault in std::iter::once(None).chain(run_pages.into_iter().map(Some)) {
        let (db, mirror, queued, landed) = failed_commit();
        if let Some((run, page)) = retry_fault {
            let label = format!("f{} page {page}", run.0);
            db.install_fault_plan(FaultPlan::new().fail_nth_op(Some(run), page));
            let err = db.commit().unwrap_err();
            assert!(matches!(err, trijoin_common::Error::DeviceFault { .. }), "{label}: {err:?}");
            assert_eq!(db.faults_fired(), 2, "{label}");
            let now = db.metrics().counter("base.settle.ops");
            assert!(now >= landed, "{label}");
            assert_eq!(db.r().pending_ops(), queued - now, "{label}");
            if page == 0 {
                assert_eq!(now, landed, "{label}: the retry failed before it landed more");
            }
        }
        db.commit().unwrap();
        assert_eq!(db.metrics().counter("base.settle.ops"), queued, "each operation landed once");
        assert_eq!((db.r().pending_ops(), db.r().rejected_ops()), (0, 0));
        db.r().check_invariants().unwrap();
        let mut stored = Vec::new();
        db.r().scan(|t| stored.push(t)).unwrap();
        assert_eq!(stored, mirror, "{retry_fault:?}");
        let mut hh = db.hybrid_hash();
        let got = db.query(&mut hh).unwrap();
        oracle::assert_same_join("hh/after", got, oracle::join_tuples(&mirror, &tuples(150)));
    }
}

/// A settle whose sweep splits and merges, faulted at each of its charged
/// I/Os in turn: a transient read fault at every read, a transient write
/// fault at every write of `R`'s clustered tree, then a fatal fault — never
/// retried — at every one of them. Every time the settle fails, the tree
/// audits clean (a landing a fatal write cut short lands whole before the
/// sweep returns), the retry lands the rest, and the view, the join index
/// and hybrid hash answer as the oracle does.
#[test]
fn settle_fault_at_every_io_of_a_structural_sweep() {
    // `R` holds even surrogates only, so odd ones insert mid-range.
    let r_tuples = || -> Vec<BaseTuple> {
        (0..400u32).map(|i| BaseTuple::padded(Surrogate(2 * i), (i % 7) as u64, 64)).collect()
    };
    let mut mirror: std::collections::BTreeMap<u32, BaseTuple> =
        r_tuples().into_iter().map(|t| (t.sur.0, t)).collect();
    let mut batch: Vec<Mutation> = Vec::new();
    for sur in (101..181u32).step_by(2).chain(2000..2030) {
        let t = BaseTuple::padded(Surrogate(sur), (sur % 7) as u64, 64);
        mirror.insert(sur, t.clone());
        batch.push(Mutation::Insert(t));
    }
    for sur in (400..560u32).step_by(2) {
        batch.push(Mutation::Delete(mirror.remove(&sur).unwrap()));
    }
    for sur in (600..700u32).step_by(6) {
        let new = BaseTuple::padded(Surrogate(sur), (sur % 5) as u64, 64);
        let old = mirror.insert(sur, new.clone()).unwrap();
        batch.push(Mutation::Update(trijoin::Update { old, new }));
    }
    let r_now: Vec<BaseTuple> = mirror.into_values().collect();
    let want = oracle::join_tuples(&r_now, &tuples(150));
    let setup = || {
        let mut db = Database::new(&params(), r_tuples(), tuples(150)).unwrap();
        let mut strategies: Vec<CachedStrategy> =
            Method::all().into_iter().map(|m| CachedStrategy::build(&db, m).unwrap()).collect();
        for m in &batch {
            for strategy in &mut strategies {
                strategy.as_dyn().on_mutation(m).unwrap();
            }
            db.apply_r_mutation(m).unwrap();
        }
        let clustered = db.r().file_ids().next().unwrap();
        (db, strategies, clustered)
    };

    // The clean settle: what it charges `R`'s clustered tree.
    let (db, _, clustered) = setup();
    let counter = |db: &Database, name: &str| db.metrics().counter(name);
    let (read, write) =
        (format!("disk.read.f{}", clustered.0), format!("disk.write.f{}", clustered.0));
    let names = [read.as_str(), write.as_str(), "btree.splits", "btree.merges"];
    let before = names.map(|name| counter(&db, name));
    db.settle().unwrap();
    let after = names.map(|name| counter(&db, name));
    let [reads, writes, splits, merges]: [u64; 4] = std::array::from_fn(|i| after[i] - before[i]);
    assert!(splits > 0 && merges > 0, "{splits} splits, {merges} merges");

    let plans = (0..reads)
        .map(|n| (format!("read@{n}"), FaultPlan::new().fail_nth_read(Some(clustered), n)))
        .chain(
            (0..writes).map(|n| {
                (format!("write@{n}"), FaultPlan::new().fail_nth_write(Some(clustered), n))
            }),
        )
        .chain(
            (0..reads + writes)
                .map(|n| (format!("fatal@{n}"), FaultPlan::new().fail_nth_op(Some(clustered), n))),
        );
    for (label, plan) in plans {
        let (db, mut strategies, _) = setup();
        db.install_fault_plan(plan);
        let err = db.settle().unwrap_err();
        assert!(matches!(err, trijoin_common::Error::DeviceFault { .. }), "{label}: {err:?}");
        assert_eq!(db.faults_fired(), 1, "{label}");
        db.r().check_invariants().unwrap_or_else(|e| panic!("{label}: after the fault: {e}"));
        db.settle().unwrap();
        assert_eq!(db.metrics().counter("base.settle.ops"), batch.len() as u64, "{label}");
        assert_eq!((db.r().pending_ops(), db.r().rejected_ops()), (0, 0), "{label}");
        db.r().check_invariants().unwrap_or_else(|e| panic!("{label}: {e}"));
        for strategy in &mut strategies {
            let got = db.query(strategy.as_dyn()).unwrap();
            oracle::assert_same_join(&format!("{label}/{}", strategy.method()), got, want.clone());
        }
    }
}

// ---------------------------------------------------------------------
// Cross-cutting accounting.
// ---------------------------------------------------------------------

#[test]
fn recovery_sections_are_named_and_attributed() {
    // A poisoned view read must charge into `mv.recover` specifically, and
    // the database-level summary must see it.
    let db = fresh_db();
    let mut mv = db.materialized_view().unwrap();
    db.install_fault_plan(FaultPlan::new().poison_nth_read(Some(mv.view_file()), 0));
    let _ = execute_collect(&mut mv, db.r(), db.s()).unwrap();
    let sections: Vec<String> = db.cost().sections().into_iter().map(|(n, _)| n).collect();
    assert!(
        sections.iter().any(|n| n == "mv.recover"),
        "mv.recover must be a named section, got {sections:?}"
    );
    assert!(db.recovery_ios() > 0, "recovery I/O must be attributed");
    assert!(Database::RECOVERY_SECTIONS.contains(&"mv.recover"));
}

#[test]
fn no_fault_means_no_recovery_cost() {
    let mut db = fresh_db();
    let mut mv = db.materialized_view().unwrap();
    let mut ji = db.join_index().unwrap();
    let mut hh = db.hybrid_hash();
    pend_mutations(&mut db, &mut [&mut mv, &mut ji, &mut hh]);
    let _ = execute_collect(&mut mv, db.r(), db.s()).unwrap();
    let _ = execute_collect(&mut ji, db.r(), db.s()).unwrap();
    let _ = execute_collect(&mut hh, db.r(), db.s()).unwrap();
    assert!(
        db.recovery_counts().is_zero(),
        "healthy runs must charge nothing to recovery sections"
    );
}

// ---------------------------------------------------------------------
// Durable (file) backend: the fault matrix composes with the WAL path.
// ---------------------------------------------------------------------

/// Scratch store for one durable-backend scenario, wiped on entry so
/// reruns start clean.
fn fresh_durable_db(name: &str) -> Database {
    let dir = std::env::temp_dir().join(format!("trijoin-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Database::create_durable(&params(), tuples(150), tuples(150), &dir).unwrap()
}

/// Fault gating lives in the disk wrapper, not the backend, so the exact
/// plans the in-memory matrix recovers from must also recover on the
/// file backend — transient, poisoned, and torn faults alike.
#[test]
fn matrix_composes_with_the_durable_backend() {
    for after in [0u64, 5] {
        let db = fresh_durable_db(&format!("mv-transient-{after}"));
        let mut mv = db.materialized_view().unwrap();
        let plan = FaultPlan::new().fail_nth_read(None, after);
        check(&format!("durable/mv/transient-read@{after}"), db, &mut mv, plan, true);
    }
    {
        let db = fresh_durable_db("ji-poison");
        let mut ji = db.join_index().unwrap();
        let plan = FaultPlan::new().poison_nth_read(Some(ji.index_file()), 0);
        check("durable/ji/poison-index@0", db, &mut ji, plan, true);
    }
    {
        let db = fresh_durable_db("hh-torn");
        let mut hh = db.hybrid_hash();
        let plan = FaultPlan::new().torn_write(None, 2);
        check("durable/hh/torn-write@2", db, &mut hh, plan, true);
    }
}

/// A torn tail injected straight into the log file — garbage bytes after
/// the last sealed commit, as a crashed writer would leave — must be
/// detected and truncated by recovery, with the committed state intact.
#[test]
fn wal_recovery_heals_an_injected_torn_tail() {
    use std::io::Write;

    let dir = std::env::temp_dir().join(format!("trijoin-faults-{}-torn-tail", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::create_durable(&params(), tuples(150), tuples(150), &dir).unwrap();
    pend_mutations(&mut db, &mut []);
    db.commit().unwrap();
    let want = oracle_answer(&db);
    drop(db);

    // Inject the torn tail: a plausible-looking but unsealed byte suffix.
    let wal_path = dir.join("wal.log");
    let clean_len = std::fs::metadata(&wal_path).unwrap().len();
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal_path).unwrap();
    f.write_all(&[0xABu8; 137]).unwrap();
    drop(f);
    assert!(std::fs::metadata(&wal_path).unwrap().len() > clean_len);

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert!(
        db.metrics().counter("wal.recovered.torn_bytes") >= 137,
        "recovery must account the truncated tail"
    );
    let mut hh = db.hybrid_hash();
    let got = execute_collect(&mut hh, db.r(), db.s()).unwrap();
    oracle::assert_same_join("torn-tail heal", got, want);
}
