//! General mutation streams — the paper's future-work case of "arbitrary
//! and possibly unequal sets of insertions and deletions". All three
//! strategies must stay exact when tuples are inserted with fresh
//! surrogates and deleted outright, not just updated in place.

use trijoin::{Database, JoinStrategy, Mutation, MutationMix, SystemParams, Update, WorkloadSpec};
use trijoin_common::{BaseTuple, Surrogate};
use trijoin_exec::{execute_collect, oracle};

fn run_mix(mix: MutationMix, sr: f64, pra: f64, epochs: usize, seed: u64) {
    let params = SystemParams { mem_pages: 48, page_size: 1024, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 1_000,
        s_tuples: 900,
        tuple_bytes: 96,
        sr,
        group_size: 4,
        pra,
        update_rate: 0.1,
        seed,
    };
    let gen = spec.generate();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let mut mv = db.materialized_view().unwrap();
    let mut ji = db.join_index().unwrap();
    let mut hh = db.hybrid_hash();
    let mut stream = gen.mutation_stream(mix);
    for epoch in 0..epochs {
        for _ in 0..100 {
            let m = stream.next_mutation();
            mv.on_mutation(&m).unwrap();
            ji.on_mutation(&m).unwrap();
            hh.on_mutation(&m).unwrap();
            db.r_mut().apply_mutation(&m).unwrap();
        }
        assert_eq!(db.r().len(), stream.len() as u64, "mirror and relation agree");
        let current = stream.current();
        let want = oracle::join_tuples(&current, &gen.s);
        let label = format!("epoch {epoch}");
        oracle::assert_same_join(
            &format!("{label}/mv"),
            execute_collect(&mut mv, db.r(), db.s()).unwrap(),
            want.clone(),
        );
        oracle::assert_same_join(
            &format!("{label}/ji"),
            execute_collect(&mut ji, db.r(), db.s()).unwrap(),
            want.clone(),
        );
        oracle::assert_same_join(
            &format!("{label}/hh"),
            execute_collect(&mut hh, db.r(), db.s()).unwrap(),
            want,
        );
        ji.check_invariants().unwrap();
    }
}

#[test]
fn churn_mix_updates_inserts_deletes() {
    run_mix(MutationMix::churn(), 0.05, 0.2, 3, 301);
}

#[test]
fn insert_heavy_growth() {
    run_mix(MutationMix { update: 0.1, insert: 0.8, delete: 0.1 }, 0.05, 0.2, 3, 302);
}

#[test]
fn delete_heavy_shrink() {
    run_mix(MutationMix { update: 0.2, insert: 0.1, delete: 0.7 }, 0.1, 0.2, 3, 303);
}

#[test]
fn inserts_only_unequal_sets() {
    // ‖iR‖ > 0, ‖dR‖ = 0 — the degenerate unequal case.
    run_mix(MutationMix { update: 0.0, insert: 1.0, delete: 0.0 }, 0.05, 0.0, 2, 304);
}

#[test]
fn deletes_only_unequal_sets() {
    run_mix(MutationMix { update: 0.0, insert: 0.0, delete: 1.0 }, 0.1, 0.0, 2, 305);
}

#[test]
fn updates_only_matches_legacy_model() {
    run_mix(MutationMix::updates_only(), 0.05, 0.3, 3, 306);
}

#[test]
fn insert_then_delete_same_tuple_cancels() {
    let params = SystemParams { mem_pages: 32, page_size: 512, ..Default::default() };
    let mk = |i: u32, key: u64| BaseTuple::padded(Surrogate(i), key, 64);
    let r: Vec<BaseTuple> = (0..50).map(|i| mk(i, (i % 5) as u64)).collect();
    let s: Vec<BaseTuple> = (0..50).map(|i| mk(i, (i % 5) as u64)).collect();
    let mut db = Database::new(&params, r.clone(), s.clone()).unwrap();
    let mut mv = db.materialized_view().unwrap();
    let mut ji = db.join_index().unwrap();
    let baseline = oracle::join_tuples(&r, &s);

    // Insert a matching tuple, then delete it again before the query.
    let t = mk(99, 2);
    for m in [Mutation::Insert(t.clone()), Mutation::Delete(t.clone())] {
        mv.on_mutation(&m).unwrap();
        ji.on_mutation(&m).unwrap();
        db.r_mut().apply_mutation(&m).unwrap();
    }
    oracle::assert_same_join(
        "mv",
        execute_collect(&mut mv, db.r(), db.s()).unwrap(),
        baseline.clone(),
    );
    oracle::assert_same_join("ji", execute_collect(&mut ji, db.r(), db.s()).unwrap(), baseline);
}

#[test]
fn delete_then_reinsert_same_surrogate_with_new_key() {
    let params = SystemParams { mem_pages: 32, page_size: 512, ..Default::default() };
    let mk = |i: u32, key: u64| BaseTuple::padded(Surrogate(i), key, 64);
    let r: Vec<BaseTuple> = (0..50).map(|i| mk(i, (i % 5) as u64)).collect();
    let s: Vec<BaseTuple> = (0..50).map(|i| mk(i, (i % 5) as u64)).collect();
    let mut db = Database::new(&params, r.clone(), s.clone()).unwrap();
    let mut mv = db.materialized_view().unwrap();
    let mut ji = db.join_index().unwrap();

    let old = mk(7, 2);
    let new = mk(7, 4);
    for m in [Mutation::Delete(old.clone()), Mutation::Insert(new.clone())] {
        mv.on_mutation(&m).unwrap();
        ji.on_mutation(&m).unwrap();
        db.r_mut().apply_mutation(&m).unwrap();
    }
    let mut current = r.clone();
    current[7] = new;
    let want = oracle::join_tuples(&current, &s);
    oracle::assert_same_join("mv", execute_collect(&mut mv, db.r(), db.s()).unwrap(), want.clone());
    oracle::assert_same_join("ji", execute_collect(&mut ji, db.r(), db.s()).unwrap(), want);
}

#[test]
fn relation_rejects_bad_mutations() {
    let params = SystemParams { mem_pages: 32, page_size: 512, ..Default::default() };
    let mk = |i: u32, key: u64| BaseTuple::padded(Surrogate(i), key, 64);
    let r: Vec<BaseTuple> = (0..10).map(|i| mk(i, 0)).collect();
    let s: Vec<BaseTuple> = (0..10).map(|i| mk(i, 0)).collect();
    let mut db = Database::new(&params, r.clone(), s).unwrap();
    // A wrong-size insert is refused on the spot.
    assert!(db.r_mut().insert(&BaseTuple::padded(Surrogate(50), 0, 128)).is_err());
    // A duplicate insert and the delete of a ghost queue up like any
    // mutation; the sweep finds them out, drops and counts them — and
    // still lands the good update queued between them.
    db.r_mut().insert(&mk(3, 1)).unwrap();
    db.r_mut().apply_update(&mk(5, 0), &mk(5, 9)).unwrap();
    db.r_mut().delete(&mk(77, 0)).unwrap();
    db.settle().unwrap();
    assert_eq!(db.r().rejected_ops(), 2);
    assert_eq!(db.metrics().counter("base.settle.rejected"), 2);
    assert_eq!(db.metrics().counter("base.settle.ops"), 3);
    // Relation unharmed.
    assert_eq!(db.r().len(), 10);
    assert_eq!(db.r().get(Surrogate(3)).unwrap().unwrap(), r[3]);
    assert_eq!(db.r().get(Surrogate(5)).unwrap().unwrap().key, 9);
    db.r().check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// Work-proportional maintenance of the base relations (Veldhuizen's
// bound, as laws): what a settle writes follows what changed, not how
// the change was delivered.
// ---------------------------------------------------------------------

fn law_fixture() -> (trijoin::GeneratedWorkload, SystemParams) {
    let params = SystemParams { mem_pages: 48, page_size: 1024, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 800,
        s_tuples: 600,
        tuple_bytes: 96,
        sr: 0.05,
        group_size: 4,
        pra: 0.3,
        update_rate: 0.1,
        seed: 977,
    };
    (spec.generate(), params)
}

fn contents(db: &Database) -> (Vec<BaseTuple>, Vec<BaseTuple>) {
    let (mut r, mut s) = (Vec::new(), Vec::new());
    db.r().scan(|t| r.push(t)).unwrap();
    db.s().scan(|t| s.push(t)).unwrap();
    (r, s)
}

fn hh_answer(db: &Database) -> Vec<trijoin_common::ViewTuple> {
    oracle::canonicalize(execute_collect(&mut db.hybrid_hash(), db.r(), db.s()).unwrap())
}

/// A batch whose net effect is empty — every update undone, every insert
/// deleted again, on both relations — writes no base page at all.
#[test]
fn a_net_empty_batch_writes_no_base_page() {
    let (gen, params) = law_fixture();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    // `R` with the inverted index `S`'s mutations give it: both trees of
    // both relations are held to the law.
    db.r_mut().build_inverted(&params).unwrap();
    let before = contents(&db);
    let moved = |t: &BaseTuple| BaseTuple::padded(t.sur, t.key + 1000, 96);
    let update_s = |db: &mut Database, old: &BaseTuple, new: &BaseTuple| {
        let m = Mutation::Update(Update { old: old.clone(), new: new.clone() });
        db.apply_s_mutation(&m).unwrap();
    };
    for t in gen.r.iter().step_by(3) {
        db.r_mut().apply_update(t, &moved(t)).unwrap();
    }
    for t in gen.s.iter().step_by(5) {
        update_s(&mut db, t, &moved(t));
    }
    for i in 0..40u32 {
        let fresh = BaseTuple::padded(Surrogate(50_000 + i), i as u64, 96);
        db.r_mut().insert(&fresh).unwrap();
        db.r_mut().delete(&fresh).unwrap();
    }
    for t in gen.r.iter().step_by(3) {
        db.r_mut().apply_update(&moved(t), t).unwrap();
    }
    for t in gen.s.iter().step_by(5) {
        update_s(&mut db, &moved(t), t);
    }
    let writes = db.metrics().counter("disk.writes");
    db.settle().unwrap();
    assert_eq!(db.metrics().counter("disk.writes"), writes, "a net-empty batch wrote pages");
    assert_eq!(db.metrics().counter("base.settle.leaves_written"), 0);
    assert_eq!(db.metrics().counter("base.settle.rejected"), 0);
    assert_eq!(contents(&db), before);
    db.r().check_invariants().unwrap();
    db.s().check_invariants().unwrap();
}

/// Cutting one batch of mixed mutations into k settled pieces changes
/// neither what the relation holds nor the join answer.
#[test]
fn splitting_a_batch_changes_neither_the_relation_nor_the_join() {
    let (gen, params) = law_fixture();
    let batch: Vec<Mutation> = {
        let mut stream = gen.mutation_stream(MutationMix::churn());
        (0..600).map(|_| stream.next_mutation()).collect()
    };
    let run = |pieces: usize| {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        for piece in batch.chunks(batch.len().div_ceil(pieces)) {
            for m in piece {
                db.r_mut().apply_mutation(m).unwrap();
            }
            db.settle().unwrap();
        }
        db.r().check_invariants().unwrap();
        assert_eq!(db.r().rejected_ops(), 0);
        (contents(&db), hh_answer(&db))
    };
    let whole = run(1);
    for pieces in [2, 7, 600] {
        assert_eq!(run(pieces), whole, "{pieces} pieces");
    }
}

/// Updates of different tuples commute: either order of two disjoint
/// batches, settled together or apart, leaves the same relation.
#[test]
fn independent_updates_commute() {
    let (gen, params) = law_fixture();
    let update = |t: &BaseTuple, key: u64| {
        Mutation::Update(trijoin::Update { old: t.clone(), new: BaseTuple::padded(t.sur, key, 96) })
    };
    let evens: Vec<Mutation> = gen.r.iter().step_by(2).map(|t| update(t, t.key + 7)).collect();
    let odds: Vec<Mutation> =
        gen.r.iter().skip(1).step_by(2).map(|t| update(t, t.key + 11)).collect();
    let run = |first: &[Mutation], second: &[Mutation], settle_between: bool| {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        for m in first {
            db.r_mut().apply_mutation(m).unwrap();
        }
        if settle_between {
            db.settle().unwrap();
        }
        for m in second {
            db.r_mut().apply_mutation(m).unwrap();
        }
        (contents(&db), hh_answer(&db))
    };
    let want = run(&evens, &odds, false);
    assert_eq!(run(&odds, &evens, false), want);
    assert_eq!(run(&evens, &odds, true), want);
    assert_eq!(run(&odds, &evens, true), want);
}

/// A log that fills up between two reads settles before it takes the next
/// mutation, and through `Database` that settle is one of the database's:
/// under the `base.settle` span and in its histogram, like any other.
#[test]
fn a_full_apply_log_settles_under_the_databases_span() {
    let (gen, params) = law_fixture();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let update = |t: &BaseTuple, round: u64| trijoin::Update {
        old: t.clone(),
        new: BaseTuple::padded(t.sur, t.key + round, 96),
    };
    let mut queued = 0u64;
    for (round, t) in (1..).flat_map(|round| gen.r.iter().map(move |t| (round, t))) {
        if db.r().settle_due() {
            break;
        }
        db.apply_r_update(&update(t, round)).unwrap();
        queued += 1;
    }
    assert_eq!(db.metrics().counter("base.settles"), 0);
    assert!(db.cost().section_counts("base.settle").is_zero());
    let ios = db.cost().total().ios;
    db.apply_r_update(&update(&gen.r[0], 99)).unwrap();
    assert_eq!(db.metrics().counter("base.settle.ops"), queued);
    assert_eq!(db.r().pending_ops(), 1, "the mutation that found the log full came after");
    assert_eq!(db.metrics().histogram("base.settle.us").map(|h| h.count), Some(1));
    let spanned = db.cost().section_counts("base.settle");
    assert!(spanned.ios > 0 && spanned.ios == db.cost().total().ios - ios, "{spanned:?}");
    db.r().check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// The laws of the deferral: a relation catches up when it is read or its
// log is full, and what it then does follows what changed since it last
// did, not how many queries went by.
// ---------------------------------------------------------------------

/// A strategy behind a wrapper that forwards `name`, `on_mutation` and
/// `execute` and nothing else — what the repo benchmark's span wrapper
/// does. Whatever tells the engine which relations a query reads has to
/// get through it.
struct Forwarding<'a>(&'a mut dyn JoinStrategy);

impl JoinStrategy for Forwarding<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_mutation(&mut self, m: &Mutation) -> trijoin_common::Result<()> {
        self.0.on_mutation(m)
    }
    fn execute(
        &mut self,
        r: &trijoin_exec::StoredRelation,
        s: &trijoin_exec::StoredRelation,
        sink: &mut dyn FnMut(trijoin_common::ViewTuple),
    ) -> trijoin_common::Result<u64> {
        self.0.execute(r, s, sink)
    }
}

/// K epochs of updates under view queries, swept once at the end, leave
/// the tree a relation settled after every epoch has — and write strictly
/// fewer leaves getting there.
#[test]
fn epochs_settled_once_equal_epochs_settled_one_by_one() {
    let (gen, params) = law_fixture();
    let run = |settle_each_epoch: bool| {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut mv = db.materialized_view().unwrap();
        let mut stream = gen.mutation_stream(MutationMix::churn());
        for epoch in 0..6 {
            for _ in 0..150 {
                let m = stream.next_mutation();
                mv.on_mutation(&m).unwrap();
                db.apply_r_mutation(&m).unwrap();
            }
            let got = db.query(&mut Forwarding(&mut mv)).unwrap();
            let want = oracle::join_tuples(&stream.current(), &gen.s);
            oracle::assert_same_join(&format!("epoch {epoch}"), got, want);
            if settle_each_epoch {
                db.settle().unwrap();
            }
        }
        let settles = db.metrics().counter("base.settles");
        assert_eq!(settles, if settle_each_epoch { 6 } else { 0 }, "a view's query reads no R");
        assert_eq!(db.r().len_estimate(), stream.len() as u64, "the estimate counts the queue");
        db.settle().unwrap();
        db.r().check_invariants().unwrap();
        assert_eq!((db.r().len(), db.r().rejected_ops()), (stream.len() as u64, 0));
        (contents(&db), db.metrics().counter("base.settle.leaves_written"))
    };
    let (one_by_one, many_writes) = run(true);
    let (at_once, few_writes) = run(false);
    assert_eq!(at_once, one_by_one);
    assert!(few_writes < many_writes, "{few_writes} leaves at once, {many_writes} one by one");
}

/// x → y in one epoch and y → x in a later one, with view queries in
/// between and no settle: the sweep nets across epochs and writes no leaf.
#[test]
fn an_update_undone_in_a_later_epoch_writes_no_leaf() {
    let (gen, params) = law_fixture();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let mut mv = db.materialized_view().unwrap();
    let moved = |t: &BaseTuple| BaseTuple::padded(t.sur, t.key + 1000, 96);
    let mut epoch = |db: &mut Database, undo: bool| {
        for t in gen.r.iter().step_by(3) {
            let (old, new) = if undo { (moved(t), t.clone()) } else { (t.clone(), moved(t)) };
            let u = trijoin::Update { old, new };
            mv.on_update(&u).unwrap();
            db.apply_r_update(&u).unwrap();
        }
        db.query(&mut mv).unwrap()
    };
    let there = epoch(&mut db, false);
    let away: Vec<BaseTuple> = gen
        .r
        .iter()
        .enumerate()
        .map(|(i, t)| if i % 3 == 0 { moved(t) } else { t.clone() })
        .collect();
    oracle::assert_same_join("moved", there, oracle::join_tuples(&away, &gen.s));
    let back = epoch(&mut db, true);
    oracle::assert_same_join("undone", back, oracle::join_tuples(&gen.r, &gen.s));
    assert_eq!(db.metrics().counter("base.settles"), 0);
    let writes = db.metrics().counter("disk.writes");
    db.settle().unwrap();
    assert_eq!(db.metrics().counter("disk.writes"), writes, "a net-empty log wrote pages");
    assert_eq!(db.metrics().counter("base.settle.leaves_written"), 0);
    assert_eq!(db.metrics().counter("base.settle.ops"), 2 * gen.r.len().div_ceil(3) as u64);
    assert_eq!(contents(&db).0, gen.r);
}

/// MV, JI, HH queried over pending mutations that spilled runs: no query
/// settles `R` while reading its log through still pays. The view's query
/// never reads `R`; the join index's and hybrid hash's read the log under
/// `base.read_through`, a span inside their own (that read is the query's
/// work), and the log keeps every operation. Once the rent — run pages read,
/// and the `|M|` rent of held runs — reaches `2·min(leaf pages, queued)`,
/// the next reader settles instead, once,
/// under a root-level `base.settle` that no `ji.*` span absorbs, that
/// `query.us` leaves out and that the query's start event comes after.
/// Every query answers the oracle's join.
#[test]
fn a_relation_is_read_through_until_a_settle_pays() {
    let (gen, params) = law_fixture();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let (mut mv, mut ji, mut hh) =
        (db.materialized_view().unwrap(), db.join_index().unwrap(), db.hybrid_hash());
    let leaves = db.r().data_pages();
    db.reset_observability();
    let mut stream = gen.update_stream();
    for _ in 0..6 * gen.updates_per_epoch() {
        let u = stream.next_update();
        mv.on_update(&u).unwrap();
        ji.on_update(&u).unwrap();
        db.apply_r_update(&u).unwrap();
    }
    assert!(db.metrics().counter("base.apply_log.runs") >= 2);
    let want = oracle::join_tuples(stream.current(), &gen.s);
    let queued = db.r().pending_ops();
    let query_us = |db: &Database| db.metrics().histogram("query.us").map_or(0, |h| h.sum);
    let us = |ops: trijoin_common::OpCounts| ops.time_us(&params);

    let got = db.query(&mut Forwarding(&mut mv)).unwrap();
    oracle::assert_same_join("mv", got, want.clone());
    assert_eq!(db.metrics().counter("base.read_through.reads"), 0, "the view's query read R");

    // The rent: run pages read through the log, and what the `|M|` the
    // held runs took cost the join index's passes and hybrid hash's spill.
    let rent = |db: &Database| {
        let metrics = db.metrics();
        metrics.counter("base.read_through.pages") + metrics.counter("base.read_through.rent")
    };
    let mut reads = 0;
    while rent(&db) < 2 * leaves.min(queued) {
        let strategy: &mut dyn JoinStrategy = if reads % 2 == 0 { &mut ji } else { &mut hh };
        let got = db.query(&mut Forwarding(strategy)).unwrap();
        oracle::assert_same_join(&format!("read-through {reads}"), got, want.clone());
        reads += 1;
        assert_eq!(db.metrics().counter("base.read_through.reads"), reads);
        assert_eq!((db.metrics().counter("base.settles"), db.r().pending_ops()), (0, queued));
    }
    assert!(reads >= 2, "{reads} reads through the log");
    let spans = db.cost().span_tree();
    let through: Vec<_> = spans.iter().filter(|s| s.name == "base.read_through").collect();
    assert!(through.iter().any(|s| s.path == "ji.fetch_r/base.read_through"), "{through:?}");
    assert!(through.iter().any(|s| s.path == "hh.execute/base.read_through"), "{through:?}");
    assert!(through.iter().all(|s| s.depth == 0 || s.cum_ops.ios > 0));

    let (before, sampled) = (db.cost().total(), query_us(&db));
    let got = db.query(&mut Forwarding(&mut ji)).unwrap();
    oracle::assert_same_join("ji settles", got, want.clone());
    assert_eq!(db.metrics().counter("base.settles"), 1);
    assert_eq!(db.metrics().counter("base.settle.ops"), queued);
    assert_eq!(db.metrics().counter("base.read_through.reads"), reads, "it settled instead");
    let spans = db.cost().span_tree();
    let settle: Vec<_> = spans.iter().filter(|s| s.name == "base.settle").collect();
    assert_eq!(settle.len(), 1);
    assert_eq!((settle[0].depth, settle[0].invocations), (0, 1), "{}", settle[0].path);
    let first_ji = spans.iter().find(|s| s.name == "ji.read_diffs").unwrap();
    assert!(settle[0].last_exit < first_ji.last_exit && first_ji.depth == 0);
    let spent = us(db.cost().total().delta_since(&before));
    let sample = (query_us(&db) - sampled) as f64;
    assert!(us(settle[0].cum_ops) > 0.0);
    assert!((spent - us(settle[0].cum_ops) - sample).abs() <= 1.0, "{spent} µs, {sample} sampled");
    let events = db.events().events();
    let start =
        events.iter().rev().find(|e| e.kind == trijoin_common::EventKind::QueryStart).unwrap();
    assert_eq!(start.at, settle[0].end_total, "the query's clock starts once R has caught up");
    assert_eq!(db.metrics().histogram("base.settle.us").map(|h| h.count), Some(1));

    let got = db.query(&mut Forwarding(&mut hh)).unwrap();
    oracle::assert_same_join("hh", got, want);
    assert_eq!(db.metrics().counter("base.settles"), 1, "nothing was queued for hybrid hash");
    assert_eq!(db.metrics().counter("base.read_through.reads"), reads);
}

/// The repo benchmark's `*_cycle` round — an epoch of updates, one query
/// through a wrapper that forwards three methods — settles `R` far less
/// than once a round under every strategy: the view's query never reads
/// `R`, and the join index's and hybrid hash's read its log through every
/// round, settling only once the run pages read reach what a settle would
/// touch. An eager settle in front of every query, or a statistic that
/// forces one, shows here before it shows at the benchmark.
#[test]
fn cycle_rounds_settle_only_when_the_log_is_full_or_a_settle_pays() {
    const ROUNDS: u64 = 12;
    let (gen, params) = law_fixture();
    for method in trijoin::Method::all() {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut strategy = trijoin::CachedStrategy::build(&db, method).unwrap();
        db.reset_observability();
        let mut stream = gen.update_stream();
        for round in 0..ROUNDS {
            for _ in 0..gen.updates_per_epoch() {
                let u = stream.next_update();
                strategy.as_dyn().on_update(&u).unwrap();
                db.apply_r_update(&u).unwrap();
            }
            let got = db.query(&mut Forwarding(strategy.as_dyn())).unwrap();
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(&format!("{method} round {round}"), got, want);
        }
        let (settles, reads) =
            (db.metrics().counter("base.settles"), db.metrics().counter("base.read_through.reads"));
        assert!(settles <= 1, "{method}: {settles} settles in {ROUNDS} rounds");
        if method == trijoin::Method::MaterializedView {
            assert_eq!((settles, reads), (0, 0), "{method}");
            assert!(db.r().pending_ops() > 0);
        } else {
            assert_eq!(settles + reads, ROUNDS, "{method}: each round reads through or settles");
        }
        let strategy_spans = db.cost().span_tree();
        assert!(
            strategy_spans.iter().filter(|s| s.name == "base.settle").all(|s| s.depth == 0),
            "{method}: a strategy span absorbed a settle"
        );
    }
}

// ---------------------------------------------------------------------
// The deferred-maintenance contract (`Database::mutate`) and the epoch
// runner built on it (`Database::run_epoch`).
// ---------------------------------------------------------------------

/// A mutation its relation refuses — a tuple of the wrong width, an update
/// that renames its surrogate — reaches neither the view nor the join index
/// through the contract, on `R` and on `S`, and the answers after it stay
/// on the oracle. One layer below the serve test of the same name.
#[test]
fn the_contract_refuses_malformed_mutations_before_any_structure_logs() {
    use trijoin::{CachedStrategy, Method};
    let (gen, params) = law_fixture();
    let joins = |t: &&BaseTuple, other: &[BaseTuple]| other.iter().any(|o| o.key == t.key);
    for of_s in [false, true] {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut cached = [Method::MaterializedView, Method::JoinIndex]
            .map(|method| CachedStrategy::build(&db, method).unwrap());
        let pending = |c: &[CachedStrategy; 2]| match c {
            [CachedStrategy::Mv(mv), CachedStrategy::Ji(ji)] => {
                (mv.pending_updates(), ji.pending_updates())
            }
            _ => unreachable!(),
        };
        let (mut r, mut s) = (gen.r.clone(), gen.s.clone());
        let (rel, other) = if of_s { (&mut s, &gen.r) } else { (&mut r, &gen.s) };
        let old = rel.iter().find(|t| joins(t, other)).unwrap().clone();
        // The rename also moves the join key, so the join index would log it.
        let renamed = BaseTuple::padded(Surrogate(90_000), old.key + 1, 96);
        let narrow = BaseTuple::padded(Surrogate(90_001), old.key, 32);
        for m in
            [Mutation::Update(Update { old: old.clone(), new: renamed }), Mutation::Insert(narrow)]
        {
            let log = |_: &Database| cached.iter_mut().try_for_each(|c| c.on_mutation_of(of_s, &m));
            assert!(db.mutate(of_s, &m, log).is_err(), "of S {of_s}: {m:?} admitted");
            assert_eq!(pending(&cached), (0, 0), "of S {of_s}: a structure logged {m:?}");
        }
        // A well-formed update after the refusals still lands.
        let new = BaseTuple::padded(old.sur, old.key + 1, 96);
        *rel.iter_mut().find(|t| t.sur == old.sur).unwrap() = new.clone();
        let m = Mutation::Update(Update { old, new });
        db.mutate(of_s, &m, |_| cached.iter_mut().try_for_each(|c| c.on_mutation_of(of_s, &m)))
            .unwrap();
        let want = oracle::join_tuples(&r, &s);
        for c in cached.iter_mut() {
            oracle::assert_same_join(
                &format!("of S {of_s}"),
                db.query(c.as_dyn()).unwrap(),
                want.clone(),
            );
        }
        let got = db.query(&mut db.hybrid_hash()).unwrap();
        oracle::assert_same_join(&format!("of S {of_s}: hh"), got, want);
    }
}

/// An epoch through the runner splits the ledger three ways with nothing
/// left over — `log + base + query` is every charge since the reset, for
/// each method — and everything the base relations charge, the apply log's
/// spills included, is under a `base.*` span of their own.
#[test]
fn an_epoch_splits_the_ledger_into_log_base_and_query() {
    use trijoin::{CachedStrategy, Method};
    let (gen, params) = law_fixture();
    for method in Method::all() {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut cached = CachedStrategy::build(&db, method).unwrap();
        db.reset_cost();
        let updates = gen.update_stream().take(400);
        let (cost, _) = db.run_epoch(&mut [cached.as_dyn()], updates).unwrap().remove(0);
        let mut sum = cost.strategy();
        sum.add(&cost.base);
        assert_eq!(sum, db.cost().total(), "{method:?}: log + base + query");
        let roots: Vec<_> = db.cost().span_tree().into_iter().filter(|s| s.depth == 0).collect();
        assert!(db.metrics().counter("base.apply_log.runs") > 0, "{method:?}: no spill");
        let mut base = trijoin::OpCounts::default();
        for span in roots.iter().filter(|s| s.name.starts_with("base.")) {
            base.add(&span.cum_ops);
        }
        assert_eq!(base, cost.base, "{method:?}: base work outside a base.* span");
        if method == Method::HybridHash {
            // Hybrid hash logs nothing and queries under its own spans: the
            // root spans are the whole ledger.
            let mut spanned = trijoin::OpCounts::default();
            roots.iter().for_each(|s| spanned.add(&s.cum_ops));
            assert_eq!(spanned, db.cost().total());
        }
    }
}

/// A settle of the serving benchmark's mix — updates, inserts and deletes
/// at 2:1:1 — charges what the model prices a sweep of its keys at
/// (`model::sweep_cost`), within the 1.25× the audit holds settles to, plus
/// one write per page it splits off: inserts that overflow a leaf and
/// deletes that underflow one cost no more than the sweep's own pages.
#[test]
fn a_mixed_settle_charges_the_models_sweep_and_its_splits() {
    let (gen, params) = law_fixture();
    let mix = MutationMix { update: 0.5, insert: 0.25, delete: 0.25 };
    for queued in [48usize, 160, 400] {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut stream = gen.mutation_stream(mix);
        for _ in 0..queued {
            db.apply_r_mutation(&stream.next_mutation()).unwrap();
        }
        let splits = db.metrics().counter("btree.splits");
        let did = db.r().settle().unwrap();
        let splits = db.metrics().counter("btree.splits") - splits;
        assert_eq!(did.ops, queued as u64, "one settle");
        let (k, m, n) = (did.keys as f64, did.leaf_pages as f64, did.tuples as f64);
        let priced = trijoin_model::sweep_cost(&params, k, m, n) * 1e6 / params.io_us;
        let charged = did.charged.ios as f64;
        assert!(
            charged <= 1.25 * priced + splits as f64,
            "{queued} mutations: {charged} I/Os charged, the model prices {priced:.1}, \
             {splits} pages split off"
        );
        db.r().check_invariants().unwrap();
    }
}
