//! General mutation streams — the paper's future-work case of "arbitrary
//! and possibly unequal sets of insertions and deletions". All three
//! strategies must stay exact when tuples are inserted with fresh
//! surrogates and deleted outright, not just updated in place.

use trijoin::{Database, JoinStrategy, Mutation, MutationMix, SystemParams, WorkloadSpec};
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
        ji.index().check_invariants().unwrap();
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
    let mut db = Database::new_bilateral(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let before = contents(&db);
    let moved = |t: &BaseTuple| BaseTuple::padded(t.sur, t.key + 1000, 96);
    for t in gen.r.iter().step_by(3) {
        db.r_mut().apply_update(t, &moved(t)).unwrap();
    }
    for t in gen.s.iter().step_by(5) {
        db.s_mut().unwrap().apply_update(t, &moved(t)).unwrap();
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
        db.s_mut().unwrap().apply_update(&moved(t), t).unwrap();
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
