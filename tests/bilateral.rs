//! Bilateral maintenance: the materialized view and the join index stay
//! exact when *both* relations mutate between queries — the general `V'`
//! expression of §3.2 the paper scopes out of its analysis. `R` gains the
//! symmetric access path (an inverted index on `A`) when `S` first changes.

use rand::prelude::*;
use std::collections::HashMap;

use trijoin::{
    CachedStrategy, Database, FaultPlan, JoinStrategy, MaterializedView, Method, Mutation,
    SystemParams, Update,
};
use trijoin_common::{rng, BaseTuple, OpCounts, Surrogate, ViewTuple};
use trijoin_exec::{execute_collect, oracle, Predicate, ViewDef};

const TUPLE: usize = 80;

struct Mirror {
    map: HashMap<u32, BaseTuple>,
    next_sur: u32,
}

impl Mirror {
    fn new(tuples: &[BaseTuple]) -> Self {
        Mirror {
            map: tuples.iter().map(|t| (t.sur.0, t.clone())).collect(),
            next_sur: tuples.iter().map(|t| t.sur.0 + 1).max().unwrap_or(0),
        }
    }

    fn tuples(&self) -> Vec<BaseTuple> {
        self.map.values().cloned().collect()
    }

    fn random_mutation(&mut self, rn: &mut StdRng, key_domain: u64, counter: u64) -> Mutation {
        let roll: f64 = rn.gen();
        let fresh_key = |rn: &mut StdRng| {
            if rn.gen_bool(0.7) {
                rn.gen_range(0..key_domain)
            } else {
                5_000_000 + rn.gen_range(0u64..1000)
            }
        };
        if roll < 0.2 {
            let sur = Surrogate(self.next_sur);
            self.next_sur += 1;
            let key = fresh_key(rn);
            let t = BaseTuple::with_payload(sur, key, &counter.to_le_bytes(), TUPLE).unwrap();
            self.map.insert(sur.0, t.clone());
            Mutation::Insert(t)
        } else if roll < 0.35 && self.map.len() > 2 {
            let mut surs: Vec<u32> = self.map.keys().copied().collect();
            surs.sort_unstable();
            let sur = surs[rn.gen_range(0..surs.len())];
            Mutation::Delete(self.map.remove(&sur).unwrap())
        } else {
            let mut surs: Vec<u32> = self.map.keys().copied().collect();
            surs.sort_unstable();
            let sur = surs[rn.gen_range(0..surs.len())];
            let old = self.map[&sur].clone();
            let key = if rn.gen_bool(0.5) { fresh_key(rn) } else { old.key };
            let new = BaseTuple::with_payload(Surrogate(sur), key, &counter.to_le_bytes(), TUPLE)
                .unwrap();
            self.map.insert(sur, new.clone());
            Mutation::Update(Update { old, new })
        }
    }
}

fn mk_side(n: u32, key_domain: u64, seed: u64) -> Vec<BaseTuple> {
    let mut rn = rng::seeded(seed);
    (0..n)
        .map(|i| {
            let key = if rn.gen_bool(0.8) {
                rn.gen_range(0..key_domain)
            } else {
                5_000_000 + rn.gen_range(0u64..1000)
            };
            BaseTuple::padded(Surrogate(i), key, TUPLE)
        })
        .collect()
}

/// `n` random mutations, each of `R` or of `S` on a coin flip, shown to the
/// cached structures and then applied to the database.
fn churn_both(
    db: &mut Database,
    cached: &mut [CachedStrategy],
    (r_mirror, s_mirror): (&mut Mirror, &mut Mirror),
    rn: &mut StdRng,
    key_domain: u64,
    counters: std::ops::Range<u64>,
) {
    for counter in counters {
        let of_s = rn.gen_bool(0.5);
        let mirror = if of_s { &mut *s_mirror } else { &mut *r_mirror };
        apply(db, cached, of_s, &mirror.random_mutation(rn, key_domain, counter));
    }
}

/// Log one mutation of `R` or (`of_s`) of `S` into every structure, then
/// queue it.
fn apply(db: &mut Database, cached: &mut [CachedStrategy], of_s: bool, m: &Mutation) {
    for c in cached.iter_mut() {
        c.on_mutation_of(of_s, m).unwrap();
    }
    if of_s {
        db.apply_s_mutation(m).unwrap();
    } else {
        db.apply_r_mutation(m).unwrap();
    }
}

/// The view and the join index over `db`.
fn mv_and_ji(db: &Database) -> Vec<CachedStrategy> {
    vec![
        CachedStrategy::Mv(db.materialized_view().unwrap()),
        CachedStrategy::Ji(db.join_index().unwrap()),
    ]
}

/// Every structure, and hybrid hash, answers `want`.
fn assert_all_answer(
    label: &str,
    db: &Database,
    cached: &mut [CachedStrategy],
    want: &[ViewTuple],
) {
    for c in cached.iter_mut() {
        let got = execute_collect(c.as_dyn(), db.r(), db.s()).unwrap();
        oracle::assert_same_join(&format!("{label} {}", c.method()), got, want.to_vec());
        if let CachedStrategy::Ji(ji) = c {
            ji.check_invariants().unwrap();
        }
    }
    let got = execute_collect(&mut db.hybrid_hash(), db.r(), db.s()).unwrap();
    oracle::assert_same_join(&format!("{label} hh"), got, want.to_vec());
}

#[test]
fn bilateral_view_tracks_mutations_on_both_sides() {
    // Z = 3 pages, 12 tuples each: both relations' logs spill every epoch,
    // and opening `S`'s halves a full buffer of `R`'s.
    let params = SystemParams { mem_pages: 8, page_size: 1024, ..Default::default() };
    let r0 = mk_side(800, 10, 501);
    let s0 = mk_side(700, 10, 502);
    let mut db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    let mut cached = mv_and_ji(&db);
    let mut r_mirror = Mirror::new(&r0);
    let mut s_mirror = Mirror::new(&s0);
    let mut rn = rng::seeded(503);

    for epoch in 0..4 {
        let counters = epoch * 1000..epoch * 1000 + 120;
        churn_both(&mut db, &mut cached, (&mut r_mirror, &mut s_mirror), &mut rn, 10, counters);
        let want = oracle::join_tuples(&r_mirror.tuples(), &s_mirror.tuples());
        assert_all_answer(&format!("epoch {epoch}"), &db, &mut cached, &want);
        let CachedStrategy::Mv(view) = &cached[0] else { unreachable!() };
        assert_eq!(view.view_len(), want.len() as u64);
    }
}

#[test]
fn s_only_mutations() {
    let params = SystemParams { mem_pages: 40, page_size: 1024, ..Default::default() };
    let r0 = mk_side(400, 8, 511);
    let s0 = mk_side(400, 8, 512);
    let mut db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    let mut cached = mv_and_ji(&db);
    let mut s_mirror = Mirror::new(&s0);
    let mut rn = rng::seeded(513);
    for i in 0..150u64 {
        let m = s_mirror.random_mutation(&mut rn, 8, i);
        apply(&mut db, &mut cached, true, &m);
    }
    let want = oracle::join_tuples(&r0, &s_mirror.tuples());
    assert_all_answer("s-only", &db, &mut cached, &want);
}

#[test]
fn correlated_both_side_churn_on_the_same_keys() {
    // R and S tuples hopping on and off the same key simultaneously —
    // exercises the (iR ⋈ iS) and (dR ⋈ dS) corners of the V' algebra.
    let params = SystemParams { mem_pages: 32, page_size: 512, ..Default::default() };
    let r0 = mk_side(100, 4, 521);
    let s0 = mk_side(100, 4, 522);
    let mut db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    let mut cached = mv_and_ji(&db);
    let mut mirrors = [Mirror::new(&r0), Mirror::new(&s0)];

    // Insert an (r, s) pair on a brand-new key, then delete both before
    // the query — net effect must be nil; then insert another pair that
    // stays.
    let key = 777u64;
    let mk = |sur: u32, counter: u64| {
        BaseTuple::with_payload(Surrogate(sur), key, &counter.to_le_bytes(), TUPLE).unwrap()
    };
    let (r_new, s_new) = (mk(900, 1), mk(901, 2));
    for (of_s, m) in [
        (false, Mutation::Insert(r_new.clone())),
        (true, Mutation::Insert(s_new.clone())),
        (false, Mutation::Delete(r_new)),
        (true, Mutation::Delete(s_new)),
        (false, Mutation::Insert(mk(910, 3))),
        (true, Mutation::Insert(mk(911, 4))),
    ] {
        apply(&mut db, &mut cached, of_s, &m);
        let mirror = &mut mirrors[of_s as usize].map;
        match m {
            Mutation::Insert(t) => mirror.insert(t.sur.0, t),
            Mutation::Delete(t) => mirror.remove(&t.sur.0),
            Mutation::Update(_) => unreachable!(),
        };
    }

    let want = oracle::join_tuples(&mirrors[0].tuples(), &mirrors[1].tuples());
    assert_all_answer("correlated churn", &db, &mut cached, &want);
    // The lasting pair is present exactly once, query after query.
    assert_all_answer("correlated churn, again", &db, &mut cached, &want);
}

#[test]
fn bilateral_requires_symmetric_access_path() {
    let params = SystemParams { mem_pages: 32, page_size: 512, ..Default::default() };
    let r0 = mk_side(50, 4, 531);
    let s0 = mk_side(50, 4, 532);
    let mut db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    // A selection every tuple passes: a select view all the same.
    let def = ViewDef { r_pred: Predicate::KeyRange { lo: 0, hi: u64::MAX }, ..ViewDef::full() };
    let (disk, cost) = (db.disk(), db.cost());
    let mut view =
        MaterializedView::build_with(disk, db.params(), cost, db.r(), db.s(), def).unwrap();
    // `R` is built per Table 5, without the inverted index `iS ⋈ R` probes;
    // the first mutation of `S` gives it one, outside any query.
    assert!(!db.r().has_inverted());
    let mut s_mirror = Mirror::new(&s0);
    let m = s_mirror.random_mutation(&mut rng::seeded(533), 4, 0);
    db.apply_s_mutation(&m).unwrap();
    assert!(db.r().has_inverted());
    db.r().check_invariants().unwrap();
    let built = db.cost().section_counts("base.build_inverted");
    assert!(built.ios > 0, "one scan and a bulk load: {built:?}");
    // A select view refuses mutations of S...
    assert!(matches!(view.on_s_mutation(&m), Err(trijoin_common::Error::Infeasible(_))));
    // ...and goes on answering R-only traffic.
    let mut r_mirror = Mirror::new(&r0);
    let mut rn = rng::seeded(534);
    for i in 0..40u64 {
        let m = r_mirror.random_mutation(&mut rn, 4, i);
        view.on_mutation(&m).unwrap();
        db.apply_r_mutation(&m).unwrap();
    }
    let want = oracle::join_tuples(&r_mirror.tuples(), &s0);
    let got = execute_collect(&mut view, db.r(), db.s()).unwrap();
    oracle::assert_same_join("r-only after a refused S mutation", got, want);
    assert_eq!(db.cost().section_counts("base.build_inverted"), built, "built once");
}

#[test]
fn without_s_mutations_the_s_capable_view_is_the_plain_view() {
    let params = SystemParams { mem_pages: 40, page_size: 1024, ..Default::default() };
    let r0 = mk_side(400, 8, 551);
    let s0 = mk_side(400, 8, 552);
    let mut plain_db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    // An `S` update undone at once gives `R` its inverted index and leaves
    // `S` as it was.
    let mut both_db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    let moved = BaseTuple::padded(s0[0].sur, s0[0].key + 1, TUPLE);
    for (old, new) in [(&s0[0], &moved), (&moved, &s0[0])] {
        both_db
            .apply_s_mutation(&Mutation::Update(Update { old: old.clone(), new: new.clone() }))
            .unwrap();
    }
    both_db.settle().unwrap();
    assert!(both_db.r().has_inverted());
    let mut plain = plain_db.materialized_view().unwrap();
    let mut both = both_db.materialized_view().unwrap();
    let mv_sections = |db: &Database| -> Vec<(String, OpCounts)> {
        db.cost().sections().into_iter().filter(|(name, _)| name.starts_with("mv.")).collect()
    };
    let mut r_mirror = Mirror::new(&r0);
    let mut rn = rng::seeded(553);
    for epoch in 0..3u64 {
        for i in 0..100u64 {
            let m = r_mirror.random_mutation(&mut rn, 8, epoch * 1000 + i);
            for (db, view) in [(&mut plain_db, &mut plain), (&mut both_db, &mut both)] {
                view.on_mutation(&m).unwrap();
                db.apply_r_mutation(&m).unwrap();
            }
        }
        let want = execute_collect(&mut plain, plain_db.r(), plain_db.s()).unwrap();
        let got = execute_collect(&mut both, both_db.r(), both_db.s()).unwrap();
        assert_eq!(got, want, "epoch {epoch}: same answer, in the same order");
        assert_eq!(both.view_len(), plain.view_len());
        assert_eq!(both.view_pages(), plain.view_pages());
        assert_eq!(mv_sections(&both_db), mv_sections(&plain_db), "epoch {epoch}: same charges");
    }
}

/// The first query after one `S` insert folds it for less than the rebuild
/// it replaced: building the structure afresh from the relations, then
/// querying it.
#[test]
fn one_s_insert_folds_for_less_than_a_rebuild_and_query() {
    let params = SystemParams { mem_pages: 40, page_size: 1024, ..Default::default() };
    let r0 = mk_side(2_000, 50, 571);
    let s0 = mk_side(2_000, 50, 572);
    let insert = Mutation::Insert(BaseTuple::padded(Surrogate(10_000), 7, TUPLE));
    for at in 0..2 {
        let mut db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
        let mut cached = [mv_and_ji(&db).remove(at)];
        let start = db.cost().total();
        apply(&mut db, &mut cached, true, &insert);
        execute_collect(cached[0].as_dyn(), db.r(), db.s()).unwrap();
        let folded = db.cost().total().delta_since(&start);

        let start = db.cost().total();
        let mut rebuilt = [mv_and_ji(&db).remove(at)];
        execute_collect(rebuilt[0].as_dyn(), db.r(), db.s()).unwrap();
        let rebuild = db.cost().total().delta_since(&start);
        let method = cached[0].method();
        assert!(
            folded.time_us(&params) < rebuild.time_us(&params),
            "{method}: folding charged {folded:?}, rebuild-then-query {rebuild:?}"
        );
    }
}

/// A device fault during a query with both sides' differentials pending
/// ends in the structure's recovery and the oracle's answer, and the next
/// epoch folds cleanly. Poisoned in turn: the structure's own file, and
/// every differential run file — the live files less the trees' — at its
/// first and at its last page, `S`'s pair included.
fn recovers_with_both_sides_pending(method: Method) {
    // Z/2 = 1 page per log, so a few dozen mutations spill runs.
    let params = SystemParams { mem_pages: 6, page_size: 512, ..Default::default() };
    let (r0, s0) = (mk_side(200, 6, 561), mk_side(200, 6, 562));
    let setup = || {
        let mut db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
        let mut cached = [CachedStrategy::build(&db, method).unwrap()];
        let (mut r_mirror, mut s_mirror) = (Mirror::new(&r0), Mirror::new(&s0));
        let mut rn = rng::seeded(563);
        // S's mutations first, logged before they are applied.
        let s_muts: Vec<Mutation> =
            (0..60).map(|i| s_mirror.random_mutation(&mut rn, 6, i)).collect();
        for m in &s_muts {
            cached[0].on_s_mutation(m).unwrap();
        }
        for m in &s_muts {
            db.apply_s_mutation(m).unwrap();
        }
        for i in 0..60u64 {
            apply(&mut db, &mut cached, false, &r_mirror.random_mutation(&mut rn, 6, 1000 + i));
        }
        db.settle().unwrap();
        (db, cached, r_mirror, s_mirror, rn)
    };

    let (db, cached, ..) = setup();
    let own = cached[0].cached_file().unwrap();
    let trees: Vec<_> = db.r().file_ids().chain(db.s().file_ids()).chain([own]).collect();
    let mut targets = vec![(own, 0)];
    for run in db.disk().live_files().into_iter().filter(|f| !trees.contains(f)) {
        let last = db.disk().num_pages(run).unwrap() as u64 - 1;
        targets.extend([(run, 0), (run, last)]);
    }
    targets.dedup();
    assert!(targets.len() > 4, "{method}: both sides of both pairs spilled");

    let prefix = if method == Method::MaterializedView { "mv" } else { "ji" };
    for (file, read) in targets {
        let label = format!("{method}, f{} read {read} poisoned", file.0);
        let (mut db, mut cached, mut r_mirror, mut s_mirror, mut rn) = setup();
        db.install_fault_plan(FaultPlan::new().poison_nth_read(Some(file), read));
        let want = oracle::join_tuples(&r_mirror.tuples(), &s_mirror.tuples());
        let got = execute_collect(cached[0].as_dyn(), db.r(), db.s()).unwrap();
        oracle::assert_same_join(&label, got, want);
        assert_eq!(db.faults_fired(), 1, "{label}: the fault fired");
        let recover = db.cost().section_counts(&format!("{prefix}.recover"));
        assert!(!recover.is_zero(), "{label}: recovered");
        db.clear_faults();

        // The rebuilt structure starts a clean epoch on both sides.
        let pending = match &cached[0] {
            CachedStrategy::Mv(mv) => mv.pending_updates(),
            CachedStrategy::Ji(ji) => ji.pending_updates(),
            CachedStrategy::Hh(_) => unreachable!(),
        };
        assert_eq!(pending, 0, "{label}");
        churn_both(&mut db, &mut cached, (&mut r_mirror, &mut s_mirror), &mut rn, 6, 2000..2080);
        let recoveries = db.metrics().counter(&format!("{prefix}.recoveries"));
        let want = oracle::join_tuples(&r_mirror.tuples(), &s_mirror.tuples());
        assert_all_answer(&format!("{label}, next epoch"), &db, &mut cached, &want);
        let again = db.metrics().counter(&format!("{prefix}.recoveries"));
        assert_eq!(again, recoveries, "{label}: no second recovery");
    }
}

#[test]
fn device_fault_with_both_sides_pending_recovers() {
    recovers_with_both_sides_pending(Method::MaterializedView);
    recovers_with_both_sides_pending(Method::JoinIndex);
}
