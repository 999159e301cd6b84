//! Bilateral maintenance: the materialized view stays exact when *both*
//! relations mutate between queries — the general `V'` expression of §3.2
//! the paper scopes out of its analysis — provided `R` carries the
//! symmetric access path (`Database::new_bilateral`).

use rand::prelude::*;
use std::collections::HashMap;

use trijoin::{
    Database, FaultPlan, JoinStrategy, MaterializedView, Mutation, SystemParams, Update,
};
use trijoin_common::{rng, BaseTuple, Surrogate};
use trijoin_exec::{execute_collect, oracle};

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
/// view and then applied to the database.
fn churn_both(
    db: &mut Database,
    view: &mut MaterializedView,
    (r_mirror, s_mirror): (&mut Mirror, &mut Mirror),
    rn: &mut StdRng,
    key_domain: u64,
    counters: std::ops::Range<u64>,
) {
    for counter in counters {
        if rn.gen_bool(0.5) {
            let m = r_mirror.random_mutation(rn, key_domain, counter);
            view.on_mutation(&m).unwrap();
            db.r_mut().apply_mutation(&m).unwrap();
        } else {
            let m = s_mirror.random_mutation(rn, key_domain, counter);
            view.on_s_mutation(&m).unwrap();
            db.s_mut().apply_mutation(&m).unwrap();
        }
    }
}

#[test]
fn bilateral_view_tracks_mutations_on_both_sides() {
    let params = SystemParams { mem_pages: 40, page_size: 1024, ..Default::default() };
    let r0 = mk_side(800, 10, 501);
    let s0 = mk_side(700, 10, 502);
    let mut db = Database::new_bilateral(&params, r0.clone(), s0.clone()).unwrap();
    let mut view = db.materialized_view().unwrap();
    let mut hh = db.hybrid_hash();
    let mut r_mirror = Mirror::new(&r0);
    let mut s_mirror = Mirror::new(&s0);
    let mut rn = rng::seeded(503);

    for epoch in 0..4 {
        let counters = epoch * 1000..epoch * 1000 + 120;
        churn_both(&mut db, &mut view, (&mut r_mirror, &mut s_mirror), &mut rn, 10, counters);
        let want = oracle::join_tuples(&r_mirror.tuples(), &s_mirror.tuples());
        let got = execute_collect(&mut view, db.r(), db.s()).unwrap();
        oracle::assert_same_join(&format!("epoch {epoch} bilateral"), got, want.clone());
        assert_eq!(view.view_len(), want.len() as u64);
        // Hybrid hash recomputes and must agree.
        let got_hh = execute_collect(&mut hh, db.r(), db.s()).unwrap();
        oracle::assert_same_join(&format!("epoch {epoch} hh"), got_hh, want);
    }
}

#[test]
fn s_only_mutations() {
    let params = SystemParams { mem_pages: 40, page_size: 1024, ..Default::default() };
    let r0 = mk_side(400, 8, 511);
    let s0 = mk_side(400, 8, 512);
    let mut db = Database::new_bilateral(&params, r0.clone(), s0.clone()).unwrap();
    let mut view = db.materialized_view().unwrap();
    let mut s_mirror = Mirror::new(&s0);
    let mut rn = rng::seeded(513);
    for i in 0..150u64 {
        let m = s_mirror.random_mutation(&mut rn, 8, i);
        view.on_s_mutation(&m).unwrap();
        db.s_mut().apply_mutation(&m).unwrap();
    }
    let want = oracle::join_tuples(&r0, &s_mirror.tuples());
    let got = execute_collect(&mut view, db.r(), db.s()).unwrap();
    oracle::assert_same_join("s-only", got, want);
}

#[test]
fn correlated_both_side_churn_on_the_same_keys() {
    // R and S tuples hopping on and off the same key simultaneously —
    // exercises the (iR ⋈ iS) and (dR ⋈ dS) corners of the V' algebra.
    let params = SystemParams { mem_pages: 32, page_size: 512, ..Default::default() };
    let r0 = mk_side(100, 4, 521);
    let s0 = mk_side(100, 4, 522);
    let mut db = Database::new_bilateral(&params, r0.clone(), s0.clone()).unwrap();
    let mut view = db.materialized_view().unwrap();
    let mut r_mirror = Mirror::new(&r0);
    let mut s_mirror = Mirror::new(&s0);

    // Insert an (r, s) pair on a brand-new key, then delete both before
    // the query — net effect must be nil; then insert another pair that
    // stays.
    let key = 777u64;
    let mk = |sur: u32, counter: u64| {
        BaseTuple::with_payload(Surrogate(sur), key, &counter.to_le_bytes(), TUPLE).unwrap()
    };
    let r_new = mk(900, 1);
    let s_new = mk(901, 2);
    for (is_r, m) in [
        (true, Mutation::Insert(r_new.clone())),
        (false, Mutation::Insert(s_new.clone())),
        (true, Mutation::Delete(r_new.clone())),
        (false, Mutation::Delete(s_new.clone())),
    ] {
        if is_r {
            view.on_mutation(&m).unwrap();
            db.r_mut().apply_mutation(&m).unwrap();
            match &m {
                Mutation::Insert(t) => {
                    r_mirror.map.insert(t.sur.0, t.clone());
                }
                Mutation::Delete(t) => {
                    r_mirror.map.remove(&t.sur.0);
                }
                _ => {}
            }
        } else {
            view.on_s_mutation(&m).unwrap();
            db.s_mut().apply_mutation(&m).unwrap();
            match &m {
                Mutation::Insert(t) => {
                    s_mirror.map.insert(t.sur.0, t.clone());
                }
                Mutation::Delete(t) => {
                    s_mirror.map.remove(&t.sur.0);
                }
                _ => {}
            }
        }
    }
    // A lasting correlated pair.
    let r_keep = mk(910, 3);
    let s_keep = mk(911, 4);
    view.on_mutation(&Mutation::Insert(r_keep.clone())).unwrap();
    db.r_mut().insert(&r_keep).unwrap();
    r_mirror.map.insert(r_keep.sur.0, r_keep);
    view.on_s_mutation(&Mutation::Insert(s_keep.clone())).unwrap();
    db.s_mut().insert(&s_keep).unwrap();
    s_mirror.map.insert(s_keep.sur.0, s_keep);

    let want = oracle::join_tuples(&r_mirror.tuples(), &s_mirror.tuples());
    let got = execute_collect(&mut view, db.r(), db.s()).unwrap();
    oracle::assert_same_join("correlated churn", got, want);
    // The lasting pair must be present exactly once.
    let pair_count = view.view_len();
    let second = execute_collect(&mut view, db.r(), db.s()).unwrap();
    assert_eq!(second.len() as u64, pair_count, "stable across idempotent queries");
}

#[test]
fn bilateral_requires_symmetric_access_path() {
    let params = SystemParams { mem_pages: 32, page_size: 512, ..Default::default() };
    let r0 = mk_side(50, 4, 531);
    let s0 = mk_side(50, 4, 532);
    // A view over a plain database (no inverted index on R) refuses
    // mutations of S...
    let mut db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    let mut view = db.materialized_view().unwrap();
    let mut s_mirror = Mirror::new(&s0);
    let m = s_mirror.random_mutation(&mut rng::seeded(533), 4, 0);
    assert!(matches!(view.on_s_mutation(&m), Err(trijoin_common::Error::Infeasible(_))));
    // ...and goes on answering R-only traffic.
    let mut r_mirror = Mirror::new(&r0);
    let mut rn = rng::seeded(534);
    for i in 0..40u64 {
        let m = r_mirror.random_mutation(&mut rn, 4, i);
        view.on_mutation(&m).unwrap();
        db.r_mut().apply_mutation(&m).unwrap();
    }
    let want = oracle::join_tuples(&r_mirror.tuples(), &s0);
    let got = execute_collect(&mut view, db.r(), db.s()).unwrap();
    oracle::assert_same_join("r-only after a refused S mutation", got, want);
}

#[test]
fn without_s_mutations_the_s_capable_view_is_the_plain_view() {
    let params = SystemParams { mem_pages: 40, page_size: 1024, ..Default::default() };
    let r0 = mk_side(400, 8, 551);
    let s0 = mk_side(400, 8, 552);
    let mut plain_db = Database::new(&params, r0.clone(), s0.clone()).unwrap();
    let mut both_db = Database::new_bilateral(&params, r0.clone(), s0.clone()).unwrap();
    let mut plain = plain_db.materialized_view().unwrap();
    let mut both = both_db.materialized_view().unwrap();
    let mut r_mirror = Mirror::new(&r0);
    let mut rn = rng::seeded(553);
    for epoch in 0..3u64 {
        for i in 0..100u64 {
            let m = r_mirror.random_mutation(&mut rn, 8, epoch * 1000 + i);
            for (db, view) in [(&mut plain_db, &mut plain), (&mut both_db, &mut both)] {
                view.on_mutation(&m).unwrap();
                db.r_mut().apply_mutation(&m).unwrap();
            }
        }
        let want = execute_collect(&mut plain, plain_db.r(), plain_db.s()).unwrap();
        let got = execute_collect(&mut both, both_db.r(), both_db.s()).unwrap();
        assert_eq!(got, want, "epoch {epoch}: same answer, in the same order");
        assert_eq!(both.view_len(), plain.view_len());
        assert_eq!(both.view_pages(), plain.view_pages());
    }
}

/// A device fault during a merge with both sides' differentials pending
/// ends in `mv.recover` and the oracle's answer, and the next epoch folds
/// cleanly. `pick_file` names the file whose first read is poisoned, given
/// the view and the run files its S side spilled.
fn recovers_with_both_sides_pending(
    label: &str,
    pick_file: impl Fn(&MaterializedView, &[trijoin_storage::FileId]) -> trijoin_storage::FileId,
) {
    // Z/2 = 1 page per log, so a few dozen mutations spill runs.
    let params = SystemParams { mem_pages: 6, page_size: 512, ..Default::default() };
    let r0 = mk_side(200, 6, 561);
    let s0 = mk_side(200, 6, 562);
    let mut db = Database::new_bilateral(&params, r0.clone(), s0.clone()).unwrap();
    let mut view = db.materialized_view().unwrap();
    let mut r_mirror = Mirror::new(&r0);
    let mut s_mirror = Mirror::new(&s0);
    let mut rn = rng::seeded(563);

    // S's mutations first, logged before they are applied: the only files
    // created meanwhile are the S side's runs.
    let before = db.disk().live_files();
    let s_muts: Vec<Mutation> = (0..60).map(|i| s_mirror.random_mutation(&mut rn, 6, i)).collect();
    for m in &s_muts {
        view.on_s_mutation(m).unwrap();
    }
    let s_runs: Vec<_> =
        db.disk().live_files().into_iter().filter(|f| !before.contains(f)).collect();
    assert!(!s_runs.is_empty(), "{label}: the S side spilled");
    for m in &s_muts {
        db.s_mut().apply_mutation(m).unwrap();
    }
    for i in 0..60u64 {
        let m = r_mirror.random_mutation(&mut rn, 6, 1000 + i);
        view.on_mutation(&m).unwrap();
        db.r_mut().apply_mutation(&m).unwrap();
    }
    db.settle().unwrap();

    db.install_fault_plan(FaultPlan::new().poison_nth_read(Some(pick_file(&view, &s_runs)), 0));
    let want = oracle::join_tuples(&r_mirror.tuples(), &s_mirror.tuples());
    let got = execute_collect(&mut view, db.r(), db.s()).unwrap();
    oracle::assert_same_join(label, got, want);
    assert_eq!(db.faults_fired(), 1, "{label}: the fault fired");
    assert!(!db.cost().section_counts("mv.recover").is_zero(), "{label}: recovered");
    db.clear_faults();

    // The rebuilt view starts a clean epoch on both sides.
    assert_eq!(view.pending_updates(), 0);
    churn_both(&mut db, &mut view, (&mut r_mirror, &mut s_mirror), &mut rn, 6, 2000..2080);
    let recoveries = db.metrics().counter("mv.recoveries");
    let want = oracle::join_tuples(&r_mirror.tuples(), &s_mirror.tuples());
    let got = execute_collect(&mut view, db.r(), db.s()).unwrap();
    oracle::assert_same_join(&format!("{label}, next epoch"), got, want.clone());
    assert_eq!(view.view_len(), want.len() as u64);
    assert_eq!(db.metrics().counter("mv.recoveries"), recoveries, "{label}: no second recovery");
}

#[test]
fn device_fault_with_both_sides_pending_recovers() {
    recovers_with_both_sides_pending("poisoned view page", |view, _| view.view_file());
    recovers_with_both_sides_pending("poisoned S-side run", |_, s_runs| s_runs[0]);
}
