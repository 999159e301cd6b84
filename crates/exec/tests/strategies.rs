//! Cross-strategy correctness: materialized view, join index and
//! hybrid-hash must all produce exactly the current `R ⋈ S` — same pairs,
//! same keys, same payloads — under arbitrary deferred update streams.

use std::collections::HashMap;

use rand::prelude::*;
use trijoin_common::{rng, BaseTuple, Cost, Surrogate, SystemParams};
use trijoin_exec::oracle;
use trijoin_exec::{
    execute_collect, HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView, StoredRelation,
    Update,
};
use trijoin_storage::{Disk, SimDisk};

const TUPLE: usize = 64;

struct TestDb {
    cost: Cost,
    params: SystemParams,
    disk: Disk,
    r: StoredRelation,
    s: StoredRelation,
    /// Ground-truth mirror of R (current state).
    r_now: HashMap<u32, BaseTuple>,
    s_now: Vec<BaseTuple>,
}

impl TestDb {
    /// `n_r`/`n_s` tuples; join keys drawn from `0..key_domain` (small
    /// domain ⇒ plenty of matches), plus some unmatched keys.
    fn new(n_r: u32, n_s: u32, key_domain: u64, seed: u64) -> Self {
        let mut rn = rng::seeded(rng::derive(seed, "build"));
        let cost = Cost::new();
        let params =
            SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost.clone());
        let mk = |i: u32, rn: &mut StdRng| {
            let key = if rn.gen_bool(0.8) {
                rn.gen_range(0..key_domain)
            } else {
                1_000_000 + rn.gen_range(0u64..1000) // unmatched range
            };
            let payload: Vec<u8> = (0..8).map(|_| rn.gen()).collect();
            BaseTuple::with_payload(Surrogate(i), key, &payload, TUPLE).unwrap()
        };
        let r_tuples: Vec<BaseTuple> = (0..n_r).map(|i| mk(i, &mut rn)).collect();
        let s_tuples: Vec<BaseTuple> = (0..n_s).map(|i| mk(i, &mut rn)).collect();
        let r = StoredRelation::build(&disk, &params, "R", r_tuples.clone(), false).unwrap();
        let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
        let r_now = r_tuples.into_iter().map(|t| (t.sur.0, t)).collect();
        TestDb { cost, params, disk, r, s, r_now, s_now: s_tuples }
    }

    fn strategies(&self) -> (MaterializedView, JoinIndexStrategy, HybridHash) {
        let mv = MaterializedView::build(&self.disk, &self.params, &self.cost, &self.r, &self.s)
            .unwrap();
        let ji = JoinIndexStrategy::build(&self.disk, &self.params, &self.cost, &self.r, &self.s)
            .unwrap();
        let hh = HybridHash::new(&self.disk, &self.params, &self.cost);
        self.cost.reset();
        (mv, ji, hh)
    }

    /// One random update; with probability `pra` the join attribute
    /// changes. Observed by all `strategies`, then applied to R.
    fn random_update(
        &mut self,
        strategies: &mut [&mut dyn JoinStrategy],
        pra: f64,
        key_domain: u64,
        rn: &mut StdRng,
    ) {
        let mut surs: Vec<u32> = self.r_now.keys().copied().collect();
        surs.sort_unstable(); // HashMap order is random; the pick must not be
        let sur = surs[rn.gen_range(0..surs.len())];
        let old = self.r_now[&sur].clone();
        let new_key = if rn.gen_bool(pra) {
            // Change A (may move between matched and unmatched ranges).
            if rn.gen_bool(0.8) {
                rn.gen_range(0..key_domain)
            } else {
                1_000_000 + rn.gen_range(0u64..1000)
            }
        } else {
            old.key
        };
        let payload: Vec<u8> = (0..8).map(|_| rn.gen()).collect();
        let new = BaseTuple::with_payload(Surrogate(sur), new_key, &payload, TUPLE).unwrap();
        let upd = Update { old: old.clone(), new: new.clone() };
        for st in strategies.iter_mut() {
            st.on_update(&upd).unwrap();
        }
        self.r.apply_update(&old, &new).unwrap();
        self.r_now.insert(sur, new);
    }

    fn oracle_join(&self) -> Vec<trijoin_common::ViewTuple> {
        let r: Vec<BaseTuple> = self.r_now.values().cloned().collect();
        oracle::join_tuples(&r, &self.s_now)
    }

    fn check_all(
        &self,
        mv: &mut MaterializedView,
        ji: &mut JoinIndexStrategy,
        hh: &mut HybridHash,
        label: &str,
    ) {
        let want = self.oracle_join();
        let got_hh = execute_collect(hh, &self.r, &self.s).unwrap();
        oracle::assert_same_join(&format!("{label}/hybrid-hash"), got_hh, want.clone());
        let got_mv = execute_collect(mv, &self.r, &self.s).unwrap();
        oracle::assert_same_join(&format!("{label}/materialized-view"), got_mv, want.clone());
        let got_ji = execute_collect(ji, &self.r, &self.s).unwrap();
        oracle::assert_same_join(&format!("{label}/join-index"), got_ji, want.clone());
        ji.check_invariants().unwrap();
        assert_eq!(mv.view_len(), want.len() as u64, "{label}: view cardinality");
        assert_eq!(ji.index_len(), want.len() as u64, "{label}: index cardinality");
    }
}

#[test]
fn no_updates_all_strategies_agree() {
    let db = TestDb::new(120, 100, 12, 1);
    let (mut mv, mut ji, mut hh) = db.strategies();
    db.check_all(&mut mv, &mut ji, &mut hh, "fresh");
}

#[test]
fn empty_join_everywhere() {
    // Disjoint key ranges: R keys all unmatched.
    let mut db = TestDb::new(40, 40, 5, 2);
    // Force R to be fully unmatched.
    let surs: Vec<u32> = db.r_now.keys().copied().collect();
    for sur in surs {
        let old = db.r_now[&sur].clone();
        let new = BaseTuple::with_payload(Surrogate(sur), 9_999_999, b"x", TUPLE).unwrap();
        db.r.apply_update(&old, &new).unwrap();
        db.r_now.insert(sur, new);
    }
    let (mut mv, mut ji, mut hh) = db.strategies();
    let want = db.oracle_join();
    assert!(want.is_empty());
    assert_eq!(execute_collect(&mut hh, &db.r, &db.s).unwrap().len(), 0);
    assert_eq!(execute_collect(&mut mv, &db.r, &db.s).unwrap().len(), 0);
    assert_eq!(execute_collect(&mut ji, &db.r, &db.s).unwrap().len(), 0);
}

#[test]
fn updates_then_query_all_agree() {
    let mut db = TestDb::new(150, 120, 10, 3);
    let (mut mv, mut ji, mut hh) = db.strategies();
    let mut rn = rng::seeded(rng::derive(3, "updates"));
    for _ in 0..60 {
        db.random_update(&mut [&mut mv, &mut ji, &mut hh], 0.4, 10, &mut rn);
    }
    db.check_all(&mut mv, &mut ji, &mut hh, "after-60-updates");
}

#[test]
fn repeated_update_query_rounds() {
    let mut db = TestDb::new(100, 80, 8, 4);
    let (mut mv, mut ji, mut hh) = db.strategies();
    let mut rn = rng::seeded(rng::derive(4, "updates"));
    for round in 0..4 {
        for _ in 0..25 {
            db.random_update(&mut [&mut mv, &mut ji, &mut hh], 0.5, 8, &mut rn);
        }
        db.check_all(&mut mv, &mut ji, &mut hh, &format!("round-{round}"));
    }
}

#[test]
fn chained_updates_to_same_tuple_cancel_correctly() {
    let mut db = TestDb::new(50, 50, 6, 5);
    let (mut mv, mut ji, mut hh) = db.strategies();
    // Hand-crafted chains on one tuple: a -> b -> c, then payload-only.
    let sur = 7u32;
    let steps: Vec<(u64, &[u8])> = vec![
        (1, b"step1"),
        (2, b"step2"),
        (2, b"step3-payload-only"),
        (3, b"step4"),
        (3, b"step5-payload-only"),
    ];
    for (key, payload) in steps {
        let old = db.r_now[&sur].clone();
        let new = BaseTuple::with_payload(Surrogate(sur), key, payload, TUPLE).unwrap();
        let upd = Update { old: old.clone(), new: new.clone() };
        mv.on_update(&upd).unwrap();
        ji.on_update(&upd).unwrap();
        hh.on_update(&upd).unwrap();
        db.r.apply_update(&old, &new).unwrap();
        db.r_now.insert(sur, new);
    }
    db.check_all(&mut mv, &mut ji, &mut hh, "chained");
}

#[test]
fn roundtrip_update_is_a_noop_for_the_join() {
    let mut db = TestDb::new(60, 60, 6, 6);
    let (mut mv, mut ji, mut hh) = db.strategies();
    let sur = 3u32;
    let orig = db.r_now[&sur].clone();
    let detour = BaseTuple::with_payload(Surrogate(sur), orig.key + 1, b"detour", TUPLE).unwrap();
    for (old, new) in [(orig.clone(), detour.clone()), (detour, orig.clone())] {
        let upd = Update { old: old.clone(), new: new.clone() };
        mv.on_update(&upd).unwrap();
        ji.on_update(&upd).unwrap();
        hh.on_update(&upd).unwrap();
        db.r.apply_update(&old, &new).unwrap();
        db.r_now.insert(sur, new);
    }
    assert_eq!(db.r_now[&sur], orig);
    db.check_all(&mut mv, &mut ji, &mut hh, "roundtrip");
}

#[test]
fn grace_and_hybrid_hash_agree() {
    let db = TestDb::new(200, 150, 10, 7);
    let mut hybrid = HybridHash::new(&db.disk, &db.params, &db.cost);
    let mut grace = HybridHash::grace(&db.disk, &db.params, &db.cost);
    let want = db.oracle_join();
    oracle::assert_same_join(
        "hybrid",
        execute_collect(&mut hybrid, &db.r, &db.s).unwrap(),
        want.clone(),
    );
    db.cost.reset();
    oracle::assert_same_join("grace", execute_collect(&mut grace, &db.r, &db.s).unwrap(), want);
}

#[test]
fn second_query_without_updates_is_cheap_for_caches() {
    let mut db = TestDb::new(150, 120, 10, 8);
    let (mut mv, mut ji, mut hh) = db.strategies();
    let mut rn = rng::seeded(rng::derive(8, "updates"));
    for _ in 0..40 {
        db.random_update(&mut [&mut mv, &mut ji, &mut hh], 0.5, 10, &mut rn);
    }
    // First query pays for update maintenance.
    db.cost.reset();
    execute_collect(&mut mv, &db.r, &db.s).unwrap();
    let mv_first = db.cost.total().ios;
    db.cost.reset();
    execute_collect(&mut mv, &db.r, &db.s).unwrap();
    let mv_second = db.cost.total().ios;
    assert!(
        mv_second < mv_first,
        "clean MV re-read ({mv_second} IOs) should beat maintaining ({mv_first} IOs)"
    );
    db.cost.reset();
    execute_collect(&mut ji, &db.r, &db.s).unwrap();
    let ji_first = db.cost.total().ios;
    db.cost.reset();
    execute_collect(&mut ji, &db.r, &db.s).unwrap();
    let ji_second = db.cost.total().ios;
    assert!(
        ji_second <= ji_first,
        "JI without pending updates must not cost more: {ji_second} vs {ji_first} \
         (pages {})",
        ji.index_pages()
    );
    // Hybrid hash costs the same either way.
    db.cost.reset();
    execute_collect(&mut hh, &db.r, &db.s).unwrap();
    let hh_a = db.cost.total().ios;
    db.cost.reset();
    execute_collect(&mut hh, &db.r, &db.s).unwrap();
    let hh_b = db.cost.total().ios;
    assert_eq!(hh_a, hh_b, "hybrid-hash is update-oblivious");
}

#[test]
fn costs_are_deterministic() {
    let run = || {
        let mut db = TestDb::new(100, 90, 9, 42);
        let (mut mv, mut ji, mut hh) = db.strategies();
        let mut rn = rng::seeded(rng::derive(42, "updates"));
        for _ in 0..30 {
            db.random_update(&mut [&mut mv, &mut ji, &mut hh], 0.3, 9, &mut rn);
        }
        db.cost.reset();
        execute_collect(&mut mv, &db.r, &db.s).unwrap();
        execute_collect(&mut ji, &db.r, &db.s).unwrap();
        execute_collect(&mut hh, &db.r, &db.s).unwrap();
        db.cost.total()
    };
    assert_eq!(run(), run(), "same seed must reproduce identical op counts");
}

#[test]
fn mv_io_cost_scales_with_view_not_base() {
    // Low-selectivity case: tiny view, MV query should touch far fewer
    // pages than hybrid hash (the heart of Figure 4's low-SR region).
    let mut db = TestDb::new(300, 300, 2000, 9); // few matches
    let (mut mv, _ji, mut hh) = db.strategies();
    let mut rn = rng::seeded(rng::derive(9, "updates"));
    for _ in 0..10 {
        db.random_update(&mut [&mut mv, &mut hh], 0.2, 2000, &mut rn);
    }
    db.cost.reset();
    execute_collect(&mut mv, &db.r, &db.s).unwrap();
    let mv_ios = db.cost.total().ios;
    db.cost.reset();
    execute_collect(&mut hh, &db.r, &db.s).unwrap();
    let hh_ios = db.cost.total().ios;
    assert!(
        mv_ios < hh_ios,
        "low selectivity: MV ({mv_ios} IOs) must beat hybrid hash ({hh_ios} IOs)"
    );
}

#[test]
fn ji_split_leaves_the_pages_after_it_in_place() {
    // Passes of a few packed leaves each; seven new partners of r = 0
    // overflow the first leaf, which splits in two. The leaves after it
    // keep their pages and images: only the split leaf and the page split
    // off are written, in the first pass or any later one.
    let cost = Cost::new();
    let params = SystemParams { page_size: 512, mem_pages: 20, ..SystemParams::paper_defaults() };
    let disk = SimDisk::new(&params, cost.clone());
    let mk = |sur: u32, key: u64| BaseTuple::padded(Surrogate(sur), key, TUPLE);
    let mut r = StoredRelation::build(
        &disk,
        &params,
        "R",
        (0..150).map(|i| mk(i * 10, (i % 50) as u64)).collect(),
        false,
    )
    .unwrap();
    let s = StoredRelation::build(
        &disk,
        &params,
        "S",
        (0..150).map(|i| mk(i, (i % 50) as u64)).collect(),
        true,
    )
    .unwrap();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let pages = ji.index_pages();
    for sur in 1..8 {
        let m = trijoin_exec::Mutation::Insert(mk(sur, 0));
        ji.on_mutation(&m).unwrap();
        r.apply_mutation(&m).unwrap();
    }
    let file = ji.index_file();
    let writes = || disk.metrics().counter(&format!("disk.write.f{}", file.0));
    let w0 = writes();
    let got = execute_collect(&mut ji, &r, &s).unwrap();
    assert_eq!(got.len(), 450 + 21);
    ji.check_invariants().unwrap();
    assert_eq!(ji.index_pages(), pages + 1);
    let passes = cost.span_tree().into_iter().find(|s| s.name == "ji.read_index").unwrap();
    assert!(passes.invocations >= 3, "{} passes", passes.invocations);
    assert_eq!(writes() - w0, 2);
}

#[test]
fn ji_multi_pass_query_reads_each_node_page_once() {
    // A three-level tree walked in many passes, with join-attribute updates
    // spread over it: every pass reads its leaves, and the internal nodes
    // above them, once in all.
    let cost = Cost::new();
    let params = SystemParams { page_size: 512, mem_pages: 16, ..SystemParams::paper_defaults() };
    let disk = SimDisk::new(&params, cost.clone());
    let mk = |sur: u32, key: u64| BaseTuple::padded(Surrogate(sur), key, TUPLE);
    let r_now: Vec<BaseTuple> = (0..2000).map(|i| mk(i, (i % 500) as u64)).collect();
    let mut r = StoredRelation::build(&disk, &params, "R", r_now.clone(), false).unwrap();
    let s = StoredRelation::build(
        &disk,
        &params,
        "S",
        (0..2000).map(|i| mk(i, (i % 500) as u64)).collect(),
        true,
    )
    .unwrap();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    assert_eq!(ji.index_meta().height, 3);
    for old in r_now.iter().step_by(20) {
        let upd = Update { old: old.clone(), new: mk(old.sur.0, (old.key + 7) % 500) };
        ji.on_update(&upd).unwrap();
        r.apply_update(&upd.old, &upd.new).unwrap();
    }
    let file = ji.index_file();
    let reads = || disk.metrics().counter(&format!("disk.read.f{}", file.0));
    let (nodes, r0) = (disk.num_pages(file).unwrap() as u64 - 1, reads());
    cost.reset();
    let got = execute_collect(&mut ji, &r, &s).unwrap();
    assert_eq!(got.len(), 8000);
    let passes = cost.span_tree().into_iter().find(|s| s.name == "ji.read_index").unwrap();
    assert!(passes.invocations >= 10, "{} passes", passes.invocations);
    assert!(reads() - r0 <= nodes, "{} reads of {nodes} node pages", reads() - r0);
    ji.check_invariants().unwrap();
}
