//! Point lookups through the caches: the active-database access pattern
//! ("actions ... time-constrained in the order of a few milliseconds").

use rand::prelude::*;

use trijoin_common::{rng, BaseTuple, Cost, Error, Surrogate, SystemParams};
use trijoin_exec::{
    execute_collect, JoinIndexStrategy, JoinStrategy, MaterializedView, StoredRelation, Update,
};
use trijoin_storage::{Disk, SimDisk};

const TUPLE: usize = 64;

fn setup(
    seed: u64,
) -> (Disk, Cost, SystemParams, StoredRelation, StoredRelation, Vec<BaseTuple>, Vec<BaseTuple>) {
    let cost = Cost::new();
    let params = SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() };
    let disk = SimDisk::new(&params, cost.clone());
    let mut rn = rng::seeded(seed);
    let mk = |i: u32, rn: &mut StdRng| {
        // ~100 distinct keys over 200 tuples: small per-key groups, so a
        // point lookup's bucket chain stays short.
        BaseTuple::padded(Surrogate(i), rn.gen_range(0..100), TUPLE)
    };
    let r_tuples: Vec<BaseTuple> = (0..200).map(|i| mk(i, &mut rn)).collect();
    let s_tuples: Vec<BaseTuple> = (0..200).map(|i| mk(i, &mut rn)).collect();
    let r = StoredRelation::build(&disk, &params, "R", r_tuples.clone(), false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
    (disk, cost, params, r, s, r_tuples, s_tuples)
}

#[test]
fn mv_point_lookup_matches_full_scan_and_is_cheap() {
    let (disk, cost, params, r, s, r_now, s_now) = setup(81);
    let mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    for key in 0..100u64 {
        cost.reset();
        let got = mv.lookup_key(key).unwrap();
        let ios = cost.total().ios;
        let want: usize = r_now.iter().filter(|t| t.key == key).count()
            * s_now.iter().filter(|t| t.key == key).count();
        assert_eq!(got.len(), want, "key {key}");
        assert!(got.iter().all(|v| v.key == key));
        // Point cost: one bucket chain. Its length is the bucket's
        // occupancy (the probed key's matches plus any hash co-residents),
        // never the view size. `view_pages()` counts only pages that hold
        // tuples (an empty bucket owns none), so the bound is against the
        // data, not the directory.
        assert!(ios <= 24, "key {key}: {ios} IOs for {} tuples", got.len());
        assert!(ios < mv.view_pages() / 4, "must not approach a full scan");
    }
    // Missing key: empty, still cheap.
    cost.reset();
    assert!(mv.lookup_key(999_999).unwrap().is_empty());
    assert!(cost.total().ios <= 4);
}

#[test]
fn ji_partner_lookup_matches_oracle_and_is_cheap() {
    let (disk, cost, params, r, s, r_now, s_now) = setup(82);
    let ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    for probe in [0u32, 7, 42, 150, 199] {
        cost.reset();
        let mut got = ji.partners_of_r(Surrogate(probe)).unwrap();
        got.sort();
        let key = r_now[probe as usize].key;
        let mut want: Vec<Surrogate> =
            s_now.iter().filter(|t| t.key == key).map(|t| t.sur).collect();
        want.sort();
        assert_eq!(got, want, "r = {probe}");
        assert!(cost.total().ios <= 4, "point lookup took {} IOs", cost.total().ios);
    }
}

#[test]
fn point_lookups_refuse_stale_caches() {
    let (disk, cost, params, mut r, s, r_now, _s_now) = setup(83);
    let mut mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let old = r_now[5].clone();
    let new = BaseTuple::padded(Surrogate(5), old.key + 1, TUPLE);
    let upd = Update { old: old.clone(), new: new.clone() };
    mv.on_update(&upd).unwrap();
    ji.on_update(&upd).unwrap();
    r.apply_update(&old, &new).unwrap();
    assert!(matches!(mv.lookup_key(0), Err(Error::Infeasible(_))));
    assert!(matches!(ji.partners_of_r(Surrogate(5)), Err(Error::Infeasible(_))));
    // After a query the caches are clean again and lookups agree with the
    // post-update state.
    execute_collect(&mut mv, &r, &s).unwrap();
    execute_collect(&mut ji, &r, &s).unwrap();
    let via_mv: Vec<u32> = mv
        .lookup_key(new.key)
        .unwrap()
        .iter()
        .filter(|v| v.r_sur == Surrogate(5))
        .map(|v| v.s_sur.0)
        .collect();
    let mut via_ji: Vec<u32> =
        ji.partners_of_r(Surrogate(5)).unwrap().iter().map(|s| s.0).collect();
    via_ji.sort_unstable();
    let mut via_mv = via_mv;
    via_mv.sort_unstable();
    assert_eq!(via_mv, via_ji);
}

#[test]
fn ji_partner_lookup_handles_group_spanning_pages() {
    // One r with more partners than a JI leaf holds: its group spans
    // leaves, and the range read walks them once each.
    let cost = Cost::new();
    let params = SystemParams { page_size: 256, mem_pages: 24, ..SystemParams::paper_defaults() };
    let disk = SimDisk::new(&params, cost.clone());
    // page 256: n_JI = ⌊256·0.7/8⌋ = 22 entries a leaf; give r=0 80 partners.
    let r_tuples: Vec<BaseTuple> = vec![BaseTuple::padded(Surrogate(0), 7, TUPLE)];
    let s_tuples: Vec<BaseTuple> =
        (0..80).map(|i| BaseTuple::padded(Surrogate(i), 7, TUPLE)).collect();
    let r = StoredRelation::build(&disk, &params, "R", r_tuples, false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", s_tuples, true).unwrap();
    let ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    assert_eq!(ji.index_pages(), 4, "the group must span leaves");
    cost.reset();
    let got = ji.partners_of_r(Surrogate(0)).unwrap();
    assert_eq!(got, (0..80).map(Surrogate).collect::<Vec<_>>());
    assert_eq!(cost.total().ios, 4, "the resident root, then each leaf once");
    assert!(ji.partners_of_r(Surrogate(1)).unwrap().is_empty());
}
