//! Select-project view correctness and the irrelevant-update optimization.

use rand::prelude::*;
use std::collections::HashMap;

use trijoin_common::{rng, BaseTuple, Cost, Surrogate, SystemParams, ViewTuple};
use trijoin_exec::{
    execute_collect, JoinStrategy, MaterializedView, Mutation, Predicate, StoredRelation, Update,
    ViewDef,
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
        let key = rn.gen_range(0..12u64);
        let payload: Vec<u8> = (0..8).map(|_| rn.gen()).collect();
        BaseTuple::with_payload(Surrogate(i), key, &payload, TUPLE).unwrap()
    };
    let r_tuples: Vec<BaseTuple> = (0..150).map(|i| mk(i, &mut rn)).collect();
    let s_tuples: Vec<BaseTuple> = (0..120).map(|i| mk(i, &mut rn)).collect();
    let r = StoredRelation::build(&disk, &params, "R", r_tuples.clone(), false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
    (disk, cost, params, r, s, r_tuples, s_tuples)
}

/// Ground truth for a select-project view.
fn spj_oracle(def: &ViewDef, r: &[BaseTuple], s: &[BaseTuple]) -> Vec<ViewTuple> {
    let mut out = Vec::new();
    for rt in r.iter().filter(|t| def.r_pred.eval(t)) {
        for st in s.iter().filter(|t| def.s_pred.eval(t)) {
            if rt.key == st.key {
                out.push(def.make_view_tuple(rt, st));
            }
        }
    }
    out
}

fn assert_view(label: &str, mut got: Vec<ViewTuple>, mut want: Vec<ViewTuple>) {
    got.sort_by_key(|v| (v.r_sur, v.s_sur));
    want.sort_by_key(|v| (v.r_sur, v.s_sur));
    assert_eq!(got, want, "{label}");
}

fn sample_def() -> ViewDef {
    ViewDef {
        // Only R tuples with keys 0..=5 and first payload byte < 128.
        r_pred: Predicate::KeyRange { lo: 0, hi: 5 }
            .and(Predicate::PayloadByteLt { index: 0, bound: 128 }),
        // Only S tuples whose first payload byte is even-ish (< 200).
        s_pred: Predicate::PayloadByteLt { index: 0, bound: 200 },
        r_project: Some(4),
        s_project: Some(2),
    }
}

#[test]
fn spj_view_matches_oracle_fresh() {
    let (disk, cost, params, r, s, r_now, s_now) = setup(61);
    let def = sample_def();
    let mut view =
        MaterializedView::build_with(&disk, &params, &cost, &r, &s, def.clone()).unwrap();
    let want = spj_oracle(&def, &r_now, &s_now);
    assert!(!want.is_empty(), "fixture should select something");
    assert!(want.len() < r_now.len() * 3, "fixture should actually filter");
    let got = execute_collect(&mut view, &r, &s).unwrap();
    assert_view("fresh", got, want.clone());
    assert_eq!(view.view_len(), want.len() as u64);
}

#[test]
fn spj_view_survives_updates_across_the_selection_boundary() {
    let (disk, cost, params, mut r, s, r_now, s_now) = setup(62);
    let def = sample_def();
    let mut view =
        MaterializedView::build_with(&disk, &params, &cost, &r, &s, def.clone()).unwrap();
    let mut r_map: HashMap<u32, BaseTuple> = r_now.into_iter().map(|t| (t.sur.0, t)).collect();
    let mut rn = rng::seeded(620);
    for _ in 0..80 {
        let surs: Vec<u32> = {
            let mut v: Vec<u32> = r_map.keys().copied().collect();
            v.sort_unstable();
            v
        };
        let sur = surs[rn.gen_range(0..surs.len())];
        let old = r_map[&sur].clone();
        // Key and payload both churn, crossing the selection both ways.
        let new_key = rn.gen_range(0..12u64);
        let payload: Vec<u8> = (0..8).map(|_| rn.gen()).collect();
        let new = BaseTuple::with_payload(Surrogate(sur), new_key, &payload, TUPLE).unwrap();
        let m = Mutation::Update(Update { old: old.clone(), new: new.clone() });
        view.on_mutation(&m).unwrap();
        r.apply_update(&old, &new).unwrap();
        r_map.insert(sur, new);
    }
    let current: Vec<BaseTuple> = r_map.values().cloned().collect();
    let want = spj_oracle(&def, &current, &s_now);
    let got = execute_collect(&mut view, &r, &s).unwrap();
    assert_view("after churn", got, want.clone());
    assert_eq!(view.view_len(), want.len() as u64);

    // Second query with no changes returns the same thing.
    let again = execute_collect(&mut view, &r, &s).unwrap();
    assert_view("idempotent", again, want);
}

#[test]
fn irrelevant_updates_cost_nothing() {
    let (disk, cost, params, mut r, s, r_now, _s_now) = setup(63);
    let def = ViewDef { r_pred: Predicate::KeyRange { lo: 0, hi: 3 }, ..ViewDef::default() };
    let mut view =
        MaterializedView::build_with(&disk, &params, &cost, &r, &s, def.clone()).unwrap();
    // Updates entirely outside the selection: keys 6..12 -> 6..12.
    let outside: Vec<BaseTuple> = r_now.iter().filter(|t| t.key >= 6).take(20).cloned().collect();
    assert!(outside.len() >= 10, "fixture needs outside tuples");
    cost.reset();
    for (i, old) in outside.iter().enumerate() {
        let new =
            BaseTuple::with_payload(old.sur, 6 + (old.key + 1) % 6, &[i as u8], TUPLE).unwrap();
        let m = Mutation::Update(Update { old: old.clone(), new: new.clone() });
        view.on_mutation(&m).unwrap();
        // Note: applying to the base relation costs I/O, but the *view*
        // must log nothing.
        r.apply_update(old, &new).unwrap();
    }
    assert_eq!(view.pending_updates(), 0, "irrelevant updates must not be logged");

    // And the next query is a clean view read: no differential processing
    // (the base relation's own catching up aside).
    r.settle().unwrap();
    cost.reset();
    execute_collect(&mut view, &r, &s).unwrap();
    let ios = cost.total().ios;
    assert_eq!(ios, view.view_pages(), "a clean query reads each page of the view once");
}

#[test]
fn projection_shrinks_the_view() {
    let (disk, cost, params, r, s, _r_now, _s_now) = setup(64);
    let full = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    let projected = MaterializedView::build_with(
        &disk,
        &params,
        &cost,
        &r,
        &s,
        ViewDef { r_project: Some(0), s_project: Some(0), ..ViewDef::default() },
    )
    .unwrap();
    assert_eq!(full.view_len(), projected.view_len(), "same tuples, smaller rows");
    assert!(
        projected.view_pages() * 2 <= full.view_pages(),
        "dropping both payloads must shrink the file: {} vs {} pages",
        projected.view_pages(),
        full.view_pages()
    );
}

#[test]
fn spj_handles_inserts_and_deletes() {
    let (disk, cost, params, mut r, s, r_now, s_now) = setup(65);
    let def = ViewDef { r_pred: Predicate::KeyRange { lo: 0, hi: 5 }, ..ViewDef::default() };
    let mut view =
        MaterializedView::build_with(&disk, &params, &cost, &r, &s, def.clone()).unwrap();
    let mut r_map: HashMap<u32, BaseTuple> = r_now.into_iter().map(|t| (t.sur.0, t)).collect();

    // Insert one inside, one outside; delete one of each.
    let ins_in = BaseTuple::with_payload(Surrogate(900), 2, b"in", TUPLE).unwrap();
    let ins_out = BaseTuple::with_payload(Surrogate(901), 9, b"out", TUPLE).unwrap();
    let del_in = r_map.values().find(|t| t.key <= 5).unwrap().clone();
    let del_out = r_map.values().find(|t| t.key > 5).unwrap().clone();
    for m in [
        Mutation::Insert(ins_in.clone()),
        Mutation::Insert(ins_out.clone()),
        Mutation::Delete(del_in.clone()),
        Mutation::Delete(del_out.clone()),
    ] {
        view.on_mutation(&m).unwrap();
        r.apply_mutation(&m).unwrap();
        match m {
            Mutation::Insert(t) => {
                r_map.insert(t.sur.0, t);
            }
            Mutation::Delete(t) => {
                r_map.remove(&t.sur.0);
            }
            Mutation::Update(_) => unreachable!(),
        }
    }
    let current: Vec<BaseTuple> = r_map.values().cloned().collect();
    let want = spj_oracle(&def, &current, &s_now);
    let got = execute_collect(&mut view, &r, &s).unwrap();
    assert_view("spj insert/delete", got, want);
}
