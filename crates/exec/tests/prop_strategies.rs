//! Property-based strategy equivalence: under *arbitrary* generated update
//! scripts (which surrogates, which keys, matched or unmatched, repeated or
//! not, interleaved with queries), all three strategies must equal the
//! oracle join of the current relations — and the view and the join index
//! over an `R` with the symmetric access path must do so while `S` mutates
//! as well.

use proptest::prelude::*;
use std::collections::HashMap;

use trijoin_common::{BaseTuple, Cost, Surrogate, SystemParams};
use trijoin_exec::{
    execute_collect, oracle, HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView,
    Mutation, StoredRelation, Update,
};
use trijoin_storage::SimDisk;

const TUPLE: usize = 48;
const N_R: u32 = 40;
const N_S: u32 = 30;

#[derive(Debug, Clone)]
enum Script {
    /// Update tuple `sur % live` to key `key` with payload byte `p`.
    Update { sur: u32, key: u64, p: u8 },
    /// Insert a fresh tuple with key `key`.
    Insert { key: u64, p: u8 },
    /// Delete tuple `sur % live`.
    Delete { sur: u32 },
    /// One of the three above, of `S` — seen by the S-folding structures
    /// only.
    OfS(Box<Script>),
    /// Run all strategies and compare against the oracle.
    Query,
}

fn mutation() -> impl Strategy<Value = Script> {
    prop_oneof![
        5 => (any::<u32>(), 0u64..8, any::<u8>())
            .prop_map(|(sur, key, p)| Script::Update { sur, key, p }),
        // Occasionally point keys at an unmatched range.
        2 => (any::<u32>(), 100u64..110, any::<u8>())
            .prop_map(|(sur, key, p)| Script::Update { sur, key, p }),
        1 => (0u64..8, any::<u8>()).prop_map(|(key, p)| Script::Insert { key, p }),
        1 => any::<u32>().prop_map(|sur| Script::Delete { sur }),
    ]
}

fn script() -> impl Strategy<Value = Vec<Script>> {
    prop::collection::vec(
        prop_oneof![
            9 => mutation(),
            3 => mutation().prop_map(|m| Script::OfS(Box::new(m))),
            1 => Just(Script::Query),
        ],
        1..60,
    )
}

/// Turn a mutating script op into a mutation of the relation mirrored by
/// `now` (`None` for a delete that would empty it).
fn mutation_of(
    op: &Script,
    now: &mut HashMap<u32, BaseTuple>,
    next_sur: &mut u32,
) -> Option<Mutation> {
    let live_pick = |now: &HashMap<u32, BaseTuple>, raw: u32| -> u32 {
        let mut surs: Vec<u32> = now.keys().copied().collect();
        surs.sort_unstable();
        surs[(raw as usize) % surs.len()]
    };
    match *op {
        Script::Update { sur, key, p } => {
            let sur = live_pick(now, sur);
            let old = now[&sur].clone();
            let new = BaseTuple::with_payload(Surrogate(sur), key, &[p], TUPLE).unwrap();
            now.insert(sur, new.clone());
            Some(Mutation::Update(Update { old, new }))
        }
        Script::Insert { key, p } => {
            let t = BaseTuple::with_payload(Surrogate(*next_sur), key, &[p], TUPLE).unwrap();
            *next_sur += 1;
            now.insert(t.sur.0, t.clone());
            Some(Mutation::Insert(t))
        }
        // Never empty the relation.
        Script::Delete { .. } if now.len() <= 1 => None,
        Script::Delete { sur } => {
            let sur = live_pick(now, sur);
            Some(Mutation::Delete(now.remove(&sur).unwrap()))
        }
        Script::OfS(_) | Script::Query => unreachable!("not a mutation of one relation"),
    }
}

proptest! {
    // Each case builds three strategies and runs a script; keep the count
    // moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn strategies_match_oracle_under_arbitrary_scripts(ops in script()) {
        let cost = Cost::new();
        let params = SystemParams {
            page_size: 512,
            mem_pages: 16,
            ..SystemParams::paper_defaults()
        };
        let disk = SimDisk::new(&params, cost.clone());
        let r_tuples: Vec<BaseTuple> = (0..N_R)
            .map(|i| BaseTuple::with_payload(Surrogate(i), (i % 6) as u64, &[i as u8], TUPLE).unwrap())
            .collect();
        let s_tuples: Vec<BaseTuple> = (0..N_S)
            .map(|i| BaseTuple::with_payload(Surrogate(i), (i % 7) as u64, &[i as u8], TUPLE).unwrap())
            .collect();
        let mut r = StoredRelation::build(&disk, &params, "R", r_tuples.clone(), false).unwrap();
        let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
        let mut r_now: HashMap<u32, BaseTuple> =
            r_tuples.iter().map(|t| (t.sur.0, t.clone())).collect();

        let mut mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
        let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
        let mut hh = HybridHash::new(&disk, &params, &cost);
        let mut next_sur = N_R;

        // The S-folding view and join index: their own `R` (with the
        // inverted index on A) under the same mutations, and an `S` that
        // mutates too.
        let mut r2 = StoredRelation::build(&disk, &params, "R2", r_tuples, true).unwrap();
        let mut s2 = StoredRelation::build(&disk, &params, "S3", s_tuples.clone(), true).unwrap();
        let mut s2_now: HashMap<u32, BaseTuple> =
            s_tuples.iter().map(|t| (t.sur.0, t.clone())).collect();
        let mut mv2 = MaterializedView::build(&disk, &params, &cost, &r2, &s2).unwrap();
        let mut ji2 = JoinIndexStrategy::build(&disk, &params, &cost, &r2, &s2).unwrap();
        let mut next_s_sur = N_S;

        // Always end with a final query so every script checks something.
        for (step, op) in ops.into_iter().chain([Script::Query]).enumerate() {
            match op {
                Script::Query => {
                    let current: Vec<BaseTuple> = r_now.values().cloned().collect();
                    let want = oracle::join_tuples(&current, &s_tuples);
                    let got_mv = execute_collect(&mut mv, &r, &s).unwrap();
                    oracle::assert_same_join(&format!("step {step} mv"), got_mv, want.clone());
                    let got_ji = execute_collect(&mut ji, &r, &s).unwrap();
                    oracle::assert_same_join(&format!("step {step} ji"), got_ji, want.clone());
                    let got_hh = execute_collect(&mut hh, &r, &s).unwrap();
                    oracle::assert_same_join(&format!("step {step} hh"), got_hh, want);
                    ji.check_invariants().unwrap();
                    let s_current: Vec<BaseTuple> = s2_now.values().cloned().collect();
                    let want = oracle::join_tuples(&current, &s_current);
                    let got_mv2 = execute_collect(&mut mv2, &r2, &s2).unwrap();
                    oracle::assert_same_join(&format!("step {step} mv over R and S"), got_mv2, want.clone());
                    let got_ji2 = execute_collect(&mut ji2, &r2, &s2).unwrap();
                    oracle::assert_same_join(&format!("step {step} ji over R and S"), got_ji2, want);
                    ji2.check_invariants().unwrap();
                }
                Script::OfS(op) => {
                    if let Some(m) = mutation_of(&op, &mut s2_now, &mut next_s_sur) {
                        mv2.on_s_mutation(&m).unwrap();
                        ji2.on_s_mutation(&m).unwrap();
                        s2.apply_mutation(&m).unwrap();
                    }
                }
                op => {
                    if let Some(m) = mutation_of(&op, &mut r_now, &mut next_sur) {
                        mv.on_mutation(&m).unwrap();
                        ji.on_mutation(&m).unwrap();
                        hh.on_mutation(&m).unwrap();
                        r.apply_mutation(&m).unwrap();
                        mv2.on_mutation(&m).unwrap();
                        ji2.on_mutation(&m).unwrap();
                        r2.apply_mutation(&m).unwrap();
                    }
                }
            }
        }
        prop_assert_eq!(mv.view_len(), ji.index_len());
        prop_assert_eq!(mv2.view_len(), ji2.index_len());
    }
}
