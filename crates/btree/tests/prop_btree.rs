//! Property-based tests: the B⁺-tree must behave like a sorted multimap.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use trijoin_btree::{BTree, BTreeConfig};
use trijoin_common::{Cost, SystemParams};
use trijoin_storage::SimDisk;

type Model = BTreeMap<(u64, Vec<u8>), u32>;

fn model_insert(m: &mut Model, k: u64, v: Vec<u8>) {
    *m.entry((k, v)).or_insert(0) += 1;
}

fn model_remove(m: &mut Model, k: u64, v: &[u8]) -> bool {
    if let Some(c) = m.get_mut(&(k, v.to_vec())) {
        *c -= 1;
        if *c == 0 {
            m.remove(&(k, v.to_vec()));
        }
        true
    } else {
        false
    }
}

fn model_lookup(m: &Model, k: u64) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for ((mk, mv), c) in m.range((k, Vec::new())..) {
        if *mk != k {
            break;
        }
        for _ in 0..*c {
            out.push(mv.clone());
        }
    }
    out
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, Vec<u8>),
    Remove(u64, Vec<u8>),
    Lookup(u64),
    Range(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u64..40; // small domain => duplicates are common
    let val = prop::collection::vec(any::<u8>(), 0..12);
    prop_oneof![
        4 => (key.clone(), val.clone()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (key.clone(), val).prop_map(|(k, v)| Op::Remove(k, v)),
        2 => key.clone().prop_map(Op::Lookup),
        1 => (key.clone(), key).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn btree_matches_multimap_model(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost);
        let mut tree = BTree::new(&disk, BTreeConfig { leaf_cap: 4, internal_cap: 4 }).unwrap();
        let mut model: Model = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    tree.insert(k, v.clone()).unwrap();
                    model_insert(&mut model, k, v);
                }
                Op::Remove(k, v) => {
                    let tree_removed = tree.remove_exact(k, &v).unwrap();
                    let model_removed = model_remove(&mut model, k, &v);
                    prop_assert_eq!(tree_removed, model_removed);
                }
                Op::Lookup(k) => {
                    // Value order among duplicates is unspecified: compare
                    // as sorted multisets.
                    let mut got = tree.lookup(k).unwrap();
                    got.sort();
                    prop_assert_eq!(got, model_lookup(&model, k));
                }
                Op::Range(lo, hi) => {
                    let mut got = tree.scan_range(lo, hi).unwrap();
                    // Keys must come back sorted...
                    prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
                    // ...and as a multiset the range matches the model.
                    got.sort();
                    let want: Vec<(u64, Vec<u8>)> = model
                        .range((lo, Vec::new())..)
                        .take_while(|((k, _), _)| *k <= hi)
                        .flat_map(|((k, v), c)| {
                            std::iter::repeat_n((*k, v.clone()), *c as usize)
                        })
                        .collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        let total: u64 = model.values().map(|&c| c as u64).sum();
        prop_assert_eq!(tree.len(), total);
        tree.check_invariants().unwrap();
    }

    /// Random insert/delete interleavings against the `BTreeMap` reference
    /// model, with structural invariants re-checked after *every* op (the
    /// model test above only audits the final tree): underflow handling
    /// during deletes, `remove_where` picking an arbitrary duplicate, full
    /// scans staying a multiset image of the model, and a final drain down
    /// to the empty tree.
    #[test]
    fn interleaved_deletes_preserve_structure(
        ops in prop::collection::vec(
            prop_oneof![
                5 => (0u64..24, prop::collection::vec(any::<u8>(), 0..8))
                    .prop_map(|(k, v)| Op::Insert(k, v)),
                2 => (0u64..24, prop::collection::vec(any::<u8>(), 0..8))
                    .prop_map(|(k, v)| Op::Remove(k, v)),
                2 => (0u64..24).prop_map(Op::Lookup), // reused as remove_where(k)
            ],
            1..120,
        ),
    ) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost);
        let mut tree = BTree::new(&disk, BTreeConfig { leaf_cap: 4, internal_cap: 4 }).unwrap();
        let mut model: Model = BTreeMap::new();

        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    tree.insert(k, v.clone()).unwrap();
                    model_insert(&mut model, k, v);
                }
                Op::Remove(k, v) => {
                    let got = tree.remove_exact(k, &v).unwrap();
                    prop_assert_eq!(got, model_remove(&mut model, k, &v));
                }
                // Repurposed as remove_where: drop an *arbitrary* record
                // under k (whichever the tree finds first) and reconcile the
                // model from the tree's own post-state.
                Op::Lookup(k) => {
                    let got = tree.remove_where(k, |_| true).unwrap();
                    let want = model_lookup(&model, k);
                    prop_assert_eq!(got, !want.is_empty());
                    if got {
                        let mut now = tree.lookup(k).unwrap();
                        now.sort();
                        prop_assert_eq!(now.len() + 1, want.len());
                        // Rebuild the model's k-entries as exactly `now`.
                        model.retain(|(mk, _), _| *mk != k);
                        for v in now {
                            model_insert(&mut model, k, v);
                        }
                    }
                }
                Op::Range(..) => unreachable!("not generated here"),
            }
            tree.check_invariants().unwrap();
            let total: u64 = model.values().map(|&c| c as u64).sum();
            prop_assert_eq!(tree.len(), total);
            prop_assert_eq!(tree.is_empty(), total == 0);
        }

        // The surviving records, as one full scan, are the model's multiset.
        let mut got = tree.scan_range(0, u64::MAX).unwrap();
        got.sort();
        let want: Vec<(u64, Vec<u8>)> = model
            .iter()
            .flat_map(|((k, v), c)| std::iter::repeat_n((*k, v.clone()), *c as usize))
            .collect();
        prop_assert_eq!(got, want);

        // Drain to empty: every surviving record is individually removable,
        // and the tree ends structurally valid with nothing left.
        let survivors: Vec<(u64, Vec<u8>)> = model
            .iter()
            .flat_map(|((k, v), c)| std::iter::repeat_n((*k, v.clone()), *c as usize))
            .collect();
        for (k, v) in &survivors {
            prop_assert!(tree.remove_exact(*k, v).unwrap(), "drain lost ({}, {:?})", k, v);
            tree.check_invariants().unwrap();
        }
        prop_assert!(tree.is_empty());
        prop_assert_eq!(tree.lookup(0).unwrap(), Vec::<Vec<u8>>::new());
    }

    /// An append-heavy life: keys mostly arrive in ascending order (the
    /// surrogate allocator's pattern) while random survivors are deleted.
    /// After every op the structure must audit clean and stay packed —
    /// every leaf but the right edge at least half full, so the tree
    /// holds at most twice the leaves a bulk load would, plus that edge —
    /// and a split-free insert must write exactly its leaf.
    #[test]
    fn append_and_delete_churn_stays_packed(
        // (kind, pick): kind 0..5 appends, 5..7 inserts mid-range, 7..12 deletes.
        ops in prop::collection::vec((0u8..12, any::<u32>()), 1..400),
        leaf_cap in 2usize..7,
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, Cost::new());
        let mut tree = BTree::new(&disk, BTreeConfig { leaf_cap, internal_cap: 3 }).unwrap();
        let mut live: Vec<u64> = Vec::new();
        let mut next_key = 0u64;
        for (kind, pick) in ops {
            match kind {
                0..=6 => {
                    let key = if kind < 5 || next_key == 0 {
                        next_key += 2;
                        next_key
                    } else {
                        (pick as u64 % next_key) | 1 // odd: never collides with an append
                    };
                    let (leaves, writes) = (tree.leaf_pages(), disk.metrics().counter("disk.writes"));
                    let inserted = tree.insert_unique(key, key.to_le_bytes().to_vec()).unwrap();
                    if inserted {
                        live.push(key);
                    } else {
                        prop_assert!(live.contains(&key), "refused a key the tree does not hold");
                    }
                    if tree.leaf_pages() == leaves && tree.height() > 1 {
                        let written = disk.metrics().counter("disk.writes") - writes;
                        prop_assert_eq!(written, inserted as u64, "a split-free insert writes its leaf");
                    }
                }
                _ if live.is_empty() => {}
                _ => {
                    let key = live.swap_remove(pick as usize % live.len());
                    prop_assert!(tree.remove_where(key, |_| true).unwrap());
                }
            }
            tree.check_invariants().unwrap();
            prop_assert_eq!(tree.len(), live.len() as u64);
            prop_assert!(
                tree.leaf_pages() <= 2 * tree.packed_leaf_pages() + 1,
                "{} leaves for {} entries at {} per leaf",
                tree.leaf_pages(), tree.len(), leaf_cap
            );
        }
        // Drained, everything but the root leaf is back on the free list.
        for key in live {
            prop_assert!(tree.remove_where(key, |_| true).unwrap());
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!((tree.height(), tree.node_pages()), (1, 1));
    }

    /// Charge law of the in-place update: overwriting the value of a key
    /// that exists costs one descent and one leaf write and leaves the
    /// structure alone. The descent is `height − 1` reads; a key that
    /// heads its leaf may equal a separator, which sends the descent one
    /// leaf to the left first — the hop a lookup of that key pays too.
    #[test]
    fn replace_value_costs_one_descent_and_one_write(
        keys in prop::collection::vec(0u64..5000, 1..400),
        deleted in prop::collection::vec(any::<u32>(), 0..100),
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, Cost::new());
        let cfg = BTreeConfig { leaf_cap: 4, internal_cap: 4 };
        let mut keys: Vec<u64> = keys.into_iter().collect::<BTreeSet<u64>>().into_iter().collect();
        let mut tree =
            BTree::bulk_load(&disk, cfg, keys.iter().map(|&k| (k, vec![0u8; 6]))).unwrap();
        for pick in deleted {
            if keys.len() > 1 {
                let key = keys.remove(pick as usize % keys.len());
                prop_assert!(tree.remove_where(key, |_| true).unwrap());
            }
        }
        // A key heads its leaf when its page differs from its predecessor's.
        let mut heads = Vec::new();
        let mut last_page = None;
        tree.for_each_pinned(|k, _, page| {
            let page = page.map(std::rc::Rc::as_ptr);
            if std::mem::replace(&mut last_page, page) != page {
                heads.push(k);
            }
            true
        }).unwrap();

        let shape = (tree.height(), tree.leaf_pages(), tree.node_pages());
        let descent = tree.height() as u64 - 1;
        for (i, &key) in keys.iter().enumerate() {
            let (reads, writes) =
                (disk.metrics().counter("disk.reads"), disk.metrics().counter("disk.writes"));
            prop_assert!(tree.replace_value(key, &[i as u8; 6]).unwrap());
            let reads = disk.metrics().counter("disk.reads") - reads;
            prop_assert_eq!(disk.metrics().counter("disk.writes") - writes, descent.min(1));
            if heads.contains(&key) {
                prop_assert!(reads == descent || reads == descent + 1, "{} reads", reads);
            } else {
                prop_assert_eq!(reads, descent);
            }
            prop_assert_eq!(tree.lookup(key).unwrap(), vec![vec![i as u8; 6]]);
        }
        prop_assert_eq!((tree.height(), tree.leaf_pages(), tree.node_pages()), shape);
        prop_assert!(!tree.replace_value(5000, &[0u8; 6]).unwrap());
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_equals_incremental(keys in prop::collection::vec(0u64..1000, 0..300)) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost);
        let cfg = BTreeConfig { leaf_cap: 5, internal_cap: 4 };

        let mut sorted: Vec<(u64, Vec<u8>)> =
            keys.iter().map(|&k| (k, k.to_le_bytes().to_vec())).collect();
        sorted.sort();
        let bulk = BTree::bulk_load(&disk, cfg, sorted.clone()).unwrap();

        let mut incr = BTree::new(&disk, cfg).unwrap();
        for &k in &keys {
            incr.insert(k, k.to_le_bytes().to_vec()).unwrap();
        }

        for &k in &keys {
            prop_assert_eq!(bulk.lookup(k).unwrap(), incr.lookup(k).unwrap());
        }
        prop_assert_eq!(bulk.len(), incr.len());
        bulk.check_invariants().unwrap();
        incr.check_invariants().unwrap();
    }

    #[test]
    fn fetch_many_equals_lookups(
        stored in prop::collection::vec(0u64..200, 1..200),
        probes in prop::collection::vec(0u64..200, 1..50),
    ) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost);
        let cfg = BTreeConfig { leaf_cap: 4, internal_cap: 4 };
        let mut sorted: Vec<(u64, Vec<u8>)> =
            stored.iter().map(|&k| (k, k.to_le_bytes().to_vec())).collect();
        sorted.sort();
        let tree = BTree::bulk_load(&disk, cfg, sorted).unwrap();

        let mut sorted_probes = probes.clone();
        sorted_probes.sort_unstable();
        let mut batched: Vec<(u64, Vec<u8>)> = Vec::new();
        tree.fetch_many(&sorted_probes, |k, v| batched.push((k, v.to_vec()))).unwrap();

        let mut singles: Vec<(u64, Vec<u8>)> = Vec::new();
        for &k in &sorted_probes {
            for v in tree.lookup(k).unwrap() {
                singles.push((k, v));
            }
        }
        batched.sort();
        singles.sort();
        prop_assert_eq!(batched, singles);
    }
}

/// Permanent copy of the shrunk case from `prop_btree.proptest-regressions`
/// (duplicate keys with empty payloads straddling leaf splits). The vendored
/// proptest does not replay regression files, so the case lives here as a
/// plain test and runs on every `cargo test`.
#[test]
fn regression_duplicate_keys_with_empty_payloads() {
    let cost = Cost::new();
    let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
    let disk = SimDisk::new(&params, cost);
    let mut tree = BTree::new(&disk, BTreeConfig { leaf_cap: 4, internal_cap: 4 }).unwrap();
    let ops: Vec<(u64, Vec<u8>)> = vec![
        (0, vec![]),
        (0, vec![]),
        (18, vec![]),
        (18, vec![]),
        (5, vec![]),
        (15, vec![97]),
        (0, vec![]),
        (15, vec![97]),
        (0, vec![]),
        (0, vec![]),
        (15, vec![0]),
    ];
    let mut model: Model = BTreeMap::new();
    for (k, v) in &ops {
        tree.insert(*k, v.clone()).unwrap();
        model_insert(&mut model, *k, v.clone());
    }

    for k in [0u64, 5, 15, 18, 40] {
        let mut got = tree.lookup(k).unwrap();
        got.sort();
        assert_eq!(got, model_lookup(&model, k), "lookup({k})");
    }

    let mut got = tree.scan_range(0, 40).unwrap();
    assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "scan out of key order");
    got.sort();
    let mut want = ops.clone();
    want.sort();
    assert_eq!(got, want, "scan_range multiset");

    assert_eq!(tree.len(), ops.len() as u64);
    tree.check_invariants().unwrap();

    // Every inserted (key, payload) pair — duplicates included — must be
    // individually removable exactly once.
    for (k, v) in &ops {
        assert!(tree.remove_exact(*k, v).unwrap(), "remove_exact({k}, {v:?})");
    }
    assert_eq!(tree.len(), 0);
    tree.check_invariants().unwrap();
}
