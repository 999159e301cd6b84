//! Property-based tests: the B⁺-tree must behave like a sorted multimap.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use trijoin_btree::node::Node;
use trijoin_btree::{BTree, BTreeConfig, SweepOp, SweepStats};
use trijoin_common::{Cost, SystemParams};
use trijoin_storage::{PageId, SimDisk};

type Model = BTreeMap<(u64, Vec<u8>), u32>;

/// Run `ops` (sorted by key) as one unique-key sweep.
fn sweep(tree: &mut BTree, ops: Vec<(u64, SweepOp)>) -> SweepStats {
    let mut stats = SweepStats::default();
    tree.apply_sorted(ops, true, &mut stats, &mut |_, _, _| {}).unwrap();
    stats
}

/// What the operations on one key do to a map of unique keys, in issue
/// order: the reference a sweep is held against.
fn model_apply(model: &mut BTreeMap<u64, Vec<u8>>, key: u64, op: &SweepOp) -> bool {
    match (op, model.get(&key)) {
        (SweepOp::Insert(v), None) => model.insert(key, v.clone()).is_none(),
        (SweepOp::Replace(v), Some(now)) if v.len() == now.len() => {
            model.insert(key, v.clone()).is_some()
        }
        (SweepOp::Remove(exact), Some(now)) if exact.as_ref().is_none_or(|x| x == now) => {
            model.remove(&key).is_some()
        }
        _ => false,
    }
}

/// The page each key's entry lies on, by identity of the pinned image.
fn leaf_of_keys(tree: &BTree) -> BTreeMap<u64, usize> {
    let mut out = BTreeMap::new();
    tree.for_each_range(0, u64::MAX, |k, _, page| {
        out.insert(k, page.map_or(0, |p| std::rc::Rc::as_ptr(p) as usize));
        true
    })
    .unwrap();
    out
}

/// A unique-key batch over keys `0..keys`: `(key, kind, byte)` triples, in
/// issue order, turned into sorted sweep operations of width `width`.
fn batch_of(raw: &[(u64, u8, u8)], width: usize) -> Vec<(u64, SweepOp)> {
    let mut ops: Vec<(u64, SweepOp)> = raw
        .iter()
        .map(|&(key, kind, byte)| {
            let op = match kind % 4 {
                0 | 1 => SweepOp::Replace(vec![byte; width]),
                2 => SweepOp::Insert(vec![byte; width]),
                _ => SweepOp::Remove(None),
            };
            (key, op)
        })
        .collect();
    ops.sort_by_key(|(key, _)| *key); // stable: one key's operations keep their order
    ops
}

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
    /// during deletes, `remove_any` picking an arbitrary duplicate, full
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
                2 => (0u64..24).prop_map(Op::Lookup), // reused as remove_any(k)
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
                // Repurposed as remove_any: drop an *arbitrary* record
                // under k (whichever the tree finds first) and reconcile the
                // model from the tree's own post-state.
                Op::Lookup(k) => {
                    let got = tree.remove_any(k).unwrap();
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
                    let op = SweepOp::Insert(key.to_le_bytes().to_vec());
                    let inserted = sweep(&mut tree, vec![(key, op)]).rejected == 0;
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
                    prop_assert!(tree.remove_any(key).unwrap());
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
            prop_assert!(tree.remove_any(key).unwrap());
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!((tree.height(), tree.node_pages()), (1, 1));
    }

    /// Charge law of the in-place update: a sweep of one replace costs one
    /// descent (`height − 1` reads, a key equal to a separator included)
    /// and one leaf write, and leaves the structure alone.
    #[test]
    fn single_replace_sweep_costs_one_descent_and_one_write(
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
                prop_assert!(tree.remove_any(key).unwrap());
            }
        }
        let shape = (tree.height(), tree.leaf_pages(), tree.node_pages());
        let descent = tree.height() as u64 - 1;
        for (i, &key) in keys.iter().enumerate() {
            let (reads, writes) =
                (disk.metrics().counter("disk.reads"), disk.metrics().counter("disk.writes"));
            let stats = sweep(&mut tree, vec![(key, SweepOp::Replace(vec![(i % 250) as u8 + 1; 6]))]);
            prop_assert_eq!((stats.landed, stats.rejected), (1, 0));
            prop_assert_eq!(disk.metrics().counter("disk.reads") - reads, descent);
            prop_assert_eq!(disk.metrics().counter("disk.writes") - writes, descent.min(1));
            prop_assert_eq!(tree.lookup(key).unwrap(), vec![vec![(i % 250) as u8 + 1; 6]]);
        }
        prop_assert_eq!((tree.height(), tree.leaf_pages(), tree.node_pages()), shape);
        prop_assert_eq!(sweep(&mut tree, vec![(5000, SweepOp::Replace(vec![0u8; 6]))]).rejected, 1);
        tree.check_invariants().unwrap();
    }

    /// A sorted batch is the same operations one by one: the same entries
    /// (those of a map the operations are replayed on), the same number
    /// refused, a clean audit — free-list accounting included — and never
    /// more I/O than the single-key calls charge.
    #[test]
    fn sweep_equals_the_operations_one_by_one(
        stored in prop::collection::vec(0u64..300, 0..200),
        raw in prop::collection::vec((0u64..300, any::<u8>(), any::<u8>()), 0..250),
        leaf_cap in 2usize..7,
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let cfg = BTreeConfig { leaf_cap, internal_cap: 3 };
        let stored: BTreeSet<u64> = stored.into_iter().collect();
        let load = || stored.iter().map(|&k| (k, vec![0u8; 5]));
        let (batch_disk, single_disk) =
            (SimDisk::new(&params, Cost::new()), SimDisk::new(&params, Cost::new()));
        let mut batched = BTree::bulk_load(&batch_disk, cfg, load()).unwrap();
        let mut single = BTree::bulk_load(&single_disk, cfg, load()).unwrap();
        let mut model: BTreeMap<u64, Vec<u8>> = load().collect();
        let ops = batch_of(&raw, 5);
        let ios = |disk: &trijoin_storage::Disk| disk.cost().total().ios;
        let (batch_start, single_start) = (ios(&batch_disk), ios(&single_disk));

        let mut refused = 0;
        for (key, op) in &ops {
            refused += u64::from(!model_apply(&mut model, *key, op));
            let one = sweep(&mut single, vec![(*key, op.clone())]);
            prop_assert_eq!(one.landed, 1);
        }
        let stats = sweep(&mut batched, ops.clone());
        prop_assert_eq!((stats.landed, stats.rejected), (ops.len() as u64, refused));

        let want: Vec<(u64, Vec<u8>)> = model.into_iter().collect();
        prop_assert_eq!(&batched.scan_range(0, u64::MAX).unwrap(), &want);
        prop_assert_eq!(&single.scan_range(0, u64::MAX).unwrap(), &want);
        prop_assert_eq!(batched.len(), want.len() as u64);
        batched.check_invariants().unwrap();
        single.check_invariants().unwrap();
        prop_assert!(
            batched.leaf_pages() <= 2 * batched.packed_leaf_pages() + 1,
            "{} leaves for {} entries", batched.leaf_pages(), batched.len()
        );
        prop_assert!(
            ios(&batch_disk) - batch_start <= ios(&single_disk) - single_start,
            "sweep charged {} I/Os, one by one {}",
            ios(&batch_disk) - batch_start, ios(&single_disk) - single_start
        );
    }

    /// Charge law of a sweep that changes no structure: it reads each leaf
    /// holding a key of the batch once, each internal page at most once,
    /// and writes exactly the leaves on which a value changed.
    #[test]
    fn replace_sweep_reads_and_writes_distinct_pages_once(
        keys in prop::collection::vec(0u64..2000, 1..500),
        picks in prop::collection::vec((any::<u32>(), any::<bool>()), 1..300),
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, Cost::new());
        let cfg = BTreeConfig { leaf_cap: 4, internal_cap: 4 };
        let keys: Vec<u64> = keys.into_iter().collect::<BTreeSet<u64>>().into_iter().collect();
        let mut tree =
            BTree::bulk_load(&disk, cfg, keys.iter().map(|&k| (k, vec![0u8; 6]))).unwrap();
        let leaf_of = leaf_of_keys(&tree);
        // Each pick replaces one stored key, with a new value or its own.
        let batch: BTreeMap<u64, bool> =
            picks.iter().map(|&(pick, change)| (keys[pick as usize % keys.len()], change)).collect();
        let touched: BTreeSet<usize> = batch.keys().map(|k| leaf_of[k]).collect();
        let dirty: BTreeSet<usize> =
            batch.iter().filter(|(_, &change)| change).map(|(k, _)| leaf_of[k]).collect();
        let internal = (tree.node_pages() - tree.leaf_pages()).saturating_sub(1); // resident root
        let ops: Vec<(u64, SweepOp)> = batch
            .iter()
            .map(|(&k, &change)| (k, SweepOp::Replace(vec![change as u8; 6])))
            .collect();
        let (reads, writes) =
            (disk.metrics().counter("disk.reads"), disk.metrics().counter("disk.writes"));
        let stats = sweep(&mut tree, ops);
        let reads = disk.metrics().counter("disk.reads") - reads;
        let leaves = if tree.height() > 1 { touched.len() as u64 } else { 0 };
        prop_assert!(reads >= leaves && reads <= leaves + internal, "{} reads", reads);
        let dirty = if tree.height() > 1 { dirty.len() as u64 } else { 0 };
        prop_assert_eq!(disk.metrics().counter("disk.writes") - writes, dirty);
        prop_assert_eq!(stats.leaves_written, dirty);
        tree.check_invariants().unwrap();
    }

    /// Charge law of a sweep that changes structure: appends past the
    /// right edge, inserts that overflow mid-range leaves and removes that
    /// underflow them, with unique keys and with repeated ones. It reads
    /// at most each leaf holding a key of the batch, each internal page,
    /// and one sibling per underfull leaf the batch does not reach; writes
    /// no leaf twice; and leaves a sound, packed tree holding what the
    /// operations one by one would.
    #[test]
    fn structural_sweep_reads_and_writes_each_page_once(
        stored in prop::collection::vec((0u64..200, 0u8..4), 1..250),
        raw in prop::collection::vec((0u8..6, any::<u32>(), 0u8..4), 1..300),
        leaf_cap in 2usize..8,
        unique in any::<bool>(),
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, Cost::new());
        let cfg = BTreeConfig { leaf_cap, internal_cap: 3 };
        // Stored keys are even, so an odd key is a mid-range insert; with
        // repeated keys a key holds up to four values.
        let stored: BTreeSet<(u64, u8)> =
            stored.into_iter().map(|(k, v)| (2 * k, if unique { 0 } else { v })).collect();
        let value = |v: u8| vec![v; 5];
        let mut tree =
            BTree::bulk_load(&disk, cfg, stored.iter().map(|&(k, v)| (k, value(v)))).unwrap();
        let mut model: BTreeSet<(u64, u8)> = stored.clone();
        let last = stored.iter().map(|&(k, _)| k).max().unwrap();
        let mut ops: Vec<(u64, SweepOp)> = Vec::new();
        for (kind, pick, v) in raw {
            let v = if unique { 0 } else { v };
            let (key, v, op) = match kind {
                0 => (last + 1 + u64::from(pick % 300), v, SweepOp::Insert(value(v))),
                1 | 2 => (u64::from(pick % 200) * 2 + 1, v, SweepOp::Insert(value(v))),
                3 | 4 => {
                    let &(k, v) = stored.iter().nth(pick as usize % stored.len()).unwrap();
                    (k, v, SweepOp::Remove(Some(value(v))))
                }
                _ => {
                    let &(k, v) = stored.iter().nth(pick as usize % stored.len()).unwrap();
                    (k, v, SweepOp::Replace(value(9)))
                }
            };
            // One operation per entry, so the model need not order them.
            let entry = (key, v);
            let fresh = matches!(op, SweepOp::Insert(_)) && !model.contains(&entry);
            let gone = matches!(op, SweepOp::Remove(_)) && model.contains(&entry);
            if (fresh || gone) && !ops.iter().any(|(k, o)| *k == key && (unique || o == &op)) {
                if fresh { model.insert(entry); } else { model.remove(&entry); }
                ops.push((key, op));
            } else if unique && matches!(op, SweepOp::Replace(_))
                && model.contains(&entry) && !ops.iter().any(|(k, _)| *k == key)
            {
                ops.push((key, op));
            }
        }
        ops.sort_by_key(|(key, _)| *key);
        let replaced: BTreeSet<u64> = ops
            .iter()
            .filter(|(_, op)| matches!(op, SweepOp::Replace(_)))
            .map(|(k, _)| *k)
            .collect();

        // Each leaf's key range, from the bulk load's separators (each
        // leaf's first key); a key equal to one may sit on either side of
        // it with repeated keys.
        let mut lows: Vec<u64> = Vec::new();
        let mut page = None;
        tree.for_each_range(0, u64::MAX, |k, _, image| {
            let at = image.map(|p| std::rc::Rc::as_ptr(p) as usize);
            if lows.is_empty() || at != page {
                lows.push(k);
                page = at;
            }
            true
        })
        .unwrap();
        let holds = |i: usize, key: u64| {
            let lo = if i == 0 { 0 } else { lows[i] };
            let hi = lows.get(i + 1).copied().unwrap_or(u64::MAX);
            lo <= key && (key < hi || (!unique && key == hi))
        };
        let leaves_of = |keys: &mut dyn Iterator<Item = u64>| -> BTreeSet<usize> {
            keys.flat_map(|key| (0..lows.len()).filter(move |&i| holds(i, key))).collect()
        };
        let touched = leaves_of(&mut ops.iter().map(|(k, _)| *k));
        let removing = leaves_of(&mut ops.iter().filter(|(_, op)| matches!(op, SweepOp::Remove(_))).map(|(k, _)| *k));
        let internal = (tree.node_pages() - tree.leaf_pages()).saturating_sub(1);
        let counter = |name: &str| disk.metrics().counter(name);
        let (reads, splits) = (counter("disk.reads"), counter("btree.splits"));

        let mut stats = SweepStats::default();
        tree.apply_sorted(ops.clone(), unique, &mut stats, &mut |_, _, _| {}).unwrap();
        let (reads, splits) = (counter("disk.reads") - reads, counter("btree.splits") - splits);
        prop_assert_eq!((stats.landed, stats.rejected), (ops.len() as u64, 0));
        let leaves = if lows.len() > 1 { touched.len() as u64 } else { 0 };
        prop_assert!(
            reads <= leaves + internal + stats.siblings_read,
            "{} reads: {} leaves, {} internal pages, {} siblings",
            reads, leaves, internal, stats.siblings_read
        );
        prop_assert!(stats.siblings_read <= removing.len() as u64);
        prop_assert!(
            stats.leaves_written <= leaves + stats.siblings_read + splits,
            "{} leaf writes: {} leaves, {} siblings, {} split off",
            stats.leaves_written, leaves, stats.siblings_read, splits
        );
        tree.check_invariants().unwrap();
        let want: Vec<(u64, Vec<u8>)> = model
            .iter()
            .map(|&(k, v)| (k, if replaced.contains(&k) { value(9) } else { value(v) }))
            .collect();
        let mut got = tree.scan_range(0, u64::MAX).unwrap();
        got.sort();
        prop_assert_eq!(got, want);
        prop_assert!(
            tree.leaf_pages() <= 2 * tree.packed_leaf_pages() + 1,
            "{} leaves for {} entries at {} per leaf",
            tree.leaf_pages(), tree.len(), leaf_cap
        );
    }

    /// A sweep with a key in every leaf of a run of adjacent leaves lands
    /// the run on full pages: the run's entries sit on ⌈entries ÷
    /// leaf_cap⌉ pages, plus at most one at each end of the run, however
    /// thin single-key removes left its leaves.
    #[test]
    fn a_run_of_adjacent_leaves_lands_on_full_pages(
        keys in 20u64..400,
        thinned in prop::collection::vec(any::<u32>(), 0..250),
        from in any::<u32>(),
        span in 1usize..40,
        leaf_cap in 2usize..7,
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, Cost::new());
        let cfg = BTreeConfig { leaf_cap, internal_cap: 3 };
        let mut tree =
            BTree::bulk_load(&disk, cfg, (0..keys).map(|k| (2 * k, vec![0u8; 5]))).unwrap();
        for pick in thinned {
            sweep(&mut tree, vec![(2 * (pick as u64 % keys), SweepOp::Remove(None))]);
        }
        // Each leaf's first key, in key order.
        let mut lows: Vec<u64> = Vec::new();
        let mut page = None;
        tree.for_each_range(0, u64::MAX, |k, _, image| {
            let at = image.map(|p| std::rc::Rc::as_ptr(p) as usize);
            if lows.is_empty() || at != page {
                lows.push(k);
                page = at;
            }
            true
        })
        .unwrap();
        prop_assume!(!lows.is_empty());
        let a = from as usize % lows.len();
        let b = (a + span).min(lows.len());
        let (lo, hi) = (lows[a], lows.get(b).copied());
        let ops = lows[a..b].iter().map(|&k| (k, SweepOp::Replace(vec![1u8; 5]))).collect();
        prop_assert_eq!(sweep(&mut tree, ops).rejected, 0);
        tree.check_invariants().unwrap();
        let (mut pages, mut entries, mut page) = (0u64, 0u64, None);
        tree.for_each_range(0, u64::MAX, |k, _, image| {
            if k >= lo && hi.is_none_or(|hi| k < hi) {
                let at = image.map(|p| std::rc::Rc::as_ptr(p) as usize);
                pages += u64::from(entries == 0 || at != page);
                (entries, page) = (entries + 1, at);
            }
            true
        })
        .unwrap();
        prop_assert!(
            pages <= entries.div_ceil(leaf_cap as u64) + 2,
            "{} leaves of the run hold {} entries on {} pages at {} a page",
            b - a, entries, pages, leaf_cap
        );
    }

    /// An update-only sweep over a bulk-loaded tree lands every leaf where
    /// it was read: the pages written are exactly the leaves on which a
    /// value changed, each written with the image it was read with but the
    /// new values, and no other page changes — what landing each leaf
    /// unit on its own at its read boundaries writes.
    #[test]
    fn replace_sweep_over_a_packed_tree_rewrites_its_leaves_in_place(
        keys in prop::collection::vec(0u64..3000, 1..600),
        picks in prop::collection::vec((any::<u32>(), 0u8..3), 1..300),
        leaf_cap in 2usize..7,
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, Cost::new());
        let cfg = BTreeConfig { leaf_cap, internal_cap: 3 };
        let keys: Vec<u64> = keys.into_iter().collect::<BTreeSet<u64>>().into_iter().collect();
        let mut tree =
            BTree::bulk_load(&disk, cfg, keys.iter().map(|&k| (k, vec![0u8; 6]))).unwrap();
        let file = tree.file_id();
        let images = || -> Vec<Vec<u8>> {
            let pages = disk.num_pages(file).unwrap();
            (0..pages).map(|page| disk.read_page_free(PageId::new(file, page)).unwrap()).collect()
        };
        let before = images();
        // Each pick replaces one stored key, with its own value (0) or a new one.
        let batch: BTreeMap<u64, u8> =
            picks.iter().map(|&(pick, v)| (keys[pick as usize % keys.len()], v)).collect();
        let ops = batch.iter().map(|(&k, &v)| (k, SweepOp::Replace(vec![v; 6]))).collect();
        let writes = disk.metrics().counter("disk.writes");
        let stats = sweep(&mut tree, ops);
        prop_assert_eq!((stats.landed, stats.rejected), (batch.len() as u64, 0));
        let after = images();
        prop_assert_eq!(after.len(), before.len());
        let mut changed = 0;
        for (page, (was, now)) in before.iter().zip(&after).enumerate() {
            let want = match Node::from_page(was).unwrap() {
                Node::Leaf { entries, next } => {
                    let entries = entries
                        .into_iter()
                        .map(|(k, v)| (k, batch.get(&k).map_or(v, |&b| vec![b; 6])))
                        .collect();
                    Node::Leaf { entries, next }.to_page(params.page_size).unwrap()
                }
                Node::Internal { .. } => was.clone(),
            };
            prop_assert!(now == &want, "page {} of {}", page, after.len());
            changed += u64::from(now != was && page as u32 != tree.meta().root_page);
        }
        prop_assert_eq!(disk.metrics().counter("disk.writes") - writes, changed);
        prop_assert_eq!(stats.leaves_written, changed);
    }

    /// Work-proportional maintenance, three ways. A batch whose net effect
    /// is empty writes no page; cutting a batch into consecutive pieces
    /// changes nothing about what the tree ends up holding; and batches
    /// over disjoint keys commute.
    #[test]
    fn sweeps_net_split_and_commute(
        stored in prop::collection::vec(0u64..200, 1..150),
        raw in prop::collection::vec((0u64..200, any::<u8>(), any::<u8>()), 1..200),
        cuts in prop::collection::vec(any::<u32>(), 0..6),
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let cfg = BTreeConfig { leaf_cap: 4, internal_cap: 4 };
        let stored: BTreeSet<u64> = stored.into_iter().collect();
        let build = || {
            let disk = SimDisk::new(&params, Cost::new());
            let tree =
                BTree::bulk_load(&disk, cfg, stored.iter().map(|&k| (k, vec![0u8; 5]))).unwrap();
            (disk, tree)
        };
        let ops = batch_of(&raw, 5);

        // Net-empty: every stored key goes x → y → x, every absent key is
        // inserted and deleted again.
        let (disk, mut tree) = build();
        let mut round_trip = Vec::new();
        for key in 0..200u64 {
            if stored.contains(&key) {
                round_trip.push((key, SweepOp::Replace(vec![1u8; 5])));
                round_trip.push((key, SweepOp::Replace(vec![0u8; 5])));
            } else {
                round_trip.push((key, SweepOp::Insert(vec![1u8; 5])));
                round_trip.push((key, SweepOp::Remove(None)));
            }
        }
        let (writes, shape) = (disk.metrics().counter("disk.writes"), tree.meta());
        let stats = sweep(&mut tree, round_trip);
        prop_assert_eq!((stats.landed, stats.rejected, stats.leaves_written), (400, 0, 0));
        prop_assert_eq!(disk.metrics().counter("disk.writes"), writes);
        prop_assert_eq!(tree.meta(), shape);

        // Split k ways: the pieces, in order, are the whole.
        let (_whole_disk, mut whole) = build();
        sweep(&mut whole, ops.clone());
        let want = whole.scan_range(0, u64::MAX).unwrap();
        let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (ops.len() + 1)).collect();
        at.sort_unstable();
        let (_pieces_disk, mut pieces) = build();
        let mut from = 0;
        for cut in at.into_iter().chain([ops.len()]) {
            // A cut inside one key's chain would reorder nothing either,
            // but pieces must each be sorted, which any slice of a sorted
            // batch is.
            sweep(&mut pieces, ops[from..cut].to_vec());
            from = cut;
        }
        prop_assert_eq!(&pieces.scan_range(0, u64::MAX).unwrap(), &want);
        pieces.check_invariants().unwrap();

        // Disjoint keys commute: odd keys first or even keys first.
        let (odd, even): (Vec<_>, Vec<_>) = ops.iter().cloned().partition(|(k, _)| k % 2 == 1);
        let (_disk_a, mut a) = build();
        sweep(&mut a, odd.clone());
        sweep(&mut a, even.clone());
        let (_disk_b, mut b) = build();
        sweep(&mut b, even);
        sweep(&mut b, odd);
        prop_assert_eq!(&a.scan_range(0, u64::MAX).unwrap(), &want);
        prop_assert_eq!(&b.scan_range(0, u64::MAX).unwrap(), &want);
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    /// Occupancy at every level under an ascending load, the surrogate
    /// allocator's pattern: leaves end full, and every internal node but
    /// the right edge of its level ends one key short of full (the key its
    /// split moved up), so no level holds more nodes than its children
    /// packed `internal_cap` to a node, plus that edge.
    #[test]
    fn ascending_load_packs_every_level(
        n in 1u64..3000,
        leaf_cap in 2usize..7,
        internal_cap in 3usize..7,
    ) {
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, Cost::new());
        let mut tree = BTree::new(&disk, BTreeConfig { leaf_cap, internal_cap }).unwrap();
        for key in 0..n {
            tree.insert(key, vec![0u8; 2]).unwrap();
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.leaf_pages(), tree.packed_leaf_pages());
        let (mut level, mut packed) = (tree.leaf_pages(), 0u64);
        while level > 1 {
            level = level.div_ceil(internal_cap as u64);
            packed += level + 1;
        }
        let internal = tree.node_pages() - tree.leaf_pages();
        prop_assert!(
            internal <= packed,
            "{} internal nodes over {} leaves at {} children each",
            internal, tree.leaf_pages(), internal_cap
        );
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
