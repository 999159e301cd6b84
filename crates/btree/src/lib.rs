//! Page-based B⁺-tree, the access-path substrate of Table 5.
//!
//! The paper assumes (Table 5): base relations `R` and `S` clustered by a
//! B⁺-tree on the surrogate; a non-clustered ("inverted") index on `S`'s
//! join attribute; the join index `JI` clustered on surrogate `r` with a
//! non-clustered B⁺-tree on surrogate `s`. [`BTree`] implements both modes
//! over the simulated disk, with the root permanently memory-resident (the
//! Appendix's assumption) and batch probes that charge each page at most
//! once, mirroring Yao's formula.
//!
//! ```
//! use trijoin_btree::{BTree, BTreeConfig, SweepOp, SweepStats};
//! use trijoin_common::{Cost, SystemParams};
//! use trijoin_storage::SimDisk;
//!
//! let params = SystemParams::paper_defaults();
//! let cost = Cost::new();
//! let disk = SimDisk::new(&params, cost.clone());
//!
//! // A clustered tree holding 200-byte tuples (the paper's R).
//! let cfg = BTreeConfig::clustered(&params, 200);
//! let entries = (0..1000u64).map(|k| (k, vec![0u8; 190]));
//! let mut tree = BTree::bulk_load(&disk, cfg, entries).unwrap();
//!
//! assert_eq!(tree.len(), 1000);
//! assert_eq!(tree.leaf_pages(), 1000_u64.div_ceil(14)); // n_R = 14
//!
//! cost.reset();
//! let hits = tree.lookup(123).unwrap();
//! assert_eq!(hits.len(), 1);
//! // The root is memory-resident: a point lookup charges height-1 I/Os.
//! assert_eq!(cost.total().ios as usize, tree.height() - 1);
//!
//! tree.insert(1000, vec![1u8; 190]).unwrap();
//! assert!(tree.remove_exact(1000, &vec![1u8; 190]).unwrap());
//!
//! // A batch in key order is one sweep: each page read once, each changed
//! // leaf written once (keys 123 and 124 share theirs).
//! let batch = [123u64, 124, 900].map(|k| (k, SweepOp::Replace(vec![2u8; 190])));
//! let mut stats = SweepStats::default();
//! cost.reset();
//! tree.apply_sorted(batch, true, &mut stats, &mut |_, _, _| {}).unwrap();
//! assert_eq!((stats.landed, stats.rejected, stats.leaves_written), (3, 0, 2));
//! assert_eq!(cost.total().ios, 2 + 2);
//! ```

pub mod node;
pub mod tree;

pub use tree::{net_chain, BTree, BTreeConfig, BTreeMeta, Netted, Passes, SweepOp, SweepStats};

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::{Cost, SystemParams};
    use trijoin_storage::{Disk, SimDisk};

    fn setup() -> (Disk, Cost, SystemParams) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        (SimDisk::new(&params, cost.clone()), cost, params)
    }

    fn small_cfg() -> BTreeConfig {
        BTreeConfig { leaf_cap: 4, internal_cap: 4 }
    }

    #[test]
    fn empty_tree_lookup() {
        let (disk, _c, _p) = setup();
        let t = BTree::new(&disk, small_cfg()).unwrap();
        assert!(t.lookup(5).unwrap().is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_lookup_across_splits() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        for k in 0..100u64 {
            t.insert(k, vec![k as u8]).unwrap();
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() > 1, "100 keys with cap 4 must split");
        for k in 0..100u64 {
            assert_eq!(t.lookup(k).unwrap(), vec![vec![k as u8]], "key {k}");
        }
        assert!(t.lookup(100).unwrap().is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn reverse_and_shuffled_inserts() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        // A fixed shuffled order (deterministic).
        let keys: Vec<u64> = (0..64u64).map(|i| (i * 37) % 64).collect();
        for &k in &keys {
            t.insert(k, k.to_le_bytes().to_vec()).unwrap();
        }
        for k in 0..64u64 {
            assert_eq!(t.lookup(k).unwrap(), vec![k.to_le_bytes().to_vec()]);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_keys_spanning_leaves() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        // 20 duplicates of key 5 (spans many cap-4 leaves) plus neighbors.
        t.insert(4, b"four".to_vec()).unwrap();
        for i in 0..20u8 {
            t.insert(5, vec![i]).unwrap();
        }
        t.insert(6, b"six".to_vec()).unwrap();
        let mut got = t.lookup(5).unwrap();
        assert_eq!(got.len(), 20);
        got.sort();
        let expect: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i]).collect();
        assert_eq!(got, expect, "all duplicates found (value order unspecified)");
        assert_eq!(t.lookup(4).unwrap(), vec![b"four".to_vec()]);
        assert_eq!(t.lookup(6).unwrap(), vec![b"six".to_vec()]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> =
            (0..500u64).map(|k| (k, (k as u32).to_le_bytes().to_vec())).collect();
        let t = BTree::bulk_load(&disk, small_cfg(), entries.clone()).unwrap();
        assert_eq!(t.len(), 500);
        assert_eq!(t.leaf_pages(), 125); // 500 / leaf_cap 4
        for (k, v) in &entries {
            assert_eq!(t.lookup(*k).unwrap(), vec![v.clone()]);
        }
        assert_eq!(t.scan_range(100, 103).unwrap().len(), 4);
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let (disk, _c, _p) = setup();
        let entries = vec![(2u64, vec![]), (1u64, vec![])];
        assert!(BTree::bulk_load(&disk, small_cfg(), entries).is_err());
    }

    #[test]
    fn bulk_load_empty_is_valid() {
        let (disk, _c, _p) = setup();
        let t = BTree::bulk_load(&disk, small_cfg(), Vec::new()).unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 1);
        assert!(t.lookup(0).unwrap().is_empty());
    }

    #[test]
    fn range_scans_and_early_exit() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..50u64).map(|k| (k * 2, vec![k as u8])).collect();
        let t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let got = t.scan_range(10, 20).unwrap();
        let keys: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![10, 12, 14, 16, 18, 20]);
        // Early exit stops the walk.
        let mut seen = 0;
        t.for_each_range(0, u64::MAX, |_, _, _| {
            seen += 1;
            seen < 7
        })
        .unwrap();
        assert_eq!(seen, 7);
        // Inverted bounds yield nothing.
        assert!(t.scan_range(20, 10).unwrap().is_empty());
    }

    #[test]
    fn remove_exact_among_duplicates() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        for k in 0..30u64 {
            t.insert(k, vec![k as u8]).unwrap();
            t.insert(k, vec![k as u8, 0xFF]).unwrap(); // a duplicate
        }
        assert_eq!(t.len(), 60);
        assert!(t.remove_exact(10, &[10]).unwrap());
        assert_eq!(t.lookup(10).unwrap(), vec![vec![10, 0xFF]]);
        assert!(!t.remove_exact(10, &[10]).unwrap(), "already removed");
        assert!(!t.remove_exact(99, &[0]).unwrap(), "never existed");
        assert_eq!(t.len(), 59);
        // Drain an entire key.
        assert!(t.remove_exact(10, &[10, 0xFF]).unwrap());
        assert!(t.lookup(10).unwrap().is_empty());
        // Neighbours unaffected.
        assert_eq!(t.lookup(9).unwrap().len(), 2);
        assert_eq!(t.lookup(11).unwrap().len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_from_root_leaf() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        t.insert(1, b"a".to_vec()).unwrap();
        t.insert(2, b"b".to_vec()).unwrap();
        assert!(t.remove_exact(1, b"a").unwrap());
        assert!(!t.remove_exact(1, b"a").unwrap());
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn fetch_many_dedupes_page_charges() {
        let (disk, cost, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..400u64).map(|k| (k, vec![k as u8])).collect();
        let t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        cost.reset();

        // Probe every key once, sorted: every leaf is needed, but each page
        // must be charged at most once.
        let keys: Vec<u64> = (0..400).collect();
        let mut hits = 0u64;
        t.fetch_many(&keys, |_, _| hits += 1).unwrap();
        assert_eq!(hits, 400);
        let total_pages = disk.num_pages(t.file_id()).unwrap() as u64;
        assert!(
            cost.total().ios <= total_pages,
            "batch fetch charged {} IOs for a {}-page tree",
            cost.total().ios,
            total_pages
        );

        // A second, tiny batch touches only a few pages.
        cost.reset();
        t.fetch_many(&[3, 4], |_, _| {}).unwrap();
        assert!(cost.total().ios <= t.height() as u64 + 2);
    }

    #[test]
    fn fetch_many_with_duplicate_probes_and_misses() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..20u64).map(|k| (k * 2, vec![k as u8])).collect();
        let t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let mut got: Vec<u64> = Vec::new();
        t.fetch_many(&[4, 4, 5, 6], |k, _| got.push(k)).unwrap();
        assert_eq!(got, vec![4, 4, 6], "dup probes double-count, misses skip");
    }

    #[test]
    fn point_lookup_io_matches_height_minus_root() {
        let (disk, cost, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, vec![0u8; 8])).collect();
        let t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        cost.reset();
        t.lookup(1234).unwrap();
        // Root is free; each level below charges one read. A lookup may read
        // one extra sibling leaf when chasing potential duplicates.
        let ios = cost.total().ios;
        let h = t.height() as u64;
        assert!(ios >= h - 1 && ios <= h, "lookup cost {ios} vs height {h}");
        let _ = disk;
    }

    #[test]
    fn extreme_keys_and_empty_probes() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        t.insert(0, b"zero".to_vec()).unwrap();
        t.insert(u64::MAX, b"max".to_vec()).unwrap();
        assert_eq!(t.lookup(u64::MAX).unwrap(), vec![b"max".to_vec()]);
        assert_eq!(t.lookup(0).unwrap(), vec![b"zero".to_vec()]);
        assert_eq!(t.scan_range(0, u64::MAX).unwrap().len(), 2);
        // Empty probe list is a no-op.
        t.fetch_many(&[], |_, _| panic!("no probes")).unwrap();
        t.check_invariants().unwrap();
    }

    #[test]
    fn mass_deletion_collapses_to_an_empty_root() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..200u64).map(|k| (k, vec![k as u8])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let file_pages = disk.num_pages(t.file_id()).unwrap();
        for k in 0..200u64 {
            assert!(t.remove_any(k).unwrap(), "key {k}");
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 0);
        // Every level merged away: the root is the one empty leaf left,
        // and every other page of the file waits on the free list.
        assert_eq!((t.height(), t.leaf_pages(), t.node_pages()), (1, 1, 1));
        assert!(t.lookup(50).unwrap().is_empty());
        assert!(t.scan_range(0, u64::MAX).unwrap().is_empty());
        // Growing back takes pages off the free list, not from the file.
        for k in 0..100u64 {
            t.insert(k, vec![k as u8]).unwrap();
        }
        assert_eq!(t.lookup(77).unwrap(), vec![vec![77]]);
        assert_eq!(disk.num_pages(t.file_id()).unwrap(), file_pages);
        t.check_invariants().unwrap();
    }

    #[test]
    fn ascending_inserts_pack_leaves_full() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        for k in 0..400u64 {
            t.insert(k, vec![k as u8]).unwrap();
        }
        // An append splits off only itself, so every leaf but the last
        // ends full: what a bulk load packs, not twice that.
        assert_eq!(t.leaf_pages(), 100);
        assert_eq!(t.leaf_pages(), t.packed_leaf_pages());
        t.check_invariants().unwrap();
    }

    /// Run `ops` as one sweep, returning its stats and the changes it
    /// reported as `(key, before, after)`.
    type Change = (u64, Option<Vec<u8>>, Option<Vec<u8>>);
    fn sweep(t: &mut BTree, unique: bool, ops: Vec<(u64, SweepOp)>) -> (SweepStats, Vec<Change>) {
        let (mut stats, mut changes) = (SweepStats::default(), Vec::new());
        t.apply_sorted(ops, unique, &mut stats, &mut |k, before, after| {
            changes.push((k, before.map(<[u8]>::to_vec), after.map(<[u8]>::to_vec)));
        })
        .unwrap();
        (stats, changes)
    }

    #[test]
    fn mutation_charges_follow_the_pages_changed() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k * 2, vec![0u8; 8])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let h = t.height() as u64;
        assert!(h >= 4, "the charges below must cross unchanged internal levels");
        let writes = || disk.metrics().counter("disk.writes");
        let reads = || disk.metrics().counter("disk.reads");

        // In-place replace: one descent, one leaf write, same structure.
        let (r0, w0, leaves) = (reads(), writes(), t.leaf_pages());
        let (stats, changes) =
            sweep(&mut t, true, vec![(1001 * 2, SweepOp::Replace(vec![7u8; 8]))]);
        assert_eq!((stats.landed, stats.rejected, stats.leaves_written), (1, 0, 1));
        assert_eq!(changes, vec![(1001 * 2, Some(vec![0u8; 8]), Some(vec![7u8; 8]))]);
        assert_eq!((reads() - r0, writes() - w0), (h - 1, 1));
        assert_eq!(t.leaf_pages(), leaves);
        assert_eq!(t.lookup(1001 * 2).unwrap(), vec![vec![7u8; 8]]);
        // An absent key and a replacement of another width are refused,
        // and a refused batch writes nothing.
        let w0 = writes();
        let refused = vec![
            (1001 * 2, SweepOp::Replace(vec![7u8; 9])),
            (1001 * 2 + 1, SweepOp::Replace(vec![7u8; 8])),
        ];
        let (stats, changes) = sweep(&mut t, true, refused);
        assert_eq!((stats.landed, stats.rejected, stats.leaves_written), (2, 2, 0));
        assert!(changes.is_empty());
        assert_eq!(writes(), w0);

        // A delete that leaves its leaf at least half full, then an insert
        // into the room it made: one descent and one leaf write each.
        let (r0, w0) = (reads(), writes());
        assert!(t.remove_exact(1001 * 2, &[7u8; 8]).unwrap());
        assert_eq!((reads() - r0, writes() - w0), (h - 1, 1));
        let (r0, w0) = (reads(), writes());
        let (stats, _) = sweep(&mut t, true, vec![(1001 * 2, SweepOp::Insert(vec![1u8; 8]))]);
        assert_eq!((stats.rejected, reads() - r0, writes() - w0), (0, h - 1, 1));
        let (stats, _) = sweep(&mut t, true, vec![(1001 * 2, SweepOp::Insert(vec![2u8; 8]))]);
        assert_eq!(stats.rejected, 1, "key taken");
        assert_eq!(t.lookup(1001 * 2).unwrap(), vec![vec![1u8; 8]]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sweep_finds_a_key_equal_to_its_separator_and_in_a_root_leaf() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        t.insert(1, vec![1]).unwrap();
        let (stats, _) = sweep(
            &mut t,
            true,
            vec![(1, SweepOp::Replace(vec![9])), (2, SweepOp::Replace(vec![9]))],
        );
        assert_eq!((stats.landed, stats.rejected), (2, 1));
        assert_eq!(t.lookup(1).unwrap(), vec![vec![9]]);
        t.check_invariants().unwrap();

        // Every key that heads a leaf equals the separator above it: the
        // sweep goes right of an equal separator, where a tree of unique
        // keys keeps the entry, and pays no hop through the left leaf.
        let entries: Vec<(u64, Vec<u8>)> = (0..400u64).map(|k| (k, vec![0u8; 2])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let descent = t.height() as u64 - 1;
        for key in [4u64, 16, 64, 256] {
            let r0 = disk.metrics().counter("disk.reads");
            let (stats, _) = sweep(&mut t, true, vec![(key, SweepOp::Replace(vec![1u8; 2]))]);
            assert_eq!((stats.rejected, stats.leaves_written), (0, 1), "key {key}");
            assert_eq!(disk.metrics().counter("disk.reads") - r0, descent, "key {key}");
            assert_eq!(t.lookup(key).unwrap(), vec![vec![1u8; 2]]);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn sweep_reads_each_page_once_and_writes_each_changed_leaf_once() {
        let (disk, cost, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k * 2, vec![0u8; 8])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let pages = disk.num_pages(t.file_id()).unwrap() as u64;
        // Every stored key replaced: all leaves change, nothing restructures.
        let all: Vec<_> = (0..2000u64).map(|k| (k * 2, SweepOp::Replace(vec![3u8; 8]))).collect();
        cost.reset();
        let (r0, w0) =
            (disk.metrics().counter("disk.reads"), disk.metrics().counter("disk.writes"));
        let (stats, changes) = sweep(&mut t, true, all);
        assert_eq!((stats.landed, stats.rejected, stats.leaves_written), (2000, 0, t.leaf_pages()));
        assert_eq!(changes.len(), 2000);
        // The resident root is free; every other page is read exactly once.
        assert_eq!(disk.metrics().counter("disk.reads") - r0, pages - 1);
        assert_eq!(disk.metrics().counter("disk.writes") - w0, t.leaf_pages());
        // The same values again change no image: nothing is written.
        let again: Vec<_> = (0..2000u64).map(|k| (k * 2, SweepOp::Replace(vec![3u8; 8]))).collect();
        let w0 = disk.metrics().counter("disk.writes");
        let (stats, changes) = sweep(&mut t, true, again);
        assert_eq!((stats.landed, stats.leaves_written, changes.len()), (2000, 0, 0));
        assert_eq!(disk.metrics().counter("disk.writes"), w0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sweep_nets_the_operations_on_one_key() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..400u64).map(|k| (k * 2, vec![0u8; 4])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let before = t.scan_range(0, u64::MAX).unwrap();
        let w0 = disk.metrics().counter("disk.writes");
        let (shape, leaves) = (t.meta(), t.leaf_pages());
        // x → y → x, and an insert its delete follows: both end where they
        // began. Leaves are packed full, so had the insert reached the
        // tree it would have split one.
        let ops = vec![
            (10, SweepOp::Replace(vec![9u8; 4])),
            (10, SweepOp::Replace(vec![0u8; 4])),
            (11, SweepOp::Insert(vec![5u8; 4])),
            (11, SweepOp::Remove(None)),
            (12, SweepOp::Remove(Some(vec![7u8; 4]))),
        ];
        let (stats, changes) = sweep(&mut t, true, ops);
        assert_eq!((stats.landed, stats.rejected, stats.leaves_written), (5, 1, 0));
        assert!(changes.is_empty());
        assert_eq!(disk.metrics().counter("disk.writes"), w0);
        assert_eq!((t.meta(), t.leaf_pages()), (shape, leaves));
        assert_eq!(t.scan_range(0, u64::MAX).unwrap(), before);
        // Delete then reinsert under one key is one replace.
        let ops = vec![(20, SweepOp::Remove(None)), (20, SweepOp::Insert(vec![8u8; 4]))];
        let (stats, changes) = sweep(&mut t, true, ops);
        assert_eq!((stats.rejected, stats.leaves_written), (0, 1));
        assert_eq!(changes, vec![(20, Some(vec![0u8; 4]), Some(vec![8u8; 4]))]);
        assert_eq!(t.leaf_pages(), leaves);
        // An overwrite keeps the width, spelled as delete and reinsert too:
        // the wider insert is refused and the delete stands.
        let ops = vec![(30, SweepOp::Remove(None)), (30, SweepOp::Insert(vec![8u8; 5]))];
        let (stats, changes) = sweep(&mut t, true, ops);
        assert_eq!((stats.landed, stats.rejected), (2, 1));
        assert_eq!(changes, vec![(30, Some(vec![0u8; 4]), None)]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn sweep_splits_and_merges_in_its_own_stream() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..64u64).map(|k| (k * 4, vec![k as u8])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        // Inserts into packed leaves split them; the removes that follow
        // empty whole leaves and merge them away.
        let mut ops: Vec<_> = (0..64u64).map(|k| (k * 4 + 1, SweepOp::Insert(vec![1]))).collect();
        ops.extend((32..64u64).map(|k| (k * 4, SweepOp::Remove(None))));
        ops.sort_by_key(|(k, _)| *k);
        let (stats, changes) = sweep(&mut t, true, ops);
        assert_eq!((stats.landed, stats.rejected, changes.len()), (96, 0, 96));
        assert_eq!(t.len(), 96);
        t.check_invariants().unwrap();
        let ops: Vec<_> = t.scan_range(0, u64::MAX).unwrap().into_iter().collect();
        let drain: Vec<_> = ops.iter().map(|(k, _)| (*k, SweepOp::Remove(None))).collect();
        let (stats, _) = sweep(&mut t, true, drain);
        assert_eq!((stats.landed, stats.rejected), (96, 0));
        assert_eq!((t.len(), t.height(), t.node_pages()), (0, 1, 1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn sweep_over_repeated_keys_adds_and_removes_exact_pairs() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        // 20 postings under key 5 span several leaves.
        let adds: Vec<_> = (0..20u8).map(|i| (5u64, SweepOp::Insert(vec![i]))).collect();
        let (stats, changes) = sweep(&mut t, false, adds);
        assert_eq!((stats.landed, stats.rejected, changes.len()), (20, 0, 0));
        assert_eq!(t.lookup(5).unwrap().len(), 20);
        t.check_invariants().unwrap();
        // Exact removes find their posting whichever leaf holds it; one
        // that is nowhere is rejected.
        let mut ops: Vec<_> =
            (0..20u8).step_by(2).map(|i| (5u64, SweepOp::Remove(Some(vec![i])))).collect();
        ops.push((5, SweepOp::Remove(Some(vec![99]))));
        ops.push((6, SweepOp::Replace(vec![0])));
        let (stats, _) = sweep(&mut t, false, ops);
        assert_eq!((stats.landed, stats.rejected), (12, 2));
        let mut left = t.lookup(5).unwrap();
        left.sort();
        assert_eq!(left, (1..20u8).step_by(2).map(|i| vec![i]).collect::<Vec<_>>());
        t.check_invariants().unwrap();
    }

    #[test]
    fn sweep_rejects_unsorted_input_and_keeps_what_landed() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..100u64).map(|k| (k, vec![0u8])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let ops = vec![
            (3, SweepOp::Replace(vec![1])),
            (50, SweepOp::Replace(vec![1])),
            (7, SweepOp::Replace(vec![1])),
        ];
        let mut stats = SweepStats::default();
        assert!(t.apply_sorted(ops, true, &mut stats, &mut |_, _, _| {}).is_err());
        // Key 3's leaf landed when the sweep moved on; key 50's did not.
        assert_eq!(stats.landed, 1);
        assert_eq!(t.lookup(3).unwrap(), vec![vec![1u8]]);
        assert_eq!(t.lookup(50).unwrap(), vec![vec![0u8]]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn ascending_inserts_pack_internal_nodes_too() {
        let (disk, _c, _p) = setup();
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        for k in 0..4000u64 {
            t.insert(k, vec![k as u8]).unwrap();
        }
        assert_eq!(t.leaf_pages(), 1000);
        // An append split leaves the full node one key short of full (the
        // key that moves up) and takes two children along: every node but
        // the right edge of its level keeps `internal_cap` children, where
        // a cut in the middle left about half of that.
        let (mut level, mut packed) = (t.leaf_pages(), 0);
        while level > 1 {
            level = level.div_ceil(4);
            packed += level;
        }
        let internal = t.node_pages() - t.leaf_pages();
        assert!(
            internal <= packed + t.height() as u64,
            "{internal} internal nodes, {packed} packed"
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn underflow_merges_or_refills_from_a_sibling() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..16u64).map(|k| (k, vec![k as u8])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        assert_eq!(t.leaf_pages(), 4);
        let counter = |name| disk.metrics().counter(name);
        // Leaf [0,1,2,3] drops to one entry next to a full sibling: the
        // pair does not fit one page, so it is cut again in the middle.
        for k in [0, 1, 2] {
            assert!(t.remove_any(k).unwrap());
        }
        assert_eq!((t.leaf_pages(), counter("btree.merges")), (4, 0));
        // Two more deletes leave the pair small enough for one page.
        for k in [3, 4] {
            assert!(t.remove_any(k).unwrap());
        }
        assert_eq!((t.leaf_pages(), counter("btree.merges")), (3, 1));
        assert_eq!(counter("btree.pages_freed"), 1);
        t.check_invariants().unwrap();
        // The next split takes the freed page instead of growing the file.
        let pages = disk.num_pages(t.file_id()).unwrap();
        for k in 100..104u64 {
            t.insert(k, vec![0]).unwrap();
        }
        assert_eq!(counter("btree.pages_reused"), 1);
        assert_eq!(disk.num_pages(t.file_id()).unwrap(), pages);
        t.check_invariants().unwrap();
    }

    #[test]
    fn reopened_tree_keeps_its_free_list_and_adopts_orphans() {
        let (disk, _c, _p) = setup();
        let entries: Vec<(u64, Vec<u8>)> = (0..64u64).map(|k| (k, vec![k as u8])).collect();
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        for k in 0..40u64 {
            assert!(t.remove_any(k).unwrap());
        }
        let meta = t.meta();
        assert!(meta.free_pages > 0 && meta.free_head.is_some());
        // A page allocated after the meta was taken is what a session that
        // crashed before its next commit leaves behind.
        disk.allocate_page(t.file_id()).unwrap();
        let reopened = BTree::open(&disk, small_cfg(), &meta).unwrap();
        assert_eq!(reopened.meta().free_pages, meta.free_pages + 1);
        reopened.check_invariants().unwrap();
        assert_eq!(reopened.scan_range(0, u64::MAX).unwrap().len(), 24);
    }

    #[test]
    fn passes_hold_whole_groups_read_once_and_pack_what_they_thin() {
        let (disk, _c, _p) = setup();
        // 20 groups of three keys over leaves of four: groups straddle.
        let entries = (0..60u64).map(|i| (((i / 3) << 32) | (i % 3), vec![]));
        let mut t = BTree::bulk_load(&disk, small_cfg(), entries).unwrap();
        let (nodes, reads) = (t.node_pages(), disk.metrics().counter("disk.reads"));
        assert_eq!(t.height(), 3);
        let (mut passes, mut seen, mut kept) = (t.passes(2, |k| k >> 32), 0, Vec::new());
        while !passes.is_done() {
            let (got, end) = passes.read().unwrap();
            let last = got.last().unwrap().0 >> 32;
            assert!(end.is_none_or(|end| end > last), "group {last} split by a pass");
            seen += got.len();
            // Keep one key of every fourth group: most passes underflow.
            let keep: Vec<_> =
                got.iter().filter(|(k, _)| (k >> 32) % 4 == 0 && k % 3 == 0).cloned().collect();
            kept.extend(keep.iter().map(|(k, _)| *k));
            passes.land(keep).unwrap();
        }
        passes.finish().unwrap();
        assert_eq!(seen, 60);
        assert!(disk.metrics().counter("disk.reads") - reads < nodes, "a node read twice");
        t.check_invariants().unwrap();
        let keys: Vec<u64> = t.scan_range(0, u64::MAX).unwrap().iter().map(|e| e.0).collect();
        assert_eq!(keys, kept);
        // An underfull pass reads on into the next: leaves stay half full.
        assert!(t.leaf_pages() <= kept.len().div_ceil(2) as u64 && t.meta().free_pages > 0);
    }

    #[test]
    fn oversized_value_is_rejected_cleanly() {
        let (disk, _c, _p) = setup();
        // Page size 256 in this fixture: a 300-byte value cannot fit.
        let mut t = BTree::new(&disk, small_cfg()).unwrap();
        assert!(t.insert(1, vec![0u8; 300]).is_err());
        assert_eq!(t.len(), 0);
        t.insert(1, vec![0u8; 100]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn paper_scale_config_heights() {
        // At Table 7 defaults a 200 000-tuple clustered relation has 14 286
        // leaf pages; scaled down 100× the same packing yields 143 leaves
        // under one resident root (the 2-level charged structure of IO_ci).
        let cost = Cost::new();
        let params = SystemParams::paper_defaults();
        let disk = SimDisk::new(&params, cost.clone());
        let cfg = BTreeConfig::clustered(&params, 200);
        assert_eq!(cfg.leaf_cap, 14);
        let entries: Vec<(u64, Vec<u8>)> = (0..2000u64).map(|k| (k, vec![0u8; 190])).collect();
        let t = BTree::bulk_load(&disk, cfg, entries).unwrap();
        assert_eq!(t.leaf_pages(), (2000f64 / 14.0).ceil() as u64);
        assert_eq!(t.height(), 2, "143 leaves under one resident root");
        let inv = BTreeConfig::inverted(&params);
        assert!(inv.leaf_cap <= params.fan_out);
        assert!(inv.internal_cap <= BTreeConfig::max_internal_keys(params.page_size));
    }
}
