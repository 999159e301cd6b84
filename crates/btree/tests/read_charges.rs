//! The read charges of the tree, pinned: what every read — point lookup,
//! bounded range with an early stop, full scan, batched fetch — charges in
//! I/Os and comparisons on seeded trees of height 1, 2 and 3 whose keys
//! repeat across leaves. The system goldens rarely reach a root that is a
//! leaf, or duplicate probes through `fetch_many`; these figures do, so a
//! change to how the reads walk the leaves must leave every one of them.

use rand::Rng;
use trijoin_btree::{BTree, BTreeConfig};
use trijoin_common::{rng, Cost, SystemParams};
use trijoin_storage::SimDisk;

/// `(calls of the callbacks, I/Os, comparisons)` of a group of reads.
type Charge = (u64, u64, u64);

/// Run `reads` from a zeroed ledger; they count their callbacks' calls.
fn charge(cost: &Cost, reads: impl FnOnce(&mut u64)) -> Charge {
    cost.reset();
    let mut calls = 0;
    reads(&mut calls);
    (calls, cost.total().ios, cost.total().comps)
}

/// Every read's charge, in a fixed order, on a tree of `n` entries over keys
/// `0..n/2` (so keys repeat, and runs of one key cross leaf boundaries),
/// four to a leaf and five children a node.
fn read_charges(n: u64, seed: u64, height: usize) -> Vec<Charge> {
    let cost = Cost::new();
    let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
    let mut rng = rng::seeded(seed);
    let mut entries: Vec<(u64, Vec<u8>)> =
        (0..n).map(|i| (rng.gen_range(0..n.div_ceil(2)), vec![i as u8])).collect();
    entries.sort();
    let cfg = BTreeConfig { leaf_cap: 4, internal_cap: 4 };
    let tree = BTree::bulk_load(&SimDisk::new(&params, cost.clone()), cfg, entries).unwrap();
    assert_eq!(tree.height(), height, "{n} entries");
    let top = n.div_ceil(2) + 1;
    let lookups = charge(&cost, |calls| {
        (0..=top).for_each(|key| *calls += tree.lookup(key).unwrap().len() as u64)
    });
    // Ranges from every key, each stopped by its callback after a few.
    let ranges = charge(&cost, |calls| {
        for lo in 0..top {
            for (span, stop_after) in [(0, 9), (2, 3), (5, 2), (top, 6)] {
                let mut seen = 0;
                tree.for_each_range(lo, lo + span, |_, _, _| {
                    seen += 1;
                    seen < stop_after
                })
                .unwrap();
                *calls += seen;
            }
        }
    });
    let scan = |stop_after: u64| {
        charge(&cost, |calls| {
            tree.for_each(|_, _| {
                *calls += 1;
                *calls < stop_after
            })
            .unwrap()
        })
    };
    let fetch = |probes: &[u64]| {
        charge(&cost, |calls| tree.fetch_many(probes, |_, _| *calls += 1).unwrap())
    };
    // Every key `k % 3` times: dropped, probed once, probed twice; past the
    // last key a miss.
    let dense: Vec<u64> =
        (0..=top).flat_map(|k| std::iter::repeat_n(k, (k % 3) as usize)).collect();
    let sparse = [0, 0, 1, top / 2, top / 2, top / 2, top - 1, top, top, top + 7];
    let (whole, half) = (scan(u64::MAX), scan(n / 2 + 1));
    vec![lookups, ranges, whole, half, fetch(&dense), fetch(&sparse), fetch(&[])]
}

#[test]
fn reads_charge_what_they_charged() {
    // Per tree: lookups, stopped ranges, scan, scan stopped halfway, dense,
    // sparse and empty fetch.
    #[rustfmt::skip]
    let want: [(u64, u64, usize, [Charge; 7]); 3] = [
        (3, 11, 1, [(3, 0, 10), (19, 0, 32), (3, 0, 3), (2, 0, 2), (3, 0, 6), (12, 0, 13), (0, 0, 0)]),
        (17, 12, 2, [(17, 15, 79), (107, 68, 321), (17, 5, 20), (9, 3, 12), (16, 5, 51), (16, 3, 33), (0, 0, 0)]),
        (80, 13, 3, [(80, 106, 418), (511, 439, 1728), (80, 21, 85), (41, 12, 46), (83, 24, 271), (12, 7, 54), (0, 0, 0)]),
    ];
    for (n, seed, height, charges) in want {
        assert_eq!(read_charges(n, seed, height), charges, "height {height}");
    }
}
