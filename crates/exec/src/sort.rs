//! Operation-counted in-memory sorting and k-way run merging.
//!
//! The paper prices internal sorting with Knuth's average-case quicksort
//! analysis (`CPU_s`) and merging with a heap analysis (`CPU_mrg`). The
//! engine does the real thing — a median-of-three quicksort with an
//! insertion-sort tail, and a streaming k-way merge — and charges the
//! *actual* comparisons and tuple moves it performs into the [`Cost`]
//! ledger. At realistic sizes the actual counts track the Knuth formulas
//! closely (verified by tests in the model crate).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use trijoin_common::Cost;

/// Sort `items` by a precomputed key, charging every comparison (`comp`)
/// and every element move (`move`, two per swap) to `cost`.
///
/// Keys should be precomputed by the caller (who charges `hash` for hashed
/// keys); this routine charges only comparisons and moves.
pub fn counted_sort_by<T, K: Ord + Copy>(items: &mut [T], key_of: impl Fn(&T) -> K, cost: &Cost) {
    let mut keys: Vec<K> = items.iter().map(&key_of).collect();
    let mut comps = 0u64;
    let mut moves = 0u64;
    let len = items.len();
    quicksort(items, &mut keys, 0, len, &mut comps, &mut moves, 0);
    cost.comp(comps);
    cost.mov(moves);
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
}

const INSERTION_CUTOFF: usize = 12;

#[allow(clippy::too_many_arguments)]
fn quicksort<T, K: Ord + Copy>(
    items: &mut [T],
    keys: &mut [K],
    lo: usize,
    hi: usize,
    comps: &mut u64,
    moves: &mut u64,
    depth: u32,
) {
    let n = hi - lo;
    if n <= 1 {
        return;
    }
    if n <= INSERTION_CUTOFF || depth > 96 {
        // Insertion sort (also the depth-limit fallback; with median-of-3
        // pivots the limit is effectively unreachable).
        for i in lo + 1..hi {
            let mut j = i;
            while j > lo {
                *comps += 1;
                if keys[j - 1] <= keys[j] {
                    break;
                }
                keys.swap(j - 1, j);
                items.swap(j - 1, j);
                *moves += 2;
                j -= 1;
            }
        }
        return;
    }
    // Median-of-three pivot selection.
    let mid = lo + n / 2;
    *comps += 3;
    let (a, b, c) = (keys[lo], keys[mid], keys[hi - 1]);
    let pivot_idx = if (a <= b) == (b <= c) {
        mid
    } else if (a <= b) == (a <= c) {
        hi - 1
    } else {
        lo
    };
    keys.swap(pivot_idx, hi - 1);
    items.swap(pivot_idx, hi - 1);
    *moves += 2;
    let pivot = keys[hi - 1];
    // Lomuto partition.
    let mut store = lo;
    for i in lo..hi - 1 {
        *comps += 1;
        if keys[i] < pivot {
            if i != store {
                keys.swap(i, store);
                items.swap(i, store);
                *moves += 2;
            }
            store += 1;
        }
    }
    keys.swap(store, hi - 1);
    items.swap(store, hi - 1);
    *moves += 2;
    quicksort(items, keys, lo, store, comps, moves, depth + 1);
    quicksort(items, keys, store + 1, hi, comps, moves, depth + 1);
}

/// Streaming k-way merge of pre-sorted sources by `key`, charging the
/// comparisons of a linear minimum scan over the heads in hand (one fewer
/// than there are heads, an item; the paper's heap would be `lg k`, and
/// with the small `N1`-sized fan-ins of the differential pipelines the
/// difference is nanoseconds against a 25 ms I/O) and one `move` per
/// emitted item. The minimum itself is found with a heap, so a merge of
/// many runs costs the host `lg k` an item. Each source's next item is
/// read ahead, ties going to the lower source; a source must keep
/// returning `None` once it is done.
pub struct KWayMerge<T, K, I>
where
    I: Iterator<Item = T>,
    K: Ord + Copy,
{
    sources: Vec<I>,
    /// Each source's item read ahead.
    heads: Vec<Option<T>>,
    /// The heads in hand by key, then source.
    queue: BinaryHeap<Reverse<(K, usize)>>,
    /// The sources without a head in hand that are not known to be done.
    vacant: Vec<usize>,
    key_of: Box<dyn Fn(&T) -> K>,
    cost: Cost,
}

impl<T, K, I> KWayMerge<T, K, I>
where
    I: Iterator<Item = T>,
    K: Ord + Copy,
{
    /// Merge `sources` (each already sorted by `key_of`).
    pub fn new(sources: Vec<I>, key_of: impl Fn(&T) -> K + 'static, cost: Cost) -> Self {
        let heads = sources.iter().map(|_| None).collect();
        let n = sources.len();
        let (queue, vacant) = (BinaryHeap::with_capacity(n), (0..n).collect());
        KWayMerge { sources, heads, queue, vacant, key_of: Box::new(key_of), cost }
    }

    /// Read ahead, in source order, in every source without a head in
    /// hand; one that yields nothing is done.
    fn refill(&mut self) {
        let mut vacant = std::mem::take(&mut self.vacant);
        vacant.sort_unstable();
        for &i in &vacant {
            if let Some(item) = self.sources[i].next() {
                self.queue.push(Reverse(((self.key_of)(&item), i)));
                self.heads[i] = Some(item);
            }
        }
        vacant.clear();
        self.vacant = vacant;
    }
}

impl<T, K, I> Iterator for KWayMerge<T, K, I>
where
    I: Iterator<Item = T>,
    K: Ord + Copy,
{
    type Item = T;

    /// The head that sorts first, charged as a scan of the heads in hand.
    fn next(&mut self) -> Option<T> {
        self.refill();
        self.cost.comp(self.queue.len().saturating_sub(1) as u64);
        let Reverse((_, i)) = self.queue.pop()?;
        self.cost.mov(1);
        self.vacant.push(i);
        self.heads[i].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_correctly_and_charges() {
        let cost = Cost::new();
        let mut v: Vec<u32> = (0..500).map(|i| (i * 7919) % 500).collect();
        counted_sort_by(&mut v, |x| *x, &cost);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        let t = cost.total();
        assert!(t.comps > 0 && t.moves > 0);
        // Sanity: n lg n ballpark (500·9 ≈ 4500); actual should be within
        // a small factor.
        assert!(t.comps > 2_000 && t.comps < 40_000, "comps = {}", t.comps);
    }

    #[test]
    fn sort_handles_degenerate_inputs() {
        let cost = Cost::new();
        let mut empty: Vec<u8> = vec![];
        counted_sort_by(&mut empty, |x| *x, &cost);
        let mut single = vec![9u8];
        counted_sort_by(&mut single, |x| *x, &cost);
        assert_eq!(single, vec![9]);
        let mut same = vec![5u8; 100];
        counted_sort_by(&mut same, |x| *x, &cost);
        assert_eq!(same, vec![5u8; 100]);
        let mut sorted: Vec<u32> = (0..200).collect();
        counted_sort_by(&mut sorted, |x| *x, &cost);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut reversed: Vec<u32> = (0..200).rev().collect();
        counted_sort_by(&mut reversed, |x| *x, &cost);
        assert!(reversed.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_is_by_key_not_value() {
        let cost = Cost::new();
        let mut v = vec![(3, "c"), (1, "a"), (2, "b")];
        counted_sort_by(&mut v, |(k, _)| std::cmp::Reverse(*k), &cost);
        assert_eq!(v, vec![(3, "c"), (2, "b"), (1, "a")]);
    }

    #[test]
    fn kway_merge_merges() {
        let cost = Cost::new();
        let a = vec![1u64, 4, 7];
        let b = vec![2u64, 5, 8];
        let c = vec![0u64, 3, 6, 9];
        let merged: Vec<u64> =
            KWayMerge::new(vec![a.into_iter(), b.into_iter(), c.into_iter()], |x| *x, cost.clone())
                .collect();
        assert_eq!(merged, (0..10).collect::<Vec<u64>>());
        assert_eq!(cost.total().moves, 10, "one move per emitted item");
        assert!(cost.total().comps >= 10);
    }

    #[test]
    fn kway_merge_empty_source_list_yields_nothing() {
        let cost = Cost::new();
        let sources: Vec<std::vec::IntoIter<u64>> = vec![];
        let merged: Vec<u64> = KWayMerge::new(sources, |x| *x, cost.clone()).collect();
        assert!(merged.is_empty());
        let t = cost.total();
        assert_eq!((t.comps, t.moves), (0, 0), "no sources, no charges");
    }

    #[test]
    fn kway_merge_duplicates_across_runs_preserve_multiplicity() {
        let cost = Cost::new();
        // Every run contains the same keys; all copies must survive the
        // merge in sorted order (differential pipelines rely on this —
        // duplicates across runs are distinct tuples, not dedup targets).
        let runs: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![1, 2, 3], vec![1, 2, 3]];
        let merged: Vec<u64> =
            KWayMerge::new(runs.into_iter().map(|r| r.into_iter()).collect(), |x| *x, cost.clone())
                .collect();
        assert_eq!(merged, vec![1, 1, 1, 2, 2, 2, 3, 3, 3]);
        assert_eq!(cost.total().moves, 9, "one move per emitted copy");
    }

    #[test]
    fn kway_merge_duplicates_and_empty_sources() {
        let cost = Cost::new();
        let a = vec![1u64, 1, 2];
        let b: Vec<u64> = vec![];
        let c = vec![1u64, 2];
        let merged: Vec<u64> =
            KWayMerge::new(vec![a.into_iter(), b.into_iter(), c.into_iter()], |x| *x, cost)
                .collect();
        assert_eq!(merged, vec![1, 1, 1, 2, 2]);
    }

    #[test]
    fn kway_merge_gives_ties_to_the_lower_source_and_charges_a_scan_of_its_heads() {
        let cost = Cost::new();
        let runs = vec![vec![(1u64, 'a'), (3, 'a')], vec![(1, 'b'), (2, 'b')], vec![(1, 'c')]];
        let sources = runs.into_iter().map(|r| r.into_iter()).collect();
        let merged: Vec<(u64, char)> =
            KWayMerge::new(sources, |x: &(u64, char)| x.0, cost.clone()).collect();
        assert_eq!(merged, vec![(1, 'a'), (1, 'b'), (1, 'c'), (2, 'b'), (3, 'a')]);
        // Three heads in hand for the first three items, then two, then one.
        assert_eq!((cost.total().comps, cost.total().moves), (2 + 2 + 2 + 1, 5));
    }

    #[test]
    fn kway_merge_single_source_is_identity() {
        let cost = Cost::new();
        let a = vec![3u64, 5, 9];
        let merged: Vec<u64> =
            KWayMerge::new(vec![a.clone().into_iter()], |x| *x, cost.clone()).collect();
        assert_eq!(merged, a);
        assert_eq!(cost.total().comps, 0, "single source needs no comparisons");
    }
}
