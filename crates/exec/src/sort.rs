//! Operation-counted in-memory sorting and k-way run merging.
//!
//! The paper prices internal sorting with Knuth's average-case quicksort
//! analysis (`CPU_s`) and merging with a heap analysis (`CPU_mrg`). The
//! engine does the real thing — a median-of-three quicksort with an
//! insertion-sort tail, and a streaming k-way merge — and charges the
//! *actual* comparisons and tuple moves it performs into the [`Cost`]
//! ledger. At realistic sizes the actual counts track the Knuth formulas
//! closely (verified by tests in the model crate). A merge of record
//! streams in surrogate order can also seek by surrogate ([`Seek`]).

use trijoin_common::{BaseTuple, Cost, Result, Surrogate};

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
/// actual comparisons (linear minimum scan over the k heads — the paper's
/// heap would be `lg k`; with the small `N1`-sized fan-ins of the
/// differential pipelines the difference is nanoseconds against a 25 ms
/// I/O) and one `move` per emitted item. Each source's next item is read
/// ahead; a source must keep returning `None` once it is done.
pub struct KWayMerge<T, K, I>
where
    I: Iterator<Item = T>,
    K: Ord + Copy,
{
    sources: Vec<I>,
    /// Each source's item read ahead.
    heads: Vec<Option<T>>,
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
        KWayMerge { sources, heads, key_of: Box::new(key_of), cost }
    }

    /// The source whose head sorts first, among the heads read ahead.
    fn least(&self) -> Option<usize> {
        let mut best: Option<(usize, K)> = None;
        let mut comps = 0u64;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some(item) = head {
                let k = (self.key_of)(item);
                match best {
                    None => best = Some((i, k)),
                    Some((_, bk)) => {
                        comps += 1;
                        if k < bk {
                            best = Some((i, k));
                        }
                    }
                }
            }
        }
        self.cost.comp(comps);
        best.map(|(i, _)| i)
    }

    /// Hand out the head of source `i`.
    fn take(&mut self, i: usize) -> Option<T> {
        self.cost.mov(1);
        self.heads[i].take()
    }
}

impl<T, K, I> Iterator for KWayMerge<T, K, I>
where
    I: Iterator<Item = T>,
    K: Ord + Copy,
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        for (src, head) in self.sources.iter_mut().zip(&mut self.heads) {
            if head.is_none() {
                *head = src.next();
            }
        }
        let i = self.least()?;
        self.take(i)
    }
}

/// A stream of records in surrogate order that can move forward by
/// surrogate without reading what it passes over: a run of a log sorted
/// on the surrogate first, with the surrogate column it keeps in memory
/// (every record's surrogate, sliced by page), or a merge of such streams.
pub trait Seek: Iterator<Item = Result<BaseTuple>> {
    /// Pass over every record below `sur`: drop those in hand and skip
    /// the pages that hold nothing else, and a page that lacks `sur` when
    /// the next one opens with it. Reads nothing; returns the pages
    /// skipped.
    fn seek(&mut self, sur: Surrogate) -> u64;

    /// The next record if its surrogate is at most `sur`, reading a page
    /// only if its slice of the column holds `sur` (after a seek to `sur`);
    /// `None` (no read) otherwise.
    fn next_through(&mut self, sur: Surrogate) -> Option<Result<BaseTuple>>;
}

impl<S: Seek + ?Sized> Seek for Box<S> {
    fn seek(&mut self, sur: Surrogate) -> u64 {
        (**self).seek(sur)
    }

    fn next_through(&mut self, sur: Surrogate) -> Option<Result<BaseTuple>> {
        (**self).next_through(sur)
    }
}

/// A merge of seekable record streams is one: the seek goes to every
/// source whose head it drops (an error in hand is never dropped), and a
/// pull through `sur` reads ahead only in the sources that can hold a
/// record at or below it.
impl<K, I> Seek for KWayMerge<Result<BaseTuple>, K, I>
where
    I: Seek,
    K: Ord + Copy,
{
    fn seek(&mut self, sur: Surrogate) -> u64 {
        let mut skipped = 0;
        for (src, head) in self.sources.iter_mut().zip(&mut self.heads) {
            if let Some(Ok(t)) = head {
                self.cost.comp(1);
                if t.sur >= sur {
                    continue;
                }
                *head = None;
            }
            if head.is_none() {
                skipped += src.seek(sur);
            }
        }
        skipped
    }

    fn next_through(&mut self, sur: Surrogate) -> Option<Result<BaseTuple>> {
        for (src, head) in self.sources.iter_mut().zip(&mut self.heads) {
            if head.is_none() {
                *head = src.next_through(sur);
            }
        }
        let i = self.least()?;
        match &self.heads[i] {
            Some(Ok(t)) if t.sur > sur => None,
            _ => self.take(i),
        }
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
    fn kway_merge_single_source_is_identity() {
        let cost = Cost::new();
        let a = vec![3u64, 5, 9];
        let merged: Vec<u64> =
            KWayMerge::new(vec![a.clone().into_iter()], |x| *x, cost.clone()).collect();
        assert_eq!(merged, a);
        assert_eq!(cost.total().comps, 0, "single source needs no comparisons");
    }
}
