//! Property tests: the linear hash file must behave like a multimap from
//! hash to payload, under arbitrary interleavings of inserts, deletes and
//! bucket merges, with invariants (addressing correctness, load factor)
//! holding throughout and the I/O laws read off the `Cost` ledger: a chain
//! is read once, an empty bucket costs nothing, and the pages written are
//! exactly those that lost or gained a record.

use proptest::prelude::*;
use std::collections::HashMap;

use trijoin_common::{Cost, SystemParams};
use trijoin_linearhash::LinearHash;
use trijoin_storage::{Disk, PageId, SimDisk, SlottedPage};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, Vec<u8>),
    Delete(u64),
    Lookup(u64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Raw u64 hashes straight from the generator: adversarial clustering is
    // allowed (the file must cope with skewed buckets via overflow chains).
    let h = 0u64..64;
    prop::collection::vec(
        prop_oneof![
            4 => (h.clone(), prop::collection::vec(any::<u8>(), 0..16))
                .prop_map(|(h, v)| Op::Insert(h, v)),
            2 => h.clone().prop_map(Op::Delete),
            2 => h.prop_map(Op::Lookup),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn linear_hash_matches_multimap(ops in ops()) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost);
        let mut lh = LinearHash::create(&disk, &params, 2, 16).unwrap();
        let mut model: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();

        for op in ops {
            match op {
                Op::Insert(h, v) => {
                    lh.insert(h, &v).unwrap();
                    model.entry(h).or_default().push(v);
                }
                Op::Delete(h) => {
                    let got = lh.delete(h, |_| true).unwrap();
                    let had = model.get(&h).map(|v| !v.is_empty()).unwrap_or(false);
                    prop_assert_eq!(got, had);
                    if had {
                        // The file deletes the *first* matching record in
                        // bucket order; the model just needs multiset
                        // equality, so drop one arbitrary entry... except we
                        // must drop the same one. Compare by multiset below,
                        // so removing any single copy is only sound if we
                        // remove the copy the file removed. We instead
                        // remove one element equal to what's now missing.
                        let mut file_now = lh.lookup(h).unwrap();
                        file_now.sort();
                        let entry = model.get_mut(&h).unwrap();
                        entry.sort();
                        // file_now must be `entry` minus exactly one element.
                        prop_assert_eq!(file_now.len() + 1, entry.len());
                        // Find and remove the extra element from the model.
                        let mut removed_one = false;
                        let mut rebuilt = Vec::with_capacity(file_now.len());
                        let mut fi = file_now.into_iter().peekable();
                        for m in entry.drain(..) {
                            match fi.peek() {
                                Some(f) if *f == m => {
                                    rebuilt.push(m);
                                    fi.next();
                                }
                                _ if !removed_one => removed_one = true,
                                _ => rebuilt.push(m),
                            }
                        }
                        *entry = rebuilt;
                    }
                }
                Op::Lookup(h) => {
                    let mut got = lh.lookup(h).unwrap();
                    got.sort();
                    let mut want = model.get(&h).cloned().unwrap_or_default();
                    want.sort();
                    prop_assert_eq!(got, want);
                }
            }
            lh.check_invariants().unwrap();
        }
        let total: usize = model.values().map(|v| v.len()).sum();
        prop_assert_eq!(lh.len(), total as u64);
    }
}

#[derive(Debug, Clone)]
enum GrowOp {
    Insert(u64, u8),
    Delete(u64),
    Rebalance,
    /// Merge into the bucket of `at`: drop the records with
    /// `(hash + tag) % modulus == 0` (none when `modulus` is 0) and add
    /// those of `adds` that address the bucket.
    Merge {
        at: u64,
        modulus: u64,
        adds: Vec<(u64, u8)>,
    },
}

/// The recognizable payload of the grow test: the hash plus a tag byte, so
/// a record surviving in the wrong bucket is visible.
fn tagged(h: u64, tag: u8) -> Vec<u8> {
    let mut rec = h.to_le_bytes().to_vec();
    rec.push(tag);
    rec
}

/// One bucket's chain as it is stored: page number and the raw records on
/// the page, sorted (free reads — the ledger does not see them).
fn layout(disk: &Disk, lh: &LinearHash, bucket: u64) -> Vec<(u32, Vec<Vec<u8>>)> {
    let page = |&no: &u32| {
        let raw = disk.read_page_free(PageId::new(lh.file_id(), no)).unwrap();
        let page = SlottedPage::from_bytes(raw).unwrap();
        let mut records: Vec<Vec<u8>> = page.iter().map(|(_, rec)| rec.to_vec()).collect();
        records.sort();
        (no, records)
    };
    lh.chain(bucket).unwrap().iter().map(page).collect()
}

fn grow_ops() -> impl Strategy<Value = Vec<GrowOp>> {
    // Mix clustered hashes (exercise overflow chains and split rehashing)
    // with the full u64 space (exercise addressing across rounds).
    fn h() -> impl Strategy<Value = u64> {
        prop_oneof![3 => 0u64..48, 1 => any::<u64>()]
    }
    prop::collection::vec(
        prop_oneof![
            6 => (h(), any::<u8>()).prop_map(|(h, b)| GrowOp::Insert(h, b)),
            2 => h().prop_map(GrowOp::Delete),
            1 => Just(GrowOp::Rebalance),
            2 => (h(), 0u64..4, prop::collection::vec((0u64..48, any::<u8>()), 0..24))
                .prop_map(|(at, modulus, adds)| GrowOp::Merge { at, modulus, adds }),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Litwin structural invariants under arbitrary insert/delete/merge/
    /// rebalance interleavings: the split pointer stays inside the current
    /// doubling round, the bucket directory tracks the address function,
    /// buckets only grow, `rebalance` reaches a fixpoint, a merge obeys the
    /// I/O laws — and at the end every live key round-trips with exactly
    /// its inserted payload multiset.
    #[test]
    fn splits_preserve_addressing_and_round_trip(ops in grow_ops()) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost.clone());
        let mut lh = LinearHash::create(&disk, &params, 2, 24).unwrap();
        let per_page = params.tuples_per_page(24 + 8);
        let mut model: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
        let mut max_buckets = lh.num_buckets();

        for op in ops {
            match op {
                GrowOp::Insert(h, b) => {
                    let rec = tagged(h, b);
                    lh.insert(h, &rec).unwrap();
                    model.entry(h).or_default().push(rec);
                }
                GrowOp::Merge { at, modulus, adds } => {
                    let a = lh.addressing();
                    let bucket = a.addr(at);
                    let rejected =
                        |h: u64, rec: &[u8]| modulus > 0 && (h + rec[8] as u64).is_multiple_of(modulus);
                    let before = layout(&disk, &lh, bucket);
                    // Reads: the chain's pages, once each — none for an
                    // empty bucket.
                    let at_open = cost.total().ios;
                    let mut chain = lh.open_bucket(bucket).unwrap();
                    prop_assert_eq!(cost.total().ios - at_open, before.len() as u64);
                    chain.retain(|h, rec| Ok(!rejected(h, rec))).unwrap();
                    for (h, entry) in model.iter_mut().filter(|(h, _)| a.addr(**h) == bucket) {
                        entry.retain(|rec| !rejected(*h, rec));
                    }
                    for (h, b) in adds.into_iter().filter(|(h, _)| a.addr(*h) == bucket) {
                        let rec = tagged(h, b);
                        chain.insert(h, &rec).unwrap();
                        model.entry(h).or_default().push(rec);
                    }
                    let changed = chain.is_changed();
                    let at_commit = cost.total().ios;
                    lh.commit(chain).unwrap();
                    let writes = cost.total().ios - at_commit;
                    // Writes: exactly the pages still linked that lost a
                    // record or gained one (a newly linked page gained all
                    // of its records); a page that ended empty is unlinked
                    // for free, and a merge that changed nothing writes
                    // nothing.
                    let after = layout(&disk, &lh, bucket);
                    let lost_or_gained = |(no, records): &&(u32, Vec<Vec<u8>>)| {
                        match before.iter().find(|(old_no, _)| old_no == no) {
                            None => true,
                            Some((_, old)) => {
                                old != records
                                    || old.iter().any(|raw| {
                                        rejected(u64::from_le_bytes(raw[..8].try_into().unwrap()), &raw[8..])
                                    })
                            }
                        }
                    };
                    prop_assert_eq!(writes, after.iter().filter(lost_or_gained).count() as u64);
                    prop_assert!(changed || writes == 0);
                    for (no, records) in &after {
                        prop_assert!(
                            (1..=per_page).contains(&records.len()),
                            "page {} holds {} records", no, records.len()
                        );
                    }
                }
                GrowOp::Delete(h) => {
                    let chain_pages = lh.chain(lh.addressing().addr(h)).unwrap().len() as u64;
                    let at_delete = cost.total().ios;
                    let got = lh.delete(h, |_| true).unwrap();
                    // The chain read once, and at most the one page written.
                    let writes = cost.total().ios - at_delete - chain_pages;
                    prop_assert!(writes <= got as u64, "{} writes deleting one record", writes);
                    let entry = model.entry(h).or_default();
                    prop_assert_eq!(got, !entry.is_empty());
                    if got {
                        // delete() removes the first record in bucket order;
                        // all records under one hash here share a payload
                        // prefix, so popping any one keeps multiset parity
                        // only if payloads can repeat — compare via lookup.
                        let mut now = lh.lookup(h).unwrap();
                        now.sort();
                        prop_assert_eq!(now.len() + 1, entry.len());
                        entry.sort();
                        let mut kept = Vec::with_capacity(now.len());
                        let mut dropped = false;
                        let mut fi = now.into_iter().peekable();
                        for m in entry.drain(..) {
                            match fi.peek() {
                                Some(f) if *f == m => { kept.push(m); fi.next(); }
                                _ if !dropped => dropped = true,
                                _ => kept.push(m),
                            }
                        }
                        *entry = kept;
                    }
                }
                GrowOp::Rebalance => {
                    lh.rebalance().unwrap();
                    // Fixpoint: a balanced file has nothing left to split.
                    prop_assert_eq!(lh.rebalance().unwrap(), 0);
                }
            }

            // Structural invariants hold after *every* op.
            lh.check_invariants().unwrap();
            let a = lh.addressing();
            prop_assert!(
                a.next_split < a.n0 << a.level,
                "split pointer {} outside round of {} buckets", a.next_split, a.n0 << a.level
            );
            prop_assert_eq!(a.buckets(), lh.num_buckets());
            prop_assert!(lh.num_buckets() >= max_buckets, "buckets shrank");
            max_buckets = lh.num_buckets();
            prop_assert!(lh.load_factor() >= 0.0);
            let model_total: usize = model.values().map(|v| v.len()).sum();
            prop_assert_eq!(lh.len(), model_total as u64);
            prop_assert_eq!(lh.is_empty(), model_total == 0);
        }

        // Round-trip: every live key yields exactly its inserted multiset,
        // regardless of how many splits relocated its records.
        let mut live = 0u64;
        for (h, want) in &model {
            let mut got = lh.lookup(*h).unwrap();
            got.sort();
            let mut want = want.clone();
            want.sort();
            prop_assert_eq!(&got, &want, "hash {:#x} does not round-trip", h);
            live += got.len() as u64;
        }
        prop_assert_eq!(lh.len(), live);
    }
}
