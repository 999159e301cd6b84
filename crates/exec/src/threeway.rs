//! Three-way joins through a cached two-way view — the paper's §5 future
//! work: "the entire analysis should be generalized to investigate the
//! feasibility of maintaining precomputed results for queries involving
//! ... joins of more than two relations."
//!
//! The composition implemented here answers `R ⋈_A S ⋈_B T`: the inner
//! `R ⋈_A S` comes from any maintained [`JoinStrategy`] (so all of the
//! paper's machinery — deferred logs, on-the-fly merges — keeps working),
//! and its stream is hash-joined on a *second* attribute `B` against a
//! third relation `T`. `B` is extracted from the view tuple by a caller
//! provided function (the engine's payloads are opaque; in the tests `B`
//! lives in the first 8 payload bytes of the `S` side).
//!
//! When the `T`-side build table exceeds memory the stream is partitioned
//! to disk, hybrid-style: partition 0 joins on the fly while the rest
//! spill and join pairwise — i.e. the second hop is itself a faithful
//! §3.4 hybrid-hash join whose build input is `T` and whose probe input
//! is the maintained view's output stream.

use std::collections::HashMap;

use trijoin_common::{types::hash_key, BaseTuple, Cost, JoinKey, Result, SystemParams, ViewTuple};
use trijoin_storage::{Disk, HeapFile};

use crate::hybridhash::{first_pass_fraction, spilled_partitions};
use crate::relation::StoredRelation;
use crate::strategy::JoinStrategy;

/// One row of a three-way join: the inner view tuple plus the matched `T`
/// tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreeWayTuple {
    /// The `R ⋈ S` component.
    pub inner: ViewTuple,
    /// The `T` component.
    pub t: BaseTuple,
}

/// Extracts the second join attribute `B` from an inner view tuple.
pub type Key2Fn = fn(&ViewTuple) -> JoinKey;

/// The default `B` extractor used by the workloads here: the first 8 bytes
/// of the `S`-side payload, little-endian (0 if too short).
pub fn key2_from_s_payload(v: &ViewTuple) -> JoinKey {
    v.s_payload.get(..8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).unwrap_or(0)
}

/// Execute `strategy ⋈_B T`, feeding rows to `sink`; returns the count.
///
/// (The argument list mirrors the physical inputs of a two-hop plan —
/// device, parameters, ledger, the maintained inner strategy, its two base
/// relations, the third relation, the B extractor, and the output sink.)
#[allow(clippy::too_many_arguments)]
///
/// The inner strategy runs exactly as in the two-way case (deferred
/// maintenance included); its emitted stream is consumed tuple-at-a-time.
pub fn three_way_execute(
    disk: &Disk,
    params: &SystemParams,
    cost: &Cost,
    strategy: &mut dyn JoinStrategy,
    r: &StoredRelation,
    s: &StoredRelation,
    t: &StoredRelation,
    key2: Key2Fn,
    sink: &mut dyn FnMut(ThreeWayTuple),
) -> Result<u64> {
    // `T` is scanned here; `R` and `S` are the inner strategy's to settle.
    t.settle()?;
    let b = spilled_partitions(t.data_pages(), params);
    let q = first_pass_fraction(t.data_pages(), params);
    let part_of = |key: JoinKey| -> u64 {
        let h = hash_key(key);
        let x = (h >> 11) as f64 / (1u64 << 53) as f64;
        if x < q || b == 0 {
            0
        } else {
            let rest = ((x - q) / (1.0 - q).max(f64::MIN_POSITIVE)).clamp(0.0, 0.999_999);
            1 + (rest * b as f64) as u64
        }
    };

    // Build T's partition 0 in memory, spill the rest (one scan of T).
    let mut table: HashMap<JoinKey, Vec<BaseTuple>> = HashMap::new();
    let mut t_writers: Vec<trijoin_storage::heap::HeapWriter> =
        (0..b).map(|_| trijoin_storage::heap::HeapWriter::create(disk)).collect();
    let mut scan_err = None;
    t.scan(|tt| {
        if scan_err.is_some() {
            return;
        }
        cost.hash(1);
        let p = part_of(tt.key);
        if p == 0 {
            table.entry(tt.key).or_default().push(tt);
        } else {
            cost.mov(1);
            if let Err(e) = t_writers[(p - 1) as usize].add(&tt.to_bytes()) {
                scan_err = Some(e);
            }
        }
    })?;
    if let Some(e) = scan_err {
        return Err(e);
    }
    let t_runs: Vec<HeapFile> = t_writers.into_iter().map(|w| w.finish()).collect::<Result<_>>()?;

    // Run the inner strategy; probe partition 0 on the fly, spill the rest
    // of the view stream by partition.
    let mut emitted = 0u64;
    let mut v_writers: Vec<trijoin_storage::heap::HeapWriter> =
        (0..b).map(|_| trijoin_storage::heap::HeapWriter::create(disk)).collect();
    let mut stream_err: Option<trijoin_common::Error> = None;
    strategy.execute(r, s, &mut |v| {
        if stream_err.is_some() {
            return;
        }
        let k2 = key2(&v);
        cost.hash(1);
        let p = part_of(k2);
        if p == 0 {
            if let Some(matches) = table.get(&k2) {
                cost.comp(matches.len() as u64);
                for tt in matches {
                    cost.mov(1);
                    sink(ThreeWayTuple { inner: v.clone(), t: tt.clone() });
                    emitted += 1;
                }
            } else {
                cost.comp(1);
            }
        } else {
            cost.mov(1);
            if let Err(e) = v_writers[(p - 1) as usize].add(&v.to_bytes()) {
                stream_err = Some(e);
            }
        }
    })?;
    if let Some(e) = stream_err {
        return Err(e);
    }
    drop(table);
    let v_runs: Vec<HeapFile> = v_writers.into_iter().map(|w| w.finish()).collect::<Result<_>>()?;

    // Join the spilled partition pairs.
    for (t_run, v_run) in t_runs.into_iter().zip(v_runs) {
        let mut sub: HashMap<JoinKey, Vec<BaseTuple>> = HashMap::new();
        for rec in t_run.scan() {
            let (_, bytes) = rec?;
            let tt = BaseTuple::from_bytes(&bytes)?;
            cost.hash(1);
            sub.entry(tt.key).or_default().push(tt);
        }
        for rec in v_run.scan() {
            let (_, bytes) = rec?;
            let v = ViewTuple::from_bytes(&bytes)?;
            let k2 = key2(&v);
            cost.hash(1);
            if let Some(matches) = sub.get(&k2) {
                cost.comp(matches.len() as u64);
                for tt in matches {
                    cost.mov(1);
                    sink(ThreeWayTuple { inner: v.clone(), t: tt.clone() });
                    emitted += 1;
                }
            } else {
                cost.comp(1);
            }
        }
        t_run.destroy();
        v_run.destroy();
    }
    Ok(emitted)
}

/// Ground-truth three-way join over plain tuple vectors (no charges).
pub fn three_way_oracle(
    r: &[BaseTuple],
    s: &[BaseTuple],
    t: &[BaseTuple],
    key2: Key2Fn,
) -> Vec<ThreeWayTuple> {
    let inner = crate::oracle::join_tuples(r, s);
    let mut by_key: HashMap<JoinKey, Vec<&BaseTuple>> = HashMap::new();
    for tt in t {
        by_key.entry(tt.key).or_default().push(tt);
    }
    let mut out = Vec::new();
    for v in inner {
        if let Some(matches) = by_key.get(&key2(&v)) {
            for tt in matches {
                out.push(ThreeWayTuple { inner: v.clone(), t: (*tt).clone() });
            }
        }
    }
    out
}

/// Canonical sort + exact comparison of three-way results.
pub fn assert_same_three_way(
    label: &str,
    mut got: Vec<ThreeWayTuple>,
    mut want: Vec<ThreeWayTuple>,
) {
    let key = |x: &ThreeWayTuple| (x.inner.r_sur, x.inner.s_sur, x.t.sur);
    got.sort_by_key(key);
    want.sort_by_key(key);
    assert_eq!(got.len(), want.len(), "{label}: cardinality {} vs {}", got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "{label}: row mismatch");
    }
}
