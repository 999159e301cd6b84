//! Hybrid-hash join (§3.4) — full re-evaluation, no cached state.
//!
//! DeWitt et al.'s algorithm: compute `B = ⌈(|R|·F − |M|)/(|M| − 1)⌉`
//! partitions beyond partition 0; while reading `R`, tuples of partition 0
//! are built into an in-memory hash table (using the memory the other
//! partitions don't need for output buffering) and the remaining `B`
//! partitions spill; `S` then streams through, probing partition 0
//! immediately and spilling the rest; finally each spilled pair
//! `(R_i, S_i)` is joined in memory. A fraction `q = |R0|/|R|` of the data
//! never touches disk twice — the "hybrid" advantage over Grace hash.
//!
//! Skewed partitions that still exceed memory are recursively
//! repartitioned (a standard hardening the paper's uniform-hash analysis
//! does not need).

use std::rc::Rc;

use trijoin_common::{
    types::hash_key, Cost, CounterId, EventKind, FxHashMap, JoinKey, Result, SystemParams,
    ViewTuple,
};
use trijoin_storage::{Disk, HeapFile};

use crate::batch::{RowBatch, TupleRef};
use crate::relation::{Reader, StoredRelation};
use crate::strategy::{JoinStrategy, Mutation};

/// A reloaded spill run: all record bytes in one flat shared arena, with
/// `(offset, len)` spans marking record boundaries. Replaces the old
/// `Vec<Vec<u8>>` (one heap allocation per record) on the reload path; the
/// arena is an `Rc` so a [`RowBatch`] can pin build-side payloads in place
/// instead of copying them out.
#[derive(Default)]
struct RunBytes {
    data: Rc<Vec<u8>>,
    spans: Vec<(u32, u32)>,
}

impl RunBytes {
    fn push(&mut self, rec: &[u8]) {
        let data = Rc::get_mut(&mut self.data).expect("run arena shared while loading");
        self.spans.push((data.len() as u32, rec.len() as u32));
        data.extend_from_slice(rec);
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.spans.iter().map(|&(at, len)| &self.data[at as usize..(at + len) as usize])
    }
}

/// Per-loop accumulator for the paper's CPU primitives: the hot loops count
/// locally and flush once per loop (and before any error return), turning
/// thousands of ledger borrows into a handful. Span totals are unchanged —
/// each loop runs entirely inside one open cost section.
#[derive(Default)]
struct BatchedOps {
    hashes: u64,
    comps: u64,
    moves: u64,
}

impl BatchedOps {
    fn flush(&mut self, cost: &Cost) {
        if self.hashes > 0 {
            cost.hash(self.hashes);
        }
        if self.comps > 0 {
            cost.comp(self.comps);
        }
        if self.moves > 0 {
            cost.mov(self.moves);
        }
        *self = BatchedOps::default();
    }
}

/// The in-memory build table of pass 0 and the run joins: join key → rows
/// of the build-side [`RowBatch`], stored as an intrusive chain (`prev` is
/// indexed by row) so inserting allocates nothing per key — the old
/// `FxHashMap<JoinKey, Vec<u32>>` paid one heap allocation per distinct
/// key per query, which dominated the build phase at serving scale.
/// [`BuildTable::matches`] restores insertion (scan) order, so emission
/// order — and with it every downstream answer — is unchanged.
#[derive(Default)]
struct BuildTable {
    /// Key → most recently inserted row with that key.
    heads: FxHashMap<JoinKey, u32>,
    /// Row → previously inserted row with the same key (`NONE` ends the
    /// chain). Indexed by build-batch row id, so rows must be inserted in
    /// batch order.
    prev: Vec<u32>,
    /// Reused per probe to hand chains back in insertion order.
    scratch: Vec<u32>,
}

impl BuildTable {
    const NONE: u32 = u32::MAX;

    fn with_capacity(n: usize) -> Self {
        BuildTable {
            heads: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            prev: Vec::with_capacity(n),
            ..Default::default()
        }
    }

    /// Chain `row` (which must be the next build-batch row id) under `key`.
    fn insert(&mut self, key: JoinKey, row: u32) {
        debug_assert_eq!(row as usize, self.prev.len(), "rows must arrive in batch order");
        let head = self.heads.entry(key).or_insert(Self::NONE);
        self.prev.push(*head);
        *head = row;
    }

    /// The build rows matching `key`, in insertion order (empty slice when
    /// the key is absent). The returned slice borrows internal scratch —
    /// finish with it before the next probe.
    fn matches(&mut self, key: JoinKey) -> &[u32] {
        self.scratch.clear();
        if let Some(&head) = self.heads.get(&key) {
            let mut row = head;
            while row != Self::NONE {
                self.scratch.push(row);
                row = self.prev[row as usize];
            }
            self.scratch.reverse();
        }
        &self.scratch
    }
}

/// The hybrid-hash join strategy. Stateless between queries.
pub struct HybridHash {
    disk: Disk,
    params: SystemParams,
    cost: Cost,
    /// Set when Grace-hash mode is forced (pass 0 spills too) — used by the
    /// `ablation_grace` bench to quantify the hybrid advantage `q`.
    grace_mode: bool,
    c_emitted: CounterId,
    c_retries: CounterId,
    c_restarts: CounterId,
}

/// Number of spilled partitions, per §3.4:
/// `B = max(0, ⌈(|R|·F − |M|)/(|M| − 1)⌉)`.
///
/// The paper's formula assumes `|M| ≥ 2`; with a single memory page the
/// denominator vanishes, so that case degenerates to one spilled partition
/// per page of hashed input (nothing stays resident).
pub fn spilled_partitions(r_pages: u64, params: &SystemParams) -> u64 {
    let scaled = r_pages as f64 * params.hash_overhead;
    let hashed_pages = scaled.ceil().max(0.0) as u64;
    let m = params.mem_pages as f64;
    if params.mem_pages <= 1 {
        return hashed_pages;
    }
    let b = ((scaled - m) / (m - 1.0)).ceil();
    if !b.is_finite() || b <= 0.0 {
        return 0;
    }
    // A partition needs at least one page of input; B can never usefully
    // exceed the hashed page count.
    (b as u64).min(hashed_pages)
}

/// Fraction of `R` joined during the first pass: `q = |R0|/|R|` with
/// `|R0| = (|M| − B)/F`.
pub fn first_pass_fraction(r_pages: u64, params: &SystemParams) -> f64 {
    if r_pages == 0 {
        return 1.0;
    }
    let b = spilled_partitions(r_pages, params) as f64;
    let r0 = ((params.mem_pages as f64 - b) / params.hash_overhead).max(0.0);
    (r0 / r_pages as f64).min(1.0)
}

impl HybridHash {
    /// A hybrid-hash strategy over the given disk/parameters.
    pub fn new(disk: &Disk, params: &SystemParams, cost: &Cost) -> Self {
        let metrics = disk.metrics();
        HybridHash {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            grace_mode: false,
            c_emitted: metrics.counter_handle("hh.tuples_emitted"),
            c_retries: metrics.counter_handle("hh.retries"),
            c_restarts: metrics.counter_handle("hh.restarts"),
        }
    }

    /// Force Grace-hash behaviour: every partition spills (q = 0).
    pub fn grace(disk: &Disk, params: &SystemParams, cost: &Cost) -> Self {
        HybridHash { grace_mode: true, ..Self::new(disk, params, cost) }
    }

    /// Partition id for a key: partition 0 owns the first `q` of the hash
    /// space; the rest is divided evenly among partitions `1..=B`. Charges
    /// nothing — callers batch one `hash` charge per partitioned tuple.
    fn partition_of(&self, key: JoinKey, q: f64, b: u64) -> u64 {
        let h = hash_key(key);
        let x = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0,1)
        if x < q || b == 0 {
            0
        } else {
            let rest = ((x - q) / (1.0 - q).max(f64::MIN_POSITIVE)).clamp(0.0, 0.999_999);
            1 + (rest * b as f64) as u64
        }
    }

    /// Read a spilled run's records front to back, retrying transient
    /// device faults with bounded backoff ([`crate::recovery::MAX_ATTEMPTS`]);
    /// re-read I/O is charged under the `hh.retry` section. Reading the run
    /// whole before building/probing means a retried scan never double-emits.
    ///
    /// The whole run arrives through one batched [`Disk::read_run`] call and
    /// lands in a flat byte arena (record spans index into it) — no
    /// per-record allocation. Charge-identical to the page-at-a-time scan:
    /// same fault gates, one I/O per page, and a retry restarts from page 0
    /// exactly as the old whole-scan retry did.
    fn read_run(&self, run: &HeapFile) -> Result<RunBytes> {
        let mut attempt = 0u32;
        let page_size = self.disk.page_size();
        crate::recovery::with_retry(|| {
            attempt += 1;
            if attempt > 1 {
                self.disk.metrics().incr_id(self.c_retries);
            }
            let _g = (attempt > 1).then(|| self.cost.section("hh.retry"));
            let mut raw = Vec::new();
            self.disk.read_run(run.file_id(), 0, run.num_pages(), &mut raw)?;
            let mut out = RunBytes::default();
            for page in raw.chunks_exact(page_size) {
                trijoin_storage::page::for_each_record(page, |_, rec| out.push(rec))?;
            }
            Ok(out)
        })
    }

    /// Join two spilled runs entirely in memory (with recursive
    /// repartitioning if the build side exceeds the memory budget).
    fn join_runs(
        &self,
        r_run: HeapFile,
        s_run: HeapFile,
        depth: u32,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        let r_pages = r_run.num_pages() as u64;
        let fits = (r_pages as f64 * self.params.hash_overhead)
            <= (self.params.mem_pages.saturating_sub(2)) as f64;
        let r_records = self.read_run(&r_run)?;
        let s_records = self.read_run(&s_run)?;
        r_run.destroy();
        s_run.destroy();
        if fits || depth >= 8 {
            // Build a columnar batch plus a row-index table (one hash per
            // build tuple, charged in one batch after the loop — identical
            // span totals, one ledger borrow instead of thousands; a decode
            // error still flushes the charges accrued before it) ...
            let mut batch = RowBatch::new();
            let mut table = BuildTable::with_capacity(r_records.spans.len());
            let mut ops = BatchedOps::default();
            let build = (|| -> Result<()> {
                for bytes in r_records.iter() {
                    let t = TupleRef::decode(bytes)?;
                    ops.hashes += 1;
                    let row = batch.push_pinned(&t, &r_records.data);
                    table.insert(t.key, row);
                }
                Ok(())
            })();
            ops.flush(&self.cost);
            build?;
            // ... probe, batching charges the same way.
            let mut emitted = 0u64;
            let probe = (|| -> Result<()> {
                for bytes in s_records.iter() {
                    let st = TupleRef::decode(bytes)?;
                    ops.hashes += 1;
                    let matches = table.matches(st.key);
                    if matches.is_empty() {
                        ops.comps += 1;
                    } else {
                        ops.comps += matches.len() as u64;
                        ops.moves += matches.len() as u64;
                        for &row in matches {
                            sink(batch.join_row(row, &st));
                            emitted += 1;
                        }
                    }
                }
                Ok(())
            })();
            ops.flush(&self.cost);
            probe?;
            return Ok(emitted);
        }
        // Recursive repartition of an oversized bucket.
        let sub = spilled_partitions(r_pages, &self.params).max(2);
        let mut r_writers: Vec<trijoin_storage::heap::HeapWriter> =
            (0..sub).map(|_| trijoin_storage::heap::HeapWriter::create(&self.disk)).collect();
        let mut s_writers: Vec<trijoin_storage::heap::HeapWriter> =
            (0..sub).map(|_| trijoin_storage::heap::HeapWriter::create(&self.disk)).collect();
        // Salt the hash by depth so the re-split actually separates keys.
        let split =
            |key: JoinKey| -> usize { (hash_key(key.rotate_left(depth * 13 + 7)) % sub) as usize };
        let mut ops = BatchedOps::default();
        let repart = (|| -> Result<()> {
            for bytes in r_records.iter() {
                let t = TupleRef::decode(bytes)?;
                ops.hashes += 1;
                ops.moves += 1;
                r_writers[split(t.key)].add(bytes)?;
            }
            for bytes in s_records.iter() {
                let t = TupleRef::decode(bytes)?;
                ops.hashes += 1;
                ops.moves += 1;
                s_writers[split(t.key)].add(bytes)?;
            }
            Ok(())
        })();
        ops.flush(&self.cost);
        repart?;
        let mut emitted = 0u64;
        for (rw, sw) in r_writers.into_iter().zip(s_writers) {
            emitted += self.join_runs(rw.finish()?, sw.finish()?, depth + 1, sink)?;
        }
        Ok(emitted)
    }
}

impl JoinStrategy for HybridHash {
    fn name(&self) -> &'static str {
        if self.grace_mode {
            "grace-hash"
        } else {
            "hybrid-hash"
        }
    }

    fn on_mutation(&mut self, _m: &Mutation) -> Result<()> {
        // "This algorithm has the advantages of not requiring any permanent
        // auxiliary relations and being unaffected by updates."
        Ok(())
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // Buffer emissions: a device fault mid-join must not leak a partial
        // answer into the sink. The strategy is stateless, so past the
        // bounded per-run retries ([`Self::read_run`]) recovery is a bounded
        // number of full restarts charged under `hh.recover` — each planned
        // fault fires exactly once, so a multi-fault plan drains across
        // restarts unless it poisoned a base-relation page (unrecoverable by
        // design; the typed error then surfaces).
        // Both relations are scanned: `S` catches up first, and `R` reads
        // through its apply log or settles (`StoredRelation::reader`), both
        // outside `hh.execute`.
        s.settle()?;
        let r = r.reader()?;
        let mut buffered: Vec<ViewTuple> = Vec::new();
        let mut restarts = 0u32;
        let emitted = loop {
            let section = if restarts == 0 { "hh.execute" } else { "hh.recover" };
            match self.join_once(&r, s, section, &mut |vt| buffered.push(vt)) {
                Ok(n) => break n,
                Err(e) if e.is_device_fault() && restarts < crate::recovery::MAX_ATTEMPTS => {
                    buffered.clear();
                    restarts += 1;
                    self.disk.metrics().incr_id(self.c_restarts);
                    self.disk.events().emit(
                        EventKind::RecoveryTriggered,
                        format!("{}: restart {restarts} after {e}", self.name()),
                        self.cost.total(),
                    );
                }
                Err(e) => return Err(e),
            }
        };
        r.pay_rent(self.spill_rent(&r, s));
        self.disk.metrics().counter_add_id(self.c_emitted, buffered.len() as u64);
        for vt in buffered {
            sink(vt);
        }
        Ok(emitted)
    }
}

impl HybridHash {
    /// `q` for `r_pages` of `R` and `mem_pages` of memory.
    fn q(&self, r_pages: u64, mem_pages: usize) -> f64 {
        if self.grace_mode {
            return 0.0;
        }
        first_pass_fraction(r_pages, &SystemParams { mem_pages, ..self.params.clone() })
    }

    /// The spill I/O the pages `R`'s read-through holds cost the join: they
    /// shrink `q`, and each relation's share of the difference is written
    /// to a partition and read back, `2·(q(|M|) − q(|M| − held))·(|R| +
    /// |S|)` pages. Read off statistics that neither settle nor charge
    /// (`S` settled before the join).
    fn spill_rent(&self, r: &Reader<'_>, s: &StoredRelation) -> u64 {
        let (m, r_pages) = (self.params.mem_pages, r.data_pages());
        let lost = self.q(r_pages, m) - self.q(r_pages, m.saturating_sub(r.pages_held() as usize));
        (2.0 * lost * (r_pages + s.data_pages()) as f64).round() as u64
    }

    /// One full §3.4 join (pass 0 plus spilled passes), fallible on any
    /// injected device fault; [`JoinStrategy::execute`] wraps it with the
    /// restart fallback (which re-runs under the `hh.recover` section).
    ///
    /// `B` and `q` are sized from `R`'s leaf pages as they stand and from
    /// the `|M|` left beside the pages `R`'s read-through holds: statistics
    /// that do not settle.
    fn join_once(
        &mut self,
        r: &Reader<'_>,
        s: &StoredRelation,
        section: &str,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        let _g = self.cost.section(section);
        let held = r.pages_held() as usize;
        let params = SystemParams {
            mem_pages: self.params.mem_pages.saturating_sub(held),
            ..self.params.clone()
        };
        let r_pages = r.data_pages();
        let b = spilled_partitions(r_pages, &params).max(u64::from(self.grace_mode));
        self.disk.metrics().gauge_set("hh.spilled_partitions", b as f64);
        let q = self.q(r_pages, params.mem_pages);

        // Pass 0 over R: build partition 0 into a columnar batch (the hash
        // table maps join key -> row indices), spill 1..=B. A spilled
        // record is the scanned record verbatim — the clustered leaves
        // store `BaseTuple::to_bytes`, so no re-serialization is needed.
        let mut batch = RowBatch::new();
        let mut table = BuildTable::with_capacity((q * r.len_estimate() as f64) as usize + 16);
        let mut r_writers: Vec<trijoin_storage::heap::HeapWriter> =
            (0..b).map(|_| trijoin_storage::heap::HeapWriter::create(&self.disk)).collect();
        let mut scan_err = None;
        let mut ops = BatchedOps::default();
        let scanned = r.scan_pinned(|t, page| {
            if scan_err.is_some() {
                return;
            }
            ops.hashes += 1;
            let p = self.partition_of(t.key, q, b);
            if p == 0 {
                let row = match page {
                    Some(page) => batch.push_pinned(&t, page),
                    None => batch.push_ref(&t),
                };
                table.insert(t.key, row);
            } else {
                ops.moves += 1;
                if let Err(e) = r_writers[(p - 1) as usize].add(t.raw) {
                    scan_err = Some(e);
                }
            }
        });
        ops.flush(&self.cost);
        scanned?;
        if let Some(e) = scan_err {
            return Err(e);
        }
        let r_runs: Vec<HeapFile> =
            r_writers.into_iter().map(|w| w.finish()).collect::<Result<_>>()?;

        // Pass 0 over S: probe partition 0 immediately, spill the rest.
        let mut emitted = 0u64;
        let mut s_writers: Vec<trijoin_storage::heap::HeapWriter> =
            (0..b).map(|_| trijoin_storage::heap::HeapWriter::create(&self.disk)).collect();
        let mut scan_err = None;
        let mut ops = BatchedOps::default();
        let scanned = s.scan_pinned(|st, _| {
            if scan_err.is_some() {
                return;
            }
            ops.hashes += 1;
            let p = self.partition_of(st.key, q, b);
            if p == 0 {
                let matches = table.matches(st.key);
                if matches.is_empty() {
                    ops.comps += 1;
                } else {
                    ops.comps += matches.len() as u64;
                    ops.moves += matches.len() as u64;
                    for &row in matches {
                        sink(batch.join_row(row, &st));
                        emitted += 1;
                    }
                }
            } else {
                ops.moves += 1;
                if let Err(e) = s_writers[(p - 1) as usize].add(st.raw) {
                    scan_err = Some(e);
                }
            }
        });
        ops.flush(&self.cost);
        scanned?;
        if let Some(e) = scan_err {
            return Err(e);
        }
        let s_runs: Vec<HeapFile> =
            s_writers.into_iter().map(|w| w.finish()).collect::<Result<_>>()?;
        drop(table);
        drop(batch);

        // Passes 1..=B.
        for (r_run, s_run) in r_runs.into_iter().zip(s_runs) {
            emitted += self.join_runs(r_run, s_run, 1, sink)?;
        }
        Ok(emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_count_formula_matches_paper() {
        let p = SystemParams::paper_defaults();
        // |R| = 14286 pages, F = 1.2, |M| = 1000:
        // B = ceil((17143.2 - 1000)/999) = ceil(16.16) = 17.
        assert_eq!(spilled_partitions(14_286, &p), 17);
        // Everything fits: B = 0, q = 1.
        assert_eq!(spilled_partitions(100, &p), 0);
        assert!((first_pass_fraction(100, &p) - 1.0).abs() < 1e-9);
        // Paper-scale q: |R0| = (1000-17)/1.2 = 819 pages -> q ≈ 0.0573.
        let q = first_pass_fraction(14_286, &p);
        assert!((q - 0.0573).abs() < 0.001, "q = {q}");
    }

    fn params_with_mem(mem_pages: usize) -> SystemParams {
        SystemParams { mem_pages, ..SystemParams::paper_defaults() }
    }

    #[test]
    fn partition_count_degenerate_memory() {
        // |M| = 1: the paper's denominator (|M| - 1) vanishes. Everything
        // spills — one partition per hashed page — and q collapses to 0.
        let p1 = params_with_mem(1);
        assert_eq!(spilled_partitions(0, &p1), 0);
        assert_eq!(spilled_partitions(10, &p1), (10.0f64 * p1.hash_overhead).ceil() as u64);
        let q = first_pass_fraction(10, &p1);
        assert!(q.is_finite() && q == 0.0, "q = {q}");

        // |M| = 2: denominator 1, B = ceil(|R|·F − 2), capped at the hashed
        // page count; q stays a finite value in [0, 1].
        let p2 = params_with_mem(2);
        let b2 = spilled_partitions(10, &p2);
        let hashed = (10.0f64 * p2.hash_overhead).ceil() as u64;
        assert!(b2 >= 1 && b2 <= hashed, "b2 = {b2}");
        let q2 = first_pass_fraction(10, &p2);
        assert!(q2.is_finite() && (0.0..=1.0).contains(&q2), "q2 = {q2}");

        // |M| = 3: same invariants one step up.
        let p3 = params_with_mem(3);
        let b3 = spilled_partitions(10, &p3);
        assert!(b3 <= b2, "B must not grow with more memory: {b3} > {b2}");
        let q3 = first_pass_fraction(10, &p3);
        assert!(q3.is_finite() && (0.0..=1.0).contains(&q3), "q3 = {q3}");
        assert!(q3 >= q2, "q must not shrink with more memory: {q3} < {q2}");
    }

    #[test]
    fn partition_count_empty_relation() {
        // |R| = 0 never spills and the first pass covers "everything".
        for mem in [1, 2, 3, 1000] {
            let p = params_with_mem(mem);
            assert_eq!(spilled_partitions(0, &p), 0, "mem = {mem}");
            let q = first_pass_fraction(0, &p);
            assert!((q - 1.0).abs() < 1e-12, "mem = {mem}, q = {q}");
        }
    }

    #[test]
    fn partition_count_never_truncates_to_garbage() {
        // Huge |R| with tiny |M| must neither panic nor wrap to u64::MAX
        // (the old `b.max(0.0) as u64` sent +inf there).
        for mem in [1usize, 2, 3] {
            let p = params_with_mem(mem);
            let b = spilled_partitions(u32::MAX as u64, &p);
            let hashed = (u32::MAX as u64 as f64 * p.hash_overhead).ceil() as u64;
            assert!(b <= hashed, "mem = {mem}, b = {b}");
            let q = first_pass_fraction(u32::MAX as u64, &p);
            assert!(q.is_finite() && (0.0..=1.0).contains(&q), "mem = {mem}, q = {q}");
        }
    }
}
