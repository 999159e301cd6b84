//! Materialized view with deferred, on-the-fly maintenance (§3.2).
//!
//! The view `V = R ⋈ S` lives in a linear hash file keyed on `hash(A)`
//! (Table 5). Updates to `R` are logged as differential sets `iR`/`dR`
//! sorted by `hash(A)` (step 1, Figure 1). At query time:
//!
//! 1. the `N1` sorted runs of each set are merged back (C1.2/C1.4) and
//!    *netted* (intermediate states of multiply-updated tuples cancel);
//! 2. batches of `|W_R|` pages of insertions are joined against `S`
//!    through its inverted index (step 2, Figure 2) — each batch is sorted
//!    on `A`, probed, and its result re-sorted by `hash(A)`, so the
//!    concatenation of batch outputs is globally hash-ordered;
//! 3. the view is read once, bucket by bucket; deletions are applied by
//!    *not keeping* tuples whose `R`-surrogate matches a net deletion, the
//!    freshly joined insertions are merged in, changed pages are written
//!    back, and every surviving tuple is emitted as the query answer —
//!    the paper's trick of folding step (3) into step (4) "thus saving the
//!    cost of reading V once".
//!
//! Bucket addressing is frozen while a merge is in flight: the logs sort by
//! the addressing snapshot taken when the log epoch opened, and the file is
//! rebalanced (splits applied) only after the merge completes, so sort
//! order and scan order always agree.

use std::collections::VecDeque;

use trijoin_common::{
    types::hash_key, BaseTuple, Cost, EventKind, FxHashMap, FxHashSet, Result, Surrogate,
    SystemParams, ViewTuple,
};
use trijoin_linearhash::{Addressing, LinearHash};
use trijoin_storage::{Disk, FileId};

use crate::diff::{mv_sort_key, net_differentials, DiffLog, Net, SortKey};
use crate::relation::StoredRelation;
use crate::sort::counted_sort_by;
use crate::strategy::{JoinStrategy, Mutation};
use crate::viewdef::ViewDef;

/// Serialized size of a view tuple built from `r_bytes`/`s_bytes` tuples.
pub fn view_tuple_bytes(r_bytes: usize, s_bytes: usize) -> usize {
    // Each base tuple contributes its payload (T − header); the view adds
    // its own header.
    ViewTuple::HEADER_BYTES
        + (r_bytes - BaseTuple::HEADER_BYTES)
        + (s_bytes - BaseTuple::HEADER_BYTES)
}

/// The materialized-view strategy.
pub struct MaterializedView {
    disk: Disk,
    params: SystemParams,
    cost: Cost,
    v: LinearHash,
    addressing: Addressing,
    ins_log: DiffLog,
    del_log: DiffLog,
    r_tuple_bytes: usize,
    s_tuple_bytes: usize,
    def: ViewDef,
}

impl MaterializedView {
    /// Initially materialize `V = R ⋈ S` (setup; callers normally reset the
    /// cost ledger afterwards — the paper does not price initial loading).
    pub fn build(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        r: &StoredRelation,
        s: &StoredRelation,
    ) -> Result<Self> {
        Self::build_with(disk, params, cost, r, s, ViewDef::full())
    }

    /// Materialize a select-project view `V = π(σ_p(R) ⋈ σ_q(S))` — the
    /// paper's §5 extension (selections + projectivity of the join).
    pub fn build_with(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        r: &StoredRelation,
        s: &StoredRelation,
        def: ViewDef,
    ) -> Result<Self> {
        // Full join via an in-memory build of S (setup only).
        let mut s_tuples: Vec<BaseTuple> = Vec::with_capacity(s.len() as usize);
        s.scan(|t| {
            if def.s_pred.eval(&t) {
                s_tuples.push(t);
            }
        })?;
        let mut by_key: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, st) in s_tuples.iter().enumerate() {
            by_key.entry(st.key).or_default().push(i);
        }
        let mut view: Vec<(u64, Vec<u8>)> = Vec::new();
        r.scan(|rt| {
            if !def.r_pred.eval(&rt) {
                return;
            }
            if let Some(matches) = by_key.get(&rt.key) {
                for &i in matches {
                    let vt = def.make_view_tuple(&rt, &s_tuples[i]);
                    view.push((hash_key(vt.key), vt.to_bytes()));
                }
            }
        })?;
        let count = view.len() as u64;
        let tv = def.view_tuple_bytes(r.tuple_bytes(), s.tuple_bytes());
        let v = LinearHash::build(disk, params, view, count, tv)?;
        let addressing = v.addressing();
        let (ins_log, del_log) = Self::fresh_logs(disk, cost, params, r.tuple_bytes(), addressing);
        Ok(MaterializedView {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            v,
            addressing,
            ins_log,
            del_log,
            r_tuple_bytes: r.tuple_bytes(),
            s_tuple_bytes: s.tuple_bytes(),
            def,
        })
    }

    /// The paper's `Z` (Figure 1): half the memory for insertions, half for
    /// deletions, minus quicksort overhead (negligible at real page sizes).
    pub fn z_pages(params: &SystemParams) -> usize {
        ((params.mem_pages.saturating_sub(1)) / 2).max(1)
    }

    fn fresh_logs(
        disk: &Disk,
        cost: &Cost,
        params: &SystemParams,
        r_tuple_bytes: usize,
        addressing: Addressing,
    ) -> (DiffLog, DiffLog) {
        let z = Self::z_pages(params);
        let per_page = params.tuples_per_full_page(r_tuple_bytes);
        let key = move |t: &BaseTuple| -> SortKey {
            let h = hash_key(t.key);
            mv_sort_key(addressing.addr(h), h, t.sur.0)
        };
        let ins = DiffLog::new(disk, cost, z, per_page, true, key);
        let del = DiffLog::new(disk, cost, z, per_page, true, key);
        (ins, del)
    }

    /// The paper's `|W_R|` (Figure 2): how many pages of merged insertions
    /// to collect per join pass, leaving room for the batch's `W_R ⋈ S`
    /// output, the `2·N1` run input buffers, three fixed buffers, and
    /// sort/merge overhead.
    fn wr_pages(&self, n1: usize, partners_per_r: f64) -> usize {
        let m = self.params.mem_pages as f64;
        let avail = m - 2.0 * n1 as f64 - 3.0;
        if avail < 2.0 {
            return 1;
        }
        let n_ir = self.params.tuples_per_full_page(self.r_tuple_bytes) as f64;
        let tv = self.def.view_tuple_bytes(self.r_tuple_bytes, self.s_tuple_bytes) as f64;
        let p = self.params.page_size as f64;
        let mrg_space = 2.0 * n1 as f64 * (self.r_tuple_bytes as f64 + self.params.sptr as f64) / p;
        let sort_space = 1.0;
        let mut w = 1usize;
        loop {
            let wf = (w + 1) as f64;
            let need = wf + (wf * n_ir * partners_per_r * tv / p).ceil() + mrg_space + sort_space;
            if need > avail {
                return w;
            }
            w += 1;
        }
    }

    /// Number of view tuples currently cached.
    pub fn view_len(&self) -> u64 {
        self.v.len()
    }

    /// The view's backing file (fault-injection targeting).
    pub fn view_file(&self) -> FileId {
        self.v.file_id()
    }

    /// Pages of the view file (≈ the paper's `F·|V|`).
    pub fn view_pages(&self) -> u64 {
        self.v.num_pages()
    }

    /// Pending logged updates (tuples in `iR`; `dR` has the same count).
    pub fn pending_updates(&self) -> u64 {
        self.ins_log.len().max(self.del_log.len())
    }

    /// Pages of the pending differential log already spilled to disk
    /// (`|iR| + |dR|` run pages; the in-memory `Z` buffers hold the rest).
    pub fn pending_log_pages(&self) -> u64 {
        self.ins_log.pages() + self.del_log.pages()
    }

    /// Point lookup: every cached join tuple with the given join-attribute
    /// value, at hash-file point cost (one bucket chain, typically 1-2
    /// I/Os) — the paper's active-database motivation, where "the
    /// completion of many of the actions ... may be time-constrained in
    /// the order of a few milliseconds".
    ///
    /// Requires a *clean* view (no deferred updates pending): point access
    /// cannot see the unmerged differential logs. Run
    /// [`JoinStrategy::execute`] first, or keep the view clean with
    /// [`crate::EagerView`].
    pub fn lookup_key(&self, key: u64) -> Result<Vec<ViewTuple>> {
        if self.pending_updates() > 0 {
            return Err(trijoin_common::Error::Infeasible(format!(
                "{} deferred updates pending; execute() before point lookups",
                self.pending_updates()
            )));
        }
        let _g = self.cost.section("mv.point_lookup");
        let h = hash_key(key);
        self.cost.hash(1);
        let bucket = self.addressing.addr(h);
        let rows = self.v.scan_bucket(bucket)?;
        self.cost.comp(rows.len() as u64);
        rows.into_iter()
            .filter(|(rh, _)| *rh == h)
            .map(|(_, bytes)| ViewTuple::from_bytes(&bytes))
            .filter(|r| r.as_ref().map(|vt| vt.key == key).unwrap_or(true))
            .collect()
    }

    /// Join one batch of insertion tuples with `S` through the inverted
    /// index (step 2). Returns view tuples sorted by `(bucket, hash(A))`.
    fn join_batch(&self, s: &StoredRelation, mut batch: Vec<BaseTuple>) -> Result<Vec<ViewTuple>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let _g = self.cost.section("mv.join_ins");
        // 2.1: sort W_R by the join attribute A.
        counted_sort_by(&mut batch, |t| t.key, &self.cost);
        // 2.2: probe S's inverted index with the distinct keys...
        let mut keys: Vec<u64> = batch.iter().map(|t| t.key).collect();
        keys.dedup();
        // BTreeMap: iteration order feeds op-counted sorts, so it must be
        // deterministic for reproducible cost ledgers.
        let mut postings: std::collections::BTreeMap<u64, Vec<Surrogate>> =
            std::collections::BTreeMap::new();
        s.probe_inverted(&keys, |k, sur| postings.entry(k).or_default().push(sur))?;
        // ...then fetch the matching S tuples in surrogate order (scheduled
        // access — each page at most once).
        let mut surs: Vec<Surrogate> = postings.values().flatten().copied().collect();
        counted_sort_by(&mut surs, |s| s.0, &self.cost);
        let mut s_tuples: FxHashMap<Surrogate, BaseTuple> = FxHashMap::default();
        s.fetch_by_surrogates(&surs, |t| {
            s_tuples.insert(t.sur, t);
        })?;
        // Form W_R ⋈ σ_q(S) (one move per result tuple, per C2.2). The
        // inverted index is on the full S, so fetched tuples are tested
        // against the view's S-side selection here (one comp each).
        let mut out: Vec<ViewTuple> = Vec::new();
        for rt in &batch {
            if let Some(ss) = postings.get(&rt.key) {
                for sur in ss {
                    let st = s_tuples.get(sur).ok_or_else(|| {
                        trijoin_common::Error::Invariant(format!(
                            "inverted posting {sur} has no S tuple"
                        ))
                    })?;
                    self.cost.comp(1);
                    if !self.def.s_pred.eval(st) {
                        continue;
                    }
                    out.push(self.def.make_view_tuple(rt, st));
                    self.cost.mov(1);
                }
            }
        }
        // 2.3: sort the batch result by hash(A) (CPU_s with hashing).
        self.cost.hash(out.len() as u64);
        let addressing = self.addressing;
        counted_sort_by(
            &mut out,
            |v| {
                let h = hash_key(v.key);
                mv_sort_key(addressing.addr(h), h, v.r_sur.0)
            },
            &self.cost,
        );
        Ok(out)
    }

    /// Device-fault fallback: the cached view (or a differential run) is
    /// damaged, so answer the query by recomputing `R ⋈ S` directly from
    /// the base relations, validate against the oracle, and rebuild `V`
    /// into fresh pages — all charged under the `mv.recover` section.
    fn recover(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        out: &mut Vec<ViewTuple>,
    ) -> Result<u64> {
        self.disk.metrics().incr("mv.recoveries");
        self.disk.events().emit(
            EventKind::RecoveryTriggered,
            "materialized-view: recompute from base relations",
            self.cost.total(),
        );
        let _g = self.cost.section("mv.recover");
        let (answer, r_filt, s_filt) =
            crate::recovery::recompute_join(r, s, &self.def, &self.cost)?;
        crate::recovery::validate_against_oracle(
            "materialized-view",
            &answer,
            &r_filt,
            &s_filt,
            &self.def,
        )?;
        // Rebuild the view into a fresh file; the damaged one is abandoned
        // (a fresh file carries no torn/poisoned marks).
        let records: Vec<(u64, Vec<u8>)> =
            answer.iter().map(|vt| (hash_key(vt.key), vt.to_bytes())).collect();
        let count = answer.len() as u64;
        let tv = self.def.view_tuple_bytes(self.r_tuple_bytes, self.s_tuple_bytes);
        let new_v = LinearHash::build(&self.disk, &self.params, records, count, tv)?;
        std::mem::replace(&mut self.v, new_v).destroy();
        self.addressing = self.v.addressing();
        // The recomputation already reflects every logged mutation (the
        // base relations do), so pending differentials are superseded.
        let (ins, del) = Self::fresh_logs(
            &self.disk,
            &self.cost,
            &self.params,
            self.r_tuple_bytes,
            self.addressing,
        );
        std::mem::replace(&mut self.ins_log, ins).destroy();
        std::mem::replace(&mut self.del_log, del).destroy();
        out.extend(answer);
        Ok(count)
    }

    // === Incremental-migration surface ==================================
    // Online strategy migration builds the *new* cached structure from the
    // incumbent's join rows — never from a base-relation rescan; the
    // serving layer drives the state machine.

    /// Build a full view directly from already-joined tuples — the
    /// receiving end of a migration hand-off. All I/O lands in the
    /// caller's open ledger section (the serving layer wraps this in its
    /// `migrate.build` span).
    pub fn build_from_tuples(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        tuples: &[ViewTuple],
        r_tuple_bytes: usize,
        s_tuple_bytes: usize,
    ) -> Result<Self> {
        let records: Vec<(u64, Vec<u8>)> =
            tuples.iter().map(|vt| (hash_key(vt.key), vt.to_bytes())).collect();
        let count = records.len() as u64;
        let def = ViewDef::full();
        let tv = def.view_tuple_bytes(r_tuple_bytes, s_tuple_bytes);
        let v = LinearHash::build(disk, params, records, count, tv)?;
        let addressing = v.addressing();
        let (ins_log, del_log) = Self::fresh_logs(disk, cost, params, r_tuple_bytes, addressing);
        Ok(MaterializedView {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            v,
            addressing,
            ins_log,
            del_log,
            r_tuple_bytes,
            s_tuple_bytes,
            def,
        })
    }

    /// Delete the view file and both log files — the superseded side of a
    /// completed migration (fault-recovery paths replace-and-destroy
    /// internally instead).
    pub fn destroy(self) {
        self.v.destroy();
        self.ins_log.destroy();
        self.del_log.destroy();
    }
}

impl JoinStrategy for MaterializedView {
    fn name(&self) -> &'static str {
        "materialized-view"
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.disk.metrics().incr("mv.mutations_logged");
        let _g = self.cost.section("mv.log");
        // Every mutation of a full view matters (unlike the join index,
        // which filters by Pr_A); a select view additionally drops the
        // sides that fail its selection — *irrelevant* mutations (both
        // sides fail) cost nothing at all.
        let (del, ins) = self.def.translate_r(m);
        if let Some(t) = del {
            self.del_log.add(t)?;
        }
        if let Some(t) = ins {
            self.ins_log.add(t)?;
        }
        Ok(())
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // Buffer emissions: a mid-merge device fault must not leak a
        // partial answer into the sink before recovery re-derives the
        // exact one.
        let mut buffered: Vec<ViewTuple> = Vec::new();
        let emitted = match self.merge_execute(r, s, &mut |vt| buffered.push(vt)) {
            Ok(n) => n,
            Err(e) if e.is_device_fault() => {
                buffered.clear();
                self.recover(r, s, &mut buffered)?
            }
            Err(e) => return Err(e),
        };
        self.disk.metrics().counter_add("mv.tuples_emitted", buffered.len() as u64);
        for vt in buffered {
            sink(vt);
        }
        Ok(emitted)
    }
}

impl MaterializedView {
    /// The §3.2 merge pipeline (the paper's steps 1–4), fallible on any
    /// injected device fault; [`JoinStrategy::execute`] wraps it with the
    /// recovery fallback.
    fn merge_execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        self.ins_log.seal()?;
        self.del_log.seal()?;
        let n1 = self.ins_log.num_runs().max(self.del_log.num_runs());
        // Expected S partners per R tuple: ‖V‖/‖R‖ = JS·‖S‖ (self-estimated
        // from the cached view, like a real system's statistics).
        let partners = if r.is_empty() { 1.0 } else { self.v.len() as f64 / r.len() as f64 };
        let wr_tuples = self.wr_pages(n1, partners.max(0.1))
            * self.params.tuples_per_full_page(self.r_tuple_bytes);

        let addressing = self.addressing;
        let key_of = move |t: &BaseTuple| -> SortKey {
            let h = hash_key(t.key);
            mv_sort_key(addressing.addr(h), h, t.sur.0)
        };
        let ins_stream = {
            let _g = self.cost.section("mv.read_diffs");
            self.ins_log.merged()?
        };
        let del_stream = self.del_log.merged()?;
        // The MV log sees every update, so chains are contiguous and
        // byte-identity is the exact cancellation equivalence.
        let mut net =
            net_differentials(ins_stream, del_stream, key_of, |a, b| a == b, &self.cost).peekable();

        let bucket_of_key = move |k: SortKey| -> u64 { (k >> 96) as u64 };

        let mut del_q: VecDeque<(u64, Surrogate)> = VecDeque::new();
        let mut emitted = 0u64;
        let mut next_bucket = 0u64;
        let total_buckets = self.v.num_buckets();

        loop {
            // Pull a batch of net insertions (deletions encountered on the
            // way queue up for the scan below).
            let mut batch: Vec<BaseTuple> = Vec::new();
            {
                let _g = self.cost.section("mv.read_diffs");
                while let Some(item) = net.peek() {
                    let key = match item {
                        Net::Ins(t) | Net::Del(t) => key_of(t),
                    };
                    let bucket = bucket_of_key(key);
                    if batch.len() >= wr_tuples {
                        // Extend only to the current bucket boundary.
                        let last_bucket =
                            batch.last().map(|t| bucket_of_key(key_of(t))).unwrap_or(bucket);
                        if bucket > last_bucket {
                            break;
                        }
                    }
                    match net.next().unwrap() {
                        Net::Ins(t) => batch.push(t),
                        Net::Del(t) => del_q.push_back((bucket, t.sur)),
                    }
                }
            }
            // A parked run-read error means the differential stream ended
            // early and the batch is incomplete: fail the merge (recovery
            // takes over in the execute wrapper).
            self.ins_log.stream_error()?;
            self.del_log.stream_error()?;
            let batch_empty = batch.is_empty();
            // The scan below may process up to the batch's last bucket; if
            // the stream is exhausted, finish the whole file.
            let hi_bucket = if net.peek().is_none() {
                total_buckets.saturating_sub(1)
            } else {
                batch
                    .iter()
                    .map(|t| bucket_of_key(key_of(t)))
                    .max()
                    .or_else(|| del_q.back().map(|&(b, _)| b))
                    .unwrap_or(next_bucket)
            };
            let mut joined: VecDeque<ViewTuple> = self.join_batch(s, batch)?.into();

            // Step 3/4: read V bucket by bucket, apply deletions by not
            // keeping matching tuples, merge insertions, emit everything,
            // write back changed pages.
            let scan_done = net.peek().is_none() && batch_empty && joined.is_empty();
            let last = if scan_done {
                total_buckets.saturating_sub(1)
            } else {
                hi_bucket.min(total_buckets.saturating_sub(1))
            };
            for b in next_bucket..=last {
                let old = {
                    let _g = self.cost.section("mv.scan_view");
                    self.v.scan_bucket(b)?
                };
                let mut dels: FxHashSet<Surrogate> = FxHashSet::default();
                while del_q.front().map(|&(db, _)| db == b).unwrap_or(false) {
                    dels.insert(del_q.pop_front().unwrap().1);
                }
                let mut changed = false;
                let mut new: Vec<(u64, Vec<u8>)> = Vec::with_capacity(old.len());
                // Keep survivors.
                for (h, bytes) in old {
                    let vt = ViewTuple::from_bytes(&bytes)?;
                    self.cost.comp(1); // tested against the deletion set
                    if dels.contains(&vt.r_sur) {
                        changed = true;
                    } else {
                        sink(vt);
                        emitted += 1;
                        new.push((h, bytes));
                    }
                }
                // Merge this bucket's freshly joined insertions.
                while joined
                    .front()
                    .map(|v| self.addressing.addr(hash_key(v.key)) == b)
                    .unwrap_or(false)
                {
                    let vt = joined.pop_front().unwrap();
                    self.cost.mov(1); // merged into the bucket (C3.3)
                                      // Serialize before handing the tuple to the sink so it
                                      // moves instead of cloning its payloads.
                    new.push((hash_key(vt.key), vt.to_bytes()));
                    sink(vt);
                    emitted += 1;
                    changed = true;
                }
                if changed {
                    let _g = self.cost.section("mv.write_view");
                    // Rewriting a bucket moves its tuples (C3.3's n_V moves
                    // per changed page).
                    self.cost.mov(new.len() as u64);
                    self.v.rewrite_bucket(b, new)?;
                }
            }
            next_bucket = last + 1;
            if scan_done || next_bucket >= total_buckets {
                debug_assert!(
                    net.peek().is_none() && joined.is_empty(),
                    "differential stream outlived the view scan"
                );
                break;
            }
        }

        // Post-merge housekeeping: apply deferred splits and open a fresh
        // log epoch under the (possibly new) addressing.
        {
            let _g = self.cost.section("mv.rebalance");
            self.v.rebalance()?;
        }
        self.addressing = self.v.addressing();
        let (ins, del) = Self::fresh_logs(
            &self.disk,
            &self.cost,
            &self.params,
            self.r_tuple_bytes,
            self.addressing,
        );
        std::mem::replace(&mut self.ins_log, ins).destroy();
        std::mem::replace(&mut self.del_log, del).destroy();
        Ok(emitted)
    }
}
