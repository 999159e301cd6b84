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
//! 3. the view is read once, bucket by bucket (an empty bucket owns no
//!    page); tuples whose `R`-surrogate matches a net deletion are dropped
//!    from the page they sit on, the freshly joined insertions go into
//!    pages with room, only the pages that lost or gained a tuple are
//!    written back, and every surviving tuple is emitted as the query
//!    answer — the paper's trick of folding step (3) into step (4) "thus
//!    saving the cost of reading V once".
//!
//! Bucket addressing is frozen while a merge is in flight: the logs sort by
//! the addressing snapshot taken when the log epoch opened, and the file is
//! rebalanced (splits applied) only after the merge completes, so sort
//! order and scan order always agree.
//!
//! # Mutations of `S`
//!
//! §3.2 writes the general `V'` (insertions and deletions of both
//! relations) and analyses its R-only case. A full view also logs `S`'s
//! mutations ([`MaterializedView::on_s_mutation`]), and the same merge
//! folds both sides by the duplicate-free sequential decomposition
//!
//! ```text
//! V1 = V  −  {v : v.r ∈ dR}  ∪  (iR ⋈ (S_now − iS))
//! V' = V1 −  {v : v.s ∈ dS}  ∪  (iS ⋈ R_now)
//! ```
//!
//! R-insertions join the *pre-epoch* `S` (probe the current one, skip
//! net-inserted `s`), so `(iR ⋈ iS)` pairs arrive exactly once, from the S
//! side, because `R_now ⊇ iR`; S-insertions join the current `R` through
//! its inverted index on `A` (Table 5 gives `R` none: the owner builds it
//! when `S` first changes). `iS`/`dS` open at an epoch's first mutation of
//! `S`, inside Figure 1's `2·Z` (each of the four logs gets `Z/2`), and
//! close with the epoch: an epoch that sees no `S` mutation keeps `R`'s
//! logs at `Z` and every charge of the R-only analysis.
//!
//! Memory note: the R side streams; the net S differentials stay in memory
//! for the one query that folds them (their runs are logged, spilled and
//! merged at full charge). Streaming them under `|M|` needs a bucket merge
//! over two differentials the paper never contemplates.

use std::collections::VecDeque;

use trijoin_common::{
    types::hash_key, BaseTuple, Cost, CounterId, Error, FxHashMap, FxHashSet, Result, Surrogate,
    SystemParams, ViewTuple,
};
use trijoin_linearhash::{Addressing, LinearHash};
use trijoin_storage::{Disk, FileId};

use crate::diff::{mv_sort_key, DiffPair, Net, SFold, SortKey};
use crate::relation::StoredRelation;
use crate::sort::counted_sort_by;
use crate::strategy::{JoinStrategy, Mutation};
use crate::viewdef::ViewDef;

/// Serialized size of a view tuple built from `r_bytes`/`s_bytes` tuples.
pub fn view_tuple_bytes(r_bytes: usize, s_bytes: usize) -> usize {
    ViewDef::full().view_tuple_bytes(r_bytes, s_bytes)
}

/// The differential sort order under a frozen addressing:
/// `(bucket, hash(A), surrogate)`.
fn hash_order(addressing: Addressing) -> impl Fn(&BaseTuple) -> SortKey + Copy + 'static {
    move |t| {
        let h = hash_key(t.key);
        mv_sort_key(addressing.addr(h), h, t.sur.0)
    }
}

/// The initial `σ_p(R) ⋈ σ_q(S)` through an in-memory build of `S` (setup
/// only: the two scans are all it charges), one `emit` per joining pair,
/// in `R`'s scan order.
pub(crate) fn scan_join(
    r: &StoredRelation,
    s: &StoredRelation,
    def: &ViewDef,
    mut emit: impl FnMut(&BaseTuple, &BaseTuple),
) -> Result<()> {
    let mut by_key: std::collections::HashMap<u64, Vec<BaseTuple>> =
        std::collections::HashMap::new();
    s.scan(|t| {
        if def.s_pred.eval(&t) {
            by_key.entry(t.key).or_default().push(t);
        }
    })?;
    r.scan(|rt| {
        if def.r_pred.eval(&rt) {
            by_key.get(&rt.key).into_iter().flatten().for_each(|st| emit(&rt, st));
        }
    })
}

/// Load `V = π(σ_p(R) ⋈ σ_q(S))` into a fresh hash file.
pub(crate) fn materialize(
    disk: &Disk,
    params: &SystemParams,
    r: &StoredRelation,
    s: &StoredRelation,
    def: &ViewDef,
) -> Result<LinearHash> {
    let mut view: Vec<(u64, Vec<u8>)> = Vec::new();
    scan_join(r, s, def, |rt, st| {
        let vt = def.make_view_tuple(rt, st);
        view.push((hash_key(vt.key), vt.to_bytes()));
    })?;
    let count = view.len() as u64;
    let tv = def.view_tuple_bytes(r.tuple_bytes(), s.tuple_bytes());
    LinearHash::build(disk, params, view, count, tv)
}

/// Load already-joined tuples of `tv` bytes into a fresh hash file.
fn load(disk: &Disk, params: &SystemParams, tuples: &[ViewTuple], tv: usize) -> Result<LinearHash> {
    let records: Vec<(u64, Vec<u8>)> =
        tuples.iter().map(|vt| (hash_key(vt.key), vt.to_bytes())).collect();
    LinearHash::build(disk, params, records, tuples.len() as u64, tv)
}

/// The materialized-view strategy.
///
/// Reports and the cost audit know it as `materialized-view` whether or
/// not it takes mutations of `S`; the audit prices every cycle by the
/// R-only model.
pub struct MaterializedView {
    disk: Disk,
    params: SystemParams,
    cost: Cost,
    v: LinearHash,
    addressing: Addressing,
    logs: DiffPair,
    r_tuple_bytes: usize,
    s_tuple_bytes: usize,
    def: ViewDef,
    c_logged: CounterId,
    c_emitted: CounterId,
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
    /// paper's §5 extension (selections + projectivity of the join). Such
    /// a view follows `R` only.
    pub fn build_with(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        r: &StoredRelation,
        s: &StoredRelation,
        def: ViewDef,
    ) -> Result<Self> {
        let v = materialize(disk, params, r, s, &def)?;
        Ok(Self::over(disk, params, cost, v, (r.tuple_bytes(), s.tuple_bytes()), def))
    }

    /// The strategy over a loaded view file, at the start of a log epoch.
    fn over(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        v: LinearHash,
        (r_tuple_bytes, s_tuple_bytes): (usize, usize),
        def: ViewDef,
    ) -> Self {
        let addressing = v.addressing();
        let per_page = params.tuples_per_full_page(r_tuple_bytes);
        let z = Self::z_pages(params);
        MaterializedView {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            v,
            addressing,
            logs: DiffPair::new(disk, cost, z, per_page, true, hash_order(addressing)),
            r_tuple_bytes,
            s_tuple_bytes,
            def,
            c_logged: disk.metrics().counter_handle("mv.mutations_logged"),
            c_emitted: disk.metrics().counter_handle("mv.tuples_emitted"),
        }
    }

    /// The paper's `Z` (Figure 1): half the memory for insertions, half for
    /// deletions, minus quicksort overhead (negligible at real page sizes).
    pub fn z_pages(params: &SystemParams) -> usize {
        ((params.mem_pages.saturating_sub(1)) / 2).max(1)
    }

    fn view_tuple_bytes(&self) -> usize {
        self.def.view_tuple_bytes(self.r_tuple_bytes, self.s_tuple_bytes)
    }

    /// Open a log epoch under the view file's current addressing; whatever
    /// the logs held is dropped, and `S`'s close.
    fn open_epoch(&mut self) {
        self.addressing = self.v.addressing();
        self.logs.restart(hash_order(self.addressing));
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
        let tv = self.view_tuple_bytes() as f64;
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

    /// Pending logged mutations (of `R`, plus of `S` when the view takes
    /// them).
    pub fn pending_updates(&self) -> u64 {
        self.logs.pending()
    }

    /// Pages of the pending differential logs already spilled to disk
    /// (`|iR| + |dR|` run pages; the in-memory `Z` buffers hold the rest).
    pub fn pending_log_pages(&self) -> u64 {
        self.logs.pages()
    }

    /// Observe one mutation of `S` *before* it is applied to the stored
    /// relation; mutations of `R` go through [`JoinStrategy::on_mutation`].
    /// The query that folds it probes `R`'s inverted index on the join
    /// attribute. A select or project view refuses with
    /// [`Error::Infeasible`] and stays as it was.
    pub fn on_s_mutation(&mut self, m: &Mutation) -> Result<()> {
        if !self.def.is_full() {
            return Err(Error::Infeasible("mutations of S need a full view".into()));
        }
        let _g = self.cost.section("mv.log_s");
        let (del, ins) = m.sides();
        let per_page = self.params.tuples_per_full_page(self.s_tuple_bytes);
        self.logs.log_s(per_page, del.cloned(), ins.cloned())
    }

    /// Point lookup: every cached join tuple with the given join-attribute
    /// value, at hash-file point cost (one bucket chain, typically 1-2
    /// I/Os) — the paper's active-database motivation, where "the
    /// completion of many of the actions ... may be time-constrained in
    /// the order of a few milliseconds".
    ///
    /// Requires a *clean* view (no deferred updates pending): point access
    /// cannot see the unmerged differential logs. Run
    /// [`JoinStrategy::execute`] first.
    pub fn lookup_key(&self, key: u64) -> Result<Vec<ViewTuple>> {
        if self.pending_updates() > 0 {
            return Err(Error::Infeasible(format!(
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

    /// Step 2: join one batch of net insertions with the `other` relation
    /// through its inverted index — `iR` against `S` (`batch_of_r`), or
    /// `iS` against `R`. `skip` names partners to leave out (uncharged
    /// when empty). Returns view tuples sorted by `(bucket, hash(A))`.
    fn join_batch(
        &self,
        section: &str,
        mut batch: Vec<BaseTuple>,
        batch_of_r: bool,
        other: &StoredRelation,
        skip: &FxHashSet<Surrogate>,
    ) -> Result<Vec<ViewTuple>> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let _g = self.cost.section(section);
        // 2.1/2.2: sort the batch on A, probe the inverted index with the
        // distinct keys...
        let postings = other.postings(&mut batch, skip, &self.cost)?;
        // ...then fetch the matching tuples in surrogate order (scheduled
        // access — each page at most once).
        let mut surs: Vec<Surrogate> = postings.values().flatten().copied().collect();
        counted_sort_by(&mut surs, |s| s.0, &self.cost);
        let mut fetched: FxHashMap<Surrogate, BaseTuple> = FxHashMap::default();
        other.fetch_by_surrogates(&surs, |t| {
            fetched.insert(t.sur, t);
        })?;
        // Form the batch's join (one move per result tuple, per C2.2). The
        // inverted index is on the full relation, so fetched tuples are
        // tested against the view's selection on that side here (one comp
        // each).
        let other_pred = if batch_of_r { &self.def.s_pred } else { &self.def.r_pred };
        let mut out: Vec<ViewTuple> = Vec::new();
        for bt in &batch {
            for sur in postings.get(&bt.key).into_iter().flatten() {
                let Some(ot) = fetched.get(sur) else {
                    return Err(Error::Invariant(format!("inverted posting {sur} has no tuple")));
                };
                self.cost.comp(1);
                if !other_pred.eval(ot) {
                    continue;
                }
                let (rt, st) = if batch_of_r { (bt, ot) } else { (ot, bt) };
                out.push(self.def.make_view_tuple(rt, st));
                self.cost.mov(1);
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
    fn recover(&mut self, r: &StoredRelation, s: &StoredRelation) -> Result<Vec<ViewTuple>> {
        let who = ("mv", "materialized-view");
        let (_g, answer) = crate::recovery::recompute_join(&self.disk, who, r, s, &self.def)?;
        // Rebuild the view into a fresh file; the damaged one is abandoned
        // (a fresh file carries no torn/poisoned marks).
        let new_v = load(&self.disk, &self.params, &answer, self.view_tuple_bytes())?;
        std::mem::replace(&mut self.v, new_v).destroy();
        // The recomputation already reflects every logged mutation (the
        // base relations do), so pending differentials are superseded.
        self.open_epoch();
        Ok(answer)
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
        let def = ViewDef::full();
        let v = load(disk, params, tuples, def.view_tuple_bytes(r_tuple_bytes, s_tuple_bytes))?;
        Ok(Self::over(disk, params, cost, v, (r_tuple_bytes, s_tuple_bytes), def))
    }

    /// Delete the view file and the log files — the superseded side of a
    /// completed migration (fault-recovery paths replace-and-destroy
    /// internally instead).
    pub fn destroy(self) {
        self.v.destroy();
        self.logs.destroy();
    }
}

impl JoinStrategy for MaterializedView {
    fn name(&self) -> &'static str {
        "materialized-view"
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.disk.metrics().incr_id(self.c_logged);
        let _g = self.cost.section("mv.log");
        // Every mutation of a full view matters (unlike the join index,
        // which filters by Pr_A); a select view additionally drops the
        // sides that fail its selection — *irrelevant* mutations (both
        // sides fail) cost nothing at all.
        let (del, ins) = self.def.translate_r(m);
        self.logs.log(del, ins)
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // The merge joins `iR` with `S`, and `iS` (if any) with `R`: what
        // it reads catches up first, outside its sections. With nothing
        // logged for `S` a query never goes back to `R`, whose apply log
        // is left to grow.
        s.settle()?;
        if self.logs.has_s() {
            r.settle()?;
        }
        let answer = crate::recovery::answer_or_recover(
            self,
            |mv, out| mv.merge_execute(r, s, out),
            |mv| mv.recover(r, s),
        )?;
        self.disk.metrics().counter_add_id(self.c_emitted, answer.len() as u64);
        let emitted = answer.len() as u64;
        answer.into_iter().for_each(sink);
        Ok(emitted)
    }
}

impl MaterializedView {
    /// Net `S`'s differentials into memory and join its insertions with
    /// the current `R`.
    /// `iS ⋈ R_now` in bucket order.
    fn fold_s(&mut self, r: &StoredRelation) -> Result<SFold<VecDeque<ViewTuple>>> {
        let (ins, deleted) = self.logs.net_s("mv.read_s_diffs", |a, b| a == b)?;
        let inserted = ins.iter().map(|t| t.sur).collect();
        let joined = self.join_batch("mv.join_is", ins, false, r, &FxHashSet::default())?.into();
        Ok(SFold { inserted, deleted, joined })
    }

    /// The §3.2 merge pipeline (the paper's steps 1–4), fallible on any
    /// injected device fault; [`JoinStrategy::execute`] wraps it with the
    /// recovery fallback.
    fn merge_execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        {
            let _g = self.cost.section("mv.read_diffs");
            self.logs.seal()?;
        }
        let mut s_fold = self.fold_s(r)?;
        // One test per deletion set a view tuple is held against.
        let del_tests = 1 + self.logs.has_s() as u64;
        let n1 = self.logs.runs();
        // Expected S partners per R tuple: ‖V‖/‖R‖ = JS·‖S‖ (self-estimated
        // from the cached view, like a real system's statistics).
        let r_len = r.len_estimate();
        let partners = if r_len == 0 { 1.0 } else { self.v.len() as f64 / r_len as f64 };
        let wr_tuples = self.wr_pages(n1, partners.max(0.1))
            * self.params.tuples_per_full_page(self.r_tuple_bytes);

        let key_of = hash_order(self.addressing);
        let bucket_of = move |t: &BaseTuple| -> u64 { (key_of(t) >> 96) as u64 };
        // The MV log sees every update, so chains are contiguous and
        // byte-identity is the exact cancellation equivalence.
        let mut net = {
            let _g = self.cost.section("mv.read_diffs");
            self.logs.net(|a, b| a == b)?.peekable()
        };

        let mut del_q: VecDeque<(u64, Surrogate)> = VecDeque::new();
        let mut emitted = 0u64;
        let mut next_bucket = 0u64;
        let total_buckets = self.v.num_buckets();

        loop {
            // Pull a batch of net insertions (deletions encountered on the
            // way queue up for the scan below). A full batch extends only to
            // its bucket's boundary; a run read that failed fails the merge
            // (recovery takes over in the execute wrapper).
            let mut batch: Vec<BaseTuple> = Vec::new();
            {
                let _g = self.cost.section("mv.read_diffs");
                let more = |batch: &[BaseTuple], item: &Result<Net>| match item {
                    Ok(Net::Ins(t) | Net::Del(t)) => {
                        batch.len() < wr_tuples
                            || batch.last().is_none_or(|l| bucket_of(t) <= bucket_of(l))
                    }
                    Err(_) => true,
                };
                while let Some(item) = net.next_if(|item| more(&batch, item)) {
                    match item? {
                        Net::Ins(t) => batch.push(t),
                        Net::Del(t) => del_q.push_back((bucket_of(&t), t.sur)),
                    }
                }
            }
            // The scan below may process up to the batch's last bucket; if
            // the stream is exhausted, it finishes the whole file.
            let last = if net.peek().is_none() {
                total_buckets.saturating_sub(1)
            } else {
                (batch.last().map(bucket_of))
                    .or_else(|| del_q.back().map(|&(b, _)| b))
                    .unwrap_or(next_bucket)
                    .min(total_buckets.saturating_sub(1))
            };
            let mut joined: VecDeque<ViewTuple> =
                self.join_batch("mv.join_ins", batch, true, s, &s_fold.inserted)?.into();

            // Step 3/4: read V bucket by bucket, drop deleted tuples from the
            // page they sit on, place insertions in pages with room, emit
            // everything, write back the pages that changed.
            for b in next_bucket..=last {
                let mut chain = {
                    let _g = self.cost.section("mv.scan_view");
                    self.v.open_bucket(b)?
                };
                let mut dels: FxHashSet<Surrogate> = FxHashSet::default();
                while del_q.front().map(|&(db, _)| db == b).unwrap_or(false) {
                    dels.insert(del_q.pop_front().unwrap().1);
                }
                // Survivors first.
                let merge_guard = self.cost.section("mv.merge");
                chain.retain(|_, bytes| {
                    let vt = ViewTuple::from_bytes(bytes)?;
                    self.cost.comp(del_tests);
                    let keep = !dels.contains(&vt.r_sur) && !s_fold.deleted.contains(&vt.s_sur);
                    if keep {
                        sink(vt);
                        emitted += 1;
                    }
                    Ok(keep)
                })?;
                // Then this bucket's freshly joined insertions, `iR`'s then
                // `iS`'s.
                for stream in [&mut joined, &mut s_fold.joined] {
                    while stream
                        .front()
                        .map(|v| self.addressing.addr(hash_key(v.key)) == b)
                        .unwrap_or(false)
                    {
                        let vt = stream.pop_front().unwrap();
                        // Merged into the bucket (C3.3); serialized before the sink
                        // takes the tuple, so it moves instead of cloning its payloads.
                        self.cost.mov(1);
                        chain.insert(hash_key(vt.key), &vt.to_bytes())?;
                        sink(vt);
                        emitted += 1;
                    }
                }
                drop(merge_guard);
                if chain.is_changed() {
                    let _g = self.cost.section("mv.write_view");
                    // Writing a page moves its tuples (C3.3's n_V moves per
                    // changed page).
                    let moved = self.v.commit(chain)?;
                    self.cost.mov(moved);
                }
            }
            next_bucket = last + 1;
            if next_bucket >= total_buckets {
                debug_assert!(
                    net.peek().is_none() && joined.is_empty() && s_fold.joined.is_empty(),
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
        self.open_epoch();
        Ok(emitted)
    }
}
