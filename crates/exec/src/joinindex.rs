//! Join index with deferred, incremental, on-the-fly maintenance (§3.3).
//!
//! The join index `JI` caches only the surrogate pairs `(r, s)` of joining
//! tuples (Valduriez \[25\]; the paper's Table 4). Because it is a "partially
//! materialized view", only updates that modify the join attribute — a
//! `Pr_A` fraction — are logged, sorted by surrogate `r` (§3.3 step 1).
//!
//! As Table 5 stores it, `JI` is a B⁺-tree clustered on `r`: keys
//! `(r << 32) | s`, no values, `n_JI` entries to a leaf. At query time its
//! leaves are processed in passes of `|JI_k|` leaves (Figure 3,
//! [`trijoin_btree::Passes`]), each extended to the end of its last `r`
//! group. Per pass: the pass's leaves are read (C2.1); merged net
//! deletions *mark* dead entries (C2.2); the pass's net insertions are
//! sorted on `A`, joined against `S` through the inverted index, and turned
//! into new `(r, s)` pairs (C3.1); the pass's `R` fragment is
//! semijoin-fetched through the clustered index (C3.2); a copy of the
//! survivors is sorted on `s` and `S` is fetched through its clustered index to
//! assemble the join output (C3.3/C3.4); finally the new pairs are merged
//! into the `(r, s)`-ordered survivors (C2.3) and the pass lands on the
//! leaves it was read from (C2.4): a leaf that did not change is not
//! written, and a pass whose entries fit in fewer leaves is packed onto
//! that many, the rest going on the tree's free list — so `|JI|` stays
//! within a page a pass of `⌈‖JI‖/n_JI⌉`. A write-back that fails part-way
//! leaves some passes landed under a log that still holds their
//! differentials, so the next query rebuilds the index (`ji.recover`).
//!
//! Engine refinement over the paper: output tuples for *inserted* pairs
//! fetch the `R` side fresh (the pass is already fetching that `r`-range),
//! so the answer is exact even when a tuple receives a join-attribute
//! update followed by payload-only updates the `Pr_A` filter never sees.
//!
//! Mutations of `S` fold by the view's sequential decomposition (`crate::mv`),
//! under the same `Pr_A` filter (output fetches `S` fresh too): C2.2 also
//! drops the pairs of net-deleted `s`, C3.1's `iR ⋈ S` skips net-inserted
//! `s`, and `iS ⋈ R_now`, probed through `R`'s inverted index, joins each
//! pass by `r`.
//!
//! Table 5 also lists a non-clustered B⁺-tree on `JI.s`; the §3.3 algorithm
//! never traverses it (it sorts each memory-resident `JI_k` on `s`
//! instead), so this implementation follows the algorithm and omits it.

use trijoin_btree::{BTree, BTreeConfig, BTreeMeta};
use trijoin_common::{
    BaseTuple, Cost, CounterId, Error, FxHashMap, FxHashSet, JiEntry, Result, Surrogate,
    SystemParams, ViewTuple,
};
use trijoin_storage::{Disk, FileId};

use crate::diff::{ji_sort_key, DiffPair, Net, SFold};
use crate::mv::view_tuple_bytes;
use crate::relation::{Reader, StoredRelation};
use crate::sort::counted_sort_by;
use crate::strategy::{JoinStrategy, Mutation};
use crate::viewdef::ViewDef;

/// The tree key of a join-index entry: clustered on `r`, then `s`.
fn ji_key(e: &JiEntry) -> u64 {
    (u64::from(e.r.0) << 32) | u64::from(e.s.0)
}

/// The entry a tree key stands for ([`ji_key`]).
fn ji_entry(key: u64) -> JiEntry {
    JiEntry { r: Surrogate((key >> 32) as u32), s: Surrogate(key as u32) }
}

/// Merge `new` into `kept`, both in `(r, s)` order (C2.3): one comparison
/// per entry out, one move per entry merged in.
fn merge_pairs(kept: Vec<JiEntry>, new: &[JiEntry], cost: &Cost) -> Vec<JiEntry> {
    if new.is_empty() {
        return kept;
    }
    cost.comp((kept.len() + new.len()) as u64);
    cost.mov(new.len() as u64);
    let mut out = Vec::with_capacity(kept.len() + new.len());
    let mut new = new.iter().copied().peekable();
    for e in kept {
        out.extend(std::iter::from_fn(|| new.next_if(|x| *x < e)));
        out.push(e);
    }
    out.extend(new);
    out
}

// ---------------------------------------------------------------------
// The strategy.
// ---------------------------------------------------------------------

/// The differential sort order: surrogate `r`.
fn r_order(t: &BaseTuple) -> crate::diff::SortKey {
    ji_sort_key(t.sur.0)
}

/// The join-index strategy with deferred incremental maintenance.
pub struct JoinIndexStrategy {
    disk: Disk,
    params: SystemParams,
    cost: Cost,
    ji: BTree,
    logs: DiffPair,
    r_tuple_bytes: usize,
    s_tuple_bytes: usize,
    /// Set while a query's write-back is under way: if that query fails,
    /// the next one rebuilds instead of folding the log a second time.
    writing_back: bool,
    c_filtered: CounterId,
    c_logged: CounterId,
    c_emitted: CounterId,
}

impl JoinIndexStrategy {
    /// Initially build the join index from the current `R ⋈ S` (setup;
    /// callers normally reset the cost ledger afterwards).
    pub fn build(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        r: &StoredRelation,
        s: &StoredRelation,
    ) -> Result<Self> {
        let mut entries: Vec<JiEntry> = Vec::new();
        crate::mv::scan_join(r, s, &ViewDef::full(), |rt, st| {
            entries.push(JiEntry { r: rt.sur, s: st.sur });
        })?;
        Self::build_from_entries(disk, params, cost, entries, r.tuple_bytes(), s.tuple_bytes())
    }

    /// Entries currently cached (`‖JI‖`).
    pub fn index_len(&self) -> u64 {
        self.ji.len()
    }

    /// Index leaf pages (`|JI|`).
    pub fn index_pages(&self) -> u64 {
        self.ji.leaf_pages()
    }

    /// Pending logged (join-attribute-changing) mutations, `S`'s included.
    pub fn pending_updates(&self) -> u64 {
        self.logs.pending()
    }

    /// Pages of the pending differential logs already spilled to disk
    /// (`|iR| + |dR|` run pages and `S`'s; the buffers hold the rest).
    pub fn pending_log_pages(&self) -> u64 {
        self.logs.pages()
    }

    /// Observe one mutation of `S` *before* it is applied to the stored
    /// relation, as [`JoinStrategy::on_mutation`] does `R`'s, under the
    /// same `Pr_A` filter. The query that folds it probes `R`'s inverted
    /// index on the join attribute.
    pub fn on_s_mutation(&mut self, m: &Mutation) -> Result<()> {
        if !m.affects_join_index() {
            return Ok(());
        }
        let _g = self.cost.section("ji.log_s");
        let (del, ins) = m.sides();
        let per_page = self.params.tuples_per_full_page(self.s_tuple_bytes);
        self.logs.log_s(per_page, del.cloned(), ins.cloned())
    }

    /// Audit the index tree ([`BTree::check_invariants`]; test helper).
    pub fn check_invariants(&self) -> Result<()> {
        self.ji.check_invariants()
    }

    /// The index tree's persisted shape (its free list among it).
    pub fn index_meta(&self) -> BTreeMeta {
        self.ji.meta()
    }

    // === Incremental-migration surface ==================================
    // Mirror of `MaterializedView`'s migration hook: a constructor from
    // already-known join pairs, so an online strategy switch never
    // rescans the base relations.

    /// Build a join index directly from already-known join pairs — the
    /// receiving end of a migration hand-off. All I/O lands in the
    /// caller's open ledger section.
    pub fn build_from_entries(
        disk: &Disk,
        params: &SystemParams,
        cost: &Cost,
        mut entries: Vec<JiEntry>,
        r_tuple_bytes: usize,
        s_tuple_bytes: usize,
    ) -> Result<Self> {
        entries.sort();
        // Same Figure 1 memory layout as the MV log, but sorted on `r`
        // with no hashing ("since iR and dR are ordered by r, no hashing
        // needs to be done").
        let z = crate::mv::MaterializedView::z_pages(params);
        let per_page = params.tuples_per_full_page(r_tuple_bytes);
        let metrics = disk.metrics();
        let keys = entries.iter().map(|e| (ji_key(e), Vec::new()));
        Ok(JoinIndexStrategy {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            ji: BTree::bulk_load(disk, BTreeConfig::join_index(params), keys)?,
            logs: DiffPair::new(disk, cost, z, per_page, false, r_order),
            r_tuple_bytes,
            s_tuple_bytes,
            writing_back: false,
            c_filtered: metrics.counter_handle("ji.mutations_filtered"),
            c_logged: metrics.counter_handle("ji.mutations_logged"),
            c_emitted: metrics.counter_handle("ji.tuples_emitted"),
        })
    }

    /// Delete the index file and both log files — the superseded side of
    /// a completed migration.
    pub fn destroy(self) {
        self.disk.delete_file(self.ji.file_id());
        self.logs.destroy();
    }

    /// The index's backing file (fault-injection targeting).
    pub fn index_file(&self) -> FileId {
        self.ji.file_id()
    }

    /// Device-fault fallback: the cached index (or a differential run) is
    /// damaged, so answer the query by recomputing `R ⋈ S` directly from
    /// the base relations, validate against the oracle, and rebuild the
    /// index into fresh pages — all charged under the `ji.recover` section.
    fn recover(&mut self, r: &StoredRelation, s: &StoredRelation) -> Result<Vec<ViewTuple>> {
        let who = ("ji", "join-index");
        let (_g, answer) =
            crate::recovery::recompute_join(&self.disk, who, r, s, &ViewDef::full())?;
        let entries = answer.iter().map(|v| JiEntry { r: v.r_sur, s: v.s_sur }).collect();
        // Rebuild into a fresh file; the damaged one is abandoned (a fresh
        // file carries no torn/poisoned marks) — and with it the pending
        // differentials: the recomputation already reflects every logged
        // mutation (the base relations do).
        let (rb, sb) = (self.r_tuple_bytes, self.s_tuple_bytes);
        let fresh =
            Self::build_from_entries(&self.disk, &self.params, &self.cost, entries, rb, sb)?;
        std::mem::replace(self, fresh).destroy();
        Ok(answer)
    }

    /// Point lookup: the S-surrogates joined with R-tuple `r`, one range
    /// read of the clustered tree. Requires a clean index (no deferred
    /// updates pending).
    pub fn partners_of_r(&self, r: Surrogate) -> Result<Vec<Surrogate>> {
        if self.pending_updates() > 0 {
            return Err(Error::Infeasible(format!(
                "{} deferred updates pending; execute() before point lookups",
                self.pending_updates()
            )));
        }
        let _g = self.cost.section("ji.point_lookup");
        let lo = u64::from(r.0) << 32;
        let mut out = Vec::new();
        self.ji.for_each_range(lo, lo | u64::from(u32::MAX), |key, _, _| {
            out.push(ji_entry(key).s);
            true
        })?;
        Ok(out)
    }

    /// The paper's `|JI_k|` (Figure 3): pages of JI processed per pass,
    /// leaving room for the pass's `R` fragment with pointers, its pending
    /// insertions, the memory-resident `iR_k ⋈ S`, the `2·N1` run input
    /// buffers and the `held` input pages of `R`'s read-through, five fixed
    /// buffers, and sort/merge overhead. `iR_k ⋈ S` is
    /// priced as Figure 3 prices it, at `‖S‖·JS = ‖JI‖/‖R‖` partners per
    /// inserted tuple (only an SR share of insertions match at all). The
    /// passes cover `|JI|` leaves, which the write-back keeps packed (see
    /// the module doc), so the pass count is the model's `⌈|JI|/|JI_k|⌉`.
    fn jik_pages(&self, n1: usize, held: u64, r_len: u64) -> usize {
        let m = self.params.mem_pages as f64;
        let avail = m - 2.0 * n1 as f64 - held as f64 - 5.0;
        if avail < 3.0 {
            return 1;
        }
        let p = self.params.page_size as f64;
        let n_ji = self.params.tuples_per_page(JiEntry::BYTES) as f64;
        let total_pages = self.ji.leaf_pages().max(1) as f64;
        let partners = self.ji.len() as f64 / r_len.max(1) as f64;
        let tv = view_tuple_bytes(self.r_tuple_bytes, self.s_tuple_bytes) as f64;
        // The R ⋈ JI_k working area is budgeted per *entry* (one R-tuple
        // slot per JI entry) — the same Figure 3 interpretation the
        // analytical model uses, so engine and model agree on pass counts.
        let rk_per_page = n_ji * self.r_tuple_bytes as f64 / p;
        let ik_pages_per_page = self.logs.ins().pages() as f64 / total_pages;
        let ik_tuples_per_page = self.logs.ins().len() as f64 / total_pages;
        let ikjoin_per_page = ik_tuples_per_page * partners * tv / p;
        let mrg = 2.0 * n1 as f64 * (self.r_tuple_bytes as f64 + self.params.sptr as f64) / p;
        let sort_space = 1.0;
        let mut k = 1usize;
        loop {
            let kf = (k + 1) as f64;
            let need = 1.5 * kf
                + kf * rk_per_page
                + kf * ik_pages_per_page
                + kf * ikjoin_per_page
                + mrg
                + sort_space;
            if need > avail || k + 1 > self.ji.leaf_pages().max(1) as usize {
                return k;
            }
            k += 1;
        }
    }
}

impl JoinStrategy for JoinIndexStrategy {
    fn name(&self) -> &'static str {
        "join-index"
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        // Pr_A filtering: only join-attribute updates affect a join index.
        // Inserts and deletes always do — a new tuple may join, a removed
        // tuple's pairs must go.
        if !m.affects_join_index() {
            self.disk.metrics().incr_id(self.c_filtered);
            return Ok(());
        }
        self.disk.metrics().incr_id(self.c_logged);
        let _g = self.cost.section("ji.log");
        let (del, ins) = m.sides();
        self.logs.log(del.cloned(), ins.cloned())
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // The passes probe `S` by join key, so `S` catches up first; `R`,
        // fetched by surrogate in rising order, reads through its apply log
        // or settles (`StoredRelation::reader`) — outside the passes'
        // sections either way. `iS ⋈ R_now` probes `R` by join key: with
        // `S`'s mutations pending, `R` settles too.
        s.settle()?;
        if self.logs.has_s() {
            r.settle()?;
        }
        let answer = if self.writing_back {
            self.recover(r, s)?
        } else {
            // The reader goes with the passes: recovery settles `R`.
            let reader = r.reader()?;
            crate::recovery::answer_or_recover(
                self,
                |ji, out| {
                    let s_fold = ji.fold_s(r)?;
                    ji.passes_execute(reader, s, s_fold, out)
                },
                |ji| ji.recover(r, s),
            )?
        };
        self.disk.metrics().counter_add_id(self.c_emitted, answer.len() as u64);
        let emitted = answer.len() as u64;
        answer.into_iter().for_each(sink);
        Ok(emitted)
    }
}

impl JoinIndexStrategy {
    /// Net `S`'s differential into memory and join its insertions with the
    /// current `R` through `R`'s inverted index, as pairs in `(r, s)` order.
    fn fold_s(&mut self, r: &StoredRelation) -> Result<SFold<Vec<JiEntry>>> {
        if !self.logs.has_s() {
            return Ok(SFold::default());
        }
        let (mut ins, deleted) =
            self.logs.net_s("ji.read_s_diffs", |a, b| a.sur == b.sur && a.key == b.key)?;
        let _g = self.cost.section("ji.join_is");
        let postings = r.postings(&mut ins, &FxHashSet::default(), &self.cost)?;
        let mut joined: Vec<JiEntry> = (ins.iter())
            .flat_map(|t| {
                postings.get(&t.key).into_iter().flatten().map(|&r| JiEntry { r, s: t.sur })
            })
            .collect();
        self.cost.mov(joined.len() as u64);
        counted_sort_by(&mut joined, |e| (e.r, e.s), &self.cost);
        Ok(SFold { inserted: ins.iter().map(|t| t.sur).collect(), deleted, joined })
    }

    /// The §3.3 pass pipeline (Figure 3), fallible on any injected device
    /// fault; [`JoinStrategy::execute`] wraps it with the recovery
    /// fallback.
    fn passes_execute(
        &mut self,
        mut r: Reader<'_>,
        s: &StoredRelation,
        s_fold: SFold<Vec<JiEntry>>,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        // The Pr_A filter hides payload-only updates from this log, so a
        // logged chain may be interrupted by unlogged states: cancellation
        // must compare (surrogate, join key) — all the index derives pairs
        // from — rather than full bytes.
        let mut net = {
            let _g = self.cost.section("ji.read_diffs");
            self.logs.seal()?;
            self.logs.net(|a, b| a.sur == b.sur && a.key == b.key)?.peekable()
        };
        // One test per deletion set an entry is held against.
        let del_tests = 1 + self.logs.has_s() as u64;
        let mut s_pairs = s_fold.joined.as_slice();
        let (n1, r_len) = (self.logs.runs(), r.len_estimate());
        let jik = self.jik_pages(n1, r.pages_held(), r_len);
        // The passes all of `|M|` would need: the model's `⌈|JI|/|JI_k|⌉`.
        let needed = self.ji.leaf_pages().max(1).div_ceil(self.jik_pages(n1, 0, r_len) as u64);
        let (ios, mut passes_made) = (self.cost.total().ios, 0u64);

        let mut emitted = 0u64;
        // A pass never splits an `r` group.
        let mut passes = self.ji.passes(jik, |key| key >> 32);
        while !passes.is_done() {
            passes_made += 1;
            // ---- read this pass's JI leaves (C2.1) ----------------------
            let (entries, end) = {
                let _g = self.cost.section("ji.read_index");
                let (entries, end) = passes.read()?;
                (entries.iter().map(|(key, _)| ji_entry(*key)).collect::<Vec<_>>(), end)
            };
            // Items with r below the next pass's first group are this one's.
            let r_end = end.unwrap_or(1 << 32);

            // ---- pull this pass's net differentials ---------------------
            let (mut dels, mut inss) = (Vec::new(), Vec::new());
            {
                let _g = self.cost.section("ji.read_diffs");
                // A run read that failed fails the pass (recovery takes
                // over in the execute wrapper).
                let ours = |item: &Result<Net>| match item {
                    Ok(Net::Ins(t) | Net::Del(t)) => u64::from(t.sur.0) < r_end,
                    Err(_) => true,
                };
                while let Some(item) = net.next_if(ours) {
                    match item? {
                        Net::Ins(t) => inss.push(t),
                        Net::Del(t) => dels.push(t),
                    }
                }
            }

            // ---- mark deletions (C2.2) ----------------------------------
            // The pass's share of `iS ⋈ R_now` rides with the survivors:
            // emitted as `S` streams in, and written back.
            let split = s_pairs.partition_point(|e| u64::from(e.r.0) < r_end);
            let survivors = {
                let _g = self.cost.section("ji.mark");
                let del_surs: FxHashSet<Surrogate> = dels.iter().map(|t| t.sur).collect();
                self.cost.comp(entries.len() as u64 * del_tests + dels.len() as u64);
                let dead = |e: &JiEntry| del_surs.contains(&e.r) || s_fold.deleted.contains(&e.s);
                let kept = entries.into_iter().filter(|e| !dead(e)).collect();
                merge_pairs(kept, &s_pairs[..split], &self.cost)
            };
            s_pairs = &s_pairs[split..];

            // ---- join the pass's insertions with S (C3.1) ---------------
            let ins_guard = self.cost.section("ji.join_ins");
            let postings = s.postings(&mut inss, &s_fold.inserted, &self.cost)?;
            let mut posting_surs: Vec<Surrogate> = postings.values().flatten().copied().collect();
            counted_sort_by(&mut posting_surs, |x| x.0, &self.cost);
            let mut s_from_postings: FxHashMap<Surrogate, BaseTuple> = Default::default();
            s.fetch_by_surrogates(&posting_surs, |t| {
                s_from_postings.insert(t.sur, t);
            })?;
            let mut new_pairs: Vec<JiEntry> = Vec::new();
            for t in &inss {
                if let Some(ss) = postings.get(&t.key) {
                    for &sur in ss {
                        self.cost.mov(1); // merge into the result/JI area (C2.3)
                        new_pairs.push(JiEntry { r: t.sur, s: sur });
                    }
                }
            }

            drop(ins_guard);

            // ---- semijoin-fetch the pass's R fragment (C3.2) ------------
            let fetch_r_guard = self.cost.section("ji.fetch_r");
            let mut rs: Vec<Surrogate> = survivors.iter().map(|e| e.r).collect();
            rs.extend(new_pairs.iter().map(|e| e.r));
            rs.sort_unstable();
            rs.dedup();
            let mut rmap: FxHashMap<Surrogate, BaseTuple> = Default::default();
            r.fetch_by_surrogates(&rs, |t| {
                self.cost.mov(1); // move into the R_k area
                rmap.insert(t.sur, t);
            })?;

            drop(fetch_r_guard);

            // ---- sort survivors on s, stream S, emit (C3.3/C3.4) --------
            let fetch_s_guard = self.cost.section("ji.fetch_s");
            // S tuples are *streamed*: survivors sorted by s probe the
            // clustered index in order (Figure 3 reserves only one input
            // page for S), emitting each joined tuple as its S page
            // arrives — no memory-resident S map. fetch_by_surrogates calls
            // back once per probe in probe order, so the k-th callback
            // corresponds to by_s[k] (every surrogate exists in S). The
            // survivors keep their `(r, s)` order for the write-back.
            let mut by_s = survivors.clone();
            self.cost.mov(by_s.len() as u64);
            counted_sort_by(&mut by_s, |e| (e.s, e.r), &self.cost);
            let survivor_s: Vec<Surrogate> = by_s.iter().map(|e| e.s).collect();
            {
                let mut at = 0usize;
                let mut dangling: Option<Error> = None;
                s.fetch_by_surrogates(&survivor_s, |st| {
                    if dangling.is_some() {
                        return;
                    }
                    let e = &by_s[at];
                    at += 1;
                    debug_assert_eq!(st.sur, e.s, "S stream out of lockstep");
                    match rmap.get(&e.r) {
                        Some(rt) => {
                            self.cost.mov(1);
                            sink(ViewTuple::join(rt, &st));
                            emitted += 1;
                        }
                        None => {
                            dangling = Some(Error::Invariant(format!(
                                "JI entry ({}, {}) has no R tuple",
                                e.r, e.s
                            )));
                        }
                    }
                })?;
                if let Some(e) = dangling {
                    return Err(e);
                }
                if at != by_s.len() {
                    return Err(Error::Invariant(format!(
                        "JI entry references missing S tuple (matched {at} of {})",
                        by_s.len()
                    )));
                }
            }
            // Emit the inserted pairs (R side fetched fresh above).
            for e in &new_pairs {
                let rt = rmap.get(&e.r).ok_or_else(|| {
                    Error::Invariant(format!("inserted pair ({}, {}) lost its R tuple", e.r, e.s))
                })?;
                let st = s_from_postings.get(&e.s).ok_or_else(|| {
                    Error::Invariant(format!("inserted pair ({}, {}) lost its S tuple", e.r, e.s))
                })?;
                self.cost.mov(1);
                sink(ViewTuple::join(rt, st));
                emitted += 1;
            }

            drop(fetch_s_guard);

            // ---- land the pass on its leaves (C2.4) ---------------------
            let _wb_guard = self.cost.section("ji.writeback");
            self.writing_back = true;
            counted_sort_by(&mut new_pairs, |e| (e.r, e.s), &self.cost);
            let merged = merge_pairs(survivors, &new_pairs, &self.cost);
            passes.land(merged.iter().map(|e| (ji_key(e), Vec::new())).collect())?;
        }
        {
            let _wb_guard = self.cost.section("ji.writeback");
            passes.finish()?;
        }
        // The passes made beyond those are the held runs' doing: `R`'s log
        // is paid rent for them at the I/O a pass paid, less the run pages
        // read through, which are rent already.
        let paid = self.cost.total().ios - ios - r.pages_read();
        r.pay_rent(passes_made.saturating_sub(needed) * paid / passes_made.max(1));
        debug_assert!(net.peek().is_none(), "net differentials outlived the JI scan");
        debug_assert!(s_pairs.is_empty(), "S-side pairs outlived the JI scan");

        self.logs.restart(r_order);
        self.writing_back = false;
        Ok(emitted)
    }
}
