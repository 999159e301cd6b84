//! Join index with deferred, incremental, on-the-fly maintenance (§3.3).
//!
//! The join index `JI` caches only the surrogate pairs `(r, s)` of joining
//! tuples (Valduriez \[25\]; the paper's Table 4). Because it is a "partially
//! materialized view", only updates that modify the join attribute — a
//! `Pr_A` fraction — are logged, sorted by surrogate `r` (§3.3 step 1).
//!
//! At query time the index is processed in one or more passes of `|JI_k|`
//! pages (Figure 3). Per pass: the pass's pages are read (C2.1); merged net
//! deletions *mark* dead entries (C2.2); the pass's net insertions are
//! sorted on `A`, joined against `S` through the inverted index, and turned
//! into new `(r, s)` pairs (C3.1/C2.3); the pass's `R` fragment is
//! semijoin-fetched through the clustered index (C3.2); surviving entries
//! are sorted on `s` and `S` is fetched through its clustered index to
//! assemble the join output (C3.3/C3.4); finally the pass is written back
//! (C2.4). When its merged entries pack, group-aligned at nominal
//! occupancy, into fewer pages than the pass read, they are repacked and
//! the surplus pages go to an in-memory free list, so `|JI|` stays within
//! a page a pass of `⌈‖JI‖/n_JI⌉` however deletions and splits left it.
//! Otherwise changed pages are written back in place, splitting a page
//! only if its slack (nominal occupancy 0.7 leaves ~30% headroom — the
//! paper assumes no insert group overflows a page) is exhausted; a split
//! takes a free page before it grows the file. A write-back that fails
//! part-way leaves some passes merged under a log that still holds their
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

use std::cell::RefCell;

use trijoin_common::{
    BaseTuple, Cost, CounterId, Error, FxHashMap, FxHashSet, JiEntry, Result, Surrogate,
    SystemParams, ViewTuple,
};
use trijoin_storage::{Disk, FileId, PageId};

use crate::diff::{ji_sort_key, DiffPair, Net, SFold};
use crate::mv::view_tuple_bytes;
use crate::relation::{Reader, StoredRelation};
use crate::sort::counted_sort_by;
use crate::strategy::{JoinStrategy, Mutation};
use crate::viewdef::ViewDef;

// ---------------------------------------------------------------------
// JiFile: the clustered-on-r paged storage of the join index.
// ---------------------------------------------------------------------

/// Page layout: `count:u16` then `count` 8-byte entries, zero padding.
/// Encodes into `out` (cleared first) so hot write paths reuse one buffer.
fn encode_ji_page_into(entries: &[JiEntry], page_size: usize, out: &mut Vec<u8>) {
    debug_assert!(2 + entries.len() * JiEntry::BYTES <= page_size);
    out.clear();
    out.reserve(page_size);
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.to_bytes());
    }
    out.resize(page_size, 0);
}

fn decode_ji_page(bytes: &[u8]) -> Result<Vec<JiEntry>> {
    if bytes.len() < 2 {
        return Err(Error::Corrupt("join-index page truncated".into()));
    }
    let count = u16::from_le_bytes(bytes[0..2].try_into().unwrap()) as usize;
    if 2 + count * JiEntry::BYTES > bytes.len() {
        return Err(Error::Corrupt("join-index page count overflows page".into()));
    }
    (0..count).map(|i| JiEntry::from_bytes(&bytes[2 + i * JiEntry::BYTES..])).collect()
}

#[derive(Debug, Clone, Copy)]
struct JiPageMeta {
    page_no: u32,
    /// `r` of the first entry when last written (stale-but-safe lower bound
    /// for empty pages).
    min_r: u32,
}

/// The join index stored clustered on `r`: a sequence of pages in `r`
/// order, nominally packed at `n_JI = ⌊P·PO/(2·ssur)⌋` entries per page.
pub struct JiFile {
    disk: Disk,
    file: FileId,
    pages: Vec<JiPageMeta>,
    /// Pages a repack dropped from `pages`, reused before the file grows.
    free: Vec<u32>,
    count: u64,
    nominal_cap: usize,
    max_cap: usize,
    /// Reusable page-encoding buffer for the write-back hot path.
    scratch: RefCell<Vec<u8>>,
}

/// Pack sorted entries into pages of at most `nominal` entries, never
/// splitting an `r` group across pages unless the group alone exceeds
/// `max` (pages grow past `nominal` up to `max` to keep a group whole).
/// Group-aligned pages keep the query passes' r-ranges disjoint, so the
/// pass-extension safety net (below) almost never fires.
fn pack_group_aligned(entries: &[JiEntry], nominal: usize, max: usize) -> Vec<Vec<JiEntry>> {
    let mut pages: Vec<Vec<JiEntry>> = Vec::new();
    let mut cur: Vec<JiEntry> = Vec::new();
    for &e in entries {
        let full_at_boundary =
            cur.len() >= nominal && cur.last().map(|l| l.r != e.r).unwrap_or(false);
        let forced = cur.len() >= max;
        if full_at_boundary || forced {
            pages.push(std::mem::take(&mut cur));
        }
        cur.push(e);
    }
    if !cur.is_empty() || pages.is_empty() {
        pages.push(cur);
    }
    pages
}

impl JiFile {
    /// Bulk-build from entries sorted by `(r, s)` (one write I/O per page).
    pub fn build(disk: &Disk, params: &SystemParams, entries: &[JiEntry]) -> Result<Self> {
        debug_assert!(entries.windows(2).all(|w| w[0] <= w[1]), "JI build input unsorted");
        let nominal_cap = params.tuples_per_page(JiEntry::BYTES).max(1);
        let max_cap = (disk.page_size() - 2) / JiEntry::BYTES;
        let mut ji = JiFile {
            disk: disk.clone(),
            file: disk.create_file(),
            pages: Vec::new(),
            free: Vec::new(),
            count: entries.len() as u64,
            nominal_cap,
            max_cap,
            scratch: RefCell::new(Vec::new()),
        };
        let mut buf = Vec::new();
        for chunk in pack_group_aligned(entries, nominal_cap, max_cap) {
            encode_ji_page_into(&chunk, disk.page_size(), &mut buf);
            let pid = match disk.append_page(ji.file, &buf) {
                Ok(pid) => pid,
                Err(e) => {
                    // A caller retrying the build gets a fresh file; don't
                    // leave the half-written one allocated.
                    ji.destroy();
                    return Err(e);
                }
            };
            ji.pages.push(JiPageMeta {
                page_no: pid.page,
                min_r: chunk.first().map(|e| e.r.0).unwrap_or(0),
            });
        }
        Ok(ji)
    }

    /// Entry count (`‖JI‖`).
    pub fn len(&self) -> u64 {
        self.count
    }

    /// The backing file (fault-injection targeting and space accounting).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Release the backing file (used when a damaged index is rebuilt into
    /// a fresh file and the old one is abandoned).
    pub fn destroy(self) {
        self.disk.delete_file(self.file);
    }

    /// True when the index holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Page count (`|JI|`).
    pub fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages of the file that hold no part of the index, awaiting reuse.
    pub fn free_pages(&self) -> &[u32] {
        &self.free
    }

    /// Read page `idx` (one I/O), decoding straight off the borrowed page
    /// view — no intermediate page-byte copy.
    pub fn read_page(&self, idx: usize) -> Result<Vec<JiEntry>> {
        let meta = self.pages.get(idx).ok_or(Error::Invariant("JI page out of range".into()))?;
        self.disk.read_page_with(PageId::new(self.file, meta.page_no), decode_ji_page)
    }

    fn write_page(&mut self, idx: usize, entries: &[JiEntry]) -> Result<()> {
        if entries.len() > self.max_cap {
            return Err(Error::PageOverflow {
                needed: entries.len() * JiEntry::BYTES,
                available: self.max_cap * JiEntry::BYTES,
            });
        }
        let meta = &mut self.pages[idx];
        if let Some(first) = entries.first() {
            meta.min_r = first.r.0;
        }
        let mut buf = self.scratch.borrow_mut();
        encode_ji_page_into(entries, self.disk.page_size(), &mut buf);
        self.disk.write_page(PageId::new(self.file, meta.page_no), &buf)
    }

    /// Link a new page after `idx`, on a free page if there is one.
    fn insert_page_after(&mut self, idx: usize, entries: &[JiEntry]) -> Result<()> {
        let page_no = {
            let mut buf = self.scratch.borrow_mut();
            encode_ji_page_into(entries, self.disk.page_size(), &mut buf);
            match self.free.last() {
                Some(&page) => {
                    self.disk.write_page(PageId::new(self.file, page), &buf)?;
                    self.free.pop();
                    page
                }
                None => self.disk.append_page(self.file, &buf)?.page,
            }
        };
        self.pages.insert(
            idx + 1,
            JiPageMeta { page_no, min_r: entries.first().map(|e| e.r.0).unwrap_or(0) },
        );
        Ok(())
    }

    /// Replace the consecutive pages `old` (from index `first`) by the
    /// fewer pages `chunks`: a chunk is written over the page it replaces
    /// only if it changes it, and the pages left over go to the free list.
    fn repack(
        &mut self,
        first: usize,
        old: &[(usize, Vec<JiEntry>)],
        chunks: &[Vec<JiEntry>],
    ) -> Result<()> {
        debug_assert!(chunks.len() < old.len());
        for (i, chunk) in chunks.iter().enumerate() {
            if *chunk != old[i].1 {
                self.write_page(first + i, chunk)?;
            }
        }
        let surplus = self.pages.drain(first + chunks.len()..first + old.len());
        self.free.extend(surplus.map(|m| m.page_no));
        Ok(())
    }

    /// Structural invariants: entries globally sorted, count consistent,
    /// no page over capacity, every page of the file either in the index
    /// or free, never both (test helper; free reads).
    pub fn check_invariants(&self) -> Result<()> {
        let mut owner = vec![false; self.disk.num_pages(self.file)? as usize];
        for page in self.pages.iter().map(|m| m.page_no).chain(self.free.iter().copied()) {
            match owner.get_mut(page as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => {
                    return Err(Error::Invariant(format!("JI page {page} listed twice or absent")))
                }
            }
        }
        if owner.contains(&false) {
            return Err(Error::Invariant("JI file holds a page neither used nor free".into()));
        }
        let mut count = 0u64;
        let mut last: Option<JiEntry> = None;
        for meta in &self.pages {
            let entries =
                decode_ji_page(&self.disk.read_page_free(PageId::new(self.file, meta.page_no))?)?;
            if entries.len() > self.max_cap {
                return Err(Error::Invariant("JI page over capacity".into()));
            }
            for e in entries {
                if let Some(prev) = last {
                    if prev > e {
                        return Err(Error::Invariant(format!(
                            "JI entries out of order at ({}, {})",
                            e.r, e.s
                        )));
                    }
                }
                last = Some(e);
                count += 1;
            }
        }
        if count != self.count {
            return Err(Error::Invariant(format!(
                "JI count mismatch: stored {count}, tracked {}",
                self.count
            )));
        }
        Ok(())
    }
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
    ji: JiFile,
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

    /// Index pages (`|JI|`).
    pub fn index_pages(&self) -> u64 {
        self.ji.num_pages()
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

    /// Immutable access to the underlying index file (inspection/tests).
    pub fn index(&self) -> &JiFile {
        &self.ji
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
        Ok(JoinIndexStrategy {
            disk: disk.clone(),
            params: params.clone(),
            cost: cost.clone(),
            ji: JiFile::build(disk, params, &entries)?,
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
        self.ji.destroy();
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

    /// Point lookup: the S-surrogates joined with R-tuple `r`, straight
    /// from the clustered index pages (binary search over the in-memory
    /// page directory, then 1-2 page reads). Requires a clean index (no
    /// deferred updates pending).
    pub fn partners_of_r(&self, r: Surrogate) -> Result<Vec<Surrogate>> {
        if self.pending_updates() > 0 {
            return Err(Error::Infeasible(format!(
                "{} deferred updates pending; execute() before point lookups",
                self.pending_updates()
            )));
        }
        let _g = self.cost.section("ji.point_lookup");
        if self.ji.pages.is_empty() {
            return Ok(Vec::new());
        }
        // First page of r's group: the first page with min_r == r when the
        // group is page-aligned, else the last page with min_r < r (the
        // group sits inside it).
        let first_ge = self.ji.pages.partition_point(|m| m.min_r < r.0);
        let mut idx = if self.ji.pages.get(first_ge).map(|m| m.min_r == r.0).unwrap_or(false) {
            first_ge
        } else {
            first_ge.saturating_sub(1)
        };
        self.cost.comp((self.ji.pages.len().max(2)).ilog2() as u64 + 1);
        let mut out = Vec::new();
        // A group is page-aligned except when it alone exceeds a page:
        // walk forward while pages can still contain r.
        while idx < self.ji.pages.len() {
            let entries = self.ji.read_page(idx)?;
            self.cost.comp(entries.len() as u64);
            let mut beyond = false;
            for e in &entries {
                match e.r.cmp(&r) {
                    std::cmp::Ordering::Equal => out.push(e.s),
                    std::cmp::Ordering::Greater => {
                        beyond = true;
                        break;
                    }
                    std::cmp::Ordering::Less => {}
                }
            }
            if beyond || entries.last().map(|e| e.r > r).unwrap_or(false) {
                break;
            }
            idx += 1;
            if self.ji.pages.get(idx).map(|m| m.min_r > r.0).unwrap_or(true) {
                break;
            }
        }
        Ok(out)
    }

    /// The paper's `|JI_k|` (Figure 3): pages of JI processed per pass,
    /// leaving room for the pass's `R` fragment with pointers, its pending
    /// insertions, the memory-resident `iR_k ⋈ S`, the `2·N1` run input
    /// buffers and the `held` input pages of `R`'s read-through, five fixed
    /// buffers, and sort/merge overhead. `iR_k ⋈ S` is
    /// priced as Figure 3 prices it, at `‖S‖·JS = ‖JI‖/‖R‖` partners per
    /// inserted tuple (only an SR share of insertions match at all). The
    /// passes cover `|JI|` pages, which the write-back keeps packed (see
    /// the module doc), so the pass count is the model's `⌈|JI|/|JI_k|⌉`.
    fn jik_pages(&self, n1: usize, held: u64, r_len: u64) -> usize {
        let m = self.params.mem_pages as f64;
        let avail = m - 2.0 * n1 as f64 - held as f64 - 5.0;
        if avail < 3.0 {
            return 1;
        }
        let p = self.params.page_size as f64;
        let n_ji = self.params.tuples_per_page(JiEntry::BYTES) as f64;
        let total_pages = self.ji.num_pages().max(1) as f64;
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
            if need > avail || k + 1 > self.ji.num_pages().max(1) as usize {
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
        self.logs.seal()?;
        // One test per deletion set an entry is held against.
        let del_tests = 1 + self.logs.has_s() as u64;
        let mut s_pairs = s_fold.joined.as_slice();
        let jik = self.jik_pages(self.logs.runs(), r.pages_held(), r.len_estimate());

        // The Pr_A filter hides payload-only updates from this log, so a
        // logged chain may be interrupted by unlogged states: cancellation
        // must compare (surrogate, join key) — all the index derives pairs
        // from — rather than full bytes.
        let mut net = {
            let _g = self.cost.section("ji.read_diffs");
            self.logs.net(|a, b| a.sur == b.sur && a.key == b.key)?.peekable()
        };

        let mut emitted = 0u64;
        let mut new_count = 0u64;
        let mut pass_start = 0usize;

        while pass_start < self.ji.pages.len() {
            // ---- read this pass's JI pages (C2.1) -----------------------
            let read_guard = self.cost.section("ji.read_index");
            let mut pass_end = (pass_start + jik).min(self.ji.pages.len());
            let mut pages: Vec<(usize, Vec<JiEntry>)> = Vec::new();
            for idx in pass_start..pass_end {
                pages.push((idx, self.ji.read_page(idx)?));
            }
            // Extend the pass so an `r` group never straddles a pass
            // boundary (deletion marking must see the whole group).
            let mut last_r = pages.iter().rev().find_map(|(_, e)| e.last()).map(|e| e.r.0);
            while pass_end < self.ji.pages.len()
                && last_r.is_some()
                && self.ji.pages[pass_end].min_r <= last_r.unwrap()
            {
                let entries = self.ji.read_page(pass_end)?;
                if let Some(e) = entries.last() {
                    last_r = Some(e.r.0.max(last_r.unwrap()));
                }
                pages.push((pass_end, entries));
                pass_end += 1;
            }
            drop(read_guard);
            let final_pass = pass_end == self.ji.pages.len();
            // Items with r < the next pass's min_r belong to this pass.
            let r_hi: u64 = if final_pass {
                u64::from(u32::MAX)
            } else {
                u64::from(self.ji.pages[pass_end].min_r).saturating_sub(1)
            };

            // ---- pull this pass's net differentials ---------------------
            let mut dels: Vec<BaseTuple> = Vec::new();
            let mut inss: Vec<BaseTuple> = Vec::new();
            while let Some(item) = net.peek() {
                let sur = match item {
                    Net::Ins(t) | Net::Del(t) => t.sur.0 as u64,
                };
                if sur > r_hi {
                    break;
                }
                match net.next().unwrap() {
                    Net::Ins(t) => inss.push(t),
                    Net::Del(t) => dels.push(t),
                }
            }
            // A parked run-read error means the differential stream ended
            // early and this pass's sets are incomplete: fail the pass
            // (recovery takes over in the execute wrapper).
            self.logs.stream_error()?;

            // ---- mark deletions (C2.2) ----------------------------------
            let del_surs: FxHashSet<Surrogate> = dels.iter().map(|t| t.sur).collect();
            let entry_total: usize = pages.iter().map(|(_, e)| e.len()).sum();
            self.cost.comp(entry_total as u64 * del_tests + dels.len() as u64);
            let mut survivors: Vec<JiEntry> = Vec::with_capacity(entry_total);
            for (_, entries) in &pages {
                survivors.extend(
                    entries
                        .iter()
                        .filter(|e| !del_surs.contains(&e.r) && !s_fold.deleted.contains(&e.s)),
                );
            }
            // The pass's share of `iS ⋈ R_now` rides with them: emitted as
            // `S` streams in, and written back.
            let split = s_pairs.partition_point(|e| u64::from(e.r.0) <= r_hi);
            survivors.extend_from_slice(&s_pairs[..split]);
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
            // corresponds to survivors[k] (every surrogate exists in S).
            counted_sort_by(&mut survivors, |e| (e.s, e.r), &self.cost);
            let survivor_s: Vec<Surrogate> = survivors.iter().map(|e| e.s).collect();
            {
                let mut at = 0usize;
                let mut stream_err: Option<Error> = None;
                s.fetch_by_surrogates(&survivor_s, |st| {
                    if stream_err.is_some() {
                        return;
                    }
                    let e = &survivors[at];
                    at += 1;
                    debug_assert_eq!(st.sur, e.s, "S stream out of lockstep");
                    match rmap.get(&e.r) {
                        Some(rt) => {
                            self.cost.mov(1);
                            sink(ViewTuple::join(rt, &st));
                            emitted += 1;
                        }
                        None => {
                            stream_err = Some(Error::Invariant(format!(
                                "JI entry ({}, {}) has no R tuple",
                                e.r, e.s
                            )));
                        }
                    }
                })?;
                if let Some(e) = stream_err {
                    return Err(e);
                }
                if at != survivors.len() {
                    return Err(Error::Invariant(format!(
                        "JI entry references missing S tuple (matched {at} of {})",
                        survivors.len()
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

            // ---- write back changed JI pages (C2.4) ---------------------
            let _wb_guard = self.cost.section("ji.writeback");
            self.writing_back = true;
            let mut merged: Vec<JiEntry> = survivors;
            merged.extend(new_pairs.iter().copied());
            counted_sort_by(&mut merged, |e| (e.r, e.s), &self.cost);
            new_count += merged.len() as u64;

            // Repack when that frees a page (the pass's r-range holds
            // nothing beyond `merged`, so its boundaries may move) ...
            let packed = pack_group_aligned(&merged, self.ji.nominal_cap, self.ji.max_cap);
            if packed.len() < pages.len() {
                self.ji.repack(pass_start, &pages, &packed)?;
                pass_start += packed.len();
                continue;
            }
            // ... else redistribute by the pass pages' r-boundaries.
            let mut inserted_pages = 0usize;
            let n_pass_pages = pages.len();
            let mut cursor = 0usize;
            for (i, (orig_idx, old_entries)) in pages.iter().enumerate() {
                let upper: Option<u32> =
                    pages.get(i + 1).map(|(idx, _)| self.ji.pages[idx + inserted_pages].min_r);
                let end = match upper {
                    Some(bound) => merged[cursor..].partition_point(|e| e.r.0 < bound) + cursor,
                    None => merged.len(),
                };
                let slice = &merged[cursor..end];
                cursor = end;
                let idx_now = orig_idx + inserted_pages;
                if slice.len() <= self.ji.max_cap {
                    if slice != old_entries.as_slice() {
                        self.ji.write_page(idx_now, slice)?;
                    }
                } else {
                    // Page overflow: repack this range at nominal occupancy,
                    // keeping r groups page-aligned.
                    let chunks = pack_group_aligned(slice, self.ji.nominal_cap, self.ji.max_cap);
                    self.ji.write_page(idx_now, &chunks[0])?;
                    for (j, chunk) in chunks[1..].iter().enumerate() {
                        self.ji.insert_page_after(idx_now + j, chunk)?;
                        inserted_pages += 1;
                    }
                }
            }
            debug_assert_eq!(cursor, merged.len(), "JI redistribution lost entries");
            pass_start = pass_start + n_pass_pages + inserted_pages;
        }
        debug_assert!(net.peek().is_none(), "net differentials outlived the JI scan");
        debug_assert!(s_pairs.is_empty(), "S-side pairs outlived the JI scan");

        self.ji.count = new_count;
        self.logs.restart(r_order);
        self.writing_back = false;
        Ok(emitted)
    }
}
