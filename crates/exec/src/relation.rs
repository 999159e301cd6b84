//! Stored base relations, organized per Table 5 of the paper.
//!
//! A [`StoredRelation`] is a clustered B⁺-tree on the surrogate (leaves hold
//! full tuples at `n_R = ⌊P·PO/T_R⌋` per page) plus, optionally, a
//! non-clustered ("inverted") B⁺-tree on the join attribute whose leaf
//! values are surrogates. Relation `S` carries the inverted index from the
//! start; relation `R` gains one at the first mutation of `S`
//! ([`StoredRelation::build_inverted`]), when the cached structures begin
//! to join `S`'s insertions with it.
//!
//! # Mutations are deferred
//!
//! The paper prices every multi-record access as a *scheduled* one: sort
//! the keys, touch each page once. A relation changes the same way. The
//! mutators ([`StoredRelation::apply_update`], `insert`, `delete`) only
//! append to the relation's **apply log**; [`StoredRelation::settle`]
//! applies the whole log as one sweep in surrogate order
//! ([`BTree::apply_sorted`]), reading each page of the clustered tree at
//! most once and writing each changed leaf once, and then pays the inverted
//! tree what the landed changes owe it, as a second sweep in (join key,
//! surrogate) order, all under a `base.settle` span of the relation's own.
//! A relation settles when its log is full, when `Database` asks (a report,
//! a commit in memory), and for the readers that need its trees caught up
//! (`get`, `probe_inverted`, `len`, the shape statistics). A durable commit
//! does not settle: it *seals* the log ([`StoredRelation::seal`]), spilling
//! the buffer as one more run, and the catalog names the runs
//! ([`StoredRelation::catalog_json`]), so a reopened relation has the log
//! it committed. Scans and batched fetches need not settle either: a
//! [`Reader`] merges the log, already in surrogate order, into what it
//! reads from the clustered tree, netting each surrogate's operations
//! against the stored tuple by the sweep's own rule
//! ([`trijoin_btree::net_chain`]), under a `base.read_through` span. A
//! scan merges every run, holding an input page per run, and reads every
//! run page. A fetch reads the runs one at a time, in the order they
//! spilled, then the buffer: it seeks each run to each surrogate it asks
//! for by the run's surrogate column — every record's surrogate, sliced by
//! page, noted as the run spills (read back off the run when a reopened
//! relation adopts it), held in memory with the buffer and counted in the
//! log's bound — and reads only the pages that hold one
//! (`base.read_through.pages`), one at a time, passing the rest over
//! unread (`base.read_through.skipped`), as Yao prices a batched fetch. A
//! reader settles instead when the log is frozen, or once the rent readers
//! have paid since the log's last settle reaches `2·min(leaf pages,
//! queued)`, the most that settle could now read and write: rent, then
//! buy. The rent is the run pages they read through the log, plus what the
//! `|M|` a scan's held runs took cost the strategy that scanned
//! ([`Reader::pay_rent`], `base.read_through.rent`). Renting until the rent
//! reaches the price and then buying pays at most twice what a settle
//! timed by hindsight would. The sweep's cost is concave in the keys it
//! nets, so a log left to grow across epochs is swept for far less than
//! the epochs one by one. Statistics do not count as reads
//! ([`StoredRelation::len_estimate`]).
//!
//! The log is bounded by space: [`APPLY_LOG_PAGES`] pages of records and
//! the runs' columns in memory, spilled — through the differential log's
//! run writer and merge, [`crate::diff::DiffLog`] — as surrogate-sorted
//! runs, and a settle forced where the run pages would pass three quarters
//! of the relation's leaf pages; never before [`APPLY_LOG_RUNS`] runs,
//! never more runs than `|M|` has pages to merge with their columns
//! ([`StoredRelation::apply_log_bound_pages`]). Once a log touches every
//! leaf its settle costs no more for being longer, so a longer log costs
//! only what it holds: run pages on the device, and the `|M|` a scan's
//! input page per run takes from hybrid hash, which the rent charges (a
//! fetch holds one run page). Three quarters, not all: on the cycle shape
//! (`‖R‖` = 40 000, `|M|` = 200) the settle then holds 196 pages — buffer,
//! an input page per run, columns, path — where a log of all the leaves
//! would hold more than `|M|`, and the join index gains nothing past it.
//! Operations
//! on one surrogate keep submission order; the sweep nets them against the
//! stored tuple, so the last update wins and x → y → x writes nothing. A
//! spill is charged under a `base.spill` span: everything a relation
//! charges is under a `base.*` span of its own.
//!
//! What the tree refuses at the sweep (unknown surrogate, reused
//! surrogate) is dropped and counted ([`StoredRelation::rejected_ops`],
//! `base.settle.rejected`); the rest of the sweep lands. A device fault
//! ends the settle with an error and the un-applied suffix still queued:
//! the next settle (or mutator call, which settles first) resumes there. A
//! run page that will not read is an `Err` in the merged log, as in every
//! differential stream ([`crate::diff`]): the settle stops at it, a
//! reader's scan or fetch returns it.

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use trijoin_btree::{BTree, BTreeConfig, BTreeMeta, SweepOp, SweepStats};
use trijoin_common::{
    BaseTuple, Cost, Error, FxHashSet, Json, OpCounts, Result, Surrogate, SystemParams,
};
use trijoin_storage::{Disk, FileId, SlottedPage};

use crate::batch::TupleRef;
use crate::sort::counted_sort_by;
use crate::strategy::Mutation;

mod log;
mod reader;

use log::{log_stream, parts, ApplyLog, Kind, Pending, Posting};
pub use reader::Reader;

/// Pages of memory the apply log buffers mutations in before it spills
/// them as a sorted run.
pub const APPLY_LOG_PAGES: usize = 16;

/// However small the relation, its apply log holds this many runs before
/// it settles of its own accord; a large one holds more, up to three
/// quarters of its leaf pages ([`StoredRelation::apply_log_bound_pages`]).
pub const APPLY_LOG_RUNS: usize = 16;

/// Pages that `entries` entries of the runs' surrogate columns fill in
/// memory, 4 bytes each, counted whole.
pub fn column_pages(entries: u64, page_size: usize) -> u64 {
    (entries * std::mem::size_of::<Surrogate>() as u64).div_ceil(page_size as u64)
}

/// The pages the surrogate columns of `runs` full runs fill, at `per_page`
/// records a run page: a surrogate for each record and a slice start for
/// each page ([`column_pages`]).
fn full_column_pages(runs: usize, per_page: usize, page_size: usize) -> u64 {
    column_pages((runs * APPLY_LOG_PAGES * (per_page + 1)) as u64, page_size)
}

/// The pages an apply log at its floor of [`APPLY_LOG_RUNS`] runs may hold
/// over a clustered tree `height` levels high: its buffer, a page for each
/// run, the runs' surrogate columns and the sweep's path with its second
/// leaf. The columns are priced at the most records a run page can hold
/// (tuples with no payload), so the floor holds whatever the tuples' width.
pub fn apply_log_floor_pages(height: usize, page_size: usize) -> u64 {
    let densest =
        SlottedPage::records_per_page(page_size, BaseTuple::HEADER_BYTES + Pending::TRAILER);
    (APPLY_LOG_PAGES + APPLY_LOG_RUNS + height + 1) as u64
        + full_column_pages(APPLY_LOG_RUNS, densest, page_size)
}

/// Serialize one tree's [`BTreeMeta`] as a catalog object.
fn tree_json(meta: &BTreeMeta) -> Json {
    Json::obj()
        .set("file", meta.file as u64)
        .set("root_page", meta.root_page as u64)
        .set("height", meta.height as u64)
        .set("entries", meta.entries)
        .set("leaves", meta.leaves)
        .set("pages", meta.pages as u64)
        .set("free_head", meta.free_head.map_or(Json::Null, |page| Json::from(page as u64)))
        .set("free_pages", meta.free_pages as u64)
}

/// Decode one tree's catalog object back into a [`BTreeMeta`].
fn tree_meta(j: &Json) -> Result<BTreeMeta> {
    let field = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Corrupt(format!("catalog tree entry missing field {k}")))
    };
    let page = |k: &str| {
        u32::try_from(field(k)?)
            .map_err(|_| Error::Corrupt(format!("catalog tree entry field {k} out of range")))
    };
    Ok(BTreeMeta {
        file: page("file")?,
        root_page: page("root_page")?,
        height: field("height")? as usize,
        entries: field("entries")?,
        leaves: field("leaves")?,
        pages: page("pages")?,
        free_head: match j.get("free_head") {
            Some(Json::Null) => None,
            _ => Some(page("free_head")?),
        },
        free_pages: page("free_pages")?,
    })
}

/// What one [`StoredRelation::settle`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SettleStats {
    /// Queued mutations the sweep consumed.
    pub ops: u64,
    /// Distinct surrogates among them. The sweep nets the operations on
    /// one surrogate, so this is what it touches — and what the model
    /// prices: a log that spans epochs repeats surrogates.
    pub keys: u64,
    /// Those the trees refused (unknown or reused surrogate; a posting the
    /// inverted tree did not hold).
    pub rejected: u64,
    /// Leaf pages written, both trees together.
    pub leaves_written: u64,
    /// What the settle charged the ledger, all of it under `base.settle`.
    pub charged: OpCounts,
    /// The clustered tree's leaf pages once swept: the model's `m`.
    pub leaf_pages: u64,
    /// Its tuples once swept: the model's `n`.
    pub tuples: u64,
}

impl SettleStats {
    /// Fold a later settle of the same relation into this one.
    fn absorb(&mut self, later: &SettleStats) {
        self.ops += later.ops;
        self.keys += later.keys;
        self.rejected += later.rejected;
        self.leaves_written += later.leaves_written;
        self.charged.add(&later.charged);
        (self.leaf_pages, self.tuples) = (later.leaf_pages, later.tuples);
    }
}

/// The trees and what is queued for them, behind one `RefCell`: readers
/// take `&self`, settle or not, and hold the state shared while they read.
struct State {
    clustered: BTree,
    inverted: Option<BTree>,
    count: u64,
    log: ApplyLog,
}

/// The join key of a serialized tuple.
fn join_key_of(tuple_bytes: &[u8]) -> Option<u64> {
    BaseTuple::parts_from_bytes(tuple_bytes).ok().map(|(_, key, _)| key)
}

/// Sweep the postings owed into the inverted tree; what lands is dropped
/// from the list, what does not stays owed.
fn pay_postings(
    inverted: &mut Option<BTree>,
    postings: &mut Vec<Posting>,
    disk: &Disk,
    done: &mut SettleStats,
) -> Result<()> {
    let Some(inverted) = inverted.as_mut().filter(|_| !postings.is_empty()) else {
        return Ok(());
    };
    counted_sort_by(postings, |p| (p.key, p.sur), disk.cost());
    let ops = postings.iter().map(|p| {
        let sur = p.sur.to_le_bytes().to_vec();
        (p.key, if p.add { SweepOp::Insert(sur) } else { SweepOp::Remove(Some(sur)) })
    });
    let mut stats = SweepStats::default();
    let result = inverted.apply_sorted(ops, false, &mut stats, &mut |_, _, _| {});
    postings.drain(..stats.landed as usize);
    done.rejected += stats.rejected;
    done.leaves_written += stats.leaves_written;
    result
}

impl State {
    fn trees(&self) -> impl Iterator<Item = &BTree> + '_ {
        std::iter::once(&self.clustered).chain(&self.inverted)
    }

    /// The pages a log of `runs` full runs holds at its settle: buffer, an
    /// input page a run, the runs' columns and the sweep's path.
    fn held_pages(&self, runs: usize) -> u64 {
        let column = full_column_pages(runs, self.log.per_page, self.log.page_size);
        (APPLY_LOG_PAGES + runs + self.clustered.sweep_pages()) as u64 + column
    }

    /// Runs the log may hold: as many as fill three quarters of the leaf
    /// pages, at least [`APPLY_LOG_RUNS`], at most as many as `|M|` can
    /// merge with their columns beside the buffer and the sweep's path.
    fn run_bound(&self) -> usize {
        let space = self.clustered.leaf_pages() as usize * 3 / 4 / APPLY_LOG_PAGES;
        let mem = self.log.mem_pages;
        let mut runs =
            space.min(mem.saturating_sub(APPLY_LOG_PAGES + self.clustered.sweep_pages()));
        while runs > APPLY_LOG_RUNS && self.held_pages(runs) > mem as u64 {
            runs -= 1;
        }
        APPLY_LOG_RUNS.max(runs)
    }

    /// [`StoredRelation::apply_log_bound_pages`].
    fn bound_pages(&self) -> u64 {
        let now = self.held_pages(self.run_bound());
        let (mem, page_size) = (self.log.mem_pages as u64, self.log.page_size);
        debug_assert!(
            now <= mem || mem < apply_log_floor_pages(self.clustered.height(), page_size),
            "an apply log bound of {now} pages with |M| = {mem} at or above its floor"
        );
        self.log.bound_pages.max(now)
    }

    /// Apply everything queued (module docs). On `Err` the log keeps what
    /// did not land and `done` says what did.
    fn settle(&mut self, disk: &Disk, done: &mut SettleStats) -> Result<()> {
        pay_postings(&mut self.inverted, &mut self.log.postings, disk, done)?;
        if self.log.queued == 0 {
            debug_assert!(self.log.resume.is_none() && self.log.buffer.is_empty());
            return Ok(());
        }
        let cost = disk.cost();
        if self.log.resume.is_none() {
            // A hand-off that a write fault cut short left records in the
            // run writer's buffer: they become a (short) run now.
            self.log.runs.spill()?;
            self.log.sort_buffer(cost);
            self.log.bound_pages = self.bound_pages();
            let log = &self.log;
            let held = log.buffer_pages() + log.runs.num_runs() + log.column_pages();
            log.hold(held + self.clustered.sweep_pages());
        }
        let skip = self.log.resume.unwrap_or(0);
        // From here on the log is frozen: its merged order is what `skip`
        // counts in, until a settle gets through.
        self.log.resume = Some(skip);
        let State { clustered, inverted, count, log } = &mut *self;
        let ApplyLog { buffer, runs, postings, cap, net_inserts, .. } = log;
        let (keys, last_key) = (Cell::new(0u64), Cell::new(None));
        // The stream ends for good at its first error, before the landed
        // prefix is skipped: a skip over an error, or a pull past it, would
        // hand the sweep the rest of the log short of a run.
        let mut failed = None;
        let mut ops = log_stream(runs, buffer, cost)?
            .map(|r| r.and_then(Pending::from_record))
            .map_while(|p| p.map_err(|e| failed = Some(e)).ok())
            .fuse()
            .skip(skip as usize)
            .map(|p| (p.tuple.sur.0 as u64, p.op()))
            .inspect(|(key, _)| {
                if last_key.replace(Some(*key)) != Some(*key) {
                    keys.set(keys.get() + 1);
                }
            })
            .peekable();
        // A relation with an inverted tree is swept a buffer's worth of
        // operations at a time and the inverted tree paid in between, so
        // what it is owed never outgrows the log's own buffer.
        let owes = inverted.is_some();
        let slice = if owes { *cap } else { usize::MAX };
        let (mut landed, mut result) = (0u64, Ok(()));
        while result.is_ok() && ops.peek().is_some() {
            let mut on_change = |key: u64, before: Option<&[u8]>, after: Option<&[u8]>| {
                let grown = after.is_some() as i64 - before.is_some() as i64;
                *count = count.wrapping_add_signed(grown);
                *net_inserts -= grown;
                if !owes {
                    return;
                }
                let (was, is) = (before.and_then(join_key_of), after.and_then(join_key_of));
                if was != is {
                    let sur = key as u32;
                    postings.extend(was.map(|key| Posting { key, sur, add: false }));
                    postings.extend(is.map(|key| Posting { key, sur, add: true }));
                }
            };
            let mut stats = SweepStats::default();
            result =
                clustered.apply_sorted(ops.by_ref().take(slice), true, &mut stats, &mut on_change);
            landed += stats.landed;
            done.ops += stats.landed;
            done.rejected += stats.rejected;
            done.leaves_written += stats.leaves_written;
            if result.is_ok() {
                result = pay_postings(inverted, postings, disk, done);
            }
        }
        drop(ops);
        done.keys += keys.get();
        if result.is_ok() {
            result = failed.map_or(Ok(()), Err);
        }
        let log = &mut self.log;
        log.queued -= landed;
        if log.queued > 0 {
            debug_assert!(result.is_err(), "a settle that got through leaves nothing queued");
            log.resume = Some(skip + landed);
            return result;
        }
        // Every record is in the clustered tree, so the log starts over —
        // also when the last payment to the inverted tree failed: what is
        // still owed is in `postings`, not in the records.
        Rc::make_mut(&mut log.buffer).clear();
        log.runs.restart();
        log.rent.set(0);
        (log.seq, log.resume, log.net_inserts) = (0, None, 0);
        result
    }

    /// Tuples in the trees plus queued inserts less queued deletes
    /// ([`StoredRelation::len_estimate`]).
    fn len_estimate(&self) -> u64 {
        self.count.saturating_add_signed(self.log.net_inserts)
    }

    /// Whether a reader should read through the log rather than settle it
    /// (module docs): something is queued, the log is not frozen, and
    /// readers have paid less rent on it since it last settled (run pages
    /// read through it, and `|M|` rent) than a settle would now read and
    /// write.
    fn read_through_pays(&self) -> bool {
        let log = &self.log;
        let settle_pages = 2 * self.clustered.leaf_pages().min(log.queued);
        log.queued > 0
            && log.resume.is_none()
            && log.runs.buffered() == 0
            && log.rent.get() < settle_pages
    }
}

/// A base relation stored per Table 5.
pub struct StoredRelation {
    name: String,
    tuple_bytes: usize,
    disk: Disk,
    state: RefCell<State>,
}

impl StoredRelation {
    fn assemble(
        disk: &Disk,
        params: &SystemParams,
        name: String,
        tuple_bytes: usize,
        count: u64,
        clustered: BTree,
        inverted: Option<BTree>,
    ) -> Self {
        let log = ApplyLog::new(disk, params, tuple_bytes);
        let state = RefCell::new(State { clustered, inverted, count, log });
        StoredRelation { name, tuple_bytes, disk: disk.clone(), state }
    }

    /// Build a relation from tuples (any order). One write I/O per page of
    /// each index; callers typically reset the cost ledger after setup, as
    /// the paper does not price initial loading.
    pub fn build(
        disk: &Disk,
        params: &SystemParams,
        name: &str,
        mut tuples: Vec<BaseTuple>,
        with_inverted: bool,
    ) -> Result<Self> {
        let tuple_bytes = tuples.first().map(|t| t.serialized_len()).unwrap_or(64);
        if let Some(bad) = tuples.iter().find(|t| t.serialized_len() != tuple_bytes) {
            return Err(Error::Invariant(format!(
                "relation {name}: mixed tuple sizes ({} vs {})",
                bad.serialized_len(),
                tuple_bytes
            )));
        }
        tuples.sort_by_key(|t| t.sur);
        if tuples.windows(2).any(|w| w[0].sur == w[1].sur) {
            return Err(Error::Invariant(format!("relation {name}: duplicate surrogate")));
        }
        let count = tuples.len() as u64;
        // The inverted index's entries first, so the clustered load can
        // consume the tuples as it writes them.
        let inverted_entries = with_inverted.then(|| {
            let mut entries: Vec<(u64, Vec<u8>)> =
                tuples.iter().map(|t| (t.key, t.sur.0.to_le_bytes().to_vec())).collect();
            entries.sort();
            entries
        });
        let clustered = BTree::bulk_load(
            disk,
            BTreeConfig::clustered(params, tuple_bytes),
            tuples.into_iter().map(|t| (t.sur.0 as u64, t.to_bytes())),
        )?;
        let inverted = match inverted_entries {
            Some(entries) => Some(BTree::bulk_load(disk, BTreeConfig::inverted(params), entries)?),
            None => None,
        };
        Ok(Self::assemble(disk, params, name.to_string(), tuple_bytes, count, clustered, inverted))
    }

    /// Serialize this relation's catalog entry: name, tuple shape, count,
    /// the persisted shape of each index tree and, while anything is
    /// queued, the apply log. Together with the pages already on the
    /// durable backend this is everything [`StoredRelation::open`] needs
    /// after a restart. Seals the log first ([`StoredRelation::seal`]): a
    /// catalog names run files, never records in memory.
    pub fn catalog_json(&self) -> Result<Json> {
        self.seal()?;
        let st = self.state.borrow();
        let mut j = Json::obj()
            .set("name", self.name.as_str())
            .set("tuple_bytes", self.tuple_bytes)
            .set("count", st.count)
            .set("clustered", tree_json(&st.clustered.meta()));
        if let Some(inv) = &st.inverted {
            j = j.set("inverted", tree_json(&inv.meta()));
        }
        if st.log.queued > 0 {
            j = j.set("log", st.log.to_json());
        }
        Ok(j)
    }

    /// Reattach to a persisted relation from its catalog entry, its apply
    /// log included. Free of I/O charge but for the apply log's runs, each
    /// read once under `base.reopen` to rebuild its surrogate column (only
    /// the memory-resident roots are reloaded); tuple pages are read
    /// lazily, charged, on first access as usual.
    pub fn open(disk: &Disk, params: &SystemParams, j: &Json) -> Result<Self> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::Corrupt("catalog relation missing name".into()))?
            .to_string();
        let tuple_bytes = j
            .get("tuple_bytes")
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Corrupt(format!("catalog {name}: missing tuple_bytes")))?
            as usize;
        let count = j
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| Error::Corrupt(format!("catalog {name}: missing count")))?;
        let clustered_meta = tree_meta(
            j.get("clustered")
                .ok_or_else(|| Error::Corrupt(format!("catalog {name}: missing clustered")))?,
        )?;
        let clustered =
            BTree::open(disk, BTreeConfig::clustered(params, tuple_bytes), &clustered_meta)?;
        let inverted = match j.get("inverted") {
            Some(inv) => Some(BTree::open(disk, BTreeConfig::inverted(params), &tree_meta(inv)?)?),
            None => None,
        };
        let mut rel = Self::assemble(disk, params, name, tuple_bytes, count, clustered, inverted);
        if let Some(log) = j.get("log") {
            rel.state.get_mut().log.reopen(log, disk.cost())?;
        }
        Ok(rel)
    }

    // ---- the apply log --------------------------------------------------

    /// Apply every queued mutation to the trees, as one sweep in surrogate
    /// order under the span `base.settle` (module docs). With nothing
    /// queued it does nothing, not even open the span. On a device fault
    /// what landed stays landed, the rest stays queued, and the next
    /// settle resumes.
    pub fn settle(&self) -> Result<SettleStats> {
        // A reader of this relation further up the stack holds the state:
        // it settled first or reads through the log, and the settle waits
        // for a caller that does not (readers that need the trees caught
        // up check, [`StoredRelation::settled`]).
        let Ok(mut st) = self.state.try_borrow_mut() else { return Ok(SettleStats::default()) };
        if st.log.queued == 0 && st.log.postings.is_empty() {
            return Ok(SettleStats::default());
        }
        let (cost, mut done) = (self.disk.cost(), SettleStats::default());
        let start = cost.total();
        let result = {
            let _span = cost.section("base.settle");
            st.settle(&self.disk, &mut done)
        };
        if done != SettleStats::default() {
            let (metrics, log) = (self.disk.metrics(), &mut st.log);
            log.rejected += done.rejected;
            metrics.incr_id(log.c_settles);
            metrics.counter_add_id(log.c_ops, done.ops);
            metrics.counter_add_id(log.c_rejected, done.rejected);
            metrics.counter_add_id(log.c_leaves, done.leaves_written);
        }
        done.charged = cost.total().delta_since(&start);
        (done.leaf_pages, done.tuples) = (st.clustered.leaf_pages(), st.count);
        st.log.unreported.absorb(&done);
        result.map(|()| done)
    }

    /// Seal the apply log for a commit: its buffer spills as one more
    /// surrogate-sorted run, under `base.spill`, so that everything queued
    /// is in run files a catalog can name. A log frozen by a settle that
    /// failed part-way, postings still owed to the inverted tree, or a log
    /// with no room under its bound for one more run settle instead.
    pub fn seal(&self) -> Result<()> {
        let due = {
            let st = self.state.borrow();
            let log = &st.log;
            let spills = !log.buffer.is_empty() || log.runs.buffered() > 0;
            log.resume.is_some()
                || !log.postings.is_empty()
                || (spills && log.runs.num_runs() >= st.run_bound())
        };
        if due {
            self.settle()?;
        }
        let mut st = self.state.try_borrow_mut().map_err(|_| self.held_open())?;
        let log = &mut st.log;
        if log.buffer.is_empty() && log.runs.buffered() == 0 {
            return Ok(());
        }
        let _span = self.disk.cost().section("base.spill");
        log.spill(&self.disk)
    }

    /// The error of a caller that needs the log while a reader holds it.
    fn held_open(&self) -> Error {
        Error::Invariant(format!("relation {}: a reader holds its apply log open", self.name))
    }

    /// What this relation's settles did since the last call, summed.
    /// Whoever first needs the relation settles it — a strategy, a reader,
    /// a full log — so its owner hears of a settle here, after the fact
    /// (`Database` keeps the `base.settle.us` histogram and the audit's
    /// `apply` section from it, and a query's latency clear of it).
    pub fn take_settled(&self) -> SettleStats {
        self.state.try_borrow_mut().map_or_else(
            |_| SettleStats::default(),
            |mut st| std::mem::take(&mut st.log.unreported),
        )
    }

    /// The state with nothing queued, for a reader of the trees alone.
    fn settled(&self) -> Result<Ref<'_, State>> {
        self.settle()?;
        let st = self.state.borrow();
        if st.log.queued > 0 {
            return Err(self.held_open());
        }
        Ok(st)
    }

    /// A reader of the clustered tree that sees every queued mutation:
    /// the relation settles for it, or — while that pays (module docs) —
    /// it reads through the apply log. Either way it charges the settle's
    /// sweep, if any, before the caller's next section opens, and with
    /// nothing queued it charges what a read of the trees alone does.
    pub fn reader(&self) -> Result<Reader<'_>> {
        if !self.state.borrow().read_through_pays() {
            self.settle()?;
        } else if let Ok(mut st) = self.state.try_borrow_mut() {
            if !st.log.sorted {
                let cost = self.disk.cost();
                let _span = cost.section("base.read_through");
                st.log.sort_buffer(cost);
            }
        }
        let st = self.state.borrow();
        let log = &st.log;
        let tail = if log.queued == 0 {
            None
        } else if !log.sorted || log.resume.is_some() || log.runs.buffered() > 0 {
            // A reader further up keeps out the sort or the settle this
            // one needs.
            return Err(self.held_open());
        } else {
            log.hold(log.buffer_pages() + log.runs.num_runs() + log.column_pages());
            Some(Rc::clone(&log.buffer))
        };
        Ok(Reader { rel: self, st, tail, fetched: None })
    }

    /// For readers that cannot fail: settle, and if a device fault stops
    /// that, answer from the trees as they stand — the error stays with the
    /// log and meets the next caller that can report it.
    fn settled_or_stale(&self) -> Ref<'_, State> {
        let _ = self.settle();
        self.state.borrow()
    }

    /// Mutations queued and not yet in the trees (postings the inverted
    /// tree is still owed included).
    pub fn pending_ops(&self) -> u64 {
        let st = self.state.borrow();
        st.log.queued + st.log.postings.len() as u64
    }

    /// Queued mutations the trees have refused so far.
    pub fn rejected_ops(&self) -> u64 {
        self.state.borrow().log.rejected
    }

    /// The most pages the apply log has held at once (buffer, one per run
    /// being merged, the runs' surrogate columns, and the sweep's path): at most
    /// [`StoredRelation::apply_log_bound_pages`].
    pub fn apply_log_peak_pages(&self) -> u64 {
        self.state.borrow().log.peak_pages.get()
    }

    /// The pages the apply log may hold at once: [`APPLY_LOG_PAGES`] of
    /// buffer, the sweep's path over the clustered tree (`h + 1`:
    /// [`BTree::sweep_pages`]), one per run — as many runs as keep their
    /// pages within three quarters of the relation's leaf pages,
    /// `max(APPLY_LOG_RUNS, min(3·leaves/4/APPLY_LOG_PAGES, r))`, where `r`
    /// is the most runs with `APPLY_LOG_PAGES + r + columns(r) + h + 1 ≤
    /// |M|` — and
    /// the surrogate columns of that many full runs ([`column_pages`]). Read
    /// off the trees as they stand, and never under what an earlier settle
    /// was held to.
    pub fn apply_log_bound_pages(&self) -> u64 {
        self.state.borrow().bound_pages()
    }

    /// Whether the next mutation makes the log settle before it is
    /// queued: the log is full (its buffer would spill one run more than
    /// the bound allows), or frozen by a settle that failed.
    pub fn settle_due(&self) -> bool {
        let st = self.state.borrow();
        let full = st.log.buffer.len() >= st.log.cap;
        st.log.resume.is_some() || st.log.runs.num_runs() + usize::from(full) >= st.run_bound()
    }

    /// Admit, then make room — a settle if one is due, else a spill of
    /// the full buffer — so an `Err` means the mutation was not queued.
    fn enqueue(&mut self, kind: Kind, sur: Surrogate, tuple: &BaseTuple) -> Result<()> {
        self.check(kind, sur, tuple)?;
        if self.settle_due() {
            self.settle()?;
        }
        let log = &mut self.state.get_mut().log;
        if log.buffer.len() >= log.cap {
            let _span = self.disk.cost().section("base.spill");
            log.spill(&self.disk)?;
        }
        Rc::make_mut(&mut log.buffer).push(Pending { seq: log.seq, kind, tuple: tuple.clone() });
        log.sorted = false;
        log.seq += 1;
        log.queued += 1;
        log.net_inserts += (kind == Kind::Insert) as i64 - (kind == Kind::Delete) as i64;
        Ok(())
    }

    // ---- shape ----------------------------------------------------------

    /// The page files this relation owns: one per tree, then the apply
    /// log's runs.
    pub fn file_ids(&self) -> impl Iterator<Item = FileId> + '_ {
        let st = self.state.borrow();
        let files: Vec<FileId> =
            st.trees().map(BTree::file_id).chain(st.log.runs.run_files()).collect();
        files.into_iter()
    }

    /// Pages of this relation's files that hold a tree node (pages waiting
    /// on a free list are left out: they are space already given back).
    pub fn node_pages(&self) -> u64 {
        self.settled_or_stale().trees().map(BTree::node_pages).sum()
    }

    /// Leaf pages this relation's trees would take packed full, as a bulk
    /// load builds them: the yardstick [`StoredRelation::node_pages`] is
    /// held against.
    pub fn packed_pages(&self) -> u64 {
        self.settled_or_stale().trees().map(BTree::packed_leaf_pages).sum()
    }

    /// Height of the clustered tree, in levels.
    pub fn height(&self) -> usize {
        self.settled_or_stale().clustered.height()
    }

    /// Audit the structural invariants of every tree of the relation
    /// (test helper, free of charge; see `BTree::check_invariants`), and
    /// that the tuple count is the clustered tree's.
    pub fn check_invariants(&self) -> Result<()> {
        let st = self.settled()?;
        st.trees().try_for_each(BTree::check_invariants)?;
        if st.count != st.clustered.len() {
            return Err(Error::Invariant(format!(
                "relation {} counts {} tuples, its clustered tree {}",
                self.name,
                st.count,
                st.clustered.len()
            )));
        }
        Ok(())
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Tuple count (`‖R‖`), exact: a read, so it settles first.
    pub fn len(&self) -> u64 {
        self.settled_or_stale().count
    }

    /// Tuple count for an estimate, without settling: the trees' count
    /// plus queued inserts less queued deletes. Exact under update-only
    /// traffic and whenever no queued insert or delete gets refused; a
    /// statistic must not cost a sweep of the relation.
    pub fn len_estimate(&self) -> u64 {
        self.state.borrow().len_estimate()
    }

    /// True when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Data pages (`|R|` — the clustered tree's leaf level).
    pub fn data_pages(&self) -> u64 {
        self.settled_or_stale().clustered.leaf_pages()
    }

    /// Serialized tuple size (`T_R`).
    pub fn tuple_bytes(&self) -> usize {
        self.tuple_bytes
    }

    /// Whether this relation carries the inverted index on the join
    /// attribute.
    pub fn has_inverted(&self) -> bool {
        self.state.borrow().inverted.is_some()
    }

    /// Give the relation the inverted index on the join attribute (a no-op
    /// if it has one): it settles, then one scan and a bulk load under the
    /// span `base.build_inverted`; settles maintain it, catalogs persist it.
    pub fn build_inverted(&mut self, params: &SystemParams) -> Result<()> {
        if self.has_inverted() {
            return Ok(());
        }
        self.settle()?;
        let cost = self.disk.cost().clone();
        let _span = cost.section("base.build_inverted");
        let mut entries: Vec<(u64, [u8; 4])> = Vec::new();
        self.scan(|t| entries.push((t.key, t.sur.0.to_le_bytes())))?;
        counted_sort_by(&mut entries, |&e| e, &cost);
        let entries = entries.into_iter().map(|(key, sur)| (key, sur.to_vec()));
        let inverted = BTree::bulk_load(&self.disk, BTreeConfig::inverted(params), entries)?;
        self.state.get_mut().inverted = Some(inverted);
        Ok(())
    }

    // ---- readers --------------------------------------------------------

    /// Point-fetch one tuple by surrogate.
    pub fn get(&self, sur: Surrogate) -> Result<Option<BaseTuple>> {
        let hits = self.settled()?.clustered.lookup(sur.0 as u64)?;
        match hits.as_slice() {
            [] => Ok(None),
            [one] => Ok(Some(BaseTuple::from_bytes(one)?)),
            _ => Err(Error::Invariant(format!("duplicate surrogate {sur} in {}", self.name))),
        }
    }

    /// [`Reader::fetch_by_surrogates`] through a reader of its own.
    pub fn fetch_by_surrogates(
        &self,
        sorted_surs: &[Surrogate],
        f: impl FnMut(BaseTuple),
    ) -> Result<()> {
        self.reader()?.fetch_by_surrogates(sorted_surs, f)
    }

    /// Batched inverted-index probe by *sorted* join-key values: calls
    /// `f(key, surrogate)` for every posting. Errors if the relation has no
    /// inverted index.
    pub fn probe_inverted(
        &self,
        sorted_keys: &[u64],
        mut f: impl FnMut(u64, Surrogate),
    ) -> Result<()> {
        let st = self.settled()?;
        let inv = st.inverted.as_ref().ok_or_else(|| {
            Error::Invariant(format!("relation {} has no inverted index", self.name))
        })?;
        let mut err = None;
        inv.fetch_many(sorted_keys, |k, bytes| {
            if err.is_none() {
                if bytes.len() == 4 {
                    f(k, Surrogate(u32::from_le_bytes(bytes.try_into().unwrap())));
                } else {
                    err = Some(Error::Corrupt("inverted posting wrong width".into()));
                }
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Sort `batch` on the join attribute and probe the inverted index with
    /// its distinct keys: the postings by key, in key order (what iterates
    /// them feeds op-counted sorts, so it is deterministic), less those in
    /// `skip` (one comparison each, unless `skip` is empty).
    pub fn postings(
        &self,
        batch: &mut [BaseTuple],
        skip: &FxHashSet<Surrogate>,
        cost: &Cost,
    ) -> Result<BTreeMap<u64, Vec<Surrogate>>> {
        counted_sort_by(batch, |t| t.key, cost);
        let mut keys: Vec<u64> = batch.iter().map(|t| t.key).collect();
        keys.dedup();
        let mut postings: BTreeMap<u64, Vec<Surrogate>> = BTreeMap::new();
        if !keys.is_empty() {
            self.probe_inverted(&keys, |k, sur| postings.entry(k).or_default().push(sur))?;
        }
        if !skip.is_empty() {
            cost.comp(postings.values().map(|surs| surs.len() as u64).sum());
            postings.values_mut().for_each(|surs| surs.retain(|sur| !skip.contains(sur)));
        }
        Ok(postings)
    }

    /// [`Reader::scan`] through a reader of its own.
    pub fn scan(&self, f: impl FnMut(BaseTuple)) -> Result<()> {
        self.reader()?.scan(f)
    }

    /// [`Reader::scan_pinned`] through a reader of its own.
    pub fn scan_pinned(&self, f: impl FnMut(TupleRef<'_>, Option<&Rc<Vec<u8>>>)) -> Result<()> {
        self.reader()?.scan_pinned(f)
    }

    // ---- mutators: all of them admit, then enqueue ----------------------

    /// The relation's admission check, which every mutator runs before it
    /// queues: the tuple has this relation's width, and an update keeps its
    /// surrogate. A caller that shows a mutation to anything else first —
    /// the cached structures that log it — runs it before that, so a
    /// mutation refused here reaches nobody. What only the tree can tell
    /// (an unknown or reused surrogate) is found out when the log settles.
    pub fn admit(&self, m: &Mutation) -> Result<()> {
        let (kind, sur, t) = parts(m);
        self.check(kind, sur, t)
    }

    /// [`StoredRelation::admit`] on a mutation's parts ([`parts`]).
    fn check(&self, kind: Kind, sur: Surrogate, t: &BaseTuple) -> Result<()> {
        let refused = match kind {
            _ if sur != t.sur => "update must keep the surrogate",
            _ if t.serialized_len() == self.tuple_bytes => return Ok(()),
            Kind::Insert => "insert changes tuple size",
            Kind::Delete => "delete names a tuple of another size",
            Kind::Update => "update changes tuple size",
        };
        Err(Error::Invariant(refused.into()))
    }

    /// Queue the insertion of a brand-new tuple; a surrogate already in
    /// use is found out — and the insert dropped and counted — when the
    /// log settles.
    pub fn insert(&mut self, t: &BaseTuple) -> Result<()> {
        self.enqueue(Kind::Insert, t.sur, t)
    }

    /// Queue the deletion of the tuple under `t`'s surrogate; an unknown
    /// surrogate is dropped and counted when the log settles.
    pub fn delete(&mut self, t: &BaseTuple) -> Result<()> {
        self.enqueue(Kind::Delete, t.sur, t)
    }

    /// Queue one mutation.
    pub fn apply_mutation(&mut self, m: &Mutation) -> Result<()> {
        let (kind, sur, t) = parts(m);
        self.enqueue(kind, sur, t)
    }

    /// Queue one update (the paper's model: a deletion of `old` followed by
    /// an insertion of `new`, same surrogate). The surrogate is the
    /// clustering key, so when the log settles the tuple is overwritten
    /// where it lies, and the inverted index loses and gains a posting
    /// only if the *stored* tuple's join key differs from `new`'s.
    pub fn apply_update(&mut self, old: &BaseTuple, new: &BaseTuple) -> Result<()> {
        self.enqueue(Kind::Update, old.sur, new)
    }
}

impl std::fmt::Debug for StoredRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("StoredRelation")
            .field("name", &self.name)
            .field("tuples", &st.count)
            .field("pages", &st.clustered.leaf_pages())
            .field("inverted", &st.inverted.is_some())
            .field("queued", &st.log.queued)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::Cost;
    use trijoin_storage::SimDisk;

    fn tuples(n: u32, key_of: impl Fn(u32) -> u64) -> Vec<BaseTuple> {
        (0..n).map(|i| BaseTuple::padded(Surrogate(i), key_of(i), 64)).collect()
    }

    fn setup(n: u32, inverted: bool) -> (Disk, Cost, StoredRelation) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 512, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost.clone());
        let rel =
            StoredRelation::build(&disk, &params, "T", tuples(n, |i| (i % 10) as u64), inverted)
                .unwrap();
        (disk, cost, rel)
    }

    #[test]
    fn build_and_point_lookup() {
        let (_d, _c, rel) = setup(100, true);
        assert_eq!(rel.len(), 100);
        assert!(!rel.is_empty());
        let t = rel.get(Surrogate(42)).unwrap().unwrap();
        assert_eq!(t.sur, Surrogate(42));
        assert_eq!(t.key, 2);
        assert!(rel.get(Surrogate(500)).unwrap().is_none());
    }

    #[test]
    fn build_rejects_duplicates_and_mixed_sizes() {
        let cost = Cost::new();
        let params = SystemParams { page_size: 512, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost);
        let mut dup = tuples(5, |_| 0);
        dup.push(BaseTuple::padded(Surrogate(0), 7, 64));
        assert!(StoredRelation::build(&disk, &params, "D", dup, false).is_err());
        let mixed =
            vec![BaseTuple::padded(Surrogate(0), 0, 64), BaseTuple::padded(Surrogate(1), 0, 80)];
        assert!(StoredRelation::build(&disk, &params, "M", mixed, false).is_err());
    }

    #[test]
    fn scan_in_surrogate_order() {
        let (_d, _c, rel) = setup(60, false);
        let mut surs = Vec::new();
        rel.scan(|t| surs.push(t.sur.0)).unwrap();
        assert_eq!(surs, (0..60).collect::<Vec<u32>>());
    }

    #[test]
    fn inverted_probe_finds_all_postings() {
        let (_d, _c, rel) = setup(100, true);
        // Keys are i % 10: key 3 has 10 postings.
        let mut hits = Vec::new();
        rel.probe_inverted(&[3], |k, s| hits.push((k, s.0))).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|&(k, s)| k == 3 && s % 10 == 3));
        // Missing key yields nothing; multiple keys work sorted.
        let mut hits2 = Vec::new();
        rel.probe_inverted(&[3, 7, 99], |_, s| hits2.push(s.0)).unwrap();
        assert_eq!(hits2.len(), 20);
    }

    #[test]
    fn probe_without_inverted_errors() {
        let (_d, _c, rel) = setup(10, false);
        assert!(rel.probe_inverted(&[1], |_, _| {}).is_err());
        assert!(!rel.has_inverted());
    }

    #[test]
    fn fetch_by_surrogates_batch() {
        let (_d, cost, rel) = setup(200, false);
        cost.reset();
        let surs: Vec<Surrogate> = (0..200).step_by(2).map(Surrogate).collect();
        let mut got = Vec::new();
        rel.fetch_by_surrogates(&surs, |t| got.push(t.sur.0)).unwrap();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        // Every data page is touched (stride 2 hits all pages) but charged
        // at most once.
        assert!(cost.total().ios <= rel.data_pages() + 8);
    }

    #[test]
    fn update_maintains_both_indexes() {
        let (_d, _c, mut rel) = setup(50, true);
        let old = rel.get(Surrogate(7)).unwrap().unwrap();
        assert_eq!(old.key, 7);
        let new = BaseTuple::padded(Surrogate(7), 3, 64);
        rel.apply_update(&old, &new).unwrap();
        assert_eq!(rel.get(Surrogate(7)).unwrap().unwrap().key, 3);
        assert_eq!(rel.len(), 50);
        // Inverted index: key 7 lost a posting, key 3 gained one.
        let mut key7 = Vec::new();
        rel.probe_inverted(&[7], |_, s| key7.push(s.0)).unwrap();
        assert!(!key7.contains(&7));
        assert_eq!(key7.len(), 4);
        let mut key3 = Vec::new();
        rel.probe_inverted(&[3], |_, s| key3.push(s.0)).unwrap();
        assert_eq!(key3.len(), 6);
        assert!(key3.contains(&7));
    }

    #[test]
    fn update_with_same_key_skips_inverted_work() {
        let (_d, _c, mut rel) = setup(20, true);
        let old = rel.get(Surrogate(5)).unwrap().unwrap();
        let new = BaseTuple::with_payload(Surrogate(5), old.key, b"fresh", 64).unwrap();
        rel.apply_update(&old, &new).unwrap();
        let got = rel.get(Surrogate(5)).unwrap().unwrap();
        assert_eq!(&got.payload[..5], b"fresh");
        let mut key5 = Vec::new();
        rel.probe_inverted(&[5], |_, s| key5.push(s.0)).unwrap();
        assert_eq!(key5.len(), 2); // surrogates 5 and 15
    }

    #[test]
    fn update_errors_are_safe() {
        let (_d, _c, mut rel) = setup(10, true);
        let old = rel.get(Surrogate(1)).unwrap().unwrap();
        // What can be told at once is refused at once.
        let wrong_sur = BaseTuple::padded(Surrogate(2), 0, 64);
        assert!(rel.apply_update(&old, &wrong_sur).is_err());
        let wrong_size = BaseTuple::padded(Surrogate(1), 0, 80);
        assert!(rel.apply_update(&old, &wrong_size).is_err());
        assert_eq!(rel.pending_ops(), 0);
        // An unknown surrogate is found out at the sweep: dropped, counted.
        let ghost = BaseTuple::padded(Surrogate(99), 0, 64);
        rel.apply_update(&ghost, &ghost).unwrap();
        let stats = rel.settle().unwrap();
        assert_eq!((stats.ops, stats.rejected, stats.leaves_written), (1, 1, 0));
        assert_eq!(rel.rejected_ops(), 1);
        // Relation still intact.
        assert_eq!(rel.len(), 10);
        assert!(rel.get(Surrogate(1)).unwrap().is_some());
        rel.check_invariants().unwrap();
    }

    #[test]
    fn mutations_wait_in_the_log_until_a_reader_or_a_settle() {
        let (disk, cost, mut rel) = setup(100, true);
        cost.reset();
        for i in 0..20u32 {
            let old = BaseTuple::padded(Surrogate(i), (i % 10) as u64, 64);
            rel.apply_update(&old, &BaseTuple::padded(Surrogate(i), 77, 64)).unwrap();
        }
        rel.insert(&BaseTuple::padded(Surrogate(500), 3, 64)).unwrap();
        rel.delete(&BaseTuple::padded(Surrogate(99), 9, 64)).unwrap();
        assert_eq!(rel.pending_ops(), 22);
        assert!(cost.total().is_zero(), "queueing touches no page and charges nothing");
        // A point read settles first and sees every mutation.
        assert_eq!(rel.get(Surrogate(7)).unwrap().unwrap().key, 77);
        assert_eq!(rel.pending_ops(), 0);
        assert_eq!(rel.len(), 100);
        assert!(rel.get(Surrogate(99)).unwrap().is_none());
        let mut key77 = Vec::new();
        rel.probe_inverted(&[77], |_, s| key77.push(s.0)).unwrap();
        key77.sort_unstable();
        assert_eq!(key77, (0..20).collect::<Vec<u32>>());
        let mut key3 = Vec::new();
        rel.probe_inverted(&[3], |_, s| key3.push(s.0)).unwrap();
        assert!(key3.contains(&500) && !key3.contains(&3), "{key3:?}");
        assert_eq!(disk.metrics().counter("base.settles"), 1);
        assert_eq!(disk.metrics().counter("base.settle.ops"), 22);
        rel.check_invariants().unwrap();
    }

    #[test]
    fn a_chain_that_ends_where_it_began_writes_nothing() {
        let (disk, _c, mut rel) = setup(100, true);
        let x = rel.get(Surrogate(5)).unwrap().unwrap();
        let y = BaseTuple::padded(Surrogate(5), 8, 64);
        rel.apply_update(&x, &y).unwrap();
        rel.apply_update(&y, &x).unwrap();
        let fresh = BaseTuple::padded(Surrogate(700), 1, 64);
        rel.insert(&fresh).unwrap();
        rel.delete(&fresh).unwrap();
        let writes = disk.metrics().counter("disk.writes");
        let stats = rel.settle().unwrap();
        assert_eq!((stats.ops, stats.rejected, stats.leaves_written), (4, 0, 0));
        assert_eq!(disk.metrics().counter("disk.writes"), writes);
        // Last update wins.
        rel.apply_update(&x, &y).unwrap();
        rel.apply_update(&y, &BaseTuple::padded(Surrogate(5), 9, 64)).unwrap();
        assert_eq!(rel.get(Surrogate(5)).unwrap().unwrap().key, 9);
        rel.check_invariants().unwrap();
    }

    #[test]
    fn a_full_buffer_spills_sorted_runs_and_the_sweep_merges_them() {
        // 64-byte tuples on 512-byte pages: 6 records a page, 96 a buffer.
        let (disk, _c, mut rel) = setup(400, true);
        let mut mirror: Vec<BaseTuple> =
            (0..400).map(|i| BaseTuple::padded(Surrogate(i), (i % 10) as u64, 64)).collect();
        // Four buffers and a bit of updates, descending so that every run
        // and the tail interleave, each surrogate updated twice.
        for round in 0..2u64 {
            for i in (0..200u32).rev() {
                let new = BaseTuple::padded(Surrogate(i * 2), 100 + round, 64);
                rel.apply_update(&mirror[i as usize * 2], &new).unwrap();
                mirror[i as usize * 2] = new;
            }
        }
        assert_eq!(disk.metrics().counter("base.apply_log.runs"), 4);
        assert_eq!(rel.pending_ops(), 400);
        let files = disk.live_files().len();
        let stats = rel.settle().unwrap();
        assert_eq!((stats.ops, stats.rejected), (400, 0));
        assert_eq!(disk.live_files().len(), files - 4, "the runs are gone once swept");
        let mut got = Vec::new();
        rel.scan(|t| got.push(t)).unwrap();
        assert_eq!(got, mirror, "submission order held across runs: the second update won");
        let bound = (APPLY_LOG_PAGES + APPLY_LOG_RUNS + rel.height()) as u64;
        assert!(rel.apply_log_peak_pages() <= bound, "{} pages", rel.apply_log_peak_pages());
        assert!(rel.apply_log_peak_pages() > 4, "four run pages and a path at least");
        rel.check_invariants().unwrap();
    }

    #[test]
    fn the_log_settles_itself_at_sixteen_runs() {
        let (disk, _c, mut rel) = setup(50, false);
        let t = |i: u32, key: u64| BaseTuple::padded(Surrogate(i % 50), key, 64);
        let cap = APPLY_LOG_PAGES * 6;
        for n in 0..(APPLY_LOG_RUNS * cap) as u32 {
            assert!(!rel.settle_due());
            rel.apply_update(&t(n, 0), &t(n, n as u64)).unwrap();
        }
        assert_eq!(disk.metrics().counter("base.settles"), 0);
        assert_eq!(disk.metrics().counter("base.apply_log.runs"), APPLY_LOG_RUNS as u64 - 1);
        assert!(rel.settle_due(), "fifteen runs and a full buffer");
        rel.apply_update(&t(7, 0), &t(7, 7)).unwrap();
        assert_eq!(disk.metrics().counter("base.settles"), 1, "no sixteenth run: a settle");
        assert_eq!(disk.metrics().counter("base.apply_log.runs"), APPLY_LOG_RUNS as u64 - 1);
        assert_eq!(rel.pending_ops(), 1, "the mutation that found the log full came after");
        // Fifteen runs of 16 pages of 6 records: columns of 1 440 surrogates
        // and 240 slice starts, 4 bytes each, fourteen 512-byte pages.
        assert_eq!(column_pages(15 * 16 * 7, 512), 14);
        assert_eq!(
            rel.apply_log_peak_pages(),
            (APPLY_LOG_PAGES + APPLY_LOG_RUNS - 1 + 14 + rel.height() + 1) as u64,
            "the buffer, fifteen run pages, their columns and the path with its second leaf"
        );
        assert_eq!(rel.get(Surrogate(7)).unwrap().unwrap().key, 7);
    }

    #[test]
    fn a_large_relations_log_is_bounded_by_three_quarters_of_its_leaves_and_by_memory() {
        // 6 000 tuples, 5 a leaf: 1 200 leaves, three quarters of them 56
        // runs of 16 pages — if `|M|` can merge that many.
        let build = |mem_pages: usize| {
            let params =
                SystemParams { page_size: 512, mem_pages, ..SystemParams::paper_defaults() };
            let disk = SimDisk::new(&params, Cost::new());
            let rel =
                StoredRelation::build(&disk, &params, "T", tuples(6_000, |i| i as u64), false);
            (disk, rel.unwrap())
        };
        let (disk, mut rel) = build(200);
        assert_eq!(rel.data_pages(), 1_200);
        let h = rel.height();
        // The sweep's path holds two leaves. The columns of 56, 19 and 16
        // full runs of 6 records a page: 49, 17 and 14 pages.
        let path = h + 1;
        let columns = |runs: u64| column_pages(runs * 16 * 7, 512) as usize;
        assert_eq!((columns(56), columns(19), columns(16)), (49, 17, 14));
        assert_eq!(rel.apply_log_bound_pages(), (APPLY_LOG_PAGES + 56 + 49 + path) as u64);
        // 36 pages beside the buffer and the path merge 19 runs with their
        // 17 column pages; 20 runs with their 18 would need 38.
        let roomy = build(APPLY_LOG_PAGES + path + 36).1.apply_log_bound_pages();
        assert_eq!(roomy, (16 + 19 + 17 + path) as u64);
        assert_eq!(build(8).1.apply_log_bound_pages(), (16 + APPLY_LOG_RUNS + 14 + path) as u64);
        // The log fills to 55 runs and a buffer, then settles itself.
        let t = |n: u32| BaseTuple::padded(Surrogate(n * 7 % 6_000), n as u64, 64);
        for n in 0..56 * 96 {
            assert!(!rel.settle_due(), "{n}");
            rel.apply_update(&t(n), &t(n)).unwrap();
        }
        assert!(rel.settle_due());
        assert_eq!(disk.metrics().counter("base.apply_log.runs"), 55);
        assert_eq!(rel.len_estimate(), 6_000);
        assert_eq!(disk.metrics().counter("base.settles"), 0, "a statistic is not a read");
        rel.apply_update(&t(0), &t(0)).unwrap();
        assert_eq!(disk.metrics().counter("base.settles"), 1);
        // Fifty-five runs and their columns (as many column pages as 56
        // full runs fill), one run short.
        assert_eq!(rel.apply_log_peak_pages(), rel.apply_log_bound_pages() - 1);
        let did = rel.take_settled();
        assert_eq!((did.ops, did.keys, did.leaf_pages, did.tuples), (5_376, 5_376, 1_200, 6_000));
        assert!(did.charged.ios > 0 && rel.take_settled() == SettleStats::default());
    }

    #[test]
    fn the_estimate_counts_queued_inserts_and_deletes_and_keys_are_distinct() {
        let (_d, _c, mut rel) = setup(100, false);
        let t = |i: u32, key: u64| BaseTuple::padded(Surrogate(i), key, 64);
        for i in 0..10 {
            rel.insert(&t(500 + i, 1)).unwrap();
        }
        for i in 0..4 {
            rel.delete(&t(i, (i % 10) as u64)).unwrap();
        }
        for round in 0..3 {
            rel.apply_update(&t(50, 0), &t(50, 40 + round)).unwrap();
        }
        assert_eq!((rel.len_estimate(), rel.pending_ops()), (106, 17));
        let did = rel.settle().unwrap();
        assert_eq!((did.ops, did.keys, did.rejected, did.tuples), (17, 15, 0, 106));
        assert_eq!((rel.len(), rel.len_estimate()), (106, 106));
    }

    #[test]
    fn a_fault_in_the_last_payment_to_the_inverted_tree_leaves_a_fresh_log() {
        let (disk, _c, mut rel) = setup(300, true);
        let mut mirror: Vec<BaseTuple> =
            (0..300).map(|i| BaseTuple::padded(Surrogate(i), (i % 10) as u64, 64)).collect();
        let mut update = |rel: &mut StoredRelation, i: u32, key: u64| {
            let new = BaseTuple::padded(Surrogate(i), key, 64);
            rel.apply_update(&mirror[i as usize], &new).unwrap();
            mirror[i as usize] = new;
        };
        // Less than a buffer: one slice, and its payment is the last.
        for i in 0..40u32 {
            update(&mut rel, i * 7, 500 + i as u64);
        }
        let inverted = rel.file_ids().nth(1).unwrap();
        disk.install_fault_plan(trijoin_storage::FaultPlan::new().fail_nth_read(Some(inverted), 3));
        let err = rel.settle().unwrap_err();
        assert!(matches!(err, Error::DeviceFault { .. }), "{err:?}");
        assert_eq!(disk.metrics().counter("base.settle.ops"), 40, "the clustered tree has it all");
        assert!(rel.pending_ops() > 0, "the inverted tree is still owed");
        assert!(!rel.settle_due(), "the log itself is empty, not frozen");
        disk.clear_faults();
        // New mutations in descending order, past a buffer's worth so that
        // a run and the tail interleave: stale records would surface here.
        for i in (100..250u32).rev() {
            update(&mut rel, i, 900);
        }
        let stats = rel.settle().unwrap();
        assert_eq!((stats.ops, stats.rejected), (150, 0));
        assert_eq!(rel.pending_ops(), 0);
        let mut got = Vec::new();
        rel.scan(|t| got.push(t)).unwrap();
        assert_eq!(got, mirror);
        for t in mirror.iter().step_by(7).take(40) {
            let mut hits = Vec::new();
            rel.probe_inverted(&[t.key], |_, s| hits.push(s)).unwrap();
            assert!(hits.contains(&t.sur), "posting of {t:?}");
        }
        assert_eq!(rel.rejected_ops(), 0);
        rel.check_invariants().unwrap();
    }

    #[test]
    fn a_fault_mid_sweep_keeps_the_rest_queued_and_the_next_settle_resumes() {
        let (disk, _c, mut rel) = setup(300, true);
        let mut mirror: Vec<BaseTuple> =
            (0..300).map(|i| BaseTuple::padded(Surrogate(i), (i % 10) as u64, 64)).collect();
        // Enough for two runs and a tail, so the retry merges again.
        for i in 0..300u32 {
            let new = BaseTuple::padded(Surrogate(i), 50 + (i % 3) as u64, 64);
            rel.apply_update(&mirror[i as usize], &new).unwrap();
            mirror[i as usize] = new;
        }
        let clustered = rel.file_ids().next().unwrap();
        disk.install_fault_plan(
            trijoin_storage::FaultPlan::new().fail_nth_read(Some(clustered), 9),
        );
        let err = rel.settle().unwrap_err();
        assert!(matches!(err, Error::DeviceFault { .. }), "{err:?}");
        let landed = disk.metrics().counter("base.settle.ops");
        assert!(landed > 0 && landed < 300, "part of the sweep landed: {landed} operations");
        assert!(rel.pending_ops() >= 300 - landed);
        // A mutator settles first; with the fault gone that gets through.
        let last = BaseTuple::padded(Surrogate(0), 99, 64);
        rel.apply_update(&mirror[0], &last).unwrap();
        mirror[0] = last;
        let mut got = Vec::new();
        rel.scan(|t| got.push(t)).unwrap();
        assert_eq!(got, mirror);
        assert_eq!(rel.rejected_ops(), 0);
        rel.check_invariants().unwrap();
        let mut key99 = Vec::new();
        rel.probe_inverted(&[99], |_, s| key99.push(s.0)).unwrap();
        assert_eq!(key99, vec![0]);
    }

    #[test]
    fn a_sealed_log_reopens_from_its_catalog_entry_as_it_was() {
        let (disk, _c, mut rel) = setup(300, true);
        let params = SystemParams { page_size: 512, ..SystemParams::paper_defaults() };
        let mut mirror: Vec<BaseTuple> =
            (0..300).map(|i| BaseTuple::padded(Surrogate(i), (i % 10) as u64, 64)).collect();
        // A buffer and a half of updates, then a delete: one full run and a
        // short buffer.
        for i in (0..150u32).rev() {
            let new = BaseTuple::padded(Surrogate(i * 2), 70 + (i % 4) as u64, 64);
            rel.apply_update(&mirror[i as usize * 2], &new).unwrap();
            mirror[i as usize * 2] = new;
        }
        rel.delete(&mirror.pop().unwrap()).unwrap();
        let entry = rel.catalog_json().unwrap();
        let metrics = disk.metrics();
        assert_eq!(metrics.counter("base.apply_log.runs"), 2, "the buffer spilled as a short run");
        assert_eq!(metrics.counter("base.settles"), 0, "a seal is not a settle");
        assert_eq!(rel.file_ids().count(), 4, "two trees and two runs");

        let mut reopened = StoredRelation::open(&disk, &params, &entry).unwrap();
        assert_eq!(reopened.file_ids().collect::<Vec<_>>(), rel.file_ids().collect::<Vec<_>>());
        assert_eq!((reopened.pending_ops(), reopened.len_estimate()), (151, 299));
        let mut got = Vec::new();
        reopened.scan(|t| got.push(t)).unwrap();
        assert_eq!(got, mirror);
        // Submission order goes on where the sealed log left it: a later
        // update of a surrogate the runs hold wins.
        let last = BaseTuple::padded(Surrogate(0), 99, 64);
        reopened.apply_update(&mirror[0], &last).unwrap();
        assert_eq!(reopened.get(Surrogate(0)).unwrap(), Some(last));
        assert_eq!(reopened.rejected_ops(), 0);
        reopened.check_invariants().unwrap();
    }

    #[test]
    fn paper_packing_shape() {
        let cost = Cost::new();
        let params = SystemParams::paper_defaults();
        let disk = SimDisk::new(&params, cost);
        let tuples: Vec<BaseTuple> =
            (0..2000).map(|i| BaseTuple::padded(Surrogate(i), i as u64, 200)).collect();
        let rel = StoredRelation::build(&disk, &params, "R", tuples, false).unwrap();
        // n_R = 14 -> ceil(2000/14) = 143 data pages.
        assert_eq!(rel.data_pages(), 143);
        assert_eq!(rel.tuple_bytes(), 200);
    }
}
