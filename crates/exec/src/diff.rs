//! Differential logging of base-relation updates (§3.2/§3.3 step 1,
//! Figure 1).
//!
//! Updates arriving between two executions of the join query are logged as
//! *deleted tuple* + *inserted tuple* pairs. Each side is buffered in a
//! memory area of `Z` pages; when the buffer fills it is quicksorted on the
//! strategy's sort key (hash of the join attribute for the materialized
//! view, surrogate `r` for the join index) and spilled to disk as a sorted
//! run. At query time the `N1` runs are merged back in key order.
//!
//! A run read that fails is an `Err` in the stream: the run ends there,
//! the merge hands the error out on the step it reads it — after every
//! tuple that precedes it in key order, before any that follows — and
//! every consumer takes it with `?`.
//!
//! [`net_differentials`] performs pairwise cancellation of tuples that
//! appear identically in both the insertion and deletion streams — the
//! intermediate states of tuples updated more than once between queries —
//! leaving exactly the *net* change (`V'`'s algebra in §3.2 assumes net
//! sets; chains of updates produce intermediates that must cancel).

use std::rc::Rc;

use trijoin_common::{BaseTuple, Cost, CounterId, Error, FxHashSet, Metrics, Result, Surrogate};
use trijoin_storage::{Disk, FileId, HeapFile};

use crate::sort::{counted_sort_by, KWayMerge};

/// 128-bit sort key for differential tuples.
pub type SortKey = u128;

/// Sort-key constructor for materialized-view differentials:
/// `(bucket, hash(A), surrogate)` under a frozen linear-hash addressing.
pub fn mv_sort_key(bucket: u64, hash: u64, sur: u32) -> SortKey {
    debug_assert!(bucket < (1 << 32), "bucket index exceeds 32 bits");
    ((bucket as u128) << 96) | ((hash as u128) << 32) | sur as u128
}

/// Sort-key constructor for join-index differentials: surrogate `r`.
pub fn ji_sort_key(sur: u32) -> SortKey {
    sur as u128
}

/// A shared sort-key function (both logs of a [`DiffPair`] hold one).
type KeyFn = Rc<dyn Fn(&BaseTuple) -> SortKey>;

/// One spilled run: its file and its surrogate column.
struct Run {
    heap: HeapFile,
    column: Column,
}

/// A run's surrogate column: the surrogate of every record, in run order,
/// sliced by page — page `p`'s slice starts at `starts[p]`, so its first
/// entry is the page's fence. Noted as the run spills, or read back off
/// the run when it is adopted. A seek by surrogate ([`RunReader::seek`])
/// reads it; it is meaningful in a log sorted on the surrogate first (the
/// join index's, a base relation's apply log).
#[derive(Clone, Default)]
struct Column {
    surs: Rc<[Surrogate]>,
    starts: Rc<[u32]>,
}

impl Column {
    /// The column of records noted as `(page, surrogate)` in run order.
    fn of(records: impl IntoIterator<Item = (u32, Surrogate)>) -> Column {
        let (mut surs, mut starts) = (Vec::new(), Vec::new());
        for (page, sur) in records {
            if page as usize == starts.len() {
                starts.push(surs.len() as u32);
            }
            surs.push(sur);
        }
        Column { surs: surs.into(), starts: starts.into() }
    }

    /// Entries held in memory: a surrogate for each record, a slice start
    /// for each page.
    fn entries(&self) -> u64 {
        (self.surs.len() + self.starts.len()) as u64
    }

    /// The surrogates on page `p`.
    fn page(&self, p: usize) -> &[Surrogate] {
        let end = self.starts.get(p + 1).map_or(self.surs.len(), |&end| end as usize);
        &self.surs[self.starts[p] as usize..end]
    }

    /// The surrogate of page `p`'s first record.
    fn fence(&self, p: usize) -> Surrogate {
        self.surs[self.starts[p] as usize]
    }
}

/// One side (`iR` or `dR`) of a differential log.
pub struct DiffLog {
    disk: Disk,
    cost: Cost,
    key_of: KeyFn,
    /// True when the sort key involves hashing the join attribute (the MV
    /// log); charges one `hash` per tuple at key-computation time.
    hashed_key: bool,
    buf: Vec<BaseTuple>,
    buf_cap: usize,
    tuples_per_run_page: usize,
    runs: Vec<Run>,
    total: u64,
    sealed: bool,
    /// `diff.retries`, counted by the log's readers.
    retries: CounterId,
}

impl DiffLog {
    /// A log buffering up to `mem_pages` pages of tuples (the paper's `Z`),
    /// spilling runs packed at `tuples_per_run_page` (working files pack
    /// fully: `⌊P/T⌋`).
    pub fn new(
        disk: &Disk,
        cost: &Cost,
        mem_pages: usize,
        tuples_per_run_page: usize,
        hashed_key: bool,
        key_of: impl Fn(&BaseTuple) -> SortKey + 'static,
    ) -> Self {
        let per_page = tuples_per_run_page.max(1);
        DiffLog {
            disk: disk.clone(),
            cost: cost.clone(),
            key_of: Rc::new(key_of),
            hashed_key,
            buf: Vec::new(),
            buf_cap: (mem_pages.max(1)) * per_page,
            tuples_per_run_page: per_page,
            runs: Vec::new(),
            total: 0,
            sealed: false,
            retries: disk.metrics().counter_handle("diff.retries"),
        }
    }

    /// Log one tuple and spill the buffer it fills. A spill that fails
    /// leaves the tuple logged, in the buffer.
    pub fn add(&mut self, t: BaseTuple) -> Result<()> {
        self.push(t);
        self.make_room()
    }

    /// Buffer one tuple (one `move` into the buffer, per C1.1).
    fn push(&mut self, t: BaseTuple) {
        debug_assert!(!self.sealed, "log already sealed");
        self.cost.mov(1);
        self.buf.push(t);
        self.total += 1;
    }

    /// Spill a full buffer, so that the next tuple fits.
    fn make_room(&mut self) -> Result<()> {
        if self.buf.len() >= self.buf_cap {
            self.spill()?;
        }
        Ok(())
    }

    /// Sort the buffer and write it out as one run (C1.3 sorting charges +
    /// C1.1 write charges; one I/O per full-packed page), noting each
    /// record's surrogate and page in the run's column. A write that fails
    /// leaves the buffer as it was, sorted, and no run behind.
    pub fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        if self.hashed_key {
            // The sort key hashes the join attribute; keys are computed
            // once per tuple (the paper's CPU_s-with-hashing charges two
            // hashes per comparison — our engine memoizes, which is simply
            // a better constant).
            self.cost.hash(self.buf.len() as u64);
        }
        let key = self.key_of.clone();
        counted_sort_by(&mut self.buf, |t| key(t), &self.cost);
        let mut writer = trijoin_storage::heap::HeapWriter::create(&self.disk);
        let (mut scratch, mut column) = (Vec::new(), Vec::with_capacity(self.buf.len()));
        for t in &self.buf {
            scratch.clear();
            t.write_bytes(&mut scratch);
            match writer.add_with_cap(&scratch, self.tuples_per_run_page) {
                Ok(at) => column.push((at.page, t.sur)),
                Err(e) => {
                    writer.abandon();
                    return Err(e);
                }
            }
        }
        self.runs.push(Run { heap: writer.finish()?, column: Column::of(column) });
        self.buf.clear();
        Ok(())
    }

    /// Flush the remaining buffer. After sealing, [`DiffLog::merged`] can
    /// stream the log back; `add` is no longer allowed.
    pub fn seal(&mut self) -> Result<()> {
        if !self.sealed {
            self.spill()?;
            self.sealed = true;
            // One sample per query cycle: how large the differential log
            // grew before being consumed.
            let metrics = self.disk.metrics();
            metrics.observe("diff.log_tuples", self.total);
            metrics.observe("diff.log_pages", self.pages());
        }
        Ok(())
    }

    /// Tuples logged and not in a run yet (a spill that failed leaves the
    /// whole buffer).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Number of runs on disk (the paper's `N1`).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Tuples logged.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Total pages across all runs (`|iR|`).
    pub fn pages(&self) -> u64 {
        self.runs.iter().map(|r| r.heap.num_pages() as u64).sum()
    }

    /// Entries the runs' surrogate columns hold in memory, 4 bytes each:
    /// a surrogate for each record, a slice start for each page.
    pub fn column_entries(&self) -> u64 {
        self.runs.iter().map(|r| r.column.entries()).sum()
    }

    /// The runs' files, in the order they were spilled.
    pub fn run_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.runs.iter().map(|r| r.heap.file_id())
    }

    /// Take a run another session spilled back into the log, by its file,
    /// sorted under this log's key: every page is read once (charged) to
    /// rebuild the run's column. A run that will not read, has a page
    /// without a record, or is out of surrogate order is `Corrupt`.
    pub fn adopt_run(&mut self, file: FileId) -> Result<()> {
        let corrupt = |why: &str| Error::Corrupt(format!("differential run f{}: {why}", file.0));
        self.disk.num_pages(file).map_err(|_| corrupt("not on the device"))?;
        let heap = HeapFile::open(&self.disk, file);
        let mut reader = self.reader(&heap, Column::default());
        let mut records = Vec::new();
        while reader.next_page < reader.total_pages {
            let page = reader.next_page;
            reader.load().map_err(|e| corrupt(&format!("page {page} will not read: {e}")))?;
            if reader.current.is_empty() {
                return Err(corrupt(&format!("page {page} holds no record")));
            }
            records.extend(reader.current.iter().map(|t| (page, t.sur)));
        }
        let column = Column::of(records);
        if !column.surs.is_sorted() {
            return Err(corrupt("out of surrogate order"));
        }
        self.runs.push(Run { heap, column });
        Ok(())
    }

    /// A reader at the head of `heap`, seeking by `column`.
    fn reader(&self, heap: &HeapFile, column: Column) -> RunReader {
        RunReader {
            heap: heap.clone(),
            column,
            cost: self.cost.clone(),
            metrics: self.disk.metrics().clone(),
            retries: self.retries,
            next_page: 0,
            total_pages: heap.num_pages(),
            current: Vec::new(),
            at: 0,
            sought: Surrogate(0),
            lacks: false,
        }
    }

    /// Merge the sealed runs back in key order (C1.2 read charges as pages
    /// stream in, C1.4 merge charges per emitted tuple). An error is keyed
    /// 0, where no key sorts below it, so the merge hands it out as soon
    /// as it reads it.
    pub fn merged(&self) -> Result<Merged> {
        debug_assert!(self.buf.is_empty(), "seal() or spill() before merged()");
        let sources: Vec<RunReader> = self.run_readers().collect();
        let key = self.key_of.clone();
        let key = move |t: &Result<BaseTuple>| t.as_ref().map_or(0, |t| key(t));
        Ok(KWayMerge::new(sources, key, self.cost.clone()))
    }

    /// A reader of each run, at its head, in the order the runs spilled.
    pub fn run_readers(&self) -> impl Iterator<Item = RunReader> + '_ {
        self.runs.iter().map(|r| self.reader(&r.heap, r.column.clone()))
    }

    /// Start over: drop every run file and forget what was logged, keeping
    /// the disk, ledger, budget, packing and sort key.
    pub fn restart(&mut self) {
        for r in self.runs.drain(..) {
            r.heap.destroy();
        }
        self.buf.clear();
        self.total = 0;
        self.sealed = false;
    }

    /// Drop all run files (after a query has consumed the log).
    pub fn destroy(mut self) {
        self.restart();
    }
}

/// The insertion log and the deletion log of one relation's differential,
/// under one sort key and one memory budget per side. Run files are
/// created at spill time, so the order in which the two sides are touched
/// is the order of file ids: a mutation makes room for its deleted state
/// before its inserted one; sealing, merging and restarting go `ins` then
/// `del`.
///
/// A cached structure's pair logs `R`; an epoch's first mutation of `S`
/// splits `S`'s pair off its `2·Z` (Figure 1), each of the four logs then
/// getting `Z/2`, until the epoch ends.
pub struct DiffPair {
    ins: DiffLog,
    del: DiffLog,
    /// Figure 1's `Z`: each side's buffer, in pages, while `s` is closed.
    mem_pages: usize,
    /// `iS`/`dS` (boxed: an R-only pair stays as small as it was).
    s: Option<Box<DiffPair>>,
}

impl DiffPair {
    /// Two empty logs, each as [`DiffLog::new`] makes it.
    pub fn new(
        disk: &Disk,
        cost: &Cost,
        mem_pages: usize,
        tuples_per_run_page: usize,
        hashed_key: bool,
        key_of: impl Fn(&BaseTuple) -> SortKey + Clone + 'static,
    ) -> Self {
        let log = |key| DiffLog::new(disk, cost, mem_pages, tuples_per_run_page, hashed_key, key);
        DiffPair {
            ins: log(key_of.clone()),
            del: log(key_of),
            mem_pages: mem_pages.max(1),
            s: None,
        }
    }

    /// Log the two sides of one mutation (see [`crate::Mutation::sides`]):
    /// room is made on both first, so an `Err` logs neither. A buffer that
    /// fills spills when the next mutation or the seal needs the room.
    pub fn log(&mut self, del: Option<BaseTuple>, ins: Option<BaseTuple>) -> Result<()> {
        if del.is_some() {
            self.del.make_room()?;
        }
        if ins.is_some() {
            self.ins.make_room()?;
        }
        del.into_iter().for_each(|t| self.del.push(t));
        ins.into_iter().for_each(|t| self.ins.push(t));
        Ok(())
    }

    /// Log one mutation of `S` (see [`DiffPair::log`]), splitting its pair
    /// off this one — runs packed at `tuples_per_run_page` — if this epoch
    /// has none.
    pub fn log_s(
        &mut self,
        tuples_per_run_page: usize,
        del: Option<BaseTuple>,
        ins: Option<BaseTuple>,
    ) -> Result<()> {
        if self.s.is_none() {
            let half = (self.mem_pages / 2).max(1);
            for log in [&mut self.ins, &mut self.del] {
                log.buf_cap = half * log.tuples_per_run_page;
                if log.buf.len() > log.buf_cap {
                    log.spill()?;
                }
            }
            let DiffLog { disk, cost, hashed_key, key_of, .. } = &self.ins;
            let key = key_of.clone();
            let key_of = move |t: &BaseTuple| key(t);
            let pair = DiffPair::new(disk, cost, half, tuples_per_run_page, *hashed_key, key_of);
            self.s = Some(Box::new(pair));
        }
        self.s.as_mut().expect("split above").log(del, ins)
    }

    /// Whether this epoch logged a mutation of `S`.
    pub fn has_s(&self) -> bool {
        self.s.is_some()
    }

    /// Seal `S`'s pair and net it whole (see [`DiffPair::net`]) under the
    /// span `section`: its net insertions, and the surrogates of its net
    /// deletions (both empty, and no span, without a mutation of `S`).
    pub fn net_s(
        &mut self,
        section: &str,
        same: impl Fn(&BaseTuple, &BaseTuple) -> bool + 'static,
    ) -> Result<(Vec<BaseTuple>, FxHashSet<Surrogate>)> {
        let (mut ins, mut del) = (Vec::new(), FxHashSet::default());
        if let Some(s) = &mut self.s {
            let _g = self.ins.cost.section(section);
            s.seal()?;
            for item in s.net(same)? {
                match item? {
                    Net::Ins(t) => ins.push(t),
                    Net::Del(t) => {
                        del.insert(t.sur);
                    }
                }
            }
        }
        Ok((ins, del))
    }

    /// Seal both logs (see [`DiffLog::seal`]).
    pub fn seal(&mut self) -> Result<()> {
        self.ins.seal()?;
        self.del.seal()
    }

    /// The paper's `N1`: runs of the longer side.
    pub fn runs(&self) -> usize {
        self.ins.num_runs().max(self.del.num_runs())
    }

    /// Mutations pending (the longer side; update-only traffic keeps the
    /// two equal), `S`'s included.
    pub fn pending(&self) -> u64 {
        self.ins.len().max(self.del.len()) + self.s.as_ref().map_or(0, |s| s.pending())
    }

    /// The insertion log (pass budgets read its size).
    pub fn ins(&self) -> &DiffLog {
        &self.ins
    }

    /// Run pages already spilled, both sides (`|iR| + |dR|`), `S`'s
    /// included.
    pub fn pages(&self) -> u64 {
        self.ins.pages() + self.del.pages() + self.s.as_ref().map_or(0, |s| s.pages())
    }

    /// Merge the sealed runs of both sides and net them under the pair's
    /// sort key (see [`net_differentials`] for `same`).
    pub fn net(
        &self,
        same: impl Fn(&BaseTuple, &BaseTuple) -> bool + 'static,
    ) -> Result<NetMerge<Merged, Merged>> {
        let key = self.ins.key_of.clone();
        Ok(net_differentials(
            self.ins.merged()?,
            self.del.merged()?,
            move |t| key(t),
            same,
            &self.ins.cost,
        ))
    }

    /// Open a new epoch under `key_of`: both logs empty, with their memory
    /// back, `S`'s pair closed, every run file deleted.
    pub fn restart(&mut self, key_of: impl Fn(&BaseTuple) -> SortKey + 'static) {
        self.s.take().into_iter().for_each(|s| s.destroy());
        let key: KeyFn = Rc::new(key_of);
        for log in [&mut self.ins, &mut self.del] {
            log.restart();
            log.key_of = key.clone();
            log.buf_cap = self.mem_pages * log.tuples_per_run_page;
        }
    }

    /// Drop all run files, `S`'s included.
    pub fn destroy(self) {
        self.ins.destroy();
        self.del.destroy();
        self.s.into_iter().for_each(|s| s.destroy());
    }
}

/// What one query folds of `S`'s differential (all empty in an epoch
/// without a mutation of `S`).
#[derive(Default)]
pub(crate) struct SFold<J> {
    /// Net-inserted `s`: `iR ⋈ S_now` skips them, `joined` has their pairs.
    pub inserted: FxHashSet<Surrogate>,
    /// Net-deleted `s`: their pairs go.
    pub deleted: FxHashSet<Surrogate>,
    /// `iS ⋈ R_now`.
    pub joined: J,
}

/// The key-ordered stream [`DiffLog::merged`] returns.
pub type Merged = KWayMerge<Result<BaseTuple>, SortKey, RunReader>;

/// Streams tuples out of one sorted run (one read I/O per page), and
/// seeks in it by its surrogate column ([`RunReader::seek`]).
///
/// Transient device faults heal with bounded retry (re-read I/O charged
/// under the `diff.retry` section). Anything else is the stream's last
/// item, an `Err`.
pub struct RunReader {
    heap: HeapFile,
    column: Column,
    cost: Cost,
    metrics: Metrics,
    /// `diff.retries`.
    retries: CounterId,
    next_page: u32,
    total_pages: u32,
    current: Vec<BaseTuple>,
    at: usize,
    /// The surrogate sought last: a page read after the seek drops the
    /// tuples below it.
    sought: Surrogate,
    /// Whether the seek found that the next page lacks the surrogate
    /// sought: a pull through it reads nothing until the next seek.
    lacks: bool,
}

impl RunReader {
    /// Hand out the next tuple of the page in hand, if one is left.
    fn in_hand(&mut self) -> Option<BaseTuple> {
        // Move the tuple out instead of cloning: the drained slot is dead
        // until the next refill clears the buffer. The dummy's empty boxed
        // slice does not allocate.
        let slot = self.current.get_mut(self.at)?;
        self.at += 1;
        Some(std::mem::replace(
            slot,
            BaseTuple { sur: Surrogate(0), key: 0, payload: Box::default() },
        ))
    }

    /// Drop the tuples in hand below the surrogate sought last, a
    /// comparison each and one for the tuple that stops it. Returns
    /// whether any tuple is left in hand.
    fn drop_below_sought(&mut self) -> bool {
        let left = self.current.len() - self.at;
        let below = self.current[self.at..].partition_point(|t| t.sur < self.sought);
        self.cost.comp((below + usize::from(below < left)) as u64);
        self.at += below;
        below < left
    }

    /// Whether page `p`'s slice of the column holds `sur`: a binary
    /// search, a comparison a probe and one for the entry it stops at.
    fn holds(&self, p: usize, sur: Surrogate) -> bool {
        let slice = self.column.page(p);
        let mut probes = 0;
        let at = slice.partition_point(|&s| {
            probes += 1;
            s < sur
        });
        self.cost.comp(probes + u64::from(at < slice.len()));
        slice.get(at) == Some(&sur)
    }

    /// Read the next page into hand; a read that fails ends the run.
    fn load(&mut self) -> Result<()> {
        let page = self.next_page;
        let mut attempt = 0u32;
        // Decode straight off the borrowed page view — one I/O, no
        // per-record byte copies. Decode errors are non-retryable, so
        // `with_retry` propagates them immediately (same observable
        // behavior as decoding after the read).
        let current = &mut self.current;
        let heap = &self.heap;
        let read = crate::recovery::with_retry(|| {
            attempt += 1;
            if attempt > 1 {
                self.metrics.incr_id(self.retries);
            }
            let _g = (attempt > 1).then(|| self.cost.section("diff.retry"));
            current.clear();
            let mut decode_err: Option<Error> = None;
            heap.for_each_page_record(page, |_, b| {
                if decode_err.is_none() {
                    match BaseTuple::from_bytes(b) {
                        Ok(t) => current.push(t),
                        Err(e) => decode_err = Some(e),
                    }
                }
            })?;
            match decode_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        if read.is_err() {
            self.next_page = self.total_pages;
            self.current.clear();
        } else {
            self.next_page += 1;
        }
        self.at = 0;
        read
    }
}

impl Iterator for RunReader {
    type Item = Result<BaseTuple>;

    fn next(&mut self) -> Option<Result<BaseTuple>> {
        loop {
            if let Some(t) = self.in_hand() {
                return Some(Ok(t));
            }
            if self.next_page >= self.total_pages {
                return None;
            }
            if let Err(e) = self.load() {
                return Some(Err(e));
            }
        }
    }
}

/// Seeking by surrogate, in a run sorted on the surrogate first, to
/// rising surrogates: page `p` holds the surrogates of its slice of the
/// column. The page in hand is never read again.
impl RunReader {
    /// Pass over every record below `sur`: drop the tuples below it, in
    /// hand or on the next page read, and pass over the pages that cannot
    /// hold it: those whose next page opens below it, a comparison for each
    /// fence it looks at, and then the page it lands on if that page's slice
    /// lacks `sur` (a binary search, a comparison a probe) — onto the next
    /// page if that one opens with `sur`, else it stays and marks the page
    /// as lacking `sur`. Reads nothing; returns the pages passed over.
    pub fn seek(&mut self, sur: Surrogate) -> u64 {
        self.sought = sur;
        self.lacks = false;
        if self.drop_below_sought() {
            return 0;
        }
        let (pages, mut skipped) = (self.total_pages as usize, 0);
        let next_fence = |reader: &Self| {
            let next = reader.next_page as usize + 1;
            (next < pages).then(|| reader.column.fence(next))
        };
        while next_fence(self).is_some_and(|fence| {
            self.cost.comp(1);
            fence < sur
        }) {
            self.next_page += 1;
            skipped += 1;
        }
        if (self.next_page as usize) < pages && !self.holds(self.next_page as usize, sur) {
            // The last fence compared tells whether the next page opens
            // with `sur`.
            if next_fence(self) == Some(sur) {
                self.next_page += 1;
                skipped += 1;
            } else {
                self.lacks = true;
            }
        }
        skipped
    }

    /// The next record if its surrogate is at most `sur`, reading a page
    /// only if its fence is at most `sur` and the seek to `sur` did not
    /// find it lacking; `None` (no read) otherwise.
    pub fn next_through(&mut self, sur: Surrogate) -> Option<Result<BaseTuple>> {
        loop {
            match self.current.get(self.at) {
                Some(t) if t.sur > sur => return None,
                Some(_) => return self.in_hand().map(Ok),
                None => {}
            }
            let page = self.next_page as usize;
            if self.lacks || page >= self.total_pages as usize || self.column.fence(page) > sur {
                return None;
            }
            if let Err(e) = self.load() {
                return Some(Err(e));
            }
            self.drop_below_sought();
        }
    }
}

/// A net differential item after cancellation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Net {
    /// Present in the insertion stream only.
    Ins(BaseTuple),
    /// Present in the deletion stream only.
    Del(BaseTuple),
}

/// Merge the insertion and deletion streams (both sorted by `key_of`) into
/// one key-ordered stream, cancelling pairs that are equivalent under
/// `cancel_eq` on both sides (intermediate states of multiply-updated
/// tuples).
///
/// The right equivalence depends on the consumer: the materialized view
/// logs *every* update, so its chains are contiguous and byte-identity is
/// exact; the join index logs only join-attribute updates, so an unlogged
/// payload-only update can interpose between two logged states — its
/// cancellation must compare `(surrogate, join key)` only (the index
/// derives nothing from payloads, and output fetches `R` fresh).
///
/// Within one key group, deletions are emitted before insertions. An
/// `Err` at either head is handed out before the next group.
pub fn net_differentials<I, D>(
    ins: I,
    del: D,
    key_of: impl Fn(&BaseTuple) -> SortKey + 'static,
    cancel_eq: impl Fn(&BaseTuple, &BaseTuple) -> bool + 'static,
    cost: &Cost,
) -> NetMerge<I, D>
where
    I: Iterator<Item = Result<BaseTuple>>,
    D: Iterator<Item = Result<BaseTuple>>,
{
    NetMerge {
        ins: ins.peekable(),
        del: del.peekable(),
        key_of: Box::new(key_of),
        cancel_eq: Box::new(cancel_eq),
        cost: cost.clone(),
        pending: std::collections::VecDeque::new(),
    }
}

/// Iterator returned by [`net_differentials`].
pub struct NetMerge<I, D>
where
    I: Iterator<Item = Result<BaseTuple>>,
    D: Iterator<Item = Result<BaseTuple>>,
{
    ins: std::iter::Peekable<I>,
    del: std::iter::Peekable<D>,
    key_of: Box<dyn Fn(&BaseTuple) -> SortKey>,
    cancel_eq: CancelEq,
    cost: Cost,
    pending: std::collections::VecDeque<Net>,
}

/// The cancellation-equivalence predicate of a [`NetMerge`].
type CancelEq = Box<dyn Fn(&BaseTuple, &BaseTuple) -> bool>;

impl<I, D> Iterator for NetMerge<I, D>
where
    I: Iterator<Item = Result<BaseTuple>>,
    D: Iterator<Item = Result<BaseTuple>>,
{
    type Item = Result<Net>;

    fn next(&mut self) -> Option<Result<Net>> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Some(Ok(item));
            }
            if let Some(Err(e)) =
                self.ins.next_if(Result::is_err).or_else(|| self.del.next_if(Result::is_err))
            {
                return Some(Err(e));
            }
            let key_of = &self.key_of;
            let key = |item: &Result<BaseTuple>| item.as_ref().ok().map(key_of);
            let group_key = match (self.ins.peek().and_then(key), self.del.peek().and_then(key)) {
                (None, None) => return None,
                (Some(k), None) => k,
                (None, Some(k)) => k,
                (Some(a), Some(b)) => {
                    self.cost.comp(1);
                    a.min(b)
                }
            };
            // Collect the whole key group from both sides (groups share
            // bucket+hash+surrogate, so they are tiny).
            let in_group = |item: &Result<BaseTuple>| key(item) == Some(group_key);
            let mut gi: Vec<BaseTuple> = Vec::new();
            while let Some(Ok(t)) = self.ins.next_if(in_group) {
                gi.push(t);
            }
            let mut gd: Vec<BaseTuple> = Vec::new();
            while let Some(Ok(t)) = self.del.next_if(in_group) {
                gd.push(t);
            }
            // Cancel equivalent pairs (multiset difference).
            let mut comps = 0u64;
            let mut keep_d: Vec<BaseTuple> = Vec::new();
            'outer: for d in gd {
                for (i, ins) in gi.iter().enumerate() {
                    comps += 1;
                    if (self.cancel_eq)(ins, &d) {
                        gi.remove(i);
                        continue 'outer;
                    }
                }
                keep_d.push(d);
            }
            self.cost.comp(comps);
            for d in keep_d {
                self.pending.push_back(Net::Del(d));
            }
            for i in gi {
                self.pending.push_back(Net::Ins(i));
            }
            // Loop: the group may have fully cancelled.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::{types::hash_key, Surrogate, SystemParams};
    use trijoin_storage::SimDisk;

    fn setup() -> (Disk, Cost) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        (SimDisk::new(&params, cost.clone()), cost)
    }

    fn tup(sur: u32, key: u64) -> BaseTuple {
        BaseTuple::padded(Surrogate(sur), key, 32)
    }

    fn ok(tuples: Vec<BaseTuple>) -> impl Iterator<Item = Result<BaseTuple>> {
        tuples.into_iter().map(Ok)
    }

    #[test]
    fn spills_and_merges_in_key_order() {
        let (disk, cost) = setup();
        // 2 pages of buffer, 7 tuples per run page -> spills every 14 adds.
        let mut log = DiffLog::new(&disk, &cost, 2, 7, false, |t| ji_sort_key(t.sur.0));
        for i in (0..50u32).rev() {
            log.add(tup(i, i as u64)).unwrap();
        }
        log.seal().unwrap();
        assert_eq!(log.len(), 50);
        assert!(log.num_runs() >= 3, "50 tuples / 14-cap buffer spills several runs");
        assert!(log.pages() > 0);
        let got: Vec<u32> = log.merged().unwrap().map(|t| t.unwrap().sur.0).collect();
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn a_run_read_that_fails_is_an_err_after_the_keys_below_it() {
        let (disk, cost) = setup();
        let mut log = DiffLog::new(&disk, &cost, 2, 7, false, |t| ji_sort_key(t.sur.0));
        for i in 0..50u32 {
            log.add(tup(i * 7 % 50, 0)).unwrap();
        }
        log.seal().unwrap();
        let run = log.run_files().nth(1).unwrap();
        disk.install_fault_plan(trijoin_storage::FaultPlan::new().fail_nth_op(Some(run), 1));
        let items: Vec<Result<BaseTuple>> = log.merged().unwrap().collect();
        let at = items.iter().position(Result::is_err).expect("the fault surfaced");
        let prefix: Vec<u32> = items[..at].iter().map(|t| t.as_ref().unwrap().sur.0).collect();
        assert!(at > 0 && at < 50, "{at}");
        assert_eq!(prefix, (0..at as u32).collect::<Vec<u32>>(), "every key below it, in order");
    }

    /// A seek and a pull through `sur` on `log`'s one run: what they yield,
    /// the pages they read and the pages they pass over.
    fn seek_through(log: &DiffLog, cost: &Cost, sur: u32) -> (Vec<u32>, u64, u64) {
        let mut run = log.run_readers().next().unwrap();
        let ios = cost.total().ios;
        let skipped = run.seek(Surrogate(sur));
        let got = std::iter::from_fn(|| run.next_through(Surrogate(sur)));
        let got: Vec<u32> = got.map(|t| t.unwrap().sur.0).collect();
        (got, cost.total().ios - ios, skipped)
    }

    #[test]
    fn a_seek_passes_the_page_before_a_surrogate_that_opens_the_next() {
        let (disk, cost) = setup();
        let mut log = DiffLog::new(&disk, &cost, 4, 7, false, |t| ji_sort_key(t.sur.0));
        // Page 0 holds 0, 2, ..., 12; page 1 opens a chain of nine 20s
        // that runs on into page 2, which ends with 30, 32, ... 38.
        let surs = (0..7).map(|i| i * 2).chain([20; 9]).chain((30..40).step_by(2));
        surs.for_each(|sur| log.add(tup(sur, 0)).unwrap());
        log.seal().unwrap();
        assert_eq!((log.num_runs(), log.pages()), (1, 3));
        assert_eq!(seek_through(&log, &cost, 20), (vec![20; 9], 2, 1), "pages 1 and 2 only");
        // 13 and 25 fall in page 0's and page 2's ranges and on neither.
        assert_eq!(seek_through(&log, &cost, 13), (vec![], 0, 0));
        assert_eq!(seek_through(&log, &cost, 25), (vec![], 0, 2));
        assert_eq!(seek_through(&log, &cost, 32), (vec![32], 1, 2));
    }

    #[test]
    fn a_run_is_adopted_by_reading_back_its_column() {
        let (disk, cost) = setup();
        let key = |t: &BaseTuple| ji_sort_key(t.sur.0);
        let mut log = DiffLog::new(&disk, &cost, 2, 7, false, key);
        for i in (0..14u32).rev() {
            log.add(tup(i * 3, 0)).unwrap();
        }
        let file = log.run_files().next().unwrap();
        let mut adopted = DiffLog::new(&disk, &cost, 2, 7, false, key);
        let ios = cost.total().ios;
        adopted.adopt_run(file).unwrap();
        assert_eq!(cost.total().ios - ios, 2, "each page read once");
        assert_eq!(adopted.column_entries(), log.column_entries());
        assert_eq!(seek_through(&adopted, &cost, 30), (vec![30], 1, 1));
        // A run out of surrogate order, one gone, one that will not read.
        let mut writer = trijoin_storage::heap::HeapWriter::create(&disk);
        for sur in [5, 4] {
            writer.add(&tup(sur, 0).to_bytes()).unwrap();
        }
        let unsorted = writer.finish().unwrap().file_id();
        let gone = disk.create_file();
        disk.delete_file(gone);
        disk.install_fault_plan(trijoin_storage::FaultPlan::new().fail_nth_op(Some(file), 0));
        for (run, why) in [(unsorted, "order"), (gone, "device"), (file, "will not read")] {
            let err = adopted.adopt_run(run).unwrap_err();
            assert!(matches!(&err, Error::Corrupt(m) if m.contains(why)), "{err:?}");
        }
        assert_eq!(adopted.num_runs(), 1);
    }

    #[test]
    fn empty_and_single_run_logs() {
        let (disk, cost) = setup();
        let mut log = DiffLog::new(&disk, &cost, 2, 7, false, |t| ji_sort_key(t.sur.0));
        log.seal().unwrap();
        assert!(log.is_empty());
        assert_eq!(log.num_runs(), 0);
        assert_eq!(log.merged().unwrap().count(), 0);

        let mut log = DiffLog::new(&disk, &cost, 4, 7, false, |t| ji_sort_key(t.sur.0));
        for i in 0..5u32 {
            log.add(tup(i, 0)).unwrap();
        }
        log.seal().unwrap();
        assert_eq!(log.num_runs(), 1);
        assert_eq!(log.merged().unwrap().count(), 5);
    }

    #[test]
    fn hashed_key_charges_hashes() {
        let (disk, cost) = setup();
        let mut log =
            DiffLog::new(&disk, &cost, 1, 7, true, |t| mv_sort_key(0, hash_key(t.key), t.sur.0));
        for i in 0..20u32 {
            log.add(tup(i, i as u64)).unwrap();
        }
        log.seal().unwrap();
        assert!(cost.total().hashes >= 20, "one hash per spilled tuple");
        // Stream must come back ordered by the hashed key.
        let keys: Vec<u128> = log
            .merged()
            .unwrap()
            .map(|t| t.unwrap())
            .map(|t| mv_sort_key(0, hash_key(t.key), t.sur.0))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn log_charges_moves_and_ios() {
        let (disk, cost) = setup();
        let mut log = DiffLog::new(&disk, &cost, 1, 7, false, |t| ji_sort_key(t.sur.0));
        for i in 0..21u32 {
            log.add(tup(i, 0)).unwrap();
        }
        log.seal().unwrap();
        let t = cost.total();
        assert!(t.moves >= 21, "one move per logged tuple");
        assert_eq!(t.ios, log.pages(), "one write per run page so far");
        let _ = log.merged().unwrap().count();
        assert_eq!(cost.total().ios, 2 * log.pages(), "reading back re-charges");
    }

    #[test]
    fn netting_cancels_intermediate_states() {
        let (_disk, cost) = setup();
        // Tuple 5 updated twice: old0 -> new1 -> new2. The log holds
        // d = [old0, new1], i = [new1, new2]; new1 must cancel.
        let old0 = tup(5, 10);
        let new1 = BaseTuple::with_payload(Surrogate(5), 11, b"v1", 32).unwrap();
        let new2 = BaseTuple::with_payload(Surrogate(5), 12, b"v2", 32).unwrap();
        let key = |t: &BaseTuple| ji_sort_key(t.sur.0);
        let ins = vec![new1.clone(), new2.clone()];
        let del = vec![old0.clone(), new1.clone()];
        let net: Vec<Net> = net_differentials(ok(ins), ok(del), key, |a, b| a == b, &cost)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(net, vec![Net::Del(old0), Net::Ins(new2)]);
    }

    #[test]
    fn netting_cancels_full_roundtrip() {
        let (_disk, cost) = setup();
        // a -> b -> a: everything cancels except the old/new boundary, and
        // since old == final, the whole group vanishes.
        let a = tup(7, 1);
        let b = BaseTuple::padded(Surrogate(7), 2, 32);
        let key = |t: &BaseTuple| ji_sort_key(t.sur.0);
        let ins = vec![b.clone(), a.clone()];
        let del = vec![a.clone(), b.clone()];
        let net: Vec<Net> = net_differentials(ok(ins), ok(del), key, |a, b| a == b, &cost)
            .collect::<Result<_>>()
            .unwrap();
        assert!(net.is_empty(), "round-trip updates cancel entirely, got {net:?}");
    }

    #[test]
    fn netting_passes_disjoint_streams_through() {
        let (_disk, cost) = setup();
        let key = |t: &BaseTuple| ji_sort_key(t.sur.0);
        let ins = vec![tup(2, 0), tup(4, 0)];
        let del = vec![tup(1, 0), tup(3, 0)];
        let net: Vec<Net> =
            net_differentials(ok(ins.clone()), ok(del.clone()), key, |a, b| a == b, &cost)
                .collect::<Result<_>>()
                .unwrap();
        assert_eq!(
            net,
            vec![
                Net::Del(del[0].clone()),
                Net::Ins(ins[0].clone()),
                Net::Del(del[1].clone()),
                Net::Ins(ins[1].clone()),
            ]
        );
    }

    #[test]
    fn netting_dels_before_inss_within_group() {
        let (_disk, cost) = setup();
        // Same surrogate, different payloads (A changed then changed again
        // with different content): both survive, Del first.
        let d = BaseTuple::with_payload(Surrogate(9), 1, b"old", 32).unwrap();
        let i = BaseTuple::with_payload(Surrogate(9), 2, b"new", 32).unwrap();
        let key = |t: &BaseTuple| ji_sort_key(t.sur.0);
        let net: Vec<Net> =
            net_differentials(ok(vec![i.clone()]), ok(vec![d.clone()]), key, |a, b| a == b, &cost)
                .collect::<Result<_>>()
                .unwrap();
        assert_eq!(net, vec![Net::Del(d), Net::Ins(i)]);
    }

    /// A pair one page deep per side, after an update chain over 40
    /// surrogates: each tuple moves twice, so its middle state sits in both
    /// logs and must cancel. Also the chain, as `(old, new)` steps.
    fn chained_pair(disk: &Disk, cost: &Cost) -> (DiffPair, Vec<(BaseTuple, BaseTuple)>) {
        let mut pair = DiffPair::new(disk, cost, 1, 7, false, |t| ji_sort_key(t.sur.0));
        let chain: Vec<(BaseTuple, BaseTuple)> = (0..40u32)
            .flat_map(|i| [0u64, 10].map(|k| (tup(i, k + i as u64), tup(i, k + 10 + i as u64))))
            .collect();
        for (old, new) in &chain {
            pair.log(Some(old.clone()), Some(new.clone())).unwrap();
        }
        (pair, chain)
    }

    #[test]
    fn pair_nets_like_two_hand_held_logs() {
        let (disk, cost) = setup();
        let key = |t: &BaseTuple| ji_sort_key(t.sur.0);
        let (mut pair, chain) = chained_pair(&disk, &cost);
        let mut ins = DiffLog::new(&disk, &cost, 1, 7, false, key);
        let mut del = DiffLog::new(&disk, &cost, 1, 7, false, key);
        for (old, new) in chain {
            del.add(old).unwrap();
            ins.add(new).unwrap();
        }
        pair.seal().unwrap();
        ins.seal().unwrap();
        del.seal().unwrap();
        assert!(pair.runs() >= 2, "the pair spilled");
        assert_eq!((pair.runs(), pair.pending()), (ins.num_runs(), ins.len()));
        assert_eq!(pair.pages(), ins.pages() + del.pages());
        let (i, d) = (ins.merged().unwrap(), del.merged().unwrap());
        let by_hand: Vec<Net> =
            net_differentials(i, d, key, |a, b| a == b, &cost).collect::<Result<_>>().unwrap();
        let by_pair: Vec<Net> = pair.net(|a, b| a == b).unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(by_pair.len(), 80, "first and last state of each tuple survive");
        assert_eq!(by_pair, by_hand);
    }

    #[test]
    fn restart_after_a_spill_leaves_no_run_file_behind() {
        let (disk, cost) = setup();
        let before = disk.live_files();
        let (mut pair, _) = chained_pair(&disk, &cost);
        assert!(disk.live_files().len() > before.len(), "both sides spilled runs");
        pair.restart(|t| ji_sort_key(t.sur.0));
        assert_eq!(disk.live_files(), before);
        assert_eq!((pair.pending(), pair.runs(), pair.pages()), (0, 0, 0));
        // The new epoch logs, seals and nets as a fresh pair does.
        pair.log(None, Some(tup(1, 1))).unwrap();
        pair.seal().unwrap();
        assert_eq!(pair.net(|a, b| a == b).unwrap().count(), 1);
        pair.destroy();
        assert_eq!(disk.live_files(), before);
    }
}
