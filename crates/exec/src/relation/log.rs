//! The apply log (see the parent module's docs): a queued mutation, its
//! run-record form, the queue itself, and the log as one stream in
//! surrogate order.

use std::cell::Cell;
use std::rc::Rc;

use trijoin_btree::{net_chain, Netted, SweepOp};
use trijoin_common::{BaseTuple, Cost, CounterId, Error, Json, Result, Surrogate, SystemParams};
use trijoin_storage::{Disk, FileId, SlottedPage};

use super::{column_pages, SettleStats, APPLY_LOG_PAGES};
use crate::diff::{DiffLog, SortKey};
use crate::sort::{counted_sort_by, KWayMerge, Seek};
use crate::strategy::Mutation;

/// What a queued mutation does to the tuple under its surrogate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Kind {
    Update,
    Insert,
    Delete,
}

/// A mutation as the log takes it: what it does, the surrogate it names,
/// and the tuple it carries (the new one, for an update).
pub(super) fn parts(m: &Mutation) -> (Kind, Surrogate, &BaseTuple) {
    match m {
        Mutation::Update(u) => (Kind::Update, u.old.sur, &u.new),
        Mutation::Insert(t) => (Kind::Insert, t.sur, t),
        Mutation::Delete(t) => (Kind::Delete, t.sur, t),
    }
}

/// One queued mutation: the new tuple (the deleted one, for a delete) and
/// its place in submission order.
#[derive(Debug, Clone)]
pub(super) struct Pending {
    pub(super) seq: u32,
    pub(super) kind: Kind,
    pub(super) tuple: BaseTuple,
}

impl Pending {
    /// Bytes a spilled record carries after the tuple: `seq`, then `kind`.
    pub(super) const TRAILER: usize = 5;

    /// Surrogate order, submission order within one surrogate.
    fn sort_key(&self) -> SortKey {
        ((self.tuple.sur.0 as u128) << 32) | self.seq as u128
    }

    /// The run-file form: the tuple with the trailer appended to its
    /// payload, so the differential log's writer and merge carry it.
    fn to_record(&self) -> BaseTuple {
        let mut payload = Vec::with_capacity(self.tuple.payload.len() + Self::TRAILER);
        payload.extend_from_slice(&self.tuple.payload);
        payload.extend_from_slice(&self.seq.to_le_bytes());
        payload.push(self.kind as u8);
        BaseTuple { sur: self.tuple.sur, key: self.tuple.key, payload: payload.into() }
    }

    /// Where the trailer starts in a record's payload, and its `seq`.
    fn trailer(record: &BaseTuple) -> Option<(usize, u32)> {
        let at = record.payload.len().checked_sub(Self::TRAILER)?;
        Some((at, u32::from_le_bytes(record.payload[at..at + 4].try_into().ok()?)))
    }

    /// [`Pending::sort_key`] read off the run-file form.
    fn record_key(record: &BaseTuple) -> SortKey {
        let seq = Self::trailer(record).map_or(0, |(_, seq)| seq);
        ((record.sur.0 as u128) << 32) | seq as u128
    }

    pub(super) fn from_record(record: BaseTuple) -> Result<Pending> {
        let corrupt = || Error::Corrupt("apply-log record without its trailer".into());
        let (at, seq) = Self::trailer(&record).ok_or_else(corrupt)?;
        let kind = match record.payload[at + 4] {
            0 => Kind::Update,
            1 => Kind::Insert,
            2 => Kind::Delete,
            _ => return Err(corrupt()),
        };
        let tuple =
            BaseTuple { sur: record.sur, key: record.key, payload: record.payload[..at].into() };
        Ok(Pending { seq, kind, tuple })
    }

    /// The clustered tree's side of the mutation.
    pub(super) fn op(&self) -> SweepOp {
        match self.kind {
            Kind::Update => SweepOp::Replace(self.tuple.to_bytes()),
            Kind::Insert => SweepOp::Insert(self.tuple.to_bytes()),
            Kind::Delete => SweepOp::Remove(None),
        }
    }

    /// What one surrogate's operations leave of its stored tuple: the
    /// sweep's verdict, for a reader.
    pub(super) fn net(stored: Option<&[u8]>, ops: &[Pending]) -> Netted {
        net_chain(stored, ops.iter().map(Pending::op)).0
    }
}

/// The apply log in merged order — its runs and its buffer, sorted — as
/// one stream of records in surrogate order, submission order within a
/// surrogate ([`Pending::from_record`] reads one): what the sweep applies
/// and a reader reads through, seeking in it by surrogate. A run read that
/// fails is an `Err` in it.
pub(super) type LogStream = Box<dyn Seek>;

/// The [`LogStream`] of `runs` and `tail`, the buffer in surrogate order.
pub(super) fn log_stream(
    runs: &DiffLog,
    tail: &Rc<Vec<Pending>>,
    cost: &Cost,
) -> Result<LogStream> {
    let tail = Tail { buffer: Rc::clone(tail), at: 0 };
    if runs.num_runs() == 0 {
        return Ok(Box::new(tail));
    }
    let sources: Vec<Box<dyn Seek>> = vec![Box::new(runs.merged()?), Box::new(tail)];
    let key = |r: &Result<BaseTuple>| r.as_ref().map_or(0, Pending::record_key);
    Ok(Box::new(KWayMerge::new(sources, key, cost.clone())))
}

/// The buffer, sorted, as records: in memory, so a seek reads nothing.
struct Tail {
    buffer: Rc<Vec<Pending>>,
    at: usize,
}

impl Iterator for Tail {
    type Item = Result<BaseTuple>;

    fn next(&mut self) -> Option<Result<BaseTuple>> {
        let p = self.buffer.get(self.at)?;
        self.at += 1;
        Some(Ok(p.to_record()))
    }
}

impl Seek for Tail {
    fn seek(&mut self, sur: Surrogate) -> u64 {
        let passed = self.buffer[self.at..].partition_point(|p| p.tuple.sur < sur);
        self.at += passed;
        0
    }

    fn next_through(&mut self, sur: Surrogate) -> Option<Result<BaseTuple>> {
        self.buffer.get(self.at).filter(|p| p.tuple.sur <= sur)?;
        self.next()
    }
}

/// One entry the inverted tree must gain or lose because a tuple's join
/// key changed, appeared or went.
#[derive(Debug, Clone, Copy)]
pub(super) struct Posting {
    pub(super) key: u64,
    pub(super) sur: u32,
    pub(super) add: bool,
}

/// The queue between a relation's mutators and its trees (module docs).
pub(super) struct ApplyLog {
    /// Mutations in submission order — surrogate order once `sorted` —
    /// at most `cap` of them; shared with the readers reading it through.
    pub(super) buffer: Rc<Vec<Pending>>,
    pub(super) sorted: bool,
    pub(super) cap: usize,
    pub(super) per_page: usize,
    pub(super) page_size: usize,
    /// Buffers that filled up, as surrogate-sorted runs.
    pub(super) runs: DiffLog,
    pub(super) seq: u32,
    /// Mutations queued and not yet landed.
    pub(super) queued: u64,
    /// Inserts less deletes among them.
    pub(super) net_inserts: i64,
    /// `|M|`: the merge of the runs must fit in it.
    pub(super) mem_pages: usize,
    /// Settles nobody has asked about yet ([`StoredRelation::take_settled`]).
    pub(super) unreported: SettleStats,
    /// After a settle that failed: how many operations of the log, in
    /// merged order, are in the clustered tree already. The log is frozen
    /// until a settle gets through.
    pub(super) resume: Option<u64>,
    /// Owed to the inverted tree by changes that landed in the clustered.
    pub(super) postings: Vec<Posting>,
    /// Most pages the log has held at once: buffer, one per run being
    /// merged, the runs' surrogate columns, and the path the sweep holds
    /// (none for a read-through).
    pub(super) peak_pages: Cell<u64>,
    /// The widest bound a settle has held those pages to (the bound moves
    /// with the relation's size).
    pub(super) bound_pages: u64,
    /// Rent readers have paid on the log since it last settled: run pages
    /// read through it, and what the `|M|` their held runs took cost the
    /// strategy that read ([`super::Reader::pay_rent`]).
    pub(super) rent: Cell<u64>,
    /// Operations refused so far, over the relation's life.
    pub(super) rejected: u64,
    pub(super) c_settles: CounterId,
    pub(super) c_ops: CounterId,
    pub(super) c_rejected: CounterId,
    pub(super) c_leaves: CounterId,
    c_runs: CounterId,
    pub(super) c_reads: CounterId,
    pub(super) c_read_pages: CounterId,
    pub(super) c_read_skipped: CounterId,
    pub(super) c_read_rent: CounterId,
}

impl ApplyLog {
    pub(super) fn new(disk: &Disk, params: &SystemParams, tuple_bytes: usize) -> ApplyLog {
        let record_bytes = tuple_bytes + Pending::TRAILER;
        let per_page = SlottedPage::records_per_page(disk.page_size(), record_bytes).max(1);
        let (metrics, cost) = (disk.metrics(), disk.cost());
        ApplyLog {
            buffer: Rc::default(),
            sorted: true,
            cap: APPLY_LOG_PAGES * per_page,
            per_page,
            page_size: disk.page_size(),
            runs: DiffLog::new(disk, cost, APPLY_LOG_PAGES, per_page, false, Pending::record_key),
            seq: 0,
            queued: 0,
            net_inserts: 0,
            mem_pages: params.mem_pages,
            unreported: SettleStats::default(),
            resume: None,
            postings: Vec::new(),
            peak_pages: Cell::new(0),
            bound_pages: 0,
            rent: Cell::new(0),
            rejected: 0,
            c_settles: metrics.counter_handle("base.settles"),
            c_ops: metrics.counter_handle("base.settle.ops"),
            c_rejected: metrics.counter_handle("base.settle.rejected"),
            c_leaves: metrics.counter_handle("base.settle.leaves_written"),
            c_runs: metrics.counter_handle("base.apply_log.runs"),
            c_reads: metrics.counter_handle("base.read_through.reads"),
            c_read_pages: metrics.counter_handle("base.read_through.pages"),
            c_read_skipped: metrics.counter_handle("base.read_through.skipped"),
            c_read_rent: metrics.counter_handle("base.read_through.rent"),
        }
    }

    /// Pages the buffer fills.
    pub(super) fn buffer_pages(&self) -> usize {
        self.buffer.len().div_ceil(self.per_page)
    }

    /// Pages the runs' surrogate columns fill in memory ([`column_pages`]).
    pub(super) fn column_pages(&self) -> usize {
        column_pages(self.runs.column_entries(), self.page_size) as usize
    }

    /// Put the buffer in surrogate order, unless it is.
    pub(super) fn sort_buffer(&mut self, cost: &Cost) {
        if !self.sorted {
            let buffer: &mut Vec<Pending> = Rc::make_mut(&mut self.buffer);
            counted_sort_by(buffer, Pending::sort_key, cost);
            self.sorted = true;
        }
    }

    /// Raise the peak to `pages` held at once.
    pub(super) fn hold(&self, pages: usize) {
        self.peak_pages.set(self.peak_pages.get().max(pages as u64));
    }

    /// Hand the buffer to the run writer, whose own buffer is as large,
    /// and spill what it holds: a full buffer fills it and spills as one
    /// run, a short one (a commit's) as a short run. A write fault leaves
    /// every record in one buffer or the other.
    pub(super) fn spill(&mut self, disk: &Disk) -> Result<()> {
        let runs = self.runs.num_runs();
        let buffer = Rc::make_mut(&mut self.buffer);
        while let Some(p) = buffer.pop() {
            self.runs.add(p.to_record())?;
        }
        self.runs.spill()?;
        self.sorted = true;
        disk.metrics().counter_add_id(self.c_runs, (self.runs.num_runs() - runs) as u64);
        Ok(())
    }

    /// The catalog form of a sealed log: its runs' files, `seq`, `queued`
    /// and `net_inserts`.
    pub(super) fn to_json(&self) -> Json {
        let runs: Vec<Json> = self.runs.run_files().map(|file| Json::from(file.0 as u64)).collect();
        Json::obj()
            .set("runs", runs)
            .set("seq", self.seq as u64)
            .set("queued", self.queued)
            .set("net_inserts", self.net_inserts as f64)
    }

    /// Reopen the log a catalog names ([`ApplyLog::to_json`]), reading
    /// each run once under a `base.reopen` span to rebuild its surrogate
    /// column ([`DiffLog::adopt_run`]).
    pub(super) fn reopen(&mut self, j: &Json, cost: &Cost) -> Result<()> {
        let corrupt = |k: &str| Error::Corrupt(format!("catalog apply log: bad field {k}"));
        let field = |k: &str| j.get(k).and_then(Json::as_f64).ok_or_else(|| corrupt(k));
        let runs = j.get("runs").and_then(Json::as_arr).ok_or_else(|| corrupt("runs"))?;
        let _span = (!runs.is_empty()).then(|| cost.section("base.reopen"));
        for run in runs {
            let file = run.as_u64().and_then(|n| u32::try_from(n).ok());
            self.runs.adopt_run(FileId(file.ok_or_else(|| corrupt("runs"))?))?;
        }
        (self.seq, self.queued) = (field("seq")? as u32, field("queued")? as u64);
        self.net_inserts = field("net_inserts")? as i64;
        Ok(())
    }
}
