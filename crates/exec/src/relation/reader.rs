//! Reading a relation's clustered tree through its apply log (see the
//! parent module's docs).

use std::borrow::Cow;
use std::cell::Ref;
use std::rc::Rc;

use trijoin_btree::Netted;
use trijoin_common::{BaseTuple, Cost, Result, Surrogate};

use super::log::{log_stream, LogStream, Pending};
use super::{State, StoredRelation};
use crate::batch::TupleRef;
use crate::diff::DiffLog;

/// A scan's place in the merged apply log: it reads the log group by
/// group, one group ahead, so each run page is read once.
struct Cursor {
    stream: LogStream,
    /// Whether the log has runs (reading a buffer alone charges nothing).
    spilled: bool,
    /// The first operation past the group read ahead.
    ahead: Option<Pending>,
    /// The group read ahead: the operations on the next surrogate the log
    /// holds, or the error that ended the log.
    next: Option<Result<(u64, Vec<Pending>)>>,
    /// Run pages read.
    pages: u64,
    cost: Cost,
}

impl Cursor {
    fn open(runs: &DiffLog, tail: &Rc<Vec<Pending>>, cost: &Cost) -> Result<Cursor> {
        let stream = log_stream(runs, tail, cost)?;
        let spilled = runs.num_runs() > 0;
        Ok(Cursor { stream, spilled, ahead: None, next: None, pages: 0, cost: cost.clone() })
    }

    /// The next operation of the log.
    fn pull(&mut self) -> Option<Result<Pending>> {
        self.stream.next().map(|record| record.and_then(Pending::from_record))
    }

    /// Read the next group ahead: the run pages it takes and the merge,
    /// under `base.read_through` (a buffer alone charges nothing; placing
    /// the group among the tree's entries rides on the comparisons the
    /// tree's scan charges).
    fn advance(&mut self) {
        let _span = self.spilled.then(|| self.cost.section("base.read_through"));
        let ios = self.cost.total().ios;
        let first = self.ahead.take().map(Ok).or_else(|| self.pull());
        self.next = first.map(|first| {
            let first = first?;
            let sur = first.tuple.sur;
            let mut ops = vec![first];
            loop {
                match self.pull().transpose()? {
                    Some(p) if p.tuple.sur == sur => ops.push(p),
                    other => break self.ahead = other,
                }
            }
            Ok((sur.0 as u64, ops))
        });
        self.pages += self.cost.total().ios - ios;
    }

    /// The next group, if its surrogate passes `take`; the error that
    /// ended the log, whatever `take` says.
    fn take_if(&mut self, take: impl FnOnce(u64) -> bool) -> Result<Option<(u64, Vec<Pending>)>> {
        match &self.next {
            Some(Err(e)) => return Err(e.clone()),
            Some(Ok((sur, _))) if take(*sur) => {}
            _ => return Ok(None),
        }
        let group = self.next.take().transpose()?;
        self.advance();
        Ok(group)
    }

    /// Hand `emit` what the groups below `below` (all the rest, with
    /// `None`) insert: surrogates the tree lacks hold what their
    /// operations put there.
    fn insert_below(
        &mut self,
        below: Option<u64>,
        mut emit: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<()> {
        while let Some((_, ops)) = self.take_if(|sur| below.is_none_or(|b| sur < b))? {
            if let Netted::Put(v) = Pending::net(None, &ops) {
                emit(&v)?;
            }
        }
        Ok(())
    }
}

/// One reader of a relation's clustered tree ([`StoredRelation::reader`]):
/// the tree as it stands and, unless the relation settled for it, the
/// apply log merged into what it reads. A scan reads the log whole, in
/// surrogate order; a fetch reads it run by run, so fetches may ask for
/// surrogates in any order from call to call.
pub struct Reader<'a> {
    pub(super) rel: &'a StoredRelation,
    pub(super) st: Ref<'a, State>,
    /// The log's buffer, sorted, when the reader reads through the log.
    pub(super) tail: Option<Rc<Vec<Pending>>>,
    /// Run pages this reader's fetches have read and passed over, once
    /// one has asked.
    pub(super) fetched: Option<(u64, u64)>,
}

impl Reader<'_> {
    /// Pages of `|M|` a scan through the log holds: an input page per run
    /// (the buffer is memory the log holds anyway; a fetch holds one run
    /// page at a time). The strategy that scans takes them from its own
    /// `|M|` and pays the log rent for what that costs it
    /// ([`Reader::pay_rent`]).
    pub fn pages_held(&self) -> u64 {
        self.tail.as_ref().map_or(0, |_| self.st.log.runs.num_runs() as u64)
    }

    /// Pay the log `pages` of rent for the `|M|` this read-through held:
    /// the I/O the strategy paid because [`Reader::pages_held`] took that
    /// memory from it. It counts with the run pages read toward the price
    /// of a settle (module docs), and in `base.read_through.rent`. Charges
    /// nothing on the ledger; a reader that holds no page owes nothing.
    pub fn pay_rent(&self, pages: u64) {
        if self.pages_held() == 0 || pages == 0 {
            return;
        }
        let log = &self.st.log;
        log.rent.set(log.rent.get() + pages);
        self.rel.disk.metrics().counter_add_id(log.c_read_rent, pages);
    }

    /// Leaf pages of the clustered tree as it stands (`|R|` for an
    /// estimate: queued inserts and deletes have not moved it yet).
    pub fn data_pages(&self) -> u64 {
        self.st.clustered.leaf_pages()
    }

    /// [`StoredRelation::len_estimate`].
    pub fn len_estimate(&self) -> u64 {
        self.st.len_estimate()
    }

    /// A cursor at the head of the log, when reading through it.
    fn open(&self) -> Result<Option<Cursor>> {
        let tail = self.tail.as_ref();
        tail.map(|tail| Cursor::open(&self.st.log.runs, tail, self.rel.disk.cost())).transpose()
    }

    /// Count one read through the log: the run pages it read, and those
    /// it passed over.
    fn finish(&self, pages: u64, skipped: u64) {
        let (log, metrics) = (&self.st.log, self.rel.disk.metrics());
        log.rent.set(log.rent.get() + pages);
        metrics.incr_id(log.c_reads);
        metrics.counter_add_id(log.c_read_pages, pages);
        metrics.counter_add_id(log.c_read_skipped, skipped);
    }

    /// Full scan in surrogate order: one read I/O per leaf page, and one
    /// per run page when reading through the log.
    pub fn scan(&self, mut f: impl FnMut(BaseTuple)) -> Result<()> {
        self.scan_pinned(|t, _| f(t.to_tuple()))
    }

    /// Full scan handing out *borrowed* tuple views plus the shared page
    /// image each view borrows from (`None` when the tuple lives in the
    /// memory-resident root leaf or comes from the log). Charge-identical
    /// to [`Reader::scan`], but no per-tuple payload allocation: the image
    /// handle lets the vectorized operators pin pages into a
    /// [`crate::batch::RowBatch`] instead of copying payloads out.
    pub fn scan_pinned(&self, mut f: impl FnMut(TupleRef<'_>, Option<&Rc<Vec<u8>>>)) -> Result<()> {
        let mut emit = |bytes: &[u8], page: Option<&Rc<Vec<u8>>>| {
            f(TupleRef::decode(bytes)?, page);
            Ok(())
        };
        let (tree, mut err) = (&self.st.clustered, None);
        let Some(mut log) = self.open()? else {
            tree.for_each_range(0, u64::MAX, |_, bytes, page| {
                emit(bytes, page).map_err(|e| err = Some(e)).is_ok()
            })?;
            return err.map_or(Ok(()), Err);
        };
        log.advance();
        let scanned = tree.for_each_range(0, u64::MAX, |key, bytes, page| {
            let merged = log.insert_below(Some(key), |v| emit(v, None)).and_then(|()| {
                match log.take_if(|sur| sur == key)? {
                    None => emit(bytes, page),
                    Some((_, ops)) => match Pending::net(Some(bytes), &ops) {
                        Netted::Unchanged => emit(bytes, page),
                        Netted::Put(v) => emit(&v, None),
                        Netted::Remove => Ok(()),
                    },
                }
            });
            merged.map_err(|e| err = Some(e)).is_ok()
        });
        let read = match (scanned, err) {
            (Ok(()), None) => log.insert_below(None, |v| emit(v, None)),
            (scanned, err) => scanned.and(err.map_or(Ok(()), Err)),
        };
        self.finish(log.pages, 0);
        read
    }

    /// Batched fetch by *sorted* surrogates: each touched page is charged
    /// at most once (the Yao-style scheduled access of the paper's
    /// algorithms) — each run page of the log too. The log is read as Yao
    /// prices it ([`Reader::chains_of`]): only the run pages that hold a
    /// surrogate asked for, each once a call.
    pub fn fetch_by_surrogates(
        &mut self,
        sorted_surs: &[Surrogate],
        mut f: impl FnMut(BaseTuple),
    ) -> Result<()> {
        let keys: Vec<u64> = sorted_surs.iter().map(|s| s.0 as u64).collect();
        let Some(tail) = self.tail.clone() else {
            let mut err = None;
            self.st.clustered.fetch_many(&keys, |_, bytes| {
                if err.is_none() {
                    match BaseTuple::from_bytes(bytes) {
                        Ok(t) => f(t),
                        Err(e) => err = Some(e),
                    }
                }
            })?;
            return err.map_or(Ok(()), Err);
        };
        let mut surs = sorted_surs.to_vec();
        surs.dedup();
        let chains = self.chains_of(&surs, &tail)?;
        // The log's operations are in hand: now the tree, in the same order.
        let mut stored: Vec<(u64, Vec<u8>)> = Vec::new();
        self.st.clustered.fetch_many(&keys, |sur, bytes| stored.push((sur, bytes.to_vec())))?;
        let (mut at_tree, mut at_log) = (0, 0);
        for &key in &keys {
            while stored.get(at_tree).is_some_and(|(sur, _)| *sur < key) {
                at_tree += 1;
            }
            while (surs[at_log].0 as u64) < key {
                at_log += 1;
            }
            let now = stored.get(at_tree).filter(|(sur, _)| *sur == key).map(|(_, v)| v.as_slice());
            let bytes = match chains[at_log].as_slice() {
                [] => now.map(Cow::Borrowed),
                ops => match Pending::net(now, ops) {
                    Netted::Unchanged => now.map(Cow::Borrowed),
                    Netted::Put(v) => Some(Cow::Owned(v)),
                    Netted::Remove => None,
                },
            };
            if let Some(bytes) = bytes {
                f(BaseTuple::from_bytes(&bytes)?);
            }
        }
        Ok(())
    }

    /// The log's operations on each of the sorted, distinct `surs`, in
    /// submission order — the runs' order, then the buffer's — with no
    /// merge, under `base.read_through` (a buffer alone charges nothing).
    /// Each run, in the order it spilled, is sought to each
    /// surrogate by its surrogate column (every record's surrogate, sliced
    /// by page, in memory), so what is read is each run page whose slice
    /// holds one, a page at a time, keeping only those surrogates' records;
    /// then the buffer, `tail`. The pages read and passed over count toward
    /// this reader's, a read failed or not.
    fn chains_of(&mut self, surs: &[Surrogate], tail: &[Pending]) -> Result<Vec<Vec<Pending>>> {
        let (runs, cost) = (&self.st.log.runs, self.rel.disk.cost());
        let _span = (runs.num_runs() > 0).then(|| cost.section("base.read_through"));
        let (ios, mut skipped) = (cost.total().ios, 0);
        let mut chains: Vec<Vec<Pending>> = vec![Vec::new(); surs.len()];
        let read = runs.run_readers().try_for_each(|mut run| {
            surs.iter().zip(&mut chains).try_for_each(|(&sur, chain)| {
                skipped += run.seek(sur);
                while let Some(record) = run.next_through(sur) {
                    chain.push(Pending::from_record(record?)?);
                }
                Ok(())
            })
        });
        let fetched = self.fetched.get_or_insert((0, 0));
        (fetched.0, fetched.1) = (fetched.0 + cost.total().ios - ios, fetched.1 + skipped);
        read?;
        let mut at = 0;
        for (&sur, chain) in surs.iter().zip(&mut chains) {
            at += tail[at..].partition_point(|p| p.tuple.sur < sur);
            let end = at + tail[at..].partition_point(|p| p.tuple.sur == sur);
            chain.extend_from_slice(&tail[at..end]);
            at = end;
        }
        Ok(chains)
    }
}

impl Drop for Reader<'_> {
    fn drop(&mut self) {
        if let Some((pages, skipped)) = self.fetched.take() {
            self.finish(pages, skipped);
        }
    }
}
