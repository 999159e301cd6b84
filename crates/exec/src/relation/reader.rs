//! Reading a relation's clustered tree through its apply log (see the
//! parent module's docs).

use std::borrow::Cow;
use std::cell::Ref;
use std::rc::Rc;

use trijoin_btree::Netted;
use trijoin_common::{BaseTuple, Cost, Error, Result, Surrogate};

use super::log::{log_stream, LogStream, Pending};
use super::{State, StoredRelation};
use crate::batch::TupleRef;
use crate::diff::DiffLog;

/// A read-through's place in the merged apply log. It only moves forward,
/// so each run page is read once however many reads share it. A scan reads
/// the log group by group, one group ahead; a fetch seeks it to each
/// surrogate it asks for and reads nothing ahead of it.
pub(super) struct Cursor {
    stream: LogStream,
    /// Whether the log has runs (reading a buffer alone charges nothing).
    spilled: bool,
    /// A scan's first operation past the group read ahead.
    ahead: Option<Pending>,
    /// A scan's group read ahead: the operations on the next surrogate the
    /// log holds, or the error that ended the log.
    next: Option<Result<(u64, Vec<Pending>)>>,
    /// The surrogate a fetch asked for last.
    passed: Option<u64>,
    /// Run pages read.
    pages: u64,
    /// Run pages a fetch's seeks passed over without reading them.
    skipped: u64,
    cost: Cost,
}

impl Cursor {
    fn open(runs: &DiffLog, tail: &Rc<Vec<Pending>>, cost: &Cost) -> Result<Cursor> {
        let stream = log_stream(runs, tail, cost)?;
        Ok(Cursor {
            stream,
            spilled: runs.num_runs() > 0,
            ahead: None,
            next: None,
            passed: None,
            pages: 0,
            skipped: 0,
            cost: cost.clone(),
        })
    }

    /// The next operation of the log.
    fn pull(&mut self) -> Option<Result<Pending>> {
        self.stream.next().map(|record| record.and_then(Pending::from_record))
    }

    /// Read a scan's next group ahead: the run pages it takes and the
    /// merge, under `base.read_through` (a buffer alone charges nothing;
    /// placing the group among the tree's entries rides on the comparisons
    /// the tree's scan charges).
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

    /// The operations on each of the sorted `keys`, in order, keys without
    /// any left out, under `base.read_through` (a buffer alone charges
    /// nothing). The log is sought to each key before it is read, so what
    /// is read is each run page whose slice of its run's surrogate column
    /// holds a key. A key at or below one an earlier call asked for is
    /// refused: its operations are behind the cursor.
    fn chains_of(&mut self, keys: &[u64]) -> Result<Vec<(u64, Vec<Pending>)>> {
        let cost = self.cost.clone();
        let _span = self.spilled.then(|| cost.section("base.read_through"));
        let ios = cost.total().ios;
        let (mut chains, mut read) = (Vec::new(), Ok(()));
        for (i, &key) in keys.iter().enumerate() {
            if i > 0 && keys[i - 1] == key {
                continue;
            }
            read = self.chain_of(key).map(|ops| chains.extend(ops.map(|ops| (key, ops))));
            if read.is_err() {
                break;
            }
        }
        self.pages += cost.total().ios - ios;
        read.map(|()| chains)
    }

    /// The operations on `key`, if it has any: the log is sought to it,
    /// then read through it.
    fn chain_of(&mut self, key: u64) -> Result<Option<Vec<Pending>>> {
        if self.passed.replace(key).is_some_and(|sur| sur >= key) {
            return Err(Error::Invariant(format!(
                "read-through fetch of surrogate {key} behind the log's cursor"
            )));
        }
        let sur = Surrogate(key as u32);
        self.skipped += self.stream.seek(sur);
        let mut ops = Vec::new();
        while let Some(record) = self.stream.next_through(sur) {
            ops.push(Pending::from_record(record?)?);
        }
        Ok((!ops.is_empty()).then_some(ops))
    }
}

/// One reader of a relation's clustered tree ([`StoredRelation::reader`]):
/// the tree as it stands and, unless the relation settled for it, the
/// apply log merged into what it reads. The log is read in surrogate
/// order: each scan reads it whole, while fetches share one cursor, so a
/// reader's fetches must ask for surrogates that rise from call to call.
pub struct Reader<'a> {
    pub(super) rel: &'a StoredRelation,
    pub(super) st: Ref<'a, State>,
    /// The log's buffer, sorted, when the reader reads through the log.
    pub(super) tail: Option<Rc<Vec<Pending>>>,
    /// The fetches' place in the log.
    pub(super) cursor: Option<Cursor>,
}

impl Reader<'_> {
    /// Pages of `|M|` the read-through holds: an input page per run of the
    /// log (the buffer is memory the log holds anyway). The strategy that
    /// reads takes them from its own `|M|` and pays the log rent for what
    /// that costs it ([`Reader::pay_rent`]).
    pub fn pages_held(&self) -> u64 {
        self.tail.as_ref().map_or(0, |_| self.st.log.runs.num_runs() as u64)
    }

    /// Run pages this reader's fetches have read through the log so far.
    pub fn pages_read(&self) -> u64 {
        self.cursor.as_ref().map_or(0, |cursor| cursor.pages)
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

    /// Count one read through the log.
    fn finish(&self, cursor: Cursor) {
        let (log, metrics) = (&self.st.log, self.rel.disk.metrics());
        log.rent.set(log.rent.get() + cursor.pages);
        metrics.incr_id(log.c_reads);
        metrics.counter_add_id(log.c_read_pages, cursor.pages);
        metrics.counter_add_id(log.c_read_skipped, cursor.skipped);
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
        self.finish(log);
        read
    }

    /// Batched fetch by *sorted* surrogates: each touched page is charged
    /// at most once (the Yao-style scheduled access of the paper's
    /// algorithms) — each run page of the log too, across all of this
    /// reader's fetches, which must ask for rising surrogates. The log is
    /// read as Yao prices it: the cursor seeks every run to each surrogate
    /// by the surrogate column it keeps in memory (every record's
    /// surrogate, sliced by page), so it reads only the run pages that hold
    /// one, each once.
    pub fn fetch_by_surrogates(
        &mut self,
        sorted_surs: &[Surrogate],
        mut f: impl FnMut(BaseTuple),
    ) -> Result<()> {
        let keys: Vec<u64> = sorted_surs.iter().map(|s| s.0 as u64).collect();
        if self.tail.is_none() {
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
        }
        if self.cursor.is_none() {
            self.cursor = self.open()?;
        }
        let cursor = self.cursor.as_mut().expect("a read-through has a cursor");
        let chains = match cursor.chains_of(&keys) {
            Ok(chains) => chains,
            Err(e) => {
                // The next fetch starts over at the head of the log.
                let spent = self.cursor.take().expect("still there");
                self.finish(spent);
                return Err(e);
            }
        };
        // The log's operations are in hand: now the tree, in the same order.
        let mut stored: Vec<(u64, Vec<u8>)> = Vec::new();
        self.st.clustered.fetch_many(&keys, |sur, bytes| stored.push((sur, bytes.to_vec())))?;
        let (mut at_tree, mut at_log) = (0, 0);
        for &key in &keys {
            while stored.get(at_tree).is_some_and(|(sur, _)| *sur < key) {
                at_tree += 1;
            }
            while chains.get(at_log).is_some_and(|(sur, _)| *sur < key) {
                at_log += 1;
            }
            let now = stored.get(at_tree).filter(|(sur, _)| *sur == key).map(|(_, v)| v.as_slice());
            let bytes = match chains.get(at_log).filter(|(sur, _)| *sur == key) {
                None => now.map(Cow::Borrowed),
                Some((_, ops)) => match Pending::net(now, ops) {
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
}

impl Drop for Reader<'_> {
    fn drop(&mut self) {
        if let Some(cursor) = self.cursor.take() {
            // Past the last fetch: a failure there cost no answer.
            self.finish(cursor);
        }
    }
}
