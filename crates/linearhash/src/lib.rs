//! Litwin linear hash file — the storage organization of the materialized
//! view `V` (Table 5: "Materialized view V: linear hash file on join
//! attribute").
//!
//! Records are stored with an explicit 64-bit hash prefix so buckets can be
//! rehashed on split. A bucket is a chain of pages; the in-memory bucket
//! directory (each chain's page numbers and record count) is file metadata
//! (the paper never charges I/O for catalog state), while every page read
//! or written charges through the simulated disk. The directory is
//! *sparse*: an empty bucket owns no page and costs no read, and a page
//! that ends a merge empty leaves its chain for the free list.
//!
//! ## Bucket order and the on-the-fly merge
//!
//! The paper's materialized-view algorithm sorts the differential sets
//! `iR ⋈ S` and `dR` "by hash(A)" so they can be merged into `V` *while `V`
//! is being read* (§3.2 step 3/4). Reading `V` happens in bucket order, so
//! the merge key must be the *bucket address*, not the raw hash: the
//! [`Addressing`] snapshot exposes the exact address function so the
//! execution pipeline can sort differentials by `(bucket, hash)` and stream
//! them against one [`BucketMerge`] per bucket: [`LinearHash::open_bucket`]
//! reads each chain page once, [`BucketMerge::retain`] drops rejected
//! records where they sit, [`BucketMerge::insert`] places new ones
//! first-fit, and [`LinearHash::commit`] writes exactly the *changed*
//! pages — those that lost or gained a record, C3.2's Yao count — and
//! leaves the file as it was if a write fails. Point inserts and deletes,
//! splits and [`LinearHash::rewrite_bucket`] are the same primitive. Splits
//! are frozen during a bulk merge and applied afterwards via
//! [`LinearHash::rebalance`] (the paper's cost model likewise prices only
//! the changed-page writes, not restructuring).
//!
//! ```
//! use trijoin_common::{types::hash_key, Cost, SystemParams};
//! use trijoin_linearhash::LinearHash;
//! use trijoin_storage::SimDisk;
//!
//! let params = SystemParams::paper_defaults();
//! let disk = SimDisk::new(&params, Cost::new());
//! let mut v = LinearHash::create(&disk, &params, 4, 48).unwrap();
//! for k in 0..500u64 {
//!     v.insert(hash_key(k), &k.to_le_bytes()).unwrap();
//! }
//! assert_eq!(v.len(), 500);
//! // Controlled splits keep the load factor near 1/F = 1/1.2.
//! assert!(v.load_factor() <= 1.0 / params.hash_overhead + 0.2);
//! assert_eq!(v.lookup(hash_key(42)).unwrap(), vec![42u64.to_le_bytes().to_vec()]);
//! v.check_invariants().unwrap();
//! ```

use trijoin_common::{Error, Result, SystemParams};
use trijoin_storage::{Disk, FileId, PageId, SlottedPage};

/// Snapshot of the linear-hash address function.
///
/// Standard Litwin addressing: with `n0` initial buckets, `level` completed
/// doubling rounds and `next_split` the split pointer, a hash `h` maps to
/// `h mod (n0·2^level)`, unless that bucket has already been split this
/// round, in which case it maps to `h mod (n0·2^(level+1))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Addressing {
    /// Initial bucket count.
    pub n0: u64,
    /// Completed doubling rounds.
    pub level: u32,
    /// Split pointer within the current round.
    pub next_split: u64,
}

impl Addressing {
    /// Bucket index for `hash`.
    pub fn addr(&self, hash: u64) -> u64 {
        let m = self.n0 << self.level;
        let b = hash % m;
        if b < self.next_split {
            hash % (m << 1)
        } else {
            b
        }
    }

    /// Total buckets currently addressable.
    pub fn buckets(&self) -> u64 {
        (self.n0 << self.level) + self.next_split
    }

    /// The address function once the bucket at the split pointer has split.
    fn after_split(mut self) -> Self {
        self.next_split += 1;
        if self.next_split == self.n0 << self.level {
            self.next_split = 0;
            self.level += 1;
        }
        self
    }
}

/// One directory entry: the chain's page numbers in order and how many
/// records they hold. An empty bucket has no pages.
#[derive(Debug, Clone, Default)]
struct Bucket {
    pages: Vec<u32>,
    len: u64,
}

/// One chain page held in memory by a [`BucketMerge`].
struct ChainPage {
    /// Its page number; `None` for a page an insertion linked, which gets a
    /// recycled or fresh number at commit.
    no: Option<u32>,
    page: SlottedPage,
    /// The image as read, kept from the page's first change on: what marks
    /// the page as changed, and what a failed commit writes back.
    before: Option<Vec<u8>>,
}

impl ChainPage {
    fn touch(&mut self) {
        if self.no.is_some() && self.before.is_none() {
            self.before = Some(self.page.bytes().to_vec());
        }
    }
}

/// One bucket's chain between its read ([`LinearHash::open_bucket`]) and
/// its write-back ([`LinearHash::commit`]): records are dropped and added
/// on the page images in memory, and each page remembers whether it
/// changed.
pub struct BucketMerge {
    bucket: usize,
    pages: Vec<ChainPage>,
    per_page: usize,
    page_size: usize,
    removed: u64,
    added: u64,
    /// Pages below this index hold `n_V` records: first-fit skips them.
    full: usize,
}

impl BucketMerge {
    /// Show every stored record to `keep`, in page order, and drop the
    /// ones it rejects from the page they sit on.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &[u8]) -> Result<bool>) -> Result<()> {
        for cp in &mut self.pages {
            let mut rejected = Vec::new();
            for (slot, raw) in cp.page.iter() {
                let (hash, rec) = LinearHash::decode(raw)?;
                if !keep(hash, rec)? {
                    rejected.push(slot);
                }
            }
            if !rejected.is_empty() {
                cp.touch();
                self.full = 0;
            }
            for slot in rejected {
                cp.page.delete(slot)?;
                self.removed += 1;
            }
        }
        Ok(())
    }

    /// Add one record to the first page with room (at most `n_V` records a
    /// page, the occupancy the file was sized for), linking a new page at
    /// the chain's end when none has.
    pub fn insert(&mut self, hash: u64, rec: &[u8]) -> Result<()> {
        let encoded = LinearHash::encode(hash, rec);
        let per_page = self.per_page;
        while self.pages.get(self.full).is_some_and(|cp| cp.page.live_count() >= per_page) {
            self.full += 1;
        }
        let room = |cp: &ChainPage| cp.page.live_count() < per_page && cp.page.fits(encoded.len());
        let at = match self.pages[self.full..].iter().position(room) {
            Some(at) => self.full + at,
            None => {
                let page = SlottedPage::new(self.page_size);
                self.pages.push(ChainPage { no: None, page, before: None });
                self.pages.len() - 1
            }
        };
        let cp = &mut self.pages[at];
        cp.touch();
        cp.page.insert(&encoded).map_err(|_| Error::PageOverflow {
            needed: encoded.len(),
            available: self.page_size,
        })?;
        self.added += 1;
        Ok(())
    }

    /// True once a record was dropped or added.
    pub fn is_changed(&self) -> bool {
        self.removed + self.added > 0
    }
}

/// A linear hash file of `(hash, record)` pairs.
pub struct LinearHash {
    disk: Disk,
    file: FileId,
    buckets: Vec<Bucket>,
    addressing: Addressing,
    records: u64,
    /// Pages no chain links any more, reused before the file grows.
    free_pages: Vec<u32>,
    /// Target records per page (the paper's `n_V`, occupancy-derived).
    per_page: usize,
    /// Split when `records > split_load · per_page · buckets`.
    split_load: f64,
}

impl LinearHash {
    /// Create an empty file with `n0` initial buckets. `tuple_bytes` is the
    /// serialized record size (the paper's `T_V`), used to derive the
    /// per-page packing `n_V = ⌊P·PO/T_V⌋`; `params.hash_overhead` (`F`)
    /// sets the split threshold so the file stabilizes at `F·|V|` pages.
    pub fn create(disk: &Disk, params: &SystemParams, n0: u64, tuple_bytes: usize) -> Result<Self> {
        let n0 = n0.max(1);
        Ok(LinearHash {
            disk: disk.clone(),
            file: disk.create_file(),
            buckets: vec![Bucket::default(); n0 as usize],
            addressing: Addressing { n0, level: 0, next_split: 0 },
            records: 0,
            free_pages: Vec::new(),
            per_page: params.tuples_per_page(tuple_bytes + 8).max(1),
            // With threshold 1/F on primary capacity, steady-state page
            // count ≈ F · (records / per_page) = F·|V|.
            split_load: 1.0 / params.hash_overhead,
        })
    }

    /// Bulk-build from records, with `F·|V|` buckets for the given record
    /// count (one write I/O per page that holds a record).
    pub fn build(
        disk: &Disk,
        params: &SystemParams,
        records: impl IntoIterator<Item = (u64, Vec<u8>)>,
        expected: u64,
        tuple_bytes: usize,
    ) -> Result<Self> {
        let per_page = params.tuples_per_page(tuple_bytes + 8).max(1) as u64;
        let data_pages = expected.div_ceil(per_page).max(1);
        let n0 = ((data_pages as f64) * params.hash_overhead).ceil() as u64;
        let mut lh = Self::create(disk, params, n0, tuple_bytes)?;
        // Partition in memory, then write each bucket once.
        let mut parts: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); n0 as usize];
        for (h, rec) in records {
            let b = lh.addressing.addr(h) as usize;
            parts[b].push((h, rec));
        }
        for (b, part) in parts.into_iter().enumerate() {
            if !part.is_empty() {
                if let Err(e) = lh.rewrite_bucket(b as u64, part) {
                    // A caller retrying the build gets a fresh file; don't
                    // leave the half-written one allocated.
                    lh.destroy();
                    return Err(e);
                }
            }
        }
        Ok(lh)
    }

    /// The live address-function snapshot.
    pub fn addressing(&self) -> Addressing {
        self.addressing
    }

    /// The backing file (fault-injection targeting and space accounting).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Release the backing file (used when a damaged view is rebuilt into a
    /// fresh file and the old one is abandoned).
    pub fn destroy(self) {
        self.disk.delete_file(self.file);
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Total pages currently linked into a chain.
    pub fn num_pages(&self) -> u64 {
        self.buckets.iter().map(|b| b.pages.len() as u64).sum()
    }

    /// Page numbers of one bucket's chain, in order (empty for an empty
    /// bucket): what the I/O-law tests count reads and writes against.
    pub fn chain(&self, bucket: u64) -> Result<&[u32]> {
        Ok(&self.bucket(bucket)?.pages)
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// True when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    fn encode(hash: u64, rec: &[u8]) -> Vec<u8> {
        [&hash.to_le_bytes(), rec].concat()
    }

    fn decode(raw: &[u8]) -> Result<(u64, &[u8])> {
        match raw.split_first_chunk::<8>() {
            Some((hash, rec)) => Ok((u64::from_le_bytes(*hash), rec)),
            None => Err(Error::Corrupt("linear-hash record missing hash prefix".into())),
        }
    }

    fn bucket(&self, bucket: u64) -> Result<&Bucket> {
        self.buckets
            .get(bucket as usize)
            .ok_or_else(|| Error::Invariant(format!("bucket {bucket} out of range")))
    }

    /// Read one bucket's records (one read I/O per chain page, none for an
    /// empty bucket), in page order.
    pub fn scan_bucket(&self, bucket: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        let entry = self.bucket(bucket)?;
        let mut out = Vec::with_capacity(entry.len as usize);
        for &no in &entry.pages {
            // A page at a time: a scan holds no chain in memory.
            let page = SlottedPage::from_bytes(self.disk.read_page(PageId::new(self.file, no))?)?;
            for (_, raw) in page.iter() {
                let (hash, rec) = Self::decode(raw)?;
                out.push((hash, rec.to_vec()));
            }
        }
        Ok(out)
    }

    /// Read one bucket's chain for changing (one read I/O per chain page,
    /// none for an empty bucket).
    pub fn open_bucket(&self, bucket: u64) -> Result<BucketMerge> {
        let entry = self.bucket(bucket)?;
        let mut pages = Vec::with_capacity(entry.pages.len());
        for &no in &entry.pages {
            let page = SlottedPage::from_bytes(self.disk.read_page(PageId::new(self.file, no))?)?;
            pages.push(ChainPage { no: Some(no), page, before: None });
        }
        Ok(self.merge_over(bucket as usize, pages))
    }

    fn merge_over(&self, bucket: usize, pages: Vec<ChainPage>) -> BucketMerge {
        let (per_page, page_size) = (self.per_page, self.disk.page_size());
        BucketMerge { bucket, pages, per_page, page_size, removed: 0, added: 0, full: 0 }
    }

    /// Write a merged chain back: one write I/O for each page that lost or
    /// gained a record and still holds one. Pages that ended empty leave
    /// the chain for the free list (no I/O: the chain is directory state);
    /// pages the insertions linked take recycled numbers, then fresh ones.
    /// Returns the records on the written pages — what C3.3 counts as moved.
    ///
    /// The directory, the counts and the free list change only after the
    /// last write succeeded. A failed write puts the old image of every
    /// page already overwritten back (a charged write each), so the error
    /// leaves the file with the contents it had.
    pub fn commit(&mut self, merge: BucketMerge) -> Result<u64> {
        let BucketMerge { bucket, pages, removed, added, .. } = merge;
        let opened = pages.iter().filter_map(|cp| cp.no);
        if !opened.eq(self.bucket(bucket as u64)?.pages.iter().copied()) {
            return Err(Error::Invariant(format!("bucket {bucket} changed since it was opened")));
        }
        let (mut linked, mut overwritten) = (Vec::new(), Vec::new());
        let written = (|| {
            let (mut chain, mut moved) = (Vec::with_capacity(pages.len()), 0u64);
            for cp in pages.iter().filter(|cp| cp.page.live_count() > 0) {
                let no = match cp.no {
                    Some(no) => no,
                    None => {
                        let no = match self.free_pages.pop() {
                            Some(recycled) => recycled,
                            None => self.disk.allocate_page(self.file)?.page,
                        };
                        linked.push(no);
                        no
                    }
                };
                if cp.no.is_none() || cp.before.is_some() {
                    self.disk.write_page(PageId::new(self.file, no), cp.page.bytes())?;
                    overwritten.extend(cp.before.as_deref().map(|before| (no, before)));
                    moved += cp.page.live_count() as u64;
                }
                chain.push(no);
            }
            Ok((chain, moved))
        })();
        let (chain, moved) = match written {
            Ok(done) => done,
            Err(e) => {
                for (no, before) in overwritten {
                    // Best effort: a device that fails this too is reported
                    // by the error already on its way up.
                    let _ = self.disk.write_page(PageId::new(self.file, no), before);
                }
                self.free_pages.extend(linked.into_iter().rev());
                return Err(e);
            }
        };
        let emptied = pages.iter().filter(|cp| cp.page.live_count() == 0).filter_map(|cp| cp.no);
        self.free_pages.extend(emptied);
        let entry = &mut self.buckets[bucket];
        entry.pages = chain;
        entry.len = entry.len + added - removed;
        self.records = self.records + added - removed;
        Ok(moved)
    }

    /// Replace one bucket's contents (reads the chain it replaces; the new
    /// records are packed first-fit into its pages).
    pub fn rewrite_bucket(&mut self, bucket: u64, records: Vec<(u64, Vec<u8>)>) -> Result<()> {
        let mut chain = self.open_bucket(bucket)?;
        chain.retain(|_, _| Ok(false))?;
        for (h, rec) in &records {
            chain.insert(*h, rec)?;
        }
        self.commit(chain).map(drop)
    }

    /// All records whose hash is exactly `hash` (reads the bucket chain).
    pub fn lookup(&self, hash: u64) -> Result<Vec<Vec<u8>>> {
        let b = self.addressing.addr(hash);
        Ok(self.scan_bucket(b)?.into_iter().filter(|(h, _)| *h == hash).map(|(_, r)| r).collect())
    }

    /// Insert one record and split if the load factor demands it.
    pub fn insert(&mut self, hash: u64, rec: &[u8]) -> Result<()> {
        let mut chain = self.open_bucket(self.addressing.addr(hash))?;
        chain.insert(hash, rec)?;
        self.commit(chain)?;
        if self.load_factor() > self.split_load {
            self.split_one()?;
        }
        Ok(())
    }

    /// Delete the first record under `hash` whose payload satisfies `pred`.
    pub fn delete(&mut self, hash: u64, pred: impl Fn(&[u8]) -> bool) -> Result<bool> {
        let mut chain = self.open_bucket(self.addressing.addr(hash))?;
        let mut removed = false;
        chain.retain(|h, rec| {
            let hit = !removed && h == hash && pred(rec);
            removed |= hit;
            Ok(!hit)
        })?;
        if removed {
            self.commit(chain)?;
        }
        Ok(removed)
    }

    /// Current load factor: records per primary-page capacity.
    pub fn load_factor(&self) -> f64 {
        // At least one bucket, at least one record a page.
        self.records as f64 / (self.num_buckets() * self.per_page as u64) as f64
    }

    /// Run splits until the load factor is back under the threshold —
    /// called after a bulk on-the-fly merge (splits are frozen during the
    /// merge so the sort order stays valid).
    pub fn rebalance(&mut self) -> Result<u64> {
        let mut splits = 0;
        while self.load_factor() > self.split_load {
            self.split_one()?;
            splits += 1;
        }
        Ok(splits)
    }

    /// Split the bucket at the split pointer: the records that rehash to
    /// the new bucket at the end of the table leave the pages they sit on
    /// and are packed into pages of its own.
    fn split_one(&mut self) -> Result<()> {
        let victim = self.addressing.next_split;
        let after = self.addressing.after_split();
        let new_bucket = self.buckets.len();
        let mut stay = self.open_bucket(victim)?;
        let mut go = self.merge_over(new_bucket, Vec::new());
        stay.retain(|h, rec| {
            if after.addr(h) == victim {
                return Ok(true);
            }
            debug_assert_eq!(after.addr(h), new_bucket as u64);
            go.insert(h, rec)?;
            Ok(false)
        })?;
        // The new bucket lands first: until the victim's pages are written
        // too, dropping its directory entry undoes the split.
        self.buckets.push(Bucket::default());
        if let Err(e) = self.commit(go).and_then(|_| self.commit(stay)) {
            let new = self.buckets.pop().expect("pushed above");
            self.records -= new.len;
            self.free_pages.extend(new.pages);
            return Err(e);
        }
        self.addressing = after;
        Ok(())
    }

    /// Check internal consistency (test helper; free reads): every record
    /// is in the bucket its hash addresses, no linked page is empty or
    /// over `n_V`, the directory's counts match the stored records, and the
    /// chains and the free list together hold every page of the file once.
    pub fn check_invariants(&self) -> Result<()> {
        let bad = |msg: String| Err(Error::Invariant(msg));
        let mut count = 0u64;
        for (b, entry) in self.buckets.iter().enumerate() {
            let mut stored = 0u64;
            for &p in &entry.pages {
                let raw = self.disk.read_page_free(PageId::new(self.file, p))?;
                let page = SlottedPage::from_bytes(raw)?;
                for (_, rec) in page.iter() {
                    let (h, _) = Self::decode(rec)?;
                    if self.addressing.addr(h) != b as u64 {
                        return bad(format!(
                            "hash {h:#x} stored in bucket {b}, addresses {}",
                            self.addressing.addr(h)
                        ));
                    }
                }
                let live = page.live_count();
                if live == 0 || live > self.per_page {
                    return bad(format!("page {p} of bucket {b} holds {live} records"));
                }
                stored += live as u64;
            }
            if stored != entry.len {
                return bad(format!("bucket {b}: stored {stored}, directory says {}", entry.len));
            }
            count += stored;
        }
        if count != self.records {
            return bad(format!("record count mismatch: stored {count}, tracked {}", self.records));
        }
        let chains = self.buckets.iter().flat_map(|entry| &entry.pages);
        let mut owned: Vec<u32> = chains.chain(&self.free_pages).copied().collect();
        owned.sort_unstable();
        if !owned.iter().copied().eq(0..self.disk.num_pages(self.file)?) {
            return bad(format!("linked and free pages do not partition the file: {owned:?}"));
        }
        if self.num_buckets() != self.addressing.buckets() {
            return bad("bucket directory vs addressing mismatch".into());
        }
        Ok(())
    }
}

impl std::fmt::Debug for LinearHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinearHash")
            .field("buckets", &self.num_buckets())
            .field("pages", &self.num_pages())
            .field("records", &self.records)
            .field("load_factor", &self.load_factor())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::{types::hash_key, Cost};
    use trijoin_storage::SimDisk;

    fn setup() -> (Disk, Cost, SystemParams) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        (SimDisk::new(&params, cost.clone()), cost, params)
    }

    #[test]
    fn addressing_is_standard_litwin() {
        let a = Addressing { n0: 4, level: 0, next_split: 0 };
        assert_eq!(a.addr(7), 3);
        assert_eq!(a.addr(8), 0);
        assert_eq!(a.buckets(), 4);
        // After splitting bucket 0: hashes ≡ 0 (mod 4) spread over mod 8.
        let a = Addressing { n0: 4, level: 0, next_split: 1 };
        assert_eq!(a.addr(8), 0); // 8 % 8
        assert_eq!(a.addr(4), 4); // 4 % 8 -> the new bucket
        assert_eq!(a.addr(7), 3); // unsplit bucket unchanged
        assert_eq!(a.buckets(), 5);
        // A full round doubles the table.
        let a = Addressing { n0: 4, level: 1, next_split: 0 };
        assert_eq!(a.buckets(), 8);
        assert_eq!(a.addr(13), 5);
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let (disk, _c, p) = setup();
        let mut lh = LinearHash::create(&disk, &p, 4, 24).unwrap();
        for k in 0..50u64 {
            lh.insert(hash_key(k), &k.to_le_bytes()).unwrap();
        }
        assert_eq!(lh.len(), 50);
        for k in 0..50u64 {
            let got = lh.lookup(hash_key(k)).unwrap();
            assert_eq!(got, vec![k.to_le_bytes().to_vec()], "key {k}");
        }
        assert!(lh.lookup(hash_key(999)).unwrap().is_empty());
        lh.check_invariants().unwrap();
    }

    #[test]
    fn splits_keep_load_factor_bounded() {
        let (disk, _c, p) = setup();
        let mut lh = LinearHash::create(&disk, &p, 2, 24).unwrap();
        for k in 0..300u64 {
            lh.insert(hash_key(k), &k.to_le_bytes()).unwrap();
        }
        assert!(lh.num_buckets() > 2, "table must have grown");
        assert!(
            lh.load_factor() <= 1.0 / p.hash_overhead + 0.2,
            "load factor {} should hover near 1/F",
            lh.load_factor()
        );
        lh.check_invariants().unwrap();
        for k in 0..300u64 {
            assert_eq!(lh.lookup(hash_key(k)).unwrap().len(), 1, "key {k} after splits");
        }
    }

    #[test]
    fn delete_removes_exactly_one() {
        let (disk, _c, p) = setup();
        let mut lh = LinearHash::create(&disk, &p, 4, 24).unwrap();
        let h = hash_key(7);
        lh.insert(h, b"a").unwrap();
        lh.insert(h, b"b").unwrap();
        lh.insert(h, b"a").unwrap(); // duplicate payload
        assert_eq!(lh.len(), 3);
        assert!(lh.delete(h, |r| r == b"a").unwrap());
        assert_eq!(lh.len(), 2);
        let mut got = lh.lookup(h).unwrap();
        got.sort();
        assert_eq!(got, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(!lh.delete(h, |r| r == b"zz").unwrap());
        lh.check_invariants().unwrap();
    }

    #[test]
    fn build_targets_f_times_v_pages() {
        let (disk, cost, p) = setup();
        // 24-byte records + 8-byte hash prefix: per_page = 256*0.7/32 = 5.
        let n = 200u64;
        let records: Vec<(u64, Vec<u8>)> =
            (0..n).map(|k| (hash_key(k), vec![k as u8; 24])).collect();
        let lh = LinearHash::build(&disk, &p, records, n, 24).unwrap();
        assert_eq!(lh.len(), n);
        let v_pages = n.div_ceil(5);
        let expect = (v_pages as f64 * p.hash_overhead).ceil() as u64;
        assert!(
            lh.num_pages() >= expect && lh.num_pages() <= expect + expect / 3,
            "pages {} vs F·|V| target {}",
            lh.num_pages(),
            expect
        );
        lh.check_invariants().unwrap();
        // Build cost: roughly one write per non-empty page.
        assert!(cost.total().ios <= 2 * lh.num_pages());
    }

    #[test]
    fn scan_and_rewrite_bucket_merge_cycle() {
        let (disk, cost, p) = setup();
        let mut lh = LinearHash::create(&disk, &p, 4, 24).unwrap();
        for k in 0..40u64 {
            lh.insert(hash_key(k), &k.to_le_bytes()).unwrap();
        }
        lh.check_invariants().unwrap();
        cost.reset();
        // Simulate the on-the-fly merge: read every bucket in order, drop
        // odd keys, keep the rest; write back only changed buckets.
        let addr = lh.addressing();
        let mut kept = 0u64;
        for b in 0..lh.num_buckets() {
            let records = lh.scan_bucket(b).unwrap();
            let filtered: Vec<(u64, Vec<u8>)> = records
                .iter()
                .filter(|(_, r)| u64::from_le_bytes(r[..8].try_into().unwrap()) % 2 == 0)
                .cloned()
                .collect();
            kept += filtered.len() as u64;
            if filtered.len() != records.len() {
                lh.rewrite_bucket(b, filtered).unwrap();
            }
        }
        assert_eq!(kept, 20);
        assert_eq!(lh.len(), 20);
        assert_eq!(addr, lh.addressing(), "no splits during a frozen merge");
        lh.check_invariants().unwrap();
        for k in 0..40u64 {
            let got = lh.lookup(hash_key(k)).unwrap();
            assert_eq!(got.len(), usize::from(k % 2 == 0), "key {k}");
        }
        assert!(cost.total().ios > 0);
    }

    #[test]
    fn rebalance_after_bulk_growth() {
        let (disk, _c, p) = setup();
        let mut lh = LinearHash::create(&disk, &p, 2, 24).unwrap();
        // Bulk-stuff one bucket's worth of records via rewrite (merge-style),
        // then rebalance.
        let addr = lh.addressing();
        let mut per_bucket: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); 2];
        for k in 0..100u64 {
            let h = hash_key(k);
            per_bucket[addr.addr(h) as usize].push((h, k.to_le_bytes().to_vec()));
        }
        for (b, recs) in per_bucket.into_iter().enumerate() {
            lh.rewrite_bucket(b as u64, recs).unwrap();
        }
        assert_eq!(lh.len(), 100);
        assert!(lh.load_factor() > 1.0, "2 buckets are overloaded");
        let splits = lh.rebalance().unwrap();
        assert!(splits > 0);
        assert!(lh.load_factor() <= 1.0 / p.hash_overhead + 0.01);
        lh.check_invariants().unwrap();
        for k in 0..100u64 {
            assert_eq!(lh.lookup(hash_key(k)).unwrap().len(), 1, "key {k}");
        }
    }

    #[test]
    fn overflow_chains_grow_and_shrink() {
        let (disk, _c, p) = setup();
        let mut lh = LinearHash::create(&disk, &p, 1, 24).unwrap();
        // Force everything into bucket 0 without splits by rewriting.
        let recs: Vec<(u64, Vec<u8>)> = (0..30u64).map(|k| (0u64, vec![k as u8; 24])).collect();
        lh.rewrite_bucket(0, recs).unwrap();
        let grown = lh.num_pages();
        assert!(grown > 1, "30 records of 24B need overflow pages");
        // Shrink back.
        lh.rewrite_bucket(0, vec![(0u64, vec![1u8; 24])]).unwrap();
        assert_eq!(lh.len(), 1);
        // Freed pages are recycled on the next growth.
        let before_pages = disk.num_pages(lh.file).unwrap();
        let recs: Vec<(u64, Vec<u8>)> = (0..30u64).map(|k| (0u64, vec![k as u8; 24])).collect();
        lh.rewrite_bucket(0, recs).unwrap();
        assert_eq!(disk.num_pages(lh.file).unwrap(), before_pages.max(grown as u32));
        lh.check_invariants().unwrap();
    }

    #[test]
    fn empty_file_behaves() {
        let (disk, cost, p) = setup();
        let lh = LinearHash::create(&disk, &p, 3, 24).unwrap();
        assert!(lh.is_empty());
        assert_eq!(lh.num_buckets(), 3);
        assert!(lh.lookup(12345).unwrap().is_empty());
        assert_eq!(lh.scan_bucket(0).unwrap(), Vec::new());
        assert!(lh.scan_bucket(99).is_err());
        // An empty bucket owns no page and costs no read.
        assert_eq!((lh.num_pages(), disk.num_pages(lh.file).unwrap()), (0, 0));
        assert_eq!(cost.total().ios, 0);
        lh.check_invariants().unwrap();
    }

    /// One bucket of 20 records on 4 pages of `n_V = 5`, with two recycled
    /// pages on the free list.
    fn one_chain(disk: &Disk, p: &SystemParams) -> LinearHash {
        let mut lh = LinearHash::create(disk, p, 1, 24).unwrap();
        let recs = |n: u64| (0..n).map(|k| (k, vec![k as u8; 24])).collect::<Vec<_>>();
        lh.rewrite_bucket(0, recs(30)).unwrap();
        lh.rewrite_bucket(0, recs(20)).unwrap();
        assert_eq!((lh.num_pages(), lh.free_pages.len()), (4, 2));
        lh
    }

    /// Drop record 7 (on page 1) and records 17..20 (on page 3), and add
    /// `adds` records.
    fn merge(lh: &mut LinearHash, adds: u64) -> Result<u64> {
        let mut chain = lh.open_bucket(0)?;
        chain.retain(|h, _| Ok(!(h == 7 || h > 16)))?;
        for k in 100..100 + adds {
            chain.insert(k, &[k as u8; 24])?;
        }
        lh.commit(chain)
    }

    #[test]
    fn merge_reads_the_chain_once_and_writes_the_changed_pages() {
        let (disk, cost, p) = setup();
        let mut lh = one_chain(&disk, &p);
        cost.reset();
        // Nothing rejected, nothing added: four reads, no write.
        let mut chain = lh.open_bucket(0).unwrap();
        chain.retain(|_, _| Ok(true)).unwrap();
        assert!(!chain.is_changed());
        assert_eq!(lh.commit(chain).unwrap(), 0);
        assert_eq!(cost.total().ios, 4);
        // Records 7 (page 1) and 17..20 (page 3) go; two of the three new
        // ones fill page 1's hole and page 3's first: two writes, and the
        // moves are the records on those two pages.
        cost.reset();
        assert_eq!(merge(&mut lh, 3).unwrap(), 5 + 4);
        assert_eq!(cost.total().ios, 4 + 2);
        assert_eq!(lh.len(), 20 - 4 + 3);
        lh.check_invariants().unwrap();
        // A page that ends empty leaves the chain without a write.
        cost.reset();
        let mut chain = lh.open_bucket(0).unwrap();
        chain.retain(|h, _| Ok(!(10..15).contains(&h))).unwrap();
        assert_eq!(lh.commit(chain).unwrap(), 0);
        assert_eq!((cost.total().ios, lh.num_pages(), lh.free_pages.len()), (4, 3, 3));
        lh.check_invariants().unwrap();
    }

    #[test]
    fn a_failed_merge_leaves_the_old_contents() {
        use trijoin_storage::FaultPlan;
        let (disk, cost, p) = setup();
        let mut lh = one_chain(&disk, &p);
        let old = lh.scan_bucket(0).unwrap();
        let file_pages = disk.num_pages(lh.file).unwrap();
        // The merge reads 4 pages and writes 4: pages 1 and 3 in place and
        // two linked ones (15 survivors + 12 new records need 6 pages).
        for nth in 0..8 {
            disk.install_fault_plan(FaultPlan::new().fail_nth_op(Some(lh.file), nth));
            assert!(merge(&mut lh, 12).is_err(), "operation {nth} of the merge fails");
            assert_eq!(disk.faults_pending(), 0);
            lh.check_invariants().unwrap();
            assert_eq!(lh.scan_bucket(0).unwrap(), old, "after failing operation {nth}");
            assert_eq!((lh.num_pages(), lh.free_pages.len()), (4, 2));
            assert_eq!(disk.num_pages(lh.file).unwrap(), file_pages);
        }
        // So does a failed split: 4 reads, 2 writes for the new bucket's
        // half, 4 for the pages of the old one (each loses a record).
        let addressing = lh.addressing();
        for nth in 0..10 {
            disk.install_fault_plan(FaultPlan::new().fail_nth_op(Some(lh.file), nth));
            assert!(lh.split_one().is_err(), "operation {nth} of the split fails");
            lh.check_invariants().unwrap();
            assert_eq!((lh.addressing(), lh.num_buckets()), (addressing, 1));
            assert_eq!(lh.scan_bucket(0).unwrap(), old);
        }
        cost.reset();
        merge(&mut lh, 12).unwrap();
        assert_eq!(cost.total().ios, 8);
        assert_eq!(disk.num_pages(lh.file).unwrap(), file_pages, "linked pages were recycled ones");
        lh.check_invariants().unwrap();
    }
}
