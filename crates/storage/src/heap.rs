//! Heap files: write-once record files over slotted pages.
//!
//! Used for sort runs, differential files (`iR`, `dR`), hash-join bucket
//! spills and the base relations' apply-log runs. A heap file is written
//! once, as a run, and read back by page ([`HeapFile::for_each_page_record`])
//! or by extent ([`crate::SimDisk::read_run`]). The paper charges one `IO`
//! per page for sequential reads and writes (its cost model has a single
//! I/O constant); [`HeapWriter`] therefore buffers one page in memory and
//! emits exactly one I/O per filled page.

use trijoin_common::{Error, Result};

use crate::disk::{Disk, FileId, PageId};
use crate::page::SlottedPage;

/// Stable address of a record within a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Page number within the heap file.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

/// An existing heap file on a [`Disk`].
#[derive(Debug, Clone)]
pub struct HeapFile {
    disk: Disk,
    file: FileId,
}

impl HeapFile {
    /// Create a new, empty heap file.
    pub fn create(disk: &Disk) -> Self {
        HeapFile { disk: disk.clone(), file: disk.create_file() }
    }

    /// Wrap an existing file id as a heap file.
    pub fn open(disk: &Disk, file: FileId) -> Self {
        HeapFile { disk: disk.clone(), file }
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of pages.
    pub fn num_pages(&self) -> u32 {
        self.disk.num_pages(self.file).unwrap_or(0)
    }

    /// Drop the file's pages.
    pub fn destroy(self) {
        self.disk.delete_file(self.file);
    }

    /// Read one full page (one I/O) and hand each live record to `f` as a
    /// *borrowed* slice — the zero-copy path run scans decode through. The
    /// closure runs under the disk borrow (see
    /// [`crate::SimDisk::read_page_with`]): decode, don't re-enter the disk.
    pub fn for_each_page_record(
        &self,
        page_no: u32,
        mut f: impl FnMut(RecordId, &[u8]),
    ) -> Result<()> {
        self.disk.read_page_with(PageId::new(self.file, page_no), |raw| {
            crate::page::for_each_record(raw, |slot, rec| f(RecordId { page: page_no, slot }, rec))
        })
    }
}

/// Buffered appender: accumulates one page in memory and writes each page
/// with exactly one I/O when it fills (or on [`HeapWriter::finish`]).
pub struct HeapWriter {
    disk: Disk,
    file: FileId,
    current: SlottedPage,
    page_no: u32,
    records: u64,
}

impl HeapWriter {
    /// Start writing a brand-new heap file.
    pub fn create(disk: &Disk) -> Self {
        let file = disk.create_file();
        HeapWriter {
            disk: disk.clone(),
            file,
            current: SlottedPage::new(disk.page_size()),
            page_no: 0,
            records: 0,
        }
    }

    /// Append a record, returning its future [`RecordId`].
    pub fn add(&mut self, record: &[u8]) -> Result<RecordId> {
        if !self.current.fits(record.len()) {
            if self.current.live_count() == 0 {
                return Err(Error::PageOverflow {
                    needed: record.len(),
                    available: self.disk.page_size(),
                });
            }
            self.flush_current()?;
        }
        let slot = self.current.insert(record)?;
        self.records += 1;
        Ok(RecordId { page: self.page_no, slot })
    }

    /// Append a record keeping at most `per_page` records per page — used to
    /// reproduce the paper's occupancy-based packing (`n_R` tuples/page).
    pub fn add_with_cap(&mut self, record: &[u8], per_page: usize) -> Result<RecordId> {
        if self.current.live_count() >= per_page {
            self.flush_current()?;
        }
        self.add(record)
    }

    fn flush_current(&mut self) -> Result<()> {
        let page = std::mem::replace(&mut self.current, SlottedPage::new(self.disk.page_size()));
        self.disk.append_page(self.file, page.bytes())?;
        self.page_no += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Give up on the file: drop the pages written so far.
    pub fn abandon(self) {
        self.disk.delete_file(self.file);
    }

    /// Flush the trailing partial page and return the finished [`HeapFile`]
    /// (abandoned if that last write fails).
    pub fn finish(mut self) -> Result<HeapFile> {
        if self.current.live_count() > 0 {
            if let Err(e) = self.flush_current() {
                self.abandon();
                return Err(e);
            }
        }
        Ok(HeapFile::open(&self.disk, self.file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use trijoin_common::{Cost, SystemParams};

    fn disk() -> (Disk, Cost) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        (SimDisk::new(&params, cost.clone()), cost)
    }

    /// Every live record of `heap`, page by page.
    fn read_back(heap: &HeapFile) -> Vec<(RecordId, Vec<u8>)> {
        let mut out = Vec::new();
        for page in 0..heap.num_pages() {
            heap.for_each_page_record(page, |rid, rec| out.push((rid, rec.to_vec()))).unwrap();
        }
        out
    }

    #[test]
    fn writer_emits_one_io_per_page() {
        let (d, c) = disk();
        let mut w = HeapWriter::create(&d);
        // 20-byte records + 4-byte slots: 10 per 256-byte page (header 4).
        for i in 0..25u8 {
            w.add(&[i; 20]).unwrap();
        }
        let heap = w.finish().unwrap();
        assert_eq!(heap.num_pages(), 3);
        assert_eq!(c.total().ios, 3, "3 page writes, no read-modify-write");
    }

    #[test]
    fn scan_reads_each_page_once_in_order() {
        let (d, c) = disk();
        let mut w = HeapWriter::create(&d);
        for i in 0..30u8 {
            w.add(&[i; 20]).unwrap();
        }
        let heap = w.finish().unwrap();
        let write_ios = c.total().ios;
        let recs = read_back(&heap);
        assert_eq!(recs.len(), 30);
        for (i, (_, r)) in recs.iter().enumerate() {
            assert_eq!(r[0], i as u8, "scan must preserve append order");
        }
        assert_eq!(c.total().ios - write_ios, heap.num_pages() as u64);
    }

    #[test]
    fn per_page_cap_reproduces_occupancy_packing() {
        let (d, _c) = disk();
        let mut w = HeapWriter::create(&d);
        for i in 0..10u8 {
            w.add_with_cap(&[i; 8], 4).unwrap();
        }
        let heap = w.finish().unwrap();
        assert_eq!(heap.num_pages(), 3); // 4 + 4 + 2
        let mut counts = [0usize; 3];
        for (rid, _) in read_back(&heap) {
            counts[rid.page as usize] += 1;
        }
        assert_eq!(counts, [4, 4, 2]);
    }

    #[test]
    fn oversized_record_rejected() {
        let (d, _c) = disk();
        let mut w = HeapWriter::create(&d);
        assert!(w.add(&[0u8; 300]).is_err());
        // Writer still usable afterwards.
        w.add(&[1u8; 20]).unwrap();
        let heap = w.finish().unwrap();
        assert_eq!(read_back(&heap).len(), 1);
    }

    #[test]
    fn empty_file_scans_empty() {
        let (d, c) = disk();
        let heap = HeapWriter::create(&d).finish().unwrap();
        assert_eq!(heap.num_pages(), 0);
        assert!(read_back(&heap).is_empty());
        assert_eq!(c.total().ios, 0);
    }

    #[test]
    fn record_ids_from_writer_are_valid_after_finish() {
        let (d, _c) = disk();
        let mut w = HeapWriter::create(&d);
        let rids: Vec<RecordId> = (0..15u8).map(|i| w.add(&[i; 20]).unwrap()).collect();
        let heap = w.finish().unwrap();
        let read: Vec<(RecordId, u8)> =
            read_back(&heap).iter().map(|(rid, r)| (*rid, r[0])).collect();
        assert_eq!(read, rids.into_iter().zip(0..).collect::<Vec<_>>());
    }

    #[test]
    fn destroy_releases_pages() {
        let (d, _c) = disk();
        let mut w = HeapWriter::create(&d);
        w.add(&[1u8; 20]).unwrap();
        let heap = w.finish().unwrap();
        assert_eq!(d.total_pages(), 1);
        heap.destroy();
        assert_eq!(d.total_pages(), 0);
    }
}
