//! Pluggable page-store backends under [`crate::SimDisk`].
//!
//! [`StorageBackend`] is the *raw medium*: create/delete files, allocate
//! pages, move page images. Everything the simulator layers on top —
//! fault gates, damage marks, the cost ledger, metrics — stays in
//! `SimDisk`, so the golden ledgers are byte-identical whichever backend
//! is plugged in, and an installed `FaultPlan` composes with all of them.
//!
//! Two media live here:
//!
//! * [`MemBackend`] — the original in-memory store (reference-counted
//!   page images that `SimDisk::read_page_rc` hands over without a
//!   copy). This is what `SimDisk::new` uses; nothing
//!   observable changed.
//! * [`FileBackend`] — real `std::fs` files, one per [`FileId`], still
//!   *charged* on the simulated constants (the ledger is the paper's
//!   model, not the host's SSD). Every syscall result is mapped through
//!   [`Error::io`]; the backend never panics on OS failures.
//!
//! The write-ahead-logging [`crate::wal::DurableBackend`] wraps a
//! [`FileBackend`] and adds atomic commit on top of this trait.

use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use trijoin_common::{Error, Result};

use crate::disk::{FileId, PageId};

/// What one page write carries: borrowed bytes (the backend copies) or a
/// shared image (an in-memory backend may store the `Rc` itself — how
/// the WAL applies committed images without copying them).
#[derive(Debug, Clone, Copy)]
pub enum PageWrite<'a> {
    /// Plain bytes; the backend must copy them.
    Borrowed(&'a [u8]),
    /// A shared image; in-memory backends may adopt the `Rc`.
    Shared(&'a Rc<Vec<u8>>),
}

impl<'a> PageWrite<'a> {
    /// The page bytes, whichever form they arrived in.
    pub fn bytes(&self) -> &'a [u8] {
        match self {
            PageWrite::Borrowed(b) => b,
            PageWrite::Shared(rc) => rc.as_slice(),
        }
    }

    /// An owned shared image (clones the `Rc`, or copies borrowed bytes).
    pub fn to_rc(&self) -> Rc<Vec<u8>> {
        match self {
            PageWrite::Borrowed(b) => Rc::new(b.to_vec()),
            PageWrite::Shared(rc) => Rc::clone(rc),
        }
    }
}

/// How durable a commit must be before it returns.
///
/// * [`Durability::Barrier`] — the classic contract: the sealed frame
///   group (and every deferred group buffered before it) is written and
///   fsynced before `commit` returns. Survives any crash.
/// * [`Durability::Deferred`] — group commit: the sealed frame group is
///   appended to the in-memory log buffer only. A later barrier (an
///   explicit `Barrier` commit, a checkpoint, or a serve-side seal)
///   flushes and fsyncs every buffered group at once. A crash before
///   that barrier rolls the deferred commits back — recovery replays a
///   *prefix* of sealed groups, never a mix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Durability {
    /// Fsync this commit (and all deferred ones) before returning.
    #[default]
    Barrier,
    /// Append the sealed group to the log buffer; fsync later.
    Deferred,
}

/// What a durable backend's commit reports back for `wal.*` accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Page-image frames appended to the log by this commit.
    pub frames: u64,
    /// Log bytes appended (frames plus the commit frame).
    pub bytes: u64,
    /// Overlay pages dropped because their bytes equal the committed
    /// image (skip-clean framing).
    pub frames_skipped: u64,
    /// Fsyncs issued by this commit (0 under [`Durability::Deferred`]).
    pub fsyncs: u64,
}

/// What startup recovery reports back for `wal.*` accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Committed (sealed) page-image frames the redo scan verified.
    pub frames: u64,
    /// Distinct pages written into the data files: a page logged many
    /// times is written once, from its last sealed image.
    pub pages: u64,
    /// Commit records replayed.
    pub commits: u64,
    /// Torn-tail bytes discarded (log bytes past the last good commit).
    pub torn_bytes: u64,
}

/// What a checkpoint reports back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Log bytes released by truncation.
    pub truncated_bytes: u64,
}

/// Crash sabotage armed on the *next* commit — the simulation harness's
/// way of dying at interesting points inside the commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitSabotage {
    /// Flush only a byte prefix of the log batch (no commit frame
    /// reaches the medium): the crash leaves a torn log tail that
    /// recovery must detect and truncate. The commit itself fails.
    TornWal,
    /// Flush and sync the full log batch, then skip applying the images
    /// to the data files: the commit *is* durable, and recovery must
    /// redo it from the log.
    SkipApply,
}

/// A raw page store. Single-threaded, interior-mutable (`&self`), shaped
/// exactly like the storage half of the original `SimDisk`:
///
/// * files are growable page arrays addressed by dense [`FileId`]s;
/// * page allocation is bookkeeping (no content written);
/// * out-of-range access is [`Error::PageNotFound`];
/// * deleting a file is idempotent and frees its pages.
///
/// The trait is *not* where faults or charges live — `SimDisk` gates and
/// charges every operation before delegating here.
pub trait StorageBackend {
    /// Create a new, empty file (infallible bookkeeping; a file-based
    /// backend materializes the OS file lazily, surfacing any OS error
    /// on the first real access).
    fn create_file(&self) -> FileId;

    /// Delete a file, releasing its pages. Idempotent; unknown ids are
    /// ignored.
    fn delete_file(&self, file: FileId);

    /// Number of file slots ever created (deleted slots included) — the
    /// id space the simulator interns per-file counters over.
    fn file_count(&self) -> u32;

    /// Pages currently allocated in `file`.
    fn num_pages(&self, file: FileId) -> Result<u32>;

    /// Append a zeroed page to `file`.
    fn allocate_page(&self, file: FileId) -> Result<PageId>;

    /// Read one page as a shared image.
    fn read_page(&self, pid: PageId) -> Result<Rc<Vec<u8>>>;

    /// Write one page. The caller (`SimDisk`) has already validated the
    /// length against the page size.
    fn write_page(&self, pid: PageId, data: PageWrite<'_>) -> Result<()>;

    /// Total pages across all live files.
    fn total_pages(&self) -> u64;

    /// True when the backend runs a write-ahead log (enables the
    /// `wal.*` observability surface and the commit/checkpoint verbs).
    fn wal_enabled(&self) -> bool {
        false
    }

    /// Current log length in bytes (0 without a WAL).
    fn wal_len_bytes(&self) -> u64 {
        0
    }

    /// Make everything written so far durable and atomic: encode the
    /// dirty pages as one sealed frame group and append it to the log.
    /// Under [`Durability::Barrier`] the group (plus any deferred
    /// groups) is flushed and fsynced before returning; under
    /// [`Durability::Deferred`] it stays in the log buffer until the
    /// next barrier. Images are *not* applied to the data files here —
    /// a checkpoint does that off the hot path. No-op without a WAL.
    fn commit(&self, _durability: Durability) -> Result<CommitStats> {
        Ok(CommitStats::default())
    }

    /// The cheap, frequent half of a checkpoint: seal any buffered
    /// deferred groups (one log fsync — the log must always cover
    /// every image the data files may hold) and write the committed
    /// backlog into the data files *without* syncing them or
    /// truncating the log. A crash at any point replays the intact
    /// log to the same state, so this bounds the apply backlog and
    /// the group-commit buffer at a fraction of a full checkpoint's
    /// cost. Returns `(pages_applied, log_fsyncs)`. No-op without a
    /// WAL.
    fn apply_backlog(&self) -> Result<(u64, u64)> {
        Ok((0, 0))
    }

    /// Bound the log: seal stragglers, apply committed images to the
    /// data files, sync them, truncate the log. No-op without a WAL.
    fn checkpoint(&self) -> Result<CheckpointStats> {
        Ok(CheckpointStats::default())
    }

    /// Committed page images not yet applied to the data files (the
    /// backlog the next checkpoint will drain). 0 without a WAL.
    fn wal_apply_lag(&self) -> u64 {
        0
    }

    /// Startup-recovery stats, consumed once by the simulator for
    /// `wal.*` metrics (None when no recovery ran).
    fn take_recovery_stats(&self) -> Option<RecoveryStats> {
        None
    }

    /// Arm a crash inside the next commit (simulation harness only).
    fn sabotage_next_commit(&self, _mode: CommitSabotage) {}
}

// ---------------------------------------------------------------------
// In-memory backend (the original SimDisk storage).
// ---------------------------------------------------------------------

/// One file's pages, reference-counted so `SimDisk::read_page_rc` and
/// [`PageWrite::Shared`] move images without copying; writers
/// copy-on-write.
type FilePages = Vec<Rc<Vec<u8>>>;

/// The original in-memory page store: pages are reference-counted so
/// readers share the stored image (zero-copy `read_page_rc`) and a
/// shared image can be stored as is ([`PageWrite::Shared`]); writers
/// copy-on-write.
#[derive(Default)]
pub struct MemBackend {
    /// `None` once deleted.
    files: RefCell<Vec<Option<FilePages>>>,
    page_size: usize,
}

impl MemBackend {
    /// An empty in-memory store for `page_size`-byte pages.
    pub fn new(page_size: usize) -> Self {
        MemBackend { files: RefCell::new(Vec::new()), page_size }
    }
}

impl StorageBackend for MemBackend {
    fn create_file(&self) -> FileId {
        let mut files = self.files.borrow_mut();
        files.push(Some(Vec::new()));
        FileId((files.len() - 1) as u32)
    }

    fn delete_file(&self, file: FileId) {
        if let Some(slot) = self.files.borrow_mut().get_mut(file.0 as usize) {
            *slot = None;
        }
    }

    fn file_count(&self) -> u32 {
        self.files.borrow().len() as u32
    }

    fn num_pages(&self, file: FileId) -> Result<u32> {
        let files = self.files.borrow();
        let pages = files
            .get(file.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(Error::PageNotFound { file: file.0, page: 0 })?;
        Ok(pages.len() as u32)
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        let mut files = self.files.borrow_mut();
        let pages = files
            .get_mut(file.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(Error::PageNotFound { file: file.0, page: 0 })?;
        pages.push(Rc::new(vec![0u8; self.page_size]));
        Ok(PageId { file, page: (pages.len() - 1) as u32 })
    }

    fn read_page(&self, pid: PageId) -> Result<Rc<Vec<u8>>> {
        let files = self.files.borrow();
        let page = files
            .get(pid.file.0 as usize)
            .and_then(|s| s.as_ref())
            .and_then(|pages| pages.get(pid.page as usize))
            .ok_or(Error::PageNotFound { file: pid.file.0, page: pid.page })?;
        Ok(Rc::clone(page))
    }

    fn write_page(&self, pid: PageId, data: PageWrite<'_>) -> Result<()> {
        let mut files = self.files.borrow_mut();
        let page = files
            .get_mut(pid.file.0 as usize)
            .and_then(|s| s.as_mut())
            .and_then(|pages| pages.get_mut(pid.page as usize))
            .ok_or(Error::PageNotFound { file: pid.file.0, page: pid.page })?;
        match data {
            // Adopt the shared image (zero copy).
            PageWrite::Shared(rc) => *page = Rc::clone(rc),
            // Copy-on-write into the existing image.
            PageWrite::Borrowed(b) => Rc::make_mut(page).copy_from_slice(b),
        }
        Ok(())
    }

    fn total_pages(&self) -> u64 {
        self.files.borrow().iter().filter_map(|s| s.as_ref()).map(|p| p.len() as u64).sum()
    }
}

// ---------------------------------------------------------------------
// Real-file backend.
// ---------------------------------------------------------------------

/// One live file's state: the lazily opened OS handle and the page count
/// (the in-memory count is authoritative; the OS file is the medium).
struct FileState {
    /// `None` until the first access that needs the OS file.
    handle: Option<fs::File>,
    pages: u32,
}

/// A page store over real `std::fs` files: `f<N>.pages` under a
/// directory, one per [`FileId`]. Reads and writes are positional
/// (`FileExt`), page-sized, and mapped through [`Error::io`] — a short
/// read, a permission failure, or a failed sync comes back as a typed
/// [`Error::Io`], never a panic. Durability ordering (when to sync what)
/// belongs to the [`crate::wal::DurableBackend`] wrapper; bare
/// `FileBackend` writes are write-through with no atomicity story.
pub struct FileBackend {
    dir: PathBuf,
    page_size: usize,
    files: RefCell<Vec<Option<FileState>>>,
}

impl FileBackend {
    /// Create a fresh backend rooted at `dir` (created if missing; any
    /// `f<N>.pages` files already there are removed — this is a *new*
    /// store, not a reopen).
    pub fn create(dir: &Path, page_size: usize) -> Result<Self> {
        fs::create_dir_all(dir).map_err(|e| Error::io(format!("create dir {dir:?}"), &e))?;
        for entry in
            fs::read_dir(dir).map_err(|e| Error::io(format!("list dir {dir:?}"), &e))?.flatten()
        {
            if Self::page_file_index(&entry.file_name().to_string_lossy()).is_some() {
                fs::remove_file(entry.path())
                    .map_err(|e| Error::io(format!("clear stale {:?}", entry.path()), &e))?;
            }
        }
        Ok(FileBackend { dir: dir.to_path_buf(), page_size, files: RefCell::new(Vec::new()) })
    }

    /// Reopen an existing store: every `f<N>.pages` file under `dir`
    /// becomes a live slot (its page count derived from its length);
    /// ids below the highest found that have no file are deleted slots.
    pub fn open(dir: &Path, page_size: usize) -> Result<Self> {
        let mut found: Vec<(u32, u64)> = Vec::new();
        for entry in
            fs::read_dir(dir).map_err(|e| Error::io(format!("list dir {dir:?}"), &e))?.flatten()
        {
            if let Some(idx) = Self::page_file_index(&entry.file_name().to_string_lossy()) {
                let len = entry
                    .metadata()
                    .map_err(|e| Error::io(format!("stat {:?}", entry.path()), &e))?
                    .len();
                found.push((idx, len));
            }
        }
        let slots = found.iter().map(|&(i, _)| i + 1).max().unwrap_or(0) as usize;
        let mut files: Vec<Option<FileState>> = (0..slots).map(|_| None).collect();
        for (idx, len) in found {
            files[idx as usize] =
                Some(FileState { handle: None, pages: (len / page_size as u64) as u32 });
        }
        Ok(FileBackend { dir: dir.to_path_buf(), page_size, files: RefCell::new(files) })
    }

    /// Parse `f<N>.pages` names.
    fn page_file_index(name: &str) -> Option<u32> {
        name.strip_prefix('f')?.strip_suffix(".pages")?.parse().ok()
    }

    fn path_of(&self, file: FileId) -> PathBuf {
        self.dir.join(format!("f{}.pages", file.0))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Run `f` with the lazily opened OS handle of `file`. The borrow of
    /// the slot table is held across the OS call; callbacks must not
    /// re-enter the backend (none do — they are single syscalls).
    fn with_handle<T>(
        &self,
        file: FileId,
        f: impl FnOnce(&fs::File, u32) -> Result<T>,
    ) -> Result<T> {
        let mut files = self.files.borrow_mut();
        let state = files
            .get_mut(file.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(Error::PageNotFound { file: file.0, page: 0 })?;
        if state.handle.is_none() {
            let path = self.path_of(file);
            let handle = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .map_err(|e| Error::io(format!("open {path:?}"), &e))?;
            state.handle = Some(handle);
        }
        let pages = state.pages;
        f(state.handle.as_ref().expect("handle just opened"), pages)
    }

    /// Sync one file's data to the medium (used at checkpoint).
    /// `fdatasync`, not `fsync`: the data — and, per POSIX, any metadata
    /// needed to retrieve it, a grown size included — reaches the
    /// medium without paying for a journaled timestamp flush.
    pub(crate) fn sync_file(&self, file: FileId) -> Result<()> {
        self.with_handle(file, |h, _| {
            h.sync_data().map_err(|e| Error::io(format!("sync f{}", file.0), &e))
        })
    }

    /// Sync every live file (checkpoint / post-recovery barrier).
    pub(crate) fn sync_all_files(&self) -> Result<()> {
        let live: Vec<FileId> = {
            let files = self.files.borrow();
            (0..files.len() as u32).filter(|&i| files[i as usize].is_some()).map(FileId).collect()
        };
        for file in live {
            // Never-touched files have no OS handle and nothing to sync.
            let touched = self.path_of(file).exists();
            if touched {
                self.sync_file(file)?;
            }
        }
        Ok(())
    }

    /// Sync the store directory: the entries of the files created in it
    /// (a new store's first commit, whose load no log frame covers).
    pub(crate) fn sync_dir(&self) -> Result<()> {
        let io = |e: std::io::Error| Error::io(format!("sync dir {:?}", self.dir), &e);
        fs::File::open(&self.dir).map_err(io)?.sync_all().map_err(io)
    }

    /// Grow `file` to at least `pages` pages (recovery replay may land
    /// images past the current end of a shorter-than-logged file).
    /// Never shrinks.
    pub(crate) fn extend_to(&self, file: FileId, pages: u32) -> Result<()> {
        self.with_handle(file, |h, current| {
            if pages <= current {
                return Ok(());
            }
            h.set_len(pages as u64 * self.page_size as u64)
                .map_err(|e| Error::io(format!("extend f{} to {pages} pages", file.0), &e))
        })?;
        let mut files = self.files.borrow_mut();
        if let Some(Some(state)) = files.get_mut(file.0 as usize) {
            state.pages = state.pages.max(pages);
        }
        Ok(())
    }

    /// The first half of a delete: the slot goes, so the file is dead to
    /// every reader, while its OS file stays on the medium.
    pub(crate) fn forget_file(&self, file: FileId) {
        if let Some(slot) = self.files.borrow_mut().get_mut(file.0 as usize) {
            *slot = None;
        }
    }

    /// The second half: best-effort removal of the medium. The slot table
    /// is authoritative for liveness, so a failed unlink cannot corrupt
    /// reads.
    pub(crate) fn unlink_file(&self, file: FileId) {
        let _ = fs::remove_file(self.path_of(file));
    }

    /// Recovery replay entry: make sure `file` has a live slot (a logged
    /// file whose OS file vanished is recreated empty) before images are
    /// written into it.
    pub(crate) fn ensure_file(&self, file: FileId) {
        let mut files = self.files.borrow_mut();
        while files.len() <= file.0 as usize {
            files.push(None);
        }
        if files[file.0 as usize].is_none() {
            files[file.0 as usize] = Some(FileState { handle: None, pages: 0 });
        }
    }
}

impl StorageBackend for FileBackend {
    fn create_file(&self) -> FileId {
        let mut files = self.files.borrow_mut();
        files.push(Some(FileState { handle: None, pages: 0 }));
        FileId((files.len() - 1) as u32)
    }

    fn delete_file(&self, file: FileId) {
        self.forget_file(file);
        self.unlink_file(file);
    }

    fn file_count(&self) -> u32 {
        self.files.borrow().len() as u32
    }

    fn num_pages(&self, file: FileId) -> Result<u32> {
        let files = self.files.borrow();
        let state = files
            .get(file.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(Error::PageNotFound { file: file.0, page: 0 })?;
        Ok(state.pages)
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        let page = self.with_handle(file, |h, pages| {
            h.set_len((pages as u64 + 1) * self.page_size as u64)
                .map_err(|e| Error::io(format!("allocate f{} page {pages}", file.0), &e))?;
            Ok(pages)
        })?;
        let mut files = self.files.borrow_mut();
        if let Some(Some(state)) = files.get_mut(file.0 as usize) {
            state.pages = page + 1;
        }
        Ok(PageId { file, page })
    }

    fn read_page(&self, pid: PageId) -> Result<Rc<Vec<u8>>> {
        use std::os::unix::fs::FileExt;
        let mut buf = vec![0u8; self.page_size];
        self.with_handle(pid.file, |h, pages| {
            if pid.page >= pages {
                return Err(Error::PageNotFound { file: pid.file.0, page: pid.page });
            }
            let off = pid.page as u64 * self.page_size as u64;
            let op = || format!("read f{} page {}", pid.file.0, pid.page);
            h.read_exact_at(&mut buf, off).map_err(|e| match e.kind() {
                // Fewer bytes on the medium than the page the slot table
                // promised: the distinguished short-read failure.
                io::ErrorKind::UnexpectedEof => Error::io_kind(op(), "short read"),
                _ => Error::io(op(), &e),
            })
        })?;
        Ok(Rc::new(buf))
    }

    fn write_page(&self, pid: PageId, data: PageWrite<'_>) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.with_handle(pid.file, |h, pages| {
            if pid.page >= pages {
                return Err(Error::PageNotFound { file: pid.file.0, page: pid.page });
            }
            let off = pid.page as u64 * self.page_size as u64;
            h.write_all_at(data.bytes(), off)
                .map_err(|e| Error::io(format!("write f{} page {}", pid.file.0, pid.page), &e))
        })
    }

    fn total_pages(&self) -> u64 {
        self.files.borrow().iter().filter_map(|s| s.as_ref()).map(|f| f.pages as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("trijoin-backend-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const PS: usize = 256;

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = tmp("roundtrip");
        let b = FileBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        assert_eq!(b.read_page(pid).unwrap().as_slice(), &[0u8; PS], "fresh page is zeroed");
        let data = vec![0xA7u8; PS];
        b.write_page(pid, PageWrite::Borrowed(&data)).unwrap();
        assert_eq!(b.read_page(pid).unwrap().as_slice(), data.as_slice());
        assert_eq!(b.num_pages(f).unwrap(), 1);
        assert_eq!(b.total_pages(), 1);
        drop(b);

        // Reopen rediscovers the file and its length.
        let b = FileBackend::open(&dir, PS).unwrap();
        assert_eq!(b.file_count(), 1);
        assert_eq!(b.num_pages(f).unwrap(), 1);
        assert_eq!(b.read_page(pid).unwrap().as_slice(), data.as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_missing_pages_and_delete() {
        let dir = tmp("missing");
        let b = FileBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        assert!(matches!(b.read_page(PageId::new(f, 3)), Err(Error::PageNotFound { page: 3, .. })));
        assert!(matches!(
            b.write_page(PageId::new(FileId(9), 0), PageWrite::Borrowed(&[0u8; PS])),
            Err(Error::PageNotFound { .. })
        ));
        b.allocate_page(f).unwrap();
        b.delete_file(f);
        b.delete_file(f); // idempotent
        assert!(b.num_pages(f).is_err());
        assert_eq!(b.total_pages(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_read_is_a_typed_io_error() {
        let dir = tmp("short-read");
        let b = FileBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&vec![1u8; PS])).unwrap();
        // Truncate the medium behind the backend's back: the slot table
        // still promises one page, the file now holds half of one.
        let victim = dir.join("f0.pages");
        let fh = fs::OpenOptions::new().write(true).open(&victim).unwrap();
        fh.set_len(PS as u64 / 2).unwrap();
        drop(fh);
        let err = b.read_page(pid).unwrap_err();
        assert_eq!(
            err,
            Error::Io { op: "read f0 page 0".into(), kind: "short read".into() },
            "truncated medium must surface as a typed short read"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn permission_denied_is_a_typed_io_error() {
        // Real chmod-based denial is unreliable under root, so the
        // contract is pinned at the mapping boundary every syscall path
        // goes through: a PermissionDenied io::Error maps to Error::Io
        // with the kind preserved, for both open-shaped and write-shaped
        // operations.
        let denied = io::Error::new(io::ErrorKind::PermissionDenied, "denied");
        let mapped = Error::io("open \"/protected/f0.pages\"", &denied);
        match &mapped {
            Error::Io { op, kind } => {
                assert!(op.contains("f0.pages"), "{op}");
                assert_eq!(kind, "PermissionDenied");
            }
            other => panic!("expected Error::Io, got {other:?}"),
        }
        assert!(!mapped.is_retryable() && !mapped.is_device_fault());
    }

    #[test]
    fn flush_failure_is_a_typed_io_error() {
        // A write against a read-only handle fails regardless of uid:
        // the handle itself lacks write access. This exercises the same
        // write_all_at -> Error::io funnel write_page uses.
        use std::os::unix::fs::FileExt;
        let dir = tmp("flush-fail");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f0.pages");
        fs::write(&path, vec![0u8; PS]).unwrap();
        let ro = fs::OpenOptions::new().read(true).open(&path).unwrap();
        let err = ro
            .write_all_at(&vec![1u8; PS], 0)
            .map_err(|e| Error::io("write f0 page 0", &e))
            .unwrap_err();
        match err {
            Error::Io { op, kind } => {
                assert_eq!(op, "write f0 page 0");
                assert!(!kind.is_empty());
            }
            other => panic!("expected Error::Io, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_backend_matches_file_backend_semantics() {
        let dir = tmp("parity");
        let mem = MemBackend::new(PS);
        let file = FileBackend::create(&dir, PS).unwrap();
        let backends: [&dyn StorageBackend; 2] = [&mem, &file];
        for b in backends {
            let f = b.create_file();
            assert!(b.num_pages(FileId(99)).is_err());
            assert_eq!(b.num_pages(f).unwrap(), 0);
            let pid = b.allocate_page(f).unwrap();
            assert_eq!(b.read_page(pid).unwrap().as_slice(), &[0u8; PS]);
            let img = Rc::new(vec![5u8; PS]);
            b.write_page(pid, PageWrite::Shared(&img)).unwrap();
            assert_eq!(b.read_page(pid).unwrap().as_slice(), img.as_slice());
            assert_eq!(b.file_count(), 1);
            assert_eq!(b.total_pages(), 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
