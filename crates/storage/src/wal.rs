//! Write-ahead logging: the durability sidecar over [`FileBackend`].
//!
//! [`DurableBackend`] wraps a real-file [`FileBackend`] with an
//! *apply-at-checkpoint* protocol built for change-proportional,
//! batched, overlapped I/O:
//!
//! * page writes land in an in-memory **overlay** (uncommitted state) —
//!   the data files on disk only ever hold checkpointed images. A new
//!   store's initial load is its first checkpoint: until the first
//!   commit, every page of every file but the catalog (file 0) goes
//!   straight to its data file, and that commit syncs those files and
//!   the store directory before it seals the catalog's group;
//! * [`StorageBackend::commit`] encodes the overlay as one sealed frame
//!   group — **skip-clean**: pages whose bytes equal the committed
//!   image (fingerprint compare against a per-page cache) are dropped,
//!   so repeated-touch workloads log only real deltas — and appends it
//!   to the log. Under [`Durability::Barrier`] the group (plus every
//!   deferred group before it) is flushed and fsynced before returning;
//!   under [`Durability::Deferred`] it stays in the **group-commit
//!   buffer** until the next barrier, so consecutive commits share one
//!   fsync. The buffer is bounded: a group larger than it reaches the
//!   file in several unsynced writes, sealed by the commit frame in the
//!   last one. Surviving images are promoted to a **committed overlay**
//!   read layer instead of being applied to the data files;
//! * [`StorageBackend::checkpoint`] drains the backlog: it seals
//!   stragglers, applies the committed overlay to the data files, syncs
//!   them, and truncates the log — eager apply is off the commit hot
//!   path entirely;
//! * [`DurableBackend::open`] runs **recovery** in two passes over the
//!   log file. The scan streams it through a fixed-size reader,
//!   verifying every frame, and remembers only *where* the last sealed
//!   image of each page sits; the redo then reads each of those images
//!   back and writes it once (frames are full page images, so the last
//!   one wins and redo is idempotent). Memory and data-file writes
//!   follow the distinct pages in the log, not its length. Whatever
//!   torn tail a mid-flush crash left behind is truncated. Deferred
//!   groups that never reached a barrier were only ever in the
//!   in-memory buffer, so a crash rolls them back wholesale: recovery
//!   always yields a *prefix* of sealed groups, never a mix.
//!
//! File creation and page allocation pass straight through to the inner
//! backend: they are bookkeeping, and any stale files or tail pages a
//! crash leaves behind are unreachable — the catalog that names live
//! structures is itself a page file covered by the log. A deleted file
//! is dead at once but keeps its OS file until a group sealed after the
//! delete is synced: the last sealed catalog may still name it.
//!
//! ## Frame format
//!
//! ```text
//! page frame    'p' | file u32 | page u32 | len u32 | data[len] | sum u64
//! commit frame  'c' | seq u64  | frames u32         |            sum u64
//! ```
//!
//! The tags name the format. The first format tagged its frames `'P'`
//! and `'C'` and summed them with byte-serial FNV-1a; [`Wal::open`]
//! refuses a log that starts with one of those tags rather than discard
//! its frames as a torn tail (checkpoint such a store with the build
//! that wrote it first).
//!
//! All integers little-endian. A commit frame's `sum` is `hash64` of
//! its head. A page frame's `sum` mixes `hash64` of its head with the
//! page's fingerprint, `hash64` of `data` (`page_frame_sum`), so a
//! commit hashes each image once for skip-clean and framing both. Any
//! one-byte change of a frame changes its `sum`. A frame that fails to
//! parse, fails its checksum, carries a `len` other than the store's
//! page size, or is not sealed by a commit frame is part of a torn tail
//! and is discarded by recovery.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::rc::Rc;

use trijoin_common::{Error, Result};

use crate::backend::{
    CheckpointStats, CommitSabotage, CommitStats, Durability, FileBackend, PageWrite,
    RecoveryStats, StorageBackend,
};
use crate::disk::{FileId, PageId};

/// Frame tags of this format.
const TAG_PAGE: u8 = b'p';
const TAG_COMMIT: u8 = b'c';
/// The first format's frame tags (FNV-1a sums): a log that starts with
/// one holds frames this build cannot verify.
const RETIRED_TAGS: [u8; 2] = [b'P', b'C'];

/// Both frame kinds open with a 13-byte head (tag plus `file, page, len`
/// or `seq, frames`) and close with an 8-byte checksum.
const FRAME_HEAD: usize = 13;
const FRAME_SUM: usize = 8;

/// The hash's odd multipliers (those of xxHash64).
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// One lane step: a bijection of `lane` for a fixed word and of the word
/// for a fixed `lane`, so two inputs that differ in one word leave the
/// lane different from that word on.
fn lane_step(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Scramble every bit of `h` into every other (bijective).
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The page fingerprint and the frame checksum: four lanes, eight bytes
/// a step, the tail zero-padded to a word, the length folded in. Each
/// step and the merge are bijective in the word or lane that changes, so
/// any change confined to one word — every single-byte flip — changes
/// the hash. Not cryptographic; it detects torn and bit-rotted frames,
/// which is all recovery needs.
fn hash64(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| {
        let mut b = [0u8; 8];
        b[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(b)
    };
    let mut lanes = [P1, P2, P3, !P1];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, u64::from_le_bytes(w.try_into().expect("a word")));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = lane_step(*lane, word(w));
    }
    let h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    avalanche(h ^ bytes.len() as u64)
}

/// A page frame's checksum: its head's hash mixed with the page's
/// fingerprint ([`hash64`] of the image, the skip-clean cache's value),
/// so a commit hashes each image once. Bijective in either argument for
/// a fixed other, so a flip in the head or in the image changes it.
fn page_frame_sum(head: &[u8], fingerprint: u64) -> u64 {
    avalanche(lane_step(hash64(head), fingerprint))
}

/// Append one page-image frame for `pid` to `buf`; `fingerprint` is
/// [`hash64`] of `data`.
fn encode_page_frame(buf: &mut Vec<u8>, pid: PageId, data: &[u8], fingerprint: u64) {
    let start = buf.len();
    buf.push(TAG_PAGE);
    buf.extend_from_slice(&pid.file.0.to_le_bytes());
    buf.extend_from_slice(&pid.page.to_le_bytes());
    buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
    let sum = page_frame_sum(&buf[start..], fingerprint);
    buf.extend_from_slice(data);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Append one commit frame sealing `frames` page frames to `buf`.
fn encode_commit_frame(buf: &mut Vec<u8>, seq: u64, frames: u32) {
    let start = buf.len();
    buf.push(TAG_COMMIT);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&frames.to_le_bytes());
    let sum = hash64(&buf[start..]);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// Head offsets of a page frame's `file` and `page`, and of the `u32`
/// that closes either head: a page frame's `len`, a commit frame's
/// `frames`.
const HEAD_FILE: usize = 1;
const HEAD_PAGE: usize = 5;
const HEAD_COUNT: usize = 9;

/// Little-endian `u32` at `at` of a frame head.
fn head_u32(head: &[u8; FRAME_HEAD], at: usize) -> u32 {
    u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]])
}

/// What the redo scan keeps of a log: the offset of the last sealed
/// image of every page (each is one page long), keyed `(file, page)` so
/// the redo writes in device order, and the stats of what it verified.
struct LogScan {
    winners: BTreeMap<(u32, u32), u64>,
    stats: RecoveryStats,
}

/// A write-ahead log file with a group-commit buffer: commits *encode*
/// their sealed frame group into an in-memory buffer (no syscall) and
/// a later *sync* flushes every buffered group with one positional
/// write + one fsync. The handle is opened once and reused —
/// the commit hot path never reopens the file.
pub struct Wal {
    file: fs::File,
    /// Bytes written to the OS file (the buffer flushes at this offset).
    flushed: Cell<u64>,
    /// Sealed frame groups not yet flushed+fsynced. Deferred commits
    /// live only here; dropping the process loses them — which is
    /// exactly the [`Durability::Deferred`] rollback contract.
    buf: RefCell<Vec<u8>>,
    /// Bytes of `flushed` known to be on the device (covered by an
    /// fdatasync). `synced < flushed` means early-written-back groups
    /// are waiting for the next barrier's sync.
    synced: Cell<u64>,
    seq: Cell<u64>,
}

impl Wal {
    /// Name of the log file inside a store directory.
    pub const FILE_NAME: &'static str = "wal.log";

    /// Buffered deferred groups beyond this many bytes are written to
    /// the file early — *without* an fsync — so OS writeback can drain
    /// them in the background between barriers; the sealing sync then
    /// has little left to wait on. Early writeback is compatible with
    /// the [`Durability::Deferred`] contract: a deferred group may
    /// become durable any time up to its sealing barrier, and the log
    /// stays an in-order group sequence either way.
    const WRITEBACK_THRESHOLD: usize = 256 * 1024;

    /// The most the buffer ever holds, and the capacity a flush leaves
    /// allocated. A group being encoded is written out — no fsync,
    /// like early writeback — before a frame would take the buffer
    /// past this, so a bulk group costs the process one bounded buffer
    /// instead of a copy of every dirty page, while the steady-state
    /// groups of about a megabyte still go out in one write and never
    /// reallocate.
    const RETAINED_CAPACITY: usize = 8 * Self::WRITEBACK_THRESHOLD;

    /// Size of the redo scan's read buffer.
    const SCAN_BUFFER: usize = 64 * 1024;

    fn open_handle(path: &Path, truncate: bool) -> Result<fs::File> {
        fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)
            .map_err(|e| Error::io(format!("open {path:?}"), &e))
    }

    /// Start a fresh (empty) log in `dir`.
    pub fn create(dir: &Path) -> Result<Wal> {
        let path = dir.join(Self::FILE_NAME);
        let file = Self::open_handle(&path, true)?;
        Ok(Wal {
            file,
            flushed: Cell::new(0),
            buf: RefCell::new(Vec::new()),
            synced: Cell::new(0),
            seq: Cell::new(0),
        })
    }

    /// Open the log in `dir` (created empty if absent). A log written
    /// in the first frame format is refused, untouched: recovery would
    /// fail every checksum and discard committed groups as torn.
    pub fn open(dir: &Path) -> Result<Wal> {
        let path = dir.join(Self::FILE_NAME);
        let file = Self::open_handle(&path, false)?;
        let len = file.metadata().map_err(|e| Error::io(format!("stat {path:?}"), &e))?.len();
        if len > 0 {
            let mut tag = [0u8; 1];
            file.read_exact_at(&mut tag, 0).map_err(|e| Error::io("read wal tag", &e))?;
            if RETIRED_TAGS.contains(&tag[0]) {
                return Err(Error::Corrupt(format!(
                    "{path:?} is in an earlier log format; checkpoint the store with the \
                     build that wrote it before opening it with this one"
                )));
            }
        }
        Ok(Wal {
            file,
            flushed: Cell::new(len),
            buf: RefCell::new(Vec::new()),
            // Pre-existing bytes were this store's last session's
            // problem; recovery re-syncs everything it keeps.
            synced: Cell::new(len),
            seq: Cell::new(0),
        })
    }

    /// Current log length in bytes, buffered groups included.
    pub fn len_bytes(&self) -> u64 {
        self.flushed.get() + self.buf.borrow().len() as u64
    }

    /// Write the buffered groups into the file *without* syncing —
    /// early writeback the OS drains in the background. Durability
    /// still comes from the next [`Wal::sync`].
    fn flush(&self) -> Result<()> {
        self.write_out(&mut self.buf.borrow_mut())
    }

    /// [`Wal::flush`] for a caller that holds the buffer's borrow: a
    /// commit in the middle of encoding its group.
    fn write_out(&self, buf: &mut Vec<u8>) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        self.file
            .write_all_at(buf, self.flushed.get())
            .map_err(|e| Error::io("flush wal batch", &e))?;
        self.flushed.set(self.flushed.get() + buf.len() as u64);
        buf.clear();
        buf.shrink_to(Self::RETAINED_CAPACITY);
        Ok(())
    }

    /// Forget every log byte from offset `len` on, buffered or already
    /// written: the frames of a group whose encoding failed half-way.
    /// Whatever of them reached the file is overwritten by the next
    /// group or stays behind as an unsealed tail, which recovery
    /// discards.
    fn rewind_to(&self, buf: &mut Vec<u8>, len: u64) {
        match len.checked_sub(self.flushed.get()) {
            Some(keep) => buf.truncate(keep as usize),
            None => {
                buf.clear();
                self.flushed.set(len);
                self.synced.set(self.synced.get().min(len));
            }
        }
    }

    /// Flush every buffered group with one positional write and fsync
    /// the log: the group-commit barrier. Returns the fsyncs issued
    /// (0 when nothing was buffered *and* no early-written-back bytes
    /// await their sync).
    fn sync(&self) -> Result<u64> {
        if self.buf.borrow().is_empty() && self.synced.get() == self.flushed.get() {
            return Ok(0);
        }
        self.flush()?;
        // `fdatasync`: the appended bytes and the grown file size are
        // what recovery reads; a timestamp journal flush buys nothing.
        self.file.sync_data().map_err(|e| Error::io("sync wal", &e))?;
        self.synced.set(self.flushed.get());
        Ok(1)
    }

    /// Truncate the log to `len` bytes (recovery discarding a torn tail,
    /// or a checkpoint resetting it to zero), discard any buffered
    /// groups, and sync the truncation.
    fn truncate_to(&self, len: u64) -> Result<()> {
        self.buf.borrow_mut().clear();
        self.file.set_len(len).map_err(|e| Error::io("truncate wal", &e))?;
        self.file.sync_all().map_err(|e| Error::io("sync wal truncation", &e))?;
        self.flushed.set(len);
        self.synced.set(len);
        Ok(())
    }

    /// Pass 1 of recovery: stream the on-medium log once, verifying
    /// every frame's checksum and every commit frame's seal count, and
    /// keep the offset of each page's last image *inside a sealed
    /// group*. A group enters the map only when its commit frame
    /// verifies, so a torn or miscounted trailing group never overrides
    /// a sealed image. Memory is the read buffer, one page, the frames
    /// of one group, and one map entry per distinct page — whatever the
    /// log's length. A frame that is cut short, fails its checksum,
    /// names a `len` other than `page_size` (checked before a byte of it
    /// is read, so a corrupt length allocates nothing) or seals the
    /// wrong count ends the scan: it and everything after it is the
    /// torn tail.
    fn scan(&self, page_size: usize) -> Result<LogScan> {
        let io = |e: std::io::Error| Error::io("scan wal", &e);
        let len = self.flushed.get();
        let mut log = &self.file;
        log.seek(SeekFrom::Start(0)).map_err(io)?;
        let mut log = BufReader::with_capacity(Self::SCAN_BUFFER, log);

        let page_frame = (FRAME_HEAD + page_size + FRAME_SUM) as u64;
        let commit_frame = (FRAME_HEAD + FRAME_SUM) as u64;
        let mut head = [0u8; FRAME_HEAD];
        let mut sum = [0u8; FRAME_SUM];
        let mut image = vec![0u8; page_size];
        let mut group: Vec<((u32, u32), u64)> = Vec::new();
        let mut winners = BTreeMap::new();
        let mut stats = RecoveryStats::default();
        let (mut at, mut good_end) = (0u64, 0u64);
        while len - at >= commit_frame {
            log.read_exact(&mut head).map_err(io)?;
            match head[0] {
                TAG_PAGE => {
                    if head_u32(&head, HEAD_COUNT) as usize != page_size || len - at < page_frame {
                        break;
                    }
                    log.read_exact(&mut image).map_err(io)?;
                    log.read_exact(&mut sum).map_err(io)?;
                    if u64::from_le_bytes(sum) != page_frame_sum(&head, hash64(&image)) {
                        break;
                    }
                    let key = (head_u32(&head, HEAD_FILE), head_u32(&head, HEAD_PAGE));
                    group.push((key, at + FRAME_HEAD as u64));
                    at += page_frame;
                }
                TAG_COMMIT => {
                    log.read_exact(&mut sum).map_err(io)?;
                    if u64::from_le_bytes(sum) != hash64(&head)
                        || head_u32(&head, HEAD_COUNT) as usize != group.len()
                    {
                        break;
                    }
                    stats.frames += group.len() as u64;
                    stats.commits += 1;
                    winners.extend(group.drain(..));
                    at += commit_frame;
                    good_end = at;
                }
                _ => break,
            }
        }
        stats.pages = winners.len() as u64;
        stats.torn_bytes = len - good_end;
        Ok(LogScan { winners, stats })
    }
}

/// Page images keyed `(file, page)`. A `BTreeMap` so commit encodes
/// frames in a deterministic order.
type Overlay = BTreeMap<(u32, u32), Rc<Vec<u8>>>;

/// [`FileBackend`] plus a WAL: atomic, durable commits with crash
/// recovery. See the module docs for the protocol.
pub struct DurableBackend {
    inner: FileBackend,
    wal: Wal,
    /// Uncommitted page images.
    overlay: RefCell<Overlay>,
    /// Committed-but-unapplied page images: the read layer between the
    /// overlay and the data files. Drained by [`Self::checkpoint`].
    committed: RefCell<Overlay>,
    /// [`hash64`] fingerprint of each page's committed image — the
    /// skip-clean cache. A hit means the overlay write re-created
    /// identical bytes and carries no information for redo.
    clean: RefCell<HashMap<(u32, u32), u64>>,
    /// Set from [`DurableBackend::create`] to the first commit: pages of
    /// every file but the catalog go straight to their data files, and
    /// that commit syncs them.
    loading: Cell<bool>,
    /// Files dirtied by [`StorageBackend::apply_backlog`] since the
    /// last checkpoint: the only files a checkpoint has to fsync.
    dirty: RefCell<BTreeSet<u32>>,
    /// Files deleted since the last commit: dead, their OS files kept.
    doomed: RefCell<Vec<FileId>>,
    /// Files deleted before a commit that sealed its group: unlinked at
    /// the next log sync, once no durable catalog can name them.
    covered: RefCell<Vec<FileId>>,
    /// Stats from the recovery pass `open` ran, consumed once.
    recovery: Cell<Option<RecoveryStats>>,
    /// Armed crash for the next commit (simulation harness).
    sabotage: Cell<Option<CommitSabotage>>,
}

impl DurableBackend {
    /// The file that holds the catalog naming a store's live structures:
    /// the one file a new store logs before its first commit
    /// ([`Self::create`]).
    pub const CATALOG: FileId = FileId(0);

    fn assemble(
        inner: FileBackend,
        wal: Wal,
        loading: bool,
        recovery: Option<RecoveryStats>,
    ) -> DurableBackend {
        DurableBackend {
            inner,
            wal,
            overlay: RefCell::new(BTreeMap::new()),
            committed: RefCell::new(BTreeMap::new()),
            clean: RefCell::new(HashMap::new()),
            loading: Cell::new(loading),
            dirty: RefCell::new(BTreeSet::new()),
            doomed: RefCell::new(Vec::new()),
            covered: RefCell::new(Vec::new()),
            recovery: Cell::new(recovery),
            sabotage: Cell::new(None),
        }
    }

    /// Create a fresh durable store in `dir`. Its initial load is its
    /// first checkpoint: until the first commit, a page of any file but
    /// the catalog (file 0) goes straight to its data file — no overlay,
    /// no committed layer, no log frame, only its fingerprint for
    /// skip-clean. The first commit syncs those files and the directory
    /// that names them, then seals the catalog's group as usual. A crash
    /// before that group is synced leaves no catalog; one after it
    /// reopens to exactly the load.
    pub fn create(dir: &Path, page_size: usize) -> Result<DurableBackend> {
        let inner = FileBackend::create(dir, page_size)?;
        let wal = Wal::create(dir)?;
        Ok(Self::assemble(inner, wal, true, None))
    }

    /// Reopen a durable store, running crash recovery: scan the log
    /// ([`Wal::scan`]), then write the last sealed image of every page
    /// it names into the data files — once per page, in `(file, page)`
    /// order — discard any torn tail, sync, and truncate the log (so
    /// recovery is idempotent — running it again finds an empty log and
    /// changes nothing). Deferred groups that never reached a barrier
    /// were only buffered in memory, so the replayed log is always a
    /// clean prefix of sealed groups.
    pub fn open(dir: &Path, page_size: usize) -> Result<DurableBackend> {
        let inner = FileBackend::open(dir, page_size)?;
        let wal = Wal::open(dir)?;
        let LogScan { winners, stats } = wal.scan(page_size)?;

        let mut image = vec![0u8; page_size];
        for (&(file, page), &at) in &winners {
            wal.file.read_exact_at(&mut image, at).map_err(|e| Error::io("read wal image", &e))?;
            let pid = PageId::new(FileId(file), page);
            inner.ensure_file(pid.file);
            inner.extend_to(pid.file, pid.page + 1)?;
            inner.write_page(pid, PageWrite::Borrowed(&image))?;
        }

        // Make the replay durable, then bound the log: everything it
        // held is now in the data files.
        inner.sync_all_files()?;
        wal.truncate_to(0)?;
        let ran = stats.commits > 0 || stats.torn_bytes > 0;
        Ok(Self::assemble(inner, wal, false, ran.then_some(stats)))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        self.inner.dir()
    }

    /// Uncommitted pages currently buffered in the overlay (tests).
    pub fn overlay_pages(&self) -> usize {
        self.overlay.borrow().len()
    }

    /// The files deleted so far are covered by the group a commit has
    /// just sealed (or found it had no need to seal).
    fn cover_deletes(&self) {
        self.covered.borrow_mut().append(&mut self.doomed.borrow_mut());
    }

    /// Sync the log ([`Wal::sync`]); every group sealed so far is then
    /// durable, so the files deleted before one of them may go.
    fn sync(&self) -> Result<u64> {
        let fsyncs = self.wal.sync()?;
        for file in self.covered.borrow_mut().drain(..) {
            self.inner.unlink_file(file);
        }
        Ok(fsyncs)
    }
}

impl StorageBackend for DurableBackend {
    fn create_file(&self) -> FileId {
        self.inner.create_file()
    }

    fn delete_file(&self, file: FileId) {
        // The file is dead at once: its slot, its uncommitted and
        // committed-but-unapplied images and its fingerprints go. Its OS
        // file stays until a group sealed after this delete is synced —
        // until then the last durable catalog may name it (a relation's
        // apply-log runs), and recovery must find its pages. The log
        // still holds whatever images of it were never applied.
        self.overlay.borrow_mut().retain(|&(f, _), _| f != file.0);
        self.committed.borrow_mut().retain(|&(f, _), _| f != file.0);
        self.clean.borrow_mut().retain(|&(f, _), _| f != file.0);
        self.inner.forget_file(file);
        self.doomed.borrow_mut().push(file);
    }

    fn file_count(&self) -> u32 {
        self.inner.file_count()
    }

    fn num_pages(&self, file: FileId) -> Result<u32> {
        self.inner.num_pages(file)
    }

    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        // Allocation is bookkeeping (a zeroed tail page): pass through.
        // A crash can leave allocated-but-uncommitted tail pages behind;
        // they are unreachable until a committed structure points at
        // them, so they are garbage, not corruption.
        self.inner.allocate_page(file)
    }

    fn read_page(&self, pid: PageId) -> Result<Rc<Vec<u8>>> {
        let key = (pid.file.0, pid.page);
        if let Some(img) = self.overlay.borrow().get(&key) {
            // Serve uncommitted writes back to their writer — but only
            // for pages that still exist (delete_file purged its keys).
            return Ok(Rc::clone(img));
        }
        if let Some(img) = self.committed.borrow().get(&key) {
            // Committed but not yet applied to the data file: the
            // checkpoint backlog is a read layer, not a stall.
            return Ok(Rc::clone(img));
        }
        self.inner.read_page(pid)
    }

    fn write_page(&self, pid: PageId, data: PageWrite<'_>) -> Result<()> {
        // Validate against the inner store so out-of-range writes fail
        // exactly like they would without the overlay.
        let pages = self.inner.num_pages(pid.file)?;
        if pid.page >= pages {
            return Err(Error::PageNotFound { file: pid.file.0, page: pid.page });
        }
        let key = (pid.file.0, pid.page);
        if self.loading.get() && pid.file != Self::CATALOG {
            // The load is the first checkpoint: straight to the data file.
            let sum = hash64(data.bytes());
            self.inner.write_page(pid, data)?;
            self.clean.borrow_mut().insert(key, sum);
            return Ok(());
        }
        self.overlay.borrow_mut().insert(key, data.to_rc());
        Ok(())
    }

    fn total_pages(&self) -> u64 {
        self.inner.total_pages()
    }

    fn wal_enabled(&self) -> bool {
        true
    }

    fn wal_len_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    fn wal_apply_lag(&self) -> u64 {
        self.committed.borrow().len() as u64
    }

    fn commit(&self, durability: Durability) -> Result<CommitStats> {
        let sabotage = self.sabotage.take();
        // A new store's first commit: its load sits unsynced in the data
        // files, so sync them, and the directory entries that name them,
        // before any group can name them.
        if self.loading.get() {
            self.inner.sync_all_files()?;
            self.inner.sync_dir()?;
            self.loading.set(false);
        }
        if self.overlay.borrow().is_empty() {
            // Nothing new this commit; a barrier still seals whatever
            // deferred groups are waiting in the log buffer.
            self.cover_deletes();
            if durability == Durability::Barrier {
                let fsyncs = self.sync()?;
                return Ok(CommitStats { fsyncs, ..CommitStats::default() });
            }
            return Ok(CommitStats::default());
        }

        // Encode the group straight into the log's group-commit buffer,
        // behind whatever deferred groups already wait there: page
        // frames in (file, page) order, sealed by one commit frame.
        // Skip-clean: a page whose bytes equal its committed image
        // carries no information for redo and is dropped — unless a
        // sabotage is armed, where the full group is logged so the
        // crash corpus stays deterministic. The buffer is bounded: a
        // frame that would overfill it first sends what is buffered to
        // the file, so a group of any size is encoded through
        // `RETAINED_CAPACITY` bytes (the sabotaged commits, which cut
        // their group inside the buffer, are a few frames long).
        let mut buf = self.wal.buf.borrow_mut();
        let start = buf.len();
        let log_start = self.wal.flushed.get() + start as u64;
        let mut skipped = 0u64;
        let mut sealed: Vec<((u32, u32), u64)> = Vec::new();
        {
            let overlay = self.overlay.borrow();
            let clean = self.clean.borrow();
            for (&key, img) in overlay.iter() {
                let sum = hash64(img);
                if sabotage.is_none() && clean.get(&key) == Some(&sum) {
                    skipped += 1;
                    continue;
                }
                // Room is kept for the commit frame, so the sealed group
                // fits the bound too.
                let frames = 2 * (FRAME_HEAD + FRAME_SUM) + img.len();
                if sabotage.is_none() && buf.len() + frames > Wal::RETAINED_CAPACITY {
                    if let Err(e) = self.wal.write_out(&mut buf) {
                        // Leave the log as it was before this group; the
                        // overlay is intact, so the caller may retry.
                        self.wal.rewind_to(&mut buf, log_start);
                        return Err(e);
                    }
                }
                encode_page_frame(&mut buf, PageId::new(FileId(key.0), key.1), img, sum);
                sealed.push((key, sum));
            }
        }
        let frames = sealed.len() as u64;

        if frames == 0 {
            // Every page matched its committed image: nothing to log or
            // promote. A barrier still seals pending deferred groups.
            drop(buf);
            self.overlay.borrow_mut().clear();
            self.cover_deletes();
            let fsyncs = if durability == Durability::Barrier { self.sync()? } else { 0 };
            return Ok(CommitStats { frames: 0, bytes: 0, frames_skipped: skipped, fsyncs });
        }

        let seq = self.wal.seq.get() + 1;
        encode_commit_frame(&mut buf, seq, frames as u32);
        let bytes = self.wal.flushed.get() + buf.len() as u64 - log_start;

        match sabotage {
            Some(CommitSabotage::TornWal) => {
                // Die mid-flush: the groups buffered before this one and
                // a strict byte prefix of it reach the log, no commit
                // frame, no sync, nothing promoted. The commit fails,
                // and the overlay dies with the "process".
                buf.truncate(start + bytes as usize / 2);
                drop(buf);
                self.wal.flush()?;
                self.overlay.borrow_mut().clear();
                return Err(Error::io_kind("wal commit", "simulated crash during log flush"));
            }
            Some(CommitSabotage::SkipApply) => {
                // Die between the log sync and the overlay promotion:
                // the commit IS durable; recovery must redo it from the
                // log. The overlay dies with the "process".
                drop(buf);
                self.cover_deletes();
                let fsyncs = self.sync()?;
                self.wal.seq.set(seq);
                self.overlay.borrow_mut().clear();
                return Ok(CommitStats { frames, bytes, frames_skipped: skipped, fsyncs });
            }
            None => {}
        }

        // The sealed group is buffered; a barrier flushes and fsyncs
        // every group buffered since the last one in a single write. A
        // real I/O failure leaves the overlay in place: nothing is lost
        // until the caller decides what to do with the error.
        let buffered = buf.len();
        drop(buf);
        self.cover_deletes();
        let fsyncs = match durability {
            Durability::Barrier => self.sync()?,
            Durability::Deferred => {
                if buffered >= Wal::WRITEBACK_THRESHOLD {
                    self.wal.flush()?;
                }
                0
            }
        };
        self.wal.seq.set(seq);

        // Promote the logged images to the committed read layer — the
        // checkpointer applies them to the data files off the hot path.
        // Skipped pages already equal their committed image: dropped.
        let mut overlay = self.overlay.borrow_mut();
        let mut committed = self.committed.borrow_mut();
        let mut clean = self.clean.borrow_mut();
        for (key, sum) in sealed {
            if let Some(img) = overlay.remove(&key) {
                clean.insert(key, sum);
                committed.insert(key, img);
            }
        }
        overlay.clear();
        Ok(CommitStats { frames, bytes, frames_skipped: skipped, fsyncs })
    }

    fn apply_backlog(&self) -> Result<(u64, u64)> {
        // The log must always cover every image the data files may
        // hold: seal any buffered deferred groups before a page
        // leaves the committed overlay, or an OS page-cache flush
        // could persist images whose commit record a crash erases.
        let fsyncs = self.sync()?;
        let mut committed = self.committed.borrow_mut();
        if committed.is_empty() {
            return Ok((0, fsyncs));
        }
        let mut dirty = self.dirty.borrow_mut();
        let mut pages = 0u64;
        for (&(file, page), img) in committed.iter() {
            self.inner.write_page(PageId::new(FileId(file), page), PageWrite::Shared(img))?;
            dirty.insert(file);
            pages += 1;
        }
        committed.clear();
        Ok((pages, fsyncs))
    }

    fn checkpoint(&self) -> Result<CheckpointStats> {
        // Seal stragglers first: uncommitted overlay pages and any
        // deferred groups still in the log buffer.
        self.commit(Durability::Barrier)?;
        // Drain the apply backlog into the data files, then bound the
        // log: once the data files are synced the log is redundant.
        // Only files that received images since the last checkpoint
        // need an fsync — any other file's on-disk state was already
        // durable then, and the truncated log holds no frames for it.
        self.apply_backlog()?;
        let dirty: Vec<u32> = std::mem::take(&mut *self.dirty.borrow_mut()).into_iter().collect();
        for file in dirty {
            // A file applied to and then deleted needs no sync; its
            // directory entry is gone.
            if self.inner.num_pages(FileId(file)).is_ok() {
                self.inner.sync_file(FileId(file))?;
            }
        }
        let truncated = self.wal.len_bytes();
        self.wal.truncate_to(0)?;
        Ok(CheckpointStats { truncated_bytes: truncated })
    }

    fn take_recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery.take()
    }

    fn sabotage_next_commit(&self, mode: CommitSabotage) {
        self.sabotage.set(Some(mode));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const PS: usize = 256;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trijoin-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn page(byte: u8) -> Vec<u8> {
        vec![byte; PS]
    }

    #[test]
    fn scan_verifies_every_frame_and_keeps_the_last_sealed_image() {
        let dir = tmp("scan");
        fs::create_dir_all(&dir).unwrap();
        let pid = PageId::new(FileId(3), 7);
        let mut log = Vec::new();
        encode_page_frame(&mut log, pid, &page(0xEE), hash64(&page(0xEE)));
        encode_commit_frame(&mut log, 1, 1);
        let first = log.len();
        encode_page_frame(&mut log, pid, &page(0xFF), hash64(&page(0xFF)));
        encode_commit_frame(&mut log, 2, 1);
        let scan = |bytes: &[u8]| {
            fs::write(dir.join(Wal::FILE_NAME), bytes).unwrap();
            let LogScan { winners, stats } = Wal::open(&dir).unwrap().scan(PS).unwrap();
            (winners.into_iter().collect::<Vec<_>>(), stats)
        };

        // Two sealed images of one page: the later one wins.
        let (winners, stats) = scan(&log);
        assert_eq!(winners, vec![((3, 7), (first + FRAME_HEAD) as u64)]);
        assert_eq!((stats.frames, stats.pages, stats.commits, stats.torn_bytes), (2, 1, 2, 0));

        // One flipped byte anywhere kills the frame and all after it.
        let mut bent = log.clone();
        bent[20] ^= 0x40;
        let (winners, stats) = scan(&bent);
        assert!(winners.is_empty());
        assert_eq!((stats.commits, stats.torn_bytes), (0, log.len() as u64));

        // A truncated frame is torn, not a panic: the unsealed second
        // image must not displace the sealed first one.
        let (winners, stats) = scan(&log[..log.len() - 1]);
        assert_eq!(winners, vec![((3, 7), FRAME_HEAD as u64)]);
        assert_eq!((stats.frames, stats.commits), (1, 1));
        assert_eq!(stats.torn_bytes, (log.len() - 1 - first) as u64);
        assert_eq!(scan(&log[..5]).1.torn_bytes, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_one_byte_change_of_a_frame_fails_its_checksum() {
        let img: Vec<u8> = (0..PS).map(|i| (i * 7) as u8).collect();
        let mut frame = Vec::new();
        encode_page_frame(&mut frame, PageId::new(FileId(2), 9), &img, hash64(&img));
        let sound = |f: &[u8]| {
            let head: [u8; FRAME_HEAD] = f[..FRAME_HEAD].try_into().unwrap();
            let image = &f[FRAME_HEAD..FRAME_HEAD + PS];
            let sum = u64::from_le_bytes(f[FRAME_HEAD + PS..].try_into().unwrap());
            sum == page_frame_sum(&head, hash64(image))
        };
        assert!(sound(&frame));
        for at in 0..frame.len() {
            for flip in 1..=255u8 {
                let mut bent = frame.clone();
                bent[at] ^= flip;
                assert!(!sound(&bent), "byte {at} ^ {flip:#x} went unnoticed");
            }
        }
    }

    /// A new store: files 0 (the catalog) and 1, three pages
    /// of file 1 and one of the catalog written, then one commit under
    /// `sabotage`. Returns the directory, the store, file 1 and the
    /// commit's result.
    fn loaded_store(
        name: &str,
        sabotage: Option<CommitSabotage>,
    ) -> (PathBuf, DurableBackend, FileId, Result<CommitStats>) {
        let dir = tmp(name);
        let b = DurableBackend::create(&dir, PS).unwrap();
        let catalog = b.create_file();
        let f = b.create_file();
        for i in 0..3u8 {
            let pid = b.allocate_page(f).unwrap();
            b.write_page(pid, PageWrite::Borrowed(&page(0x10 + i))).unwrap();
        }
        // The load went straight to its data file.
        assert_eq!(b.overlay_pages(), 0);
        assert_eq!(b.inner.read_page(PageId::new(f, 2)).unwrap().as_slice(), page(0x12).as_slice());
        let pid = b.allocate_page(catalog).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0xCA))).unwrap();
        assert_eq!(b.overlay_pages(), 1, "the catalog is logged");
        if let Some(mode) = sabotage {
            b.sabotage_next_commit(mode);
        }
        let stats = b.commit(Durability::Barrier);
        (dir, b, f, stats)
    }

    #[test]
    fn a_load_is_the_first_checkpoint_and_its_commit_logs_the_catalog_alone() {
        let catalog = PageId::new(DurableBackend::CATALOG, 0);

        // Torn at the first commit: the load is on disk, but no catalog
        // page names any of it.
        let (dir, b, f, stats) = loaded_store("load-torn", Some(CommitSabotage::TornWal));
        assert!(stats.is_err());
        drop(b);
        let b = DurableBackend::open(&dir, PS).unwrap();
        assert!(b.take_recovery_stats().expect("recovery ran").torn_bytes > 0);
        assert_eq!(b.read_page(catalog).unwrap().as_slice(), &[0u8; PS], "no catalog");
        assert_eq!(b.num_pages(f).unwrap(), 3);
        let _ = fs::remove_dir_all(&dir);

        // Durable but never promoted: the reopen is exactly the load.
        let (dir, b, f, stats) = loaded_store("load-skip", Some(CommitSabotage::SkipApply));
        assert_eq!(stats.unwrap().frames, 1, "only the catalog's page is logged");
        drop(b);
        let b = DurableBackend::open(&dir, PS).unwrap();
        assert_eq!(b.take_recovery_stats().expect("recovery ran").frames, 1);
        assert_eq!(b.read_page(catalog).unwrap().as_slice(), page(0xCA).as_slice());
        for i in 0..3u8 {
            assert_eq!(b.read_page(PageId::new(f, i as u32)).unwrap().as_slice(), page(0x10 + i));
        }
        let _ = fs::remove_dir_all(&dir);

        // After the first commit the store logs every file, and a loaded
        // page rewritten with its load image is skipped as clean.
        let (dir, b, f, stats) = loaded_store("load-then-log", None);
        assert_eq!((stats.unwrap().frames, b.wal_apply_lag()), (1, 1));
        b.write_page(PageId::new(f, 0), PageWrite::Borrowed(&page(0x10))).unwrap();
        b.write_page(PageId::new(f, 1), PageWrite::Borrowed(&page(0x77))).unwrap();
        assert_eq!(b.overlay_pages(), 2);
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!((stats.frames, stats.frames_skipped), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_in_the_first_format_is_refused_untouched() {
        let dir = tmp("retired");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0xAB))).unwrap();
        b.commit(Durability::Barrier).unwrap();
        drop(b);
        // The first format's tags on an otherwise intact log.
        let path = dir.join(Wal::FILE_NAME);
        let mut log = fs::read(&path).unwrap();
        for tag in RETIRED_TAGS {
            log[0] = tag;
            fs::write(&path, &log).unwrap();
            let err = DurableBackend::open(&dir, PS).err().expect("an older log is refused");
            assert!(err.to_string().contains("earlier log format"), "{err}");
            assert_eq!(fs::read(&path).unwrap(), log, "the refused log is left as it was");
        }
        // A checkpointed store's empty log opens whatever wrote it.
        fs::write(&path, b"").unwrap();
        assert!(DurableBackend::open(&dir, PS).unwrap().take_recovery_stats().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_writes_stay_out_of_the_data_files() {
        let dir = tmp("overlay");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0x11))).unwrap();
        // The writer reads its own write back...
        assert_eq!(b.read_page(pid).unwrap().as_slice(), page(0x11).as_slice());
        assert_eq!(b.overlay_pages(), 1);
        // ...but the medium still holds the allocated zero page.
        assert_eq!(b.inner.read_page(pid).unwrap().as_slice(), &[0u8; PS]);

        // Commit promotes the image to the committed read layer; the
        // data file is applied lazily, at checkpoint.
        b.commit(Durability::Barrier).unwrap();
        assert_eq!(b.overlay_pages(), 0);
        assert_eq!(b.wal_apply_lag(), 1, "committed image awaits the checkpointer");
        assert_eq!(b.read_page(pid).unwrap().as_slice(), page(0x11).as_slice());
        assert_eq!(b.inner.read_page(pid).unwrap().as_slice(), &[0u8; PS]);

        b.checkpoint().unwrap();
        assert_eq!(b.wal_apply_lag(), 0);
        assert_eq!(b.inner.read_page(pid).unwrap().as_slice(), page(0x11).as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_without_commit_recovers_to_last_commit() {
        let dir = tmp("crash-mid-batch");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0xAA))).unwrap();
        b.commit(Durability::Barrier).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0xBB))).unwrap();
        drop(b); // crash: overlay (0xBB) dies with the process

        let b = DurableBackend::open(&dir, PS).unwrap();
        assert_eq!(b.read_page(pid).unwrap().as_slice(), page(0xAA).as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_but_unapplied_batch_is_redone() {
        let dir = tmp("redo");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0xCC))).unwrap();
        b.sabotage_next_commit(CommitSabotage::SkipApply);
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!(stats.frames, 1, "the commit is durable");
        assert_eq!(stats.fsyncs, 1, "the sealed group reached the medium");
        // The data file never saw the image...
        assert_eq!(b.inner.read_page(pid).unwrap().as_slice(), &[0u8; PS]);
        drop(b);

        // ...recovery redoes it from the log.
        let b = DurableBackend::open(&dir, PS).unwrap();
        let stats = b.take_recovery_stats().expect("recovery ran");
        assert_eq!((stats.frames, stats.commits, stats.torn_bytes), (1, 1, 0));
        assert_eq!(b.read_page(pid).unwrap().as_slice(), page(0xCC).as_slice());
        assert_eq!(b.wal_len_bytes(), 0, "recovery bounds the log");

        // Idempotent double recovery: nothing left to replay.
        drop(b);
        let b = DurableBackend::open(&dir, PS).unwrap();
        assert!(b.take_recovery_stats().is_none());
        assert_eq!(b.read_page(pid).unwrap().as_slice(), page(0xCC).as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_is_truncated_not_replayed() {
        let dir = tmp("torn-tail");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let p0 = b.allocate_page(f).unwrap();
        let p1 = b.allocate_page(f).unwrap();
        b.write_page(p0, PageWrite::Borrowed(&page(0x01))).unwrap();
        b.commit(Durability::Barrier).unwrap();

        // Second batch dies mid-flush: torn tail after a good commit.
        b.write_page(p0, PageWrite::Borrowed(&page(0x02))).unwrap();
        b.write_page(p1, PageWrite::Borrowed(&page(0x03))).unwrap();
        b.sabotage_next_commit(CommitSabotage::TornWal);
        let err = b.commit(Durability::Barrier).unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err}");
        assert!(b.wal_len_bytes() > 0, "the torn prefix reached the log");
        drop(b);

        let b = DurableBackend::open(&dir, PS).unwrap();
        let stats = b.take_recovery_stats().expect("recovery ran");
        assert!(stats.torn_bytes > 0, "the tail was detected and measured");
        // The first commit is still in the log (no checkpoint ran), so
        // recovery redoes it — idempotently — and stops at the tear.
        assert_eq!(stats.commits, 1);
        // The torn batch never happened; the first commit survives.
        assert_eq!(b.read_page(p0).unwrap().as_slice(), page(0x01).as_slice());
        assert_eq!(b.read_page(p1).unwrap().as_slice(), &[0u8; PS]);
        assert_eq!(b.wal_len_bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bulk_group_goes_through_a_bounded_buffer() {
        let dir = tmp("bulk-group");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        // Three buffers' worth of frames in one group.
        let pages = (3 * Wal::RETAINED_CAPACITY / (FRAME_HEAD + PS + FRAME_SUM)) as u32;
        for i in 0..pages {
            let pid = b.allocate_page(f).unwrap();
            b.write_page(pid, PageWrite::Borrowed(&page(i as u8))).unwrap();
        }
        let stats = b.commit(Durability::Deferred).unwrap();
        assert_eq!(stats.frames, pages as u64);
        assert_eq!(stats.bytes, b.wal_len_bytes(), "frames written early are counted");
        assert!(b.wal.flushed.get() > 0 && stats.fsyncs == 0, "written early, not synced");
        assert!(b.wal.buf.borrow().capacity() <= Wal::RETAINED_CAPACITY);
        b.commit(Durability::Barrier).unwrap();
        let sealed = b.wal_len_bytes();

        // A second bulk group that dies before its commit frame: the
        // frames it wrote early are a torn tail.
        for i in 0..pages {
            b.write_page(PageId::new(f, i), PageWrite::Borrowed(&page(0xEE))).unwrap();
        }
        b.commit(Durability::Barrier).unwrap();
        let cut = b.wal_len_bytes() - 1;
        drop(b);
        let log = fs::OpenOptions::new().write(true).open(dir.join(Wal::FILE_NAME)).unwrap();
        log.set_len(cut).unwrap();

        let b = DurableBackend::open(&dir, PS).unwrap();
        let stats = b.take_recovery_stats().expect("recovery ran");
        assert_eq!((stats.frames, stats.commits), (pages as u64, 1));
        assert_eq!(stats.torn_bytes, cut - sealed);
        for i in (0..pages).step_by(97) {
            assert_eq!(
                b.read_page(PageId::new(f, i)).unwrap().as_slice(),
                page(i as u8).as_slice()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewind_forgets_a_half_encoded_group_wherever_its_bytes_are() {
        let dir = tmp("rewind");
        fs::create_dir_all(&dir).unwrap();
        let wal = Wal::create(&dir).unwrap();
        // A deferred group waits in the buffer; the failed group's
        // frames are all still buffered behind it.
        wal.buf.borrow_mut().extend_from_slice(&[1; 100]);
        wal.buf.borrow_mut().extend_from_slice(&[2; 50]);
        wal.rewind_to(&mut wal.buf.borrow_mut(), 100);
        assert_eq!((wal.flushed.get(), wal.buf.borrow().len()), (0, 100));
        // The failed group already spilled: the deferred group and the
        // spilled frames are in the file, synced or not.
        wal.buf.borrow_mut().extend_from_slice(&[2; 50]);
        wal.sync().unwrap();
        wal.buf.borrow_mut().extend_from_slice(&[2; 30]);
        wal.rewind_to(&mut wal.buf.borrow_mut(), 100);
        assert_eq!((wal.flushed.get(), wal.synced.get(), wal.len_bytes()), (100, 100, 100));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_the_log() {
        let dir = tmp("checkpoint");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        for i in 0..4u8 {
            let pid = b.allocate_page(f).unwrap();
            b.write_page(pid, PageWrite::Borrowed(&page(i))).unwrap();
            b.commit(Durability::Barrier).unwrap();
        }
        let len = b.wal_len_bytes();
        assert!(len > 0, "four commits accumulated log bytes");
        let stats = b.checkpoint().unwrap();
        assert_eq!(stats.truncated_bytes, len);
        assert_eq!(b.wal_len_bytes(), 0);
        // State intact after the truncation — now straight from the
        // data files (the committed read layer drained).
        assert_eq!(b.wal_apply_lag(), 0);
        for i in 0..4u8 {
            let pid = PageId::new(f, i as u32);
            assert_eq!(b.read_page(pid).unwrap().as_slice(), page(i).as_slice());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_commit_is_free() {
        let dir = tmp("empty-commit");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!(stats, CommitStats::default());
        assert_eq!(b.wal_len_bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn skip_clean_drops_rewrites_of_identical_bytes() {
        let dir = tmp("skip-clean");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0x11))).unwrap();
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!((stats.frames, stats.frames_skipped), (1, 0), "first image always logs");
        let len = b.wal_len_bytes();

        // Rewrite the same bytes: the commit logs zero page frames and
        // the log does not grow.
        b.write_page(pid, PageWrite::Borrowed(&page(0x11))).unwrap();
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!((stats.frames, stats.frames_skipped), (0, 1));
        assert_eq!(stats.bytes, 0);
        assert_eq!(b.wal_len_bytes(), len, "clean rewrite appends nothing");
        assert_eq!(b.overlay_pages(), 0, "the overlay still drains");

        // Changed-then-reverted: the overlay holds only the final image,
        // which equals the committed one — nothing is logged.
        b.write_page(pid, PageWrite::Borrowed(&page(0x22))).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0x11))).unwrap();
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!((stats.frames, stats.frames_skipped), (0, 1));
        assert_eq!(b.wal_len_bytes(), len);

        // A genuine change still logs.
        b.write_page(pid, PageWrite::Borrowed(&page(0x33))).unwrap();
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!((stats.frames, stats.frames_skipped), (1, 0));
        assert!(b.wal_len_bytes() > len);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deferred_commits_roll_back_without_a_barrier() {
        let dir = tmp("deferred-rollback");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0xAA))).unwrap();
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!(stats.fsyncs, 1);

        // A deferred commit appends to the group buffer only: no fsync,
        // but the image is visible through the committed read layer.
        b.write_page(pid, PageWrite::Borrowed(&page(0xBB))).unwrap();
        let stats = b.commit(Durability::Deferred).unwrap();
        assert_eq!((stats.frames, stats.fsyncs), (1, 0), "deferred commit issues no fsync");
        assert_eq!(b.read_page(pid).unwrap().as_slice(), page(0xBB).as_slice());
        drop(b); // crash before any barrier: the buffered group is lost

        let b = DurableBackend::open(&dir, PS).unwrap();
        assert_eq!(
            b.read_page(pid).unwrap().as_slice(),
            page(0xAA).as_slice(),
            "the deferred commit rolled back to the last barrier"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn barrier_seals_every_deferred_group_with_one_fsync() {
        let dir = tmp("deferred-seal");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let p0 = b.allocate_page(f).unwrap();
        let p1 = b.allocate_page(f).unwrap();
        b.write_page(p0, PageWrite::Borrowed(&page(0xBB))).unwrap();
        assert_eq!(b.commit(Durability::Deferred).unwrap().fsyncs, 0);
        b.write_page(p1, PageWrite::Borrowed(&page(0xCC))).unwrap();
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!(stats.fsyncs, 1, "one fsync seals both groups");
        drop(b); // crash after the barrier: everything survives

        let b = DurableBackend::open(&dir, PS).unwrap();
        let stats = b.take_recovery_stats().expect("recovery ran");
        assert_eq!(stats.commits, 2, "both sealed groups replayed");
        assert_eq!(b.read_page(p0).unwrap().as_slice(), page(0xBB).as_slice());
        assert_eq!(b.read_page(p1).unwrap().as_slice(), page(0xCC).as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_barrier_commit_seals_pending_deferred_groups() {
        let dir = tmp("empty-barrier");
        let b = DurableBackend::create(&dir, PS).unwrap();
        let f = b.create_file();
        let pid = b.allocate_page(f).unwrap();
        b.write_page(pid, PageWrite::Borrowed(&page(0xDD))).unwrap();
        assert_eq!(b.commit(Durability::Deferred).unwrap().fsyncs, 0);
        // No new writes: the barrier has nothing to log but must still
        // flush the buffered group.
        let stats = b.commit(Durability::Barrier).unwrap();
        assert_eq!((stats.frames, stats.fsyncs), (0, 1));
        drop(b);

        let b = DurableBackend::open(&dir, PS).unwrap();
        assert_eq!(b.read_page(pid).unwrap().as_slice(), page(0xDD).as_slice());
        let _ = fs::remove_dir_all(&dir);
    }
}
