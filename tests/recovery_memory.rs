//! Recovery's memory bound: redo holds one read buffer, one page and one
//! map entry per *distinct* page in the log, however long the log is.
//!
//! One test in a binary of its own, because it measures the process: a
//! counting global allocator tracks the live heap bytes and their peak
//! while `DurableBackend::open` recovers a log of 2 000 sealed groups
//! that keep rewriting the same 8 pages. Holding the log — or every
//! frame of it — in memory would show as tens of megabytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

use trijoin_storage::{
    CommitSabotage, Durability, DurableBackend, PageId, PageWrite, StorageBackend, Wal,
};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and publish no
// other data, so `Relaxed` suffices. `realloc` keeps its default, which
// goes through `alloc` and `dealloc` below and is therefore counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PS: usize = 4096;
const GROUPS: u32 = 2_000;
/// Pages every group rewrites.
const HOT: u32 = 8;
/// One page nobody wrote before joins the log every this many groups.
const FRESH_EVERY: u32 = 100;
const FRESH: u32 = GROUPS / FRESH_EVERY;

/// The image group `k` writes to `page`.
fn image(k: u32, page: u32) -> Vec<u8> {
    let mut img = vec![0u8; PS];
    for (i, chunk) in img.chunks_exact_mut(4).enumerate() {
        chunk.copy_from_slice(&(k ^ page.rotate_left(16) ^ i as u32).to_le_bytes());
    }
    img
}

#[test]
fn recovery_memory_follows_distinct_pages_not_log_bytes() {
    let dir = std::env::temp_dir().join(format!("trijoin-recovery-memory-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let backend = DurableBackend::create(&dir, PS).unwrap();
    let file = backend.create_file();
    for _ in 0..HOT + FRESH {
        backend.allocate_page(file).unwrap();
    }
    let write = |k: u32, page: u32| {
        backend.write_page(PageId::new(file, page), PageWrite::Borrowed(&image(k, page))).unwrap();
    };
    let mut frames = 0u64;
    for k in 1..=GROUPS {
        for page in 0..HOT {
            write(k, page);
        }
        if (k - 1) % FRESH_EVERY == 0 {
            write(k, HOT + (k - 1) / FRESH_EVERY);
        }
        // Deferred: the groups share one fsync at the end; the log bytes
        // are the ones a barrier per commit would write.
        frames += backend.commit(Durability::Deferred).unwrap().frames;
    }
    backend.commit(Durability::Barrier).unwrap();
    assert_eq!(frames, (GROUPS * HOT + FRESH) as u64);
    // A torn trailing group that rewrites the hot pages: its leading
    // frames are whole and checksummed, but nothing seals them.
    for page in 0..HOT {
        write(GROUPS + 1, page);
    }
    backend.sabotage_next_commit(CommitSabotage::TornWal);
    backend.commit(Durability::Barrier).unwrap_err();
    drop(backend);
    let log_len = fs::metadata(dir.join(Wal::FILE_NAME)).unwrap().len();
    assert!(log_len >= 32 << 20, "the log is only {log_len} bytes");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let backend = DurableBackend::open(&dir, PS).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(peak < 2 << 20, "recovering a {log_len}-byte log held {peak} bytes at its peak");

    let stats = backend.take_recovery_stats().expect("recovery ran");
    assert_eq!(stats.frames, frames, "every sealed frame is scanned and counted");
    assert_eq!(stats.commits, GROUPS as u64);
    assert_eq!(stats.pages, (HOT + FRESH) as u64, "each distinct page is written once");
    assert!(stats.torn_bytes > 0, "the unsealed group is the torn tail");
    for page in 0..HOT {
        let got = backend.read_page(PageId::new(file, page)).unwrap();
        assert!(*got == image(GROUPS, page), "hot page {page} is not its last sealed image");
    }
    for j in 0..FRESH {
        let got = backend.read_page(PageId::new(file, HOT + j)).unwrap();
        assert!(*got == image(j * FRESH_EVERY + 1, HOT + j), "fresh page {j} lost its image");
    }
    let _ = fs::remove_dir_all(&dir);
}
