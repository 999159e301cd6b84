//! Torn-tail fuzz: truncate the write-ahead log at **every byte offset**
//! and prove recovery always lands on a prefix of committed states.
//!
//! The durable contract is prefix-atomicity: a crash may lose the last
//! commit groups (a torn tail is truncated; deferred groups that never
//! reached a barrier simply are not in the file), but it must never
//! surface a *mix* — some pages from commit `n+1` alongside commit `n`'s
//! view. This harness makes that exhaustive for a multi-commit group
//! file: every possible crash point in the log, byte by byte, reopens
//! the store and checks the recovered image against the exact state the
//! longest sealed prefix defines.
//!
//! Beside the truncations sit the corruptions: every byte of the same log
//! flipped in turn, a page frame announcing an absurd or merely foreign
//! length, and a commit frame whose seal count does not match — each must
//! end the replay at the last group sealed before it.
//!
//! A third sweep cuts, at every byte offset, a group that retires the run
//! files a catalog page names and names a new one: the recovered catalog
//! is the longest sealed prefix's, and every run it names is on the
//! device — a deleted file keeps its OS file until such a group is synced.
//!
//! It also pins a structural property of group commit: a run that
//! commits with `Durability::Deferred` and seals once at the end writes
//! the **byte-identical** log a barrier-per-commit run writes — deferred
//! durability moves *when* bytes reach disk, never *what* bytes.

use std::fs;
use std::path::{Path, PathBuf};

use trijoin_storage::{Durability, DurableBackend, FileId, PageId, PageWrite, StorageBackend, Wal};

const PS: usize = 256;
/// Commit groups in the log; commit `k` (1-based) rewrites page 0 and
/// writes page `k`, both filled with byte `k` — so every commit is
/// visible at two places and a half-applied group cannot hide.
const COMMITS: u8 = 4;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trijoin-walfuzz-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Build the store: `COMMITS` groups under the given cadence, returning
/// the cumulative log length after each sealed group (`cum[0] == 0`).
/// Under `Deferred` a final empty barrier seals the buffered groups.
fn build(dir: &Path, durability: Durability) -> (FileId, Vec<u64>) {
    let backend = DurableBackend::create(dir, PS).unwrap();
    let file = backend.create_file();
    for _ in 0..=COMMITS as u32 {
        backend.allocate_page(file).unwrap();
    }
    let mut cum = vec![0u64];
    for k in 1..=COMMITS {
        let img = vec![k; PS];
        backend.write_page(PageId::new(file, 0), PageWrite::Borrowed(&img)).unwrap();
        backend.write_page(PageId::new(file, k as u32), PageWrite::Borrowed(&img)).unwrap();
        let stats = backend.commit(durability).unwrap();
        assert_eq!(stats.frames, 2, "commit {k} must log both distinct pages");
        cum.push(cum.last().unwrap() + stats.bytes);
    }
    if durability == Durability::Deferred {
        let seal = backend.commit(Durability::Barrier).unwrap();
        assert_eq!((seal.frames, seal.fsyncs), (0, 1), "one fsync seals every deferred group");
    }
    assert_eq!(backend.wal_len_bytes(), *cum.last().unwrap());
    (file, cum)
}

/// Copy the store into a fresh directory with its log truncated to
/// `log_len` — the on-disk image an OS crash at that byte would leave
/// (data files untouched: nothing was checkpointed).
fn crashed_copy(src: &Path, dst: &Path, log_len: u64) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    let log = fs::OpenOptions::new().write(true).open(dst.join(Wal::FILE_NAME)).unwrap();
    log.set_len(log_len).unwrap();
}

#[test]
fn recovery_from_every_truncation_offset_is_a_committed_prefix() {
    let src = tmp("src");
    let (file, cum) = build(&src, Durability::Barrier);
    let total = *cum.last().unwrap();
    let crash = tmp("crash");

    for len in 0..=total {
        crashed_copy(&src, &crash, len);
        let backend = DurableBackend::open(&crash, PS).unwrap();
        // The longest sealed prefix the truncated log still contains.
        let n = cum.iter().rposition(|&end| end <= len).unwrap() as u8;

        let stats = backend.take_recovery_stats().unwrap_or_default();
        assert_eq!(stats.commits, n as u64, "len {len}: wrong replay depth");
        assert_eq!(stats.frames, 2 * n as u64, "len {len}: wrong frame count");
        assert_eq!(stats.torn_bytes, len - cum[n as usize], "len {len}: wrong torn tail");

        // Page 0 shows the *last* sealed commit, pages 1..=k exactly the
        // sealed ones, later pages still zero — a prefix state, no mix.
        let want_head = vec![n; PS];
        assert_eq!(
            *backend.read_page(PageId::new(file, 0)).unwrap(),
            if n == 0 { vec![0u8; PS] } else { want_head },
            "len {len}: page 0 is not commit {n}'s image"
        );
        for k in 1..=COMMITS {
            let want = if k <= n { vec![k; PS] } else { vec![0u8; PS] };
            assert_eq!(
                *backend.read_page(PageId::new(file, k as u32)).unwrap(),
                want,
                "len {len}: page {k} mixes commit states (prefix is {n})"
            );
        }
    }
}

/// Frame sizes of the format `wal.rs` documents: a 13-byte head, the
/// page image (page frames only), an 8-byte checksum.
const PAGE_FRAME: usize = 13 + PS + 8;
const COMMIT_FRAME: usize = 13 + 8;
/// Offset of a page frame's `len` field (after the tag, file and page).
const LEN_FIELD: usize = 9;

/// Copy the store with `log` as its write-ahead log, recover it, and
/// require exactly the state the first `n` groups define, with
/// `torn_bytes` measured from the end of group `n`.
fn assert_recovers_to_prefix(src: &Path, file: FileId, cum: &[u64], log: &[u8], n: u8, ctx: &str) {
    let crash = src.with_extension("crash");
    crashed_copy(src, &crash, 0);
    fs::write(crash.join(Wal::FILE_NAME), log).unwrap();
    let backend = DurableBackend::open(&crash, PS).unwrap();

    let stats = backend.take_recovery_stats().unwrap_or_default();
    assert_eq!(stats.commits, n as u64, "{ctx}: wrong replay depth");
    assert_eq!(stats.frames, 2 * n as u64, "{ctx}: wrong frame count");
    assert_eq!(stats.torn_bytes, log.len() as u64 - cum[n as usize], "{ctx}: wrong torn tail");
    for k in 0..=COMMITS {
        let want = match k {
            0 => vec![n; PS],
            k if k <= n => vec![k; PS],
            _ => vec![0u8; PS],
        };
        assert_eq!(
            *backend.read_page(PageId::new(file, k as u32)).unwrap(),
            want,
            "{ctx}: page {k} is not the state of prefix {n}"
        );
    }
}

#[test]
fn recovery_from_every_flipped_byte_is_a_committed_prefix() {
    let src = tmp("flip-src");
    let (file, cum) = build(&src, Durability::Barrier);
    let log = fs::read(src.join(Wal::FILE_NAME)).unwrap();

    for at in 0..log.len() {
        let mut bent = log.clone();
        bent[at] ^= 0xFF;
        // Every byte of a frame is covered by its checksum (or is the
        // checksum), so the group holding the flipped byte and all
        // after it are lost — and nothing before it.
        let n = cum.iter().rposition(|&end| end <= at as u64).unwrap() as u8;
        assert_recovers_to_prefix(&src, file, &cum, &bent, n, &format!("flip at {at}"));
    }
}

#[test]
fn a_page_frame_of_any_other_length_is_a_torn_tail() {
    let src = tmp("len-src");
    let (file, cum) = build(&src, Durability::Barrier);
    let log = fs::read(src.join(Wal::FILE_NAME)).unwrap();
    let group3 = cum[2] as usize;

    // `len` = u32::MAX on the first frame of group 3: the scan must
    // reject the field itself — there is no 4 GiB image to read, and
    // nothing may be allocated for one.
    let mut absurd = log.clone();
    absurd[group3 + LEN_FIELD..group3 + LEN_FIELD + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_recovers_to_prefix(&src, file, &cum, &absurd, 2, "len u32::MAX");

    // A perfectly well-formed, sealed group written by a store with
    // another page size, spliced in after group 2: every checksum and
    // the seal count verify, the length alone gives it away. The valid
    // groups 3 and 4 behind it must not replay either.
    let other = tmp("len-half");
    let half = DurableBackend::create(&other, PS / 2).unwrap();
    let f = half.create_file();
    let pid = half.allocate_page(f).unwrap();
    half.write_page(pid, PageWrite::Borrowed(&[0xAB; PS / 2])).unwrap();
    half.commit(Durability::Barrier).unwrap();
    drop(half);
    let foreign = fs::read(other.join(Wal::FILE_NAME)).unwrap();
    let spliced = [&log[..group3], &foreign, &log[group3..]].concat();
    assert_recovers_to_prefix(&src, file, &cum, &spliced, 2, "foreign page size");
}

#[test]
fn a_miscounted_seal_stops_the_replay_before_later_valid_groups() {
    let src = tmp("seal-src");
    let (file, cum) = build(&src, Durability::Barrier);
    let log = fs::read(src.join(Wal::FILE_NAME)).unwrap();
    assert_eq!(cum[1] as usize, 2 * PAGE_FRAME + COMMIT_FRAME, "frame sizes drifted");

    // Drop the first page frame of group 2: its commit frame is intact
    // and checksummed but now seals two frames where one precedes it.
    // Groups 3 and 4 behind it are whole; none of them may replay.
    let group2 = cum[1] as usize;
    let short = [&log[..group2], &log[group2 + PAGE_FRAME..]].concat();
    assert_recovers_to_prefix(&src, file, &cum, &short, 1, "seal counts one frame too many");

    // Drop group 2's commit frame instead: group 3's seal then finds
    // four unsealed frames before it, not two.
    let seal2 = cum[2] as usize - COMMIT_FRAME;
    let unsealed = [&log[..seal2], &log[cum[2] as usize..]].concat();
    assert_recovers_to_prefix(&src, file, &cum, &unsealed, 1, "seal counts two frames too few");
}

#[test]
fn deferred_group_commit_writes_the_same_log_bytes_as_barriers() {
    let barrier = tmp("cadence-barrier");
    let deferred = tmp("cadence-deferred");
    let (_, cum_b) = build(&barrier, Durability::Barrier);
    let (_, cum_d) = build(&deferred, Durability::Deferred);
    assert_eq!(cum_b, cum_d, "group boundaries must not depend on the commit cadence");
    let log_b = fs::read(barrier.join(Wal::FILE_NAME)).unwrap();
    let log_d = fs::read(deferred.join(Wal::FILE_NAME)).unwrap();
    assert_eq!(log_b, log_d, "deferred commits must change when bytes land, not which bytes");
}

/// Pages in each run file of [`spill_run`], every byte the run's id.
const RUN_PAGES: u32 = 2;

/// A run file as a relation's apply log spills one: created, its pages
/// written once.
fn spill_run(backend: &DurableBackend) -> FileId {
    let run = backend.create_file();
    for _ in 0..RUN_PAGES {
        let pid = backend.allocate_page(run).unwrap();
        backend.write_page(pid, PageWrite::Borrowed(&[run.0 as u8; PS])).unwrap();
    }
    run
}

/// The catalog page of file 0: a count, then the ids of the runs it names.
fn catalog_page(runs: &[FileId]) -> Vec<u8> {
    let mut page = vec![0u8; PS];
    page[0] = runs.len() as u8;
    for (i, run) in runs.iter().enumerate() {
        page[1 + 4 * i..5 + 4 * i].copy_from_slice(&run.0.to_le_bytes());
    }
    page
}

fn named_runs(backend: &DurableBackend) -> Vec<FileId> {
    let page = backend.read_page(PageId::new(FileId(0), 0)).unwrap();
    let id = |i: usize| u32::from_le_bytes(page[1 + 4 * i..5 + 4 * i].try_into().unwrap());
    (0..page[0] as usize).map(|i| FileId(id(i))).collect()
}

/// A group that retires the runs a catalog names and names a new one — a
/// settle between two commits, then a commit that seals the next log —
/// cut at every byte offset. Recovery is the longest sealed prefix, and
/// every run file the recovered catalog names is on the device with the
/// pages it was spilled with: the old runs live in the data files alone
/// (a checkpoint applied them and truncated the log), so their unlink
/// must wait until the group that stops naming them is synced.
#[test]
fn recovery_from_every_cut_of_a_group_that_retires_runs_finds_every_named_run() {
    let src = tmp("runs-src");
    let backend = DurableBackend::create(&src, PS).unwrap();
    let catalog = backend.create_file();
    backend.allocate_page(catalog).unwrap();
    let write_catalog = |runs: &[FileId]| {
        let page = catalog_page(runs);
        backend.write_page(PageId::new(catalog, 0), PageWrite::Borrowed(&page)).unwrap();
    };
    let old = vec![spill_run(&backend), spill_run(&backend)];
    write_catalog(&old);
    backend.commit(Durability::Barrier).unwrap();
    backend.checkpoint().unwrap();

    for &run in &old {
        backend.delete_file(run);
    }
    let new = vec![spill_run(&backend)];
    write_catalog(&new);
    // The device as a crash anywhere inside the next commit leaves it.
    let before = tmp("runs-before");
    crashed_copy(&src, &before, 0);
    backend.commit(Durability::Barrier).unwrap();
    for run in &old {
        let path = src.join(format!("f{}.pages", run.0));
        assert!(!path.exists(), "the sealed group no longer names f{}: it goes", run.0);
    }
    let log = fs::read(src.join(Wal::FILE_NAME)).unwrap();
    drop(backend);

    let crash = tmp("runs-crash");
    for len in 0..=log.len() {
        crashed_copy(&before, &crash, 0);
        fs::write(crash.join(Wal::FILE_NAME), &log[..len]).unwrap();
        let backend = DurableBackend::open(&crash, PS).unwrap();
        let runs = named_runs(&backend);
        let want = if len == log.len() { &new } else { &old };
        assert_eq!(&runs, want, "len {len}: not the longest sealed prefix");
        for run in runs {
            for page in 0..RUN_PAGES {
                let got = backend.read_page(PageId::new(run, page));
                let ok = got.is_ok_and(|img| *img == [run.0 as u8; PS]);
                assert!(ok, "len {len}: page {page} of the named run f{} is gone", run.0);
            }
        }
    }
}
