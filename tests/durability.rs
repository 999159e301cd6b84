//! Durability acceptance: the WAL-backed file backend must recover to
//! *equivalence* — after any crash (cold drop, torn log tail, sealed-but-
//! unapplied log), reopening a store yields exactly the last committed
//! state, every strategy answers the oracle join over it, recovery is
//! idempotent under repetition, and checkpoints bound the log.
//!
//! The driver-level tests replay generated crash-heavy scripts through
//! `trijoin_check::run_script` with a durable root, covering all three
//! strategies and every configured shard count in one sweep.

use std::path::PathBuf;

use trijoin::catalog::{read_catalog, write_catalog, CATALOG_FILE};
use trijoin::{Database, Durability, JoinStrategy, Mutation, SystemParams};
use trijoin_check::{generate, run_script, CheckConfig, GenConfig};
use trijoin_common::{BaseTuple, Error, Surrogate, ViewTuple};
use trijoin_exec::oracle;
use trijoin_model::Method;
use trijoin_serve::{ServeConfig, Server};
use trijoin_storage::{CommitSabotage, FileId, HeapFile};

fn params() -> SystemParams {
    SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() }
}

/// A per-test scratch directory, wiped at the start so reruns are clean
/// and left on disk afterwards for post-mortem inspection.
fn fresh_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("trijoin-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tuples(n: u32, base: u32) -> Vec<BaseTuple> {
    (0..n).map(|i| BaseTuple::padded(Surrogate(base + i), (i % 7) as u64, 64)).collect()
}

fn canon(mut v: Vec<ViewTuple>) -> Vec<ViewTuple> {
    v.sort_by_key(|t| (t.r_sur.0, t.s_sur.0));
    v
}

/// Query the recovered database with all three freshly rebuilt
/// strategies and assert each answers the oracle join over `(r, s)`.
fn assert_all_strategies_agree(db: &Database, r: &[BaseTuple], s: &[BaseTuple]) {
    let want = canon(oracle::join_tuples(r, s));
    let mut mv = db.materialized_view().expect("rebuild MV on recovered store");
    assert_eq!(canon(db.query(&mut mv).unwrap()), want, "materialized view diverges");
    let mut ji = db.join_index().expect("rebuild JI on recovered store");
    assert_eq!(canon(db.query(&mut ji).unwrap()), want, "join index diverges");
    let mut hh = db.hybrid_hash();
    assert_eq!(canon(db.query(&mut hh).unwrap()), want, "hybrid hash diverges");
}

/// Mutations applied on top of the initial load: a committed batch and an
/// uncommitted tail, with the mirror updated alongside.
fn apply_batch(db: &mut Database, mirror: &mut Vec<BaseTuple>, base: u32) {
    for i in 0..8u32 {
        let t = BaseTuple::padded(Surrogate(base + i), (i % 7) as u64, 64);
        db.r_mut().apply_mutation(&Mutation::Insert(t.clone())).unwrap();
        mirror.push(t);
    }
    let victim = mirror.remove(3);
    db.r_mut().apply_mutation(&Mutation::Delete(victim)).unwrap();
}

/// Recover-to-equivalence under every crash flavour: the reopened store
/// holds exactly what was durable at the kill point, and all three
/// strategies reproduce the oracle join over it.
#[test]
fn every_crash_flavour_recovers_to_the_committed_state() {
    for (name, mode) in [
        ("cold", None),
        ("torn", Some(CommitSabotage::TornWal)),
        ("skip-apply", Some(CommitSabotage::SkipApply)),
    ] {
        let dir = fresh_dir(&format!("flavour-{name}"));
        let (r0, s0) = (tuples(40, 0), tuples(30, 0));
        let mut committed = r0.clone();
        let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();

        apply_batch(&mut db, &mut committed, 1000);
        db.commit().unwrap();

        // The in-flight tail: durable only when the sabotage seals the log.
        let mut tail_state = committed.clone();
        apply_batch(&mut db, &mut tail_state, 2000);
        match mode {
            None => {} // die cold: overlay dropped with the process
            Some(CommitSabotage::TornWal) => {
                db.sabotage_next_commit(CommitSabotage::TornWal);
                assert!(db.commit().is_err(), "torn-WAL commit must fail");
            }
            Some(CommitSabotage::SkipApply) => {
                db.sabotage_next_commit(CommitSabotage::SkipApply);
                db.commit().unwrap();
                committed = tail_state.clone();
            }
        }
        drop(db);

        let db = Database::open_durable(&params(), &dir).unwrap();
        if mode == Some(CommitSabotage::TornWal) {
            assert!(
                db.metrics().counter("wal.recovered.torn_bytes") > 0,
                "recovery must report the truncated torn tail"
            );
        }
        if mode == Some(CommitSabotage::SkipApply) {
            assert!(
                db.metrics().counter("wal.recovered.commits") > 0,
                "recovery must redo the sealed-but-unapplied commit"
            );
        }
        assert_all_strategies_agree(&db, &committed, &s0);
    }
}

/// The initial load is the store's first checkpoint: `R` and `S` reach
/// their data files directly, and the commit that ends `create_durable`
/// logs the catalog's pages and nothing else. Its committed layer, which
/// holds every page that commit logged, is the catalog alone.
#[test]
fn the_load_commit_logs_the_catalog_alone() {
    let dir = fresh_dir("load-commit");
    let db = Database::create_durable(&params(), tuples(400, 0), tuples(300, 0), &dir).unwrap();
    let catalog = db.disk().num_pages(CATALOG_FILE).unwrap() as u64;
    assert!(db.disk().total_pages() > 10 * catalog, "the load spans many more pages");
    assert_eq!(db.metrics().counter("wal.commits"), 1);
    assert_eq!(db.metrics().counter("wal.frames"), catalog, "only the catalog is logged");
    assert_eq!(db.disk().wal_apply_lag(), catalog, "no loaded page waits in memory");
}

/// A cold drop right after `create_durable`: the reopen holds exactly
/// the load, and every strategy answers the oracle join over it.
#[test]
fn a_cold_drop_right_after_the_load_reopens_to_the_load() {
    let dir = fresh_dir("load-cold");
    let (r0, s0) = (tuples(400, 0), tuples(300, 0));
    drop(Database::create_durable(&params(), r0.clone(), s0.clone(), &dir).unwrap());
    let db = Database::open_durable(&params(), &dir).unwrap();
    assert_eq!(db.metrics().counter("wal.recovered.commits"), 1, "the catalog's group");
    assert_all_strategies_agree(&db, &r0, &s0);
}

/// 250 updates over the first 100 tuples of `mirror`, descending and each
/// surrogate hit more than once: two and a half apply-log buffers at this
/// page size, so two more sorted runs are on disk when the call returns
/// and nothing has touched a tree.
fn enqueue_spilling_updates(db: &mut Database, mirror: &mut [BaseTuple], tag: u64) {
    let (queued, runs) = (db.r().pending_ops(), db.metrics().counter("base.apply_log.runs"));
    for i in (0..250usize).rev() {
        let at = i % 100;
        let new = BaseTuple::padded(mirror[at].sur, tag + (i % 5) as u64, 64);
        let old = std::mem::replace(&mut mirror[at], new.clone());
        db.apply_r_update(&trijoin::Update { old, new }).unwrap();
    }
    assert_eq!(db.r().pending_ops(), queued + 250);
    assert_eq!(db.metrics().counter("base.apply_log.runs"), runs + 2);
}

/// The files a reopened store may hold: the catalog, `R`'s tree and the
/// runs of its apply log, `S`'s two trees and its log's runs.
fn assert_only_named_files_live(db: &Database) {
    let named = 1 + db.r().file_ids().count() + db.s().file_ids().count();
    assert_eq!(db.disk().live_files().len(), named, "a file no catalog names survived");
}

/// Writes to `R`'s clustered tree so far.
fn clustered_writes(db: &Database) -> u64 {
    let clustered = db.r().file_ids().next().unwrap();
    db.metrics().counter(&format!("disk.write.f{}", clustered.0))
}

/// `R` as a reader sees it, queued mutations merged in.
fn scan_r(db: &Database) -> Vec<BaseTuple> {
    let mut got = Vec::new();
    db.r().scan(|t| got.push(t)).unwrap();
    got
}

/// A commit seals the apply log instead of settling it: what it
/// acknowledges stays queued, in a run the catalog names. Mutations
/// queued after it — some sitting in spilled runs of their own — are gone
/// after a crash, runs and all: the reopened relation is the committed
/// one, its log as the commit sealed it.
#[test]
fn enqueued_but_uncommitted_mutations_rewind_on_reopen() {
    let dir = fresh_dir("queued-rewind");
    let (r0, s0) = (tuples(120, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    apply_batch(&mut db, &mut committed, 1000);
    db.commit().unwrap();
    assert_eq!(db.r().pending_ops(), 9, "a commit leaves the log queued");
    assert_eq!(db.metrics().counter("base.settles"), 0, "and does not settle it");

    let mut lost = committed.clone();
    enqueue_spilling_updates(&mut db, &mut lost, 40);
    assert_eq!(db.disk().live_files().len(), 7, "two spilled runs beside the committed five files");
    drop(db); // crash: queued, spilled, never settled, never committed

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert_only_named_files_live(&db);
    assert_eq!(db.r().pending_ops(), 9);
    assert_eq!(db.metrics().counter("wal.recovered.queued_ops"), 9);
    committed.sort_by_key(|t| t.sur);
    assert_eq!(scan_r(&db), committed);
    db.r().check_invariants().unwrap();
    assert_all_strategies_agree(&db, &committed, &s0);
}

/// A commit on a clean log writes no page of the clustered tree: the
/// buffer becomes one more run. A process killed the instant the call
/// returns — or killed with the group sealed in the log and not yet
/// applied to the data files — reopens the log it sealed, every
/// acknowledged mutation in it, though none had reached a tree.
#[test]
fn a_kill_right_after_commit_keeps_every_acknowledged_mutation() {
    for sabotage in [None, Some(CommitSabotage::SkipApply)] {
        let dir = fresh_dir(&format!("queued-commit-{}", sabotage.is_some()));
        let (r0, s0) = (tuples(120, 0), tuples(30, 0));
        let mut committed = r0.clone();
        let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
        enqueue_spilling_updates(&mut db, &mut committed, 60);
        apply_batch(&mut db, &mut committed, 1000);
        if let Some(mode) = sabotage {
            db.sabotage_next_commit(mode);
        }
        let writes = clustered_writes(&db);
        db.commit().unwrap();
        assert_eq!(db.r().pending_ops(), 259);
        assert_eq!(db.metrics().counter("base.settles"), 0);
        assert_eq!(clustered_writes(&db), writes, "the commit wrote a leaf");
        assert_eq!(db.metrics().counter("base.apply_log.runs"), 3, "the buffer became a run");
        drop(db); // killed right after the acknowledgement

        let db = Database::open_durable(&params(), &dir).unwrap();
        assert_only_named_files_live(&db);
        assert_eq!(db.r().pending_ops(), 259);
        committed.sort_by_key(|t| t.sur);
        assert_eq!(scan_r(&db), committed, "an acknowledged mutation is missing");
        assert_all_strategies_agree(&db, &committed, &s0);
    }
}

/// View queries between two commits do not settle `R` — its queued
/// mutations ride through them — and neither does the commit: what it
/// acknowledges is in the runs it seals, so a crash right after it, and
/// one with more mutations queued and queried over but never committed,
/// both reopen the committed log.
#[test]
fn queued_mutations_ride_through_view_queries_and_commits() {
    let dir = fresh_dir("queued-view");
    let (r0, s0) = (tuples(120, 0), tuples(30, 0));
    let mut mirror = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    let mut mv = db.materialized_view().unwrap();
    db.commit().unwrap();
    let want = |mirror: &[BaseTuple]| canon(oracle::join_tuples(mirror, &s0));
    let mut epoch = |db: &mut Database, mirror: &mut [BaseTuple], tag: u64| {
        for at in (0..60usize).rev() {
            let new = BaseTuple::padded(mirror[at].sur, tag + (at % 5) as u64, 64);
            let u = trijoin::Update { old: std::mem::replace(&mut mirror[at], new.clone()), new };
            mv.on_update(&u).unwrap();
            db.apply_r_update(&u).unwrap();
        }
        canon(db.query(&mut mv).unwrap())
    };
    for tag in [10, 20, 30] {
        assert_eq!(epoch(&mut db, &mut mirror, tag), want(&mirror), "epoch {tag}");
    }
    assert_eq!(db.metrics().counter("base.settles"), 0, "three view queries, R never read");
    assert_eq!(db.r().pending_ops(), 180);
    let writes = clustered_writes(&db);
    db.commit().unwrap();
    assert_eq!(db.metrics().counter("base.settles"), 0, "the commit sealed, it did not settle");
    assert_eq!((db.r().pending_ops(), clustered_writes(&db)), (180, writes));
    let committed = mirror.clone();
    assert_eq!(epoch(&mut db, &mut mirror, 40), want(&mirror), "queued, answered, uncommitted");
    assert_eq!(db.metrics().counter("base.settles"), 0);
    drop((mv, db)); // crash

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert_only_named_files_live(&db);
    assert_eq!(db.r().pending_ops(), 180);
    assert_eq!(scan_r(&db), committed);
    assert_all_strategies_agree(&db, &committed, &s0);
}

/// A settle the log's own bound forces between two commits deletes the
/// runs the last sealed catalog names. A crash before the next commit
/// must still find them: the backend holds their unlink back until a
/// commit that no longer names them is sealed. A checkpoint put them in
/// the data files alone, so recovery cannot rebuild them from the log.
#[test]
fn a_crash_between_a_forced_settle_and_the_next_commit_reopens_every_named_run() {
    let dir = fresh_dir("named-runs");
    let (r0, s0) = (tuples(120, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    enqueue_spilling_updates(&mut db, &mut committed, 60);
    db.checkpoint().unwrap();
    assert_eq!(db.disk().wal_len_bytes(), 0, "the checkpoint truncated the log");
    let named: Vec<_> = db.r().file_ids().skip(1).collect();
    assert_eq!(named.len(), 3, "two spilled runs and the sealed buffer");

    let mut lost = committed.clone();
    let mut at = 0;
    while db.metrics().counter("base.settles") == 0 {
        let new = BaseTuple::padded(lost[at % 100].sur, 90 + (at % 3) as u64, 64);
        let old = std::mem::replace(&mut lost[at % 100], new.clone());
        db.apply_r_update(&trijoin::Update { old, new }).unwrap();
        at += 1;
    }
    assert!(named.iter().all(|&run| db.disk().num_pages(run).is_err()), "the settle took them");
    drop(db); // crash

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert_eq!(db.r().file_ids().skip(1).collect::<Vec<_>>(), named);
    assert_only_named_files_live(&db);
    assert_eq!(db.r().pending_ops(), 250);
    assert_eq!(db.metrics().counter("wal.recovered.queued_ops"), 250);
    committed.sort_by_key(|t| t.sur);
    assert_eq!(scan_r(&db), committed);
    assert_all_strategies_agree(&db, &committed, &s0);
}

/// The run pages a fetch of `keys` reads: each page of `runs` whose
/// records, read off the run file, include one of `keys`.
fn column_selected(db: &Database, runs: &[FileId], keys: &[u32]) -> u64 {
    let holds_a_key = |heap: &HeapFile, page| {
        let mut hit = false;
        heap.for_each_page_record(page, |_, bytes| {
            hit |= keys.contains(&BaseTuple::from_bytes(bytes).unwrap().sur.0);
        })
        .unwrap();
        hit
    };
    let selected = |run: &FileId| {
        let heap = HeapFile::open(db.disk(), *run);
        (0..heap.num_pages()).filter(|&page| holds_a_key(&heap, page)).count() as u64
    };
    runs.iter().map(selected).sum()
}

/// A durable commit seals `R`'s log into runs the catalog names by file.
/// After a crash the reopened log reads each run once, under
/// `base.reopen`, to rebuild its surrogate column, and seeks by it: a
/// sparse fetch answers as the committed relation does and reads only the
/// run pages that hold a surrogate it asks for. A catalog of the version
/// before the columns, which carried page fences, is refused.
#[test]
fn a_reopened_log_rebuilds_its_surrogate_columns_and_seeks_by_them() {
    let dir = fresh_dir("columns");
    let (r0, s0) = (tuples(120, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0, &dir).unwrap();
    enqueue_spilling_updates(&mut db, &mut committed, 60);
    db.commit().unwrap();
    let runs: Vec<FileId> = db.r().file_ids().skip(1).collect();
    assert_eq!(runs.len(), 3, "two spilled runs and the sealed buffer");
    drop(db); // crash

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert_eq!(db.r().file_ids().skip(1).collect::<Vec<_>>(), runs);
    let run_pages: u64 = runs.iter().map(|&run| db.disk().num_pages(run).unwrap() as u64).sum();
    let reopen = db.cost().span_tree().into_iter().find(|span| span.name == "base.reopen");
    assert_eq!(reopen.map(|span| span.cum_ops.ios), Some(run_pages), "each run page read once");
    let keys = [7u32, 64, 65, 111];
    let want: Vec<BaseTuple> = keys.iter().map(|&k| committed[k as usize].clone()).collect();
    let selected = column_selected(&db, &runs, &keys);
    let (metrics, mut got) = (db.metrics(), Vec::new());
    let surs: Vec<Surrogate> = keys.iter().copied().map(Surrogate).collect();
    db.r().fetch_by_surrogates(&surs, |t| got.push(t)).unwrap();
    assert_eq!(got, want);
    assert_eq!(metrics.counter("base.read_through.pages"), selected);
    assert!(metrics.counter("base.read_through.skipped") > 0, "the seeks skipped pages");
    assert_eq!(db.r().pending_ops(), 250, "the fetch read the log through");

    let old = read_catalog(db.disk()).unwrap().set("version", 4u64);
    write_catalog(db.disk(), &old).unwrap();
    db.disk().commit().unwrap();
    drop(db);
    let Err(err) = Database::open_durable(&params(), &dir) else {
        panic!("a version-4 catalog opened");
    };
    assert!(
        matches!(&err, Error::Corrupt(m) if m == "catalog version 4 (this build reads 5)"),
        "{err:?}"
    );
}

/// Running recovery twice must be a fixpoint: the first open replays and
/// truncates the log, so a second open (another "crash" before any new
/// commit) replays nothing and answers identically.
#[test]
fn double_recovery_is_idempotent() {
    let dir = fresh_dir("double");
    let (r0, s0) = (tuples(40, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    apply_batch(&mut db, &mut committed, 1000);
    db.sabotage_next_commit(CommitSabotage::SkipApply);
    db.commit().unwrap();
    drop(db);

    let first = Database::open_durable(&params(), &dir).unwrap();
    assert!(first.metrics().counter("wal.recovered.frames") > 0, "first open replays the log");
    let mut hh = first.hybrid_hash();
    let answer = canon(first.query(&mut hh).unwrap());
    drop(hh);
    drop(first); // no commit: simulates dying again right after recovery

    let second = Database::open_durable(&params(), &dir).unwrap();
    assert_eq!(
        second.metrics().counter("wal.recovered.frames"),
        0,
        "recovery already truncated the log; a second pass replays nothing"
    );
    let mut hh = second.hybrid_hash();
    assert_eq!(canon(second.query(&mut hh).unwrap()), answer);
    assert_all_strategies_agree(&second, &committed, &s0);
}

/// Recovery gives back what the crashed session derived: the page files
/// of its view are named by no catalog, so reopening deletes them. Over
/// repeated crash → recover → query cycles the store's footprint stays
/// where the first cycle left it instead of growing by one view a crash.
#[test]
fn recovery_reclaims_the_derived_files_of_the_crashed_session() {
    let dir = fresh_dir("reclaim");
    let (r0, s0) = (tuples(40, 0), tuples(30, 0));
    let want = canon(oracle::join_tuples(&r0, &s0));
    let mut db = Database::create_durable(&params(), r0, s0, &dir).unwrap();
    let mut footprint = None;
    for cycle in 0..=5 {
        let mut mv = db.materialized_view().unwrap();
        assert_eq!(canon(db.query(&mut mv).unwrap()), want, "cycle {cycle}: answer diverges");
        // Seal the view's pages so the next recovery redoes them into a
        // real file before it finds that file unnamed.
        db.commit().unwrap();
        let now = (db.disk().live_files().len(), db.disk().total_pages());
        assert_eq!(*footprint.get_or_insert(now), now, "cycle {cycle}: the store grew");
        drop(mv);
        drop(db); // crash
        db = Database::open_durable(&params(), &dir).unwrap();
    }
}

/// One round of `R` churn: delete `n` spread-out survivors and insert `n`
/// tuples on fresh ascending surrogates starting at `base`, keeping the
/// mirror in step, then settle. Deletes merge leaves and free their
/// pages; the appends split the right edge and allocate.
fn churn(db: &mut Database, mirror: &mut Vec<BaseTuple>, base: u32, n: u32) {
    for i in 0..n {
        let victim = mirror.remove((i as usize * 7) % mirror.len());
        db.r_mut().apply_mutation(&Mutation::Delete(victim)).unwrap();
        let t = BaseTuple::padded(Surrogate(base + i), (i % 7) as u64, 64);
        db.r_mut().apply_mutation(&Mutation::Insert(t.clone())).unwrap();
        mirror.push(t);
    }
    db.settle().unwrap();
}

/// Pages of `R`'s and `S`'s files, free-list pages included.
fn base_file_pages(db: &Database) -> u32 {
    let files = db.r().file_ids().chain(db.s().file_ids());
    files.map(|file| db.disk().num_pages(file).unwrap()).sum()
}

/// A B⁺-tree's free list is crash-consistent without a log of its own:
/// its head lives in the catalog, which seals in the same WAL group as
/// the page images. Merges and frees that never committed roll back with
/// the pages they touched — the recovered trees audit clean, no page is
/// both free and reachable — and the pages the dead session allocated
/// past the committed end of the file come back as free ones.
#[test]
fn uncommitted_merges_and_frees_roll_back_with_their_pages() {
    let dir = fresh_dir("free-rollback");
    let (r0, s0) = (tuples(160, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    churn(&mut db, &mut committed, 1000, 20);
    db.commit().unwrap();
    let node_pages = |db: &Database| db.r().node_pages() + db.s().node_pages();
    let (committed_pages, committed_nodes) = (base_file_pages(&db), node_pages(&db));

    // Dies uncommitted: 100 deletes collapse most of R's leaves onto the
    // free list, then 200 appends take those pages back and allocate past
    // the committed end of the file.
    let mut lost = committed.clone();
    for _ in 0..100 {
        db.r_mut().apply_mutation(&Mutation::Delete(lost.remove(0))).unwrap();
    }
    db.settle().unwrap();
    assert!(db.metrics().counter("btree.merges") > 10, "the tail was meant to merge leaves");
    for i in 0..200 {
        let t = BaseTuple::padded(Surrogate(2000 + i), (i % 7) as u64, 64);
        db.r_mut().apply_mutation(&Mutation::Insert(t)).unwrap();
    }
    db.settle().unwrap();
    let crashed_pages = base_file_pages(&db);
    assert!(crashed_pages > committed_pages, "the tail was meant to outgrow the file");
    db.r().check_invariants().unwrap();
    drop(db); // crash

    let mut db = Database::open_durable(&params(), &dir).unwrap();
    db.r().check_invariants().unwrap();
    db.s().check_invariants().unwrap();
    assert_all_strategies_agree(&db, &committed, &s0);
    // The nodes are the committed ones; the pages the dead session
    // allocated are still in the file, as free pages rather than garbage.
    assert_eq!((base_file_pages(&db), node_pages(&db)), (crashed_pages, committed_nodes));
    churn(&mut db, &mut committed, 3000, 20);
    assert!(db.metrics().counter("btree.pages_reused") > 0);
    assert_eq!(base_file_pages(&db), crashed_pages, "adopted pages were not reused");
    db.commit().unwrap();
    db.r().check_invariants().unwrap();
}

/// Frees that did commit survive the crash as free pages, and the
/// recovered session allocates from them before it extends a file.
#[test]
fn committed_frees_are_reused_after_recovery() {
    let dir = fresh_dir("free-reuse");
    let (r0, s0) = (tuples(160, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    for _ in 0..100 {
        db.r_mut().apply_mutation(&Mutation::Delete(committed.remove(0))).unwrap();
    }
    db.settle().unwrap();
    db.commit().unwrap();
    let freed = db.metrics().counter("btree.pages_freed");
    assert!(freed > 10, "100 deletes in surrogate order empty whole leaves");
    drop(db); // crash

    let mut db = Database::open_durable(&params(), &dir).unwrap();
    db.r().check_invariants().unwrap();
    assert_eq!(base_file_pages(&db) as u64 - db.r().node_pages() - db.s().node_pages(), freed);
    let pages = base_file_pages(&db);
    churn(&mut db, &mut committed, 1000, 60);
    assert!(db.metrics().counter("btree.pages_reused") > 0);
    assert_eq!(base_file_pages(&db), pages, "the free list was bypassed");
    db.r().check_invariants().unwrap();
    db.commit().unwrap();
    assert_all_strategies_agree(&db, &committed, &s0);
}

/// Crash → recover → churn → commit, six times over, each cycle dying
/// with an uncommitted tail of more churn: the store's footprint stays
/// where the first cycle left it.
#[test]
fn crash_churn_cycles_keep_the_footprint_flat() {
    let dir = fresh_dir("free-cycles");
    let (r0, s0) = (tuples(160, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    let mut footprint = None;
    for cycle in 0..6u32 {
        churn(&mut db, &mut committed, 1000 * (2 * cycle + 1), 80);
        db.commit().unwrap();
        let now = (db.disk().live_files().len(), db.disk().total_pages());
        assert_eq!(*footprint.get_or_insert(now), now, "cycle {cycle}: the store grew");
        churn(&mut db, &mut committed.clone(), 1000 * (2 * cycle + 2), 40);
        drop(db); // crash with the tail uncommitted
        db = Database::open_durable(&params(), &dir).unwrap();
        db.r().check_invariants().unwrap();
    }
    assert_all_strategies_agree(&db, &committed, &s0);
}

/// Group commit's crash contract: a [`Durability::Deferred`] commit is
/// buffered, not fsynced — dying before a barrier rolls it back cleanly,
/// while a later barrier seals every buffered group at once.
#[test]
fn deferred_commits_roll_back_unless_a_barrier_seals_them() {
    let dir = fresh_dir("deferred");
    let (r0, s0) = (tuples(40, 0), tuples(30, 0));
    let committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();

    // A deferred batch reaches the log buffer only: no fsync, and a
    // crash before any barrier loses the whole group, not part of it.
    let mut lost = committed.clone();
    apply_batch(&mut db, &mut lost, 1000);
    let stats = db.commit_with(Durability::Deferred).unwrap();
    assert!(stats.frames > 0, "the deferred group carries page frames");
    assert_eq!(stats.fsyncs, 0, "a deferred commit must not fsync");
    drop(db); // crash before the barrier: the group never reached disk

    let mut db = Database::open_durable(&params(), &dir).unwrap();
    assert_all_strategies_agree(&db, &committed, &s0);

    // Deferred then Barrier: the barrier seals *both* groups in one
    // fsync, and both survive the next crash.
    let mut sealed = committed.clone();
    apply_batch(&mut db, &mut sealed, 2000);
    db.commit_with(Durability::Deferred).unwrap();
    apply_batch(&mut db, &mut sealed, 3000);
    let barrier = db.commit().unwrap();
    assert!(barrier.fsyncs >= 1, "the barrier seals the buffered groups");
    drop(db);

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert!(
        db.metrics().counter("wal.recovered.commits") >= 2,
        "recovery replays both groups the barrier sealed"
    );
    assert_all_strategies_agree(&db, &sealed, &s0);
}

/// Skip-clean framing at the database level: every durable commit
/// rewrites the catalog, but when its bytes match the committed image
/// the page is dropped from the group — a no-op commit logs nothing.
#[test]
fn skip_clean_framing_drops_byte_identical_pages() {
    let dir = fresh_dir("skip-clean");
    let (r0, s0) = (tuples(40, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    apply_batch(&mut db, &mut committed, 1000);
    let first = db.commit().unwrap();
    assert!(first.frames > 0, "a real batch seals page frames");

    // Nothing changed since: the catalog rewrite is byte-identical to
    // its committed image, so the whole group collapses to zero bytes.
    let noop = db.commit().unwrap();
    assert_eq!(noop.frames, 0, "a no-op commit must log no page frames");
    assert_eq!(noop.bytes, 0, "a no-op commit must append no log bytes");
    assert!(noop.frames_skipped > 0, "the clean catalog pages are skipped, not logged");
    assert!(
        db.metrics().counter("wal.frames_skipped") >= noop.frames_skipped,
        "skipped frames surface in the wal.* accounting"
    );

    // Skipping clean pages must not weaken recovery: the next real
    // batch commits, and a crash replays to the full committed state.
    apply_batch(&mut db, &mut committed, 2000);
    assert!(db.commit().unwrap().frames > 0);
    drop(db);

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert_all_strategies_agree(&db, &committed, &s0);
}

/// Checkpoints bound the log: after `checkpoint()` the WAL is empty, the
/// truncated bytes are reported, and a reopen replays nothing.
#[test]
fn checkpoint_truncates_the_log() {
    let dir = fresh_dir("checkpoint");
    let (r0, s0) = (tuples(40, 0), tuples(30, 0));
    let mut committed = r0.clone();
    let mut db = Database::create_durable(&params(), r0, s0.clone(), &dir).unwrap();
    for base in [1000u32, 2000, 3000] {
        apply_batch(&mut db, &mut committed, base);
        let stats = db.commit().unwrap();
        assert!(stats.frames > 0, "each commit seals page frames");
    }
    assert!(db.metrics().gauge("wal.len_bytes").unwrap_or(0.0) > 0.0, "log grew across commits");

    let stats = db.checkpoint().unwrap();
    assert!(stats.truncated_bytes > 0, "checkpoint reports the bytes it dropped");
    assert_eq!(db.metrics().gauge("wal.len_bytes"), Some(0.0), "log restarts empty");
    assert!(db.metrics().counter("wal.checkpoints") > 0);
    drop(db);

    let db = Database::open_durable(&params(), &dir).unwrap();
    assert_eq!(db.metrics().counter("wal.recovered.frames"), 0, "nothing left to replay");
    assert_all_strategies_agree(&db, &committed, &s0);
}

/// Shard-local serve recovery: kill a durable 4-shard server with an
/// applied-but-uncommitted tail; `Server::recover` must come back to the
/// last commit barrier and answer the oracle join for every method.
#[test]
fn serve_recovers_shard_locally_to_the_last_barrier() {
    let dir = fresh_dir("serve");
    let (r0, s0) = (tuples(40, 0), tuples(30, 0));
    let config = ServeConfig { batch: 4, durable_dir: Some(dir), ..ServeConfig::new(params(), 4) };
    let server = Server::start(&config, r0.clone(), s0.clone()).unwrap();
    let session = server.session().unwrap();

    let mut committed = r0;
    for i in 0..8u32 {
        let t = BaseTuple::padded(Surrogate(1000 + i), (i % 7) as u64, 64);
        session.update_r(Mutation::Insert(t.clone())).unwrap();
        committed.push(t);
    }
    session.commit().unwrap();

    // Applied (flushed to the shards) but never committed: rolled back.
    for i in 0..8u32 {
        let t = BaseTuple::padded(Surrogate(2000 + i), (i % 7) as u64, 64);
        session.update_r(Mutation::Insert(t)).unwrap();
    }
    session.flush().unwrap();
    drop(session);
    drop(server); // shard threads exit without committing — the "crash"

    let recovered = Server::recover(&config).unwrap();
    let session = recovered.session().unwrap();
    let want = canon(oracle::join_tuples(&committed, &s0));
    for method in Method::all() {
        assert_eq!(canon(session.query(method).unwrap()), want, "{method} diverges after recovery");
    }
    let report = session.report().unwrap();
    assert_eq!(report.shards.len(), 4, "all four shards recovered");
    let recovered_commits: u64 =
        report.shards.iter().map(|s| s.metrics.counter("wal.recovered.commits")).sum();
    assert!(recovered_commits > 0, "recovery replayed the sealed barriers shard-locally");
}

/// End-to-end crash-heavy replay: a generated script with crash ops runs
/// on the durable backend through the full differential harness — three
/// engines, the oracle, and 1/2/4-shard servers — and every checkpoint
/// after every recovery still agrees.
#[test]
fn crash_heavy_generated_script_replays_to_equivalence() {
    let gen_cfg = GenConfig { crash_pct: 100, ..GenConfig::new(33, 90) };
    let script = generate(&gen_cfg);
    assert!(
        script.ops.iter().any(|op| matches!(op, trijoin_common::ScriptOp::Crash { .. })),
        "generator must emit crash ops at crash_pct=100"
    );

    let cfg = CheckConfig { durable_root: Some(fresh_dir("crash-heavy")), ..Default::default() };
    let outcome =
        run_script(&script, &cfg).unwrap_or_else(|f| panic!("durable replay failed: {f}"));
    assert!(outcome.crashes >= 1, "no crash-recovery cycle ran");
    assert!(outcome.checkpoints >= 1, "no checkpoint verified after recovery");

    // The same script on the in-memory backend treats crashes as no-ops.
    let inert = run_script(&script, &CheckConfig::default())
        .unwrap_or_else(|f| panic!("in-memory replay failed: {f}"));
    assert_eq!(inert.crashes, 0, "crash ops are inert without a durable root");
}
