//! Reading a base relation through its apply log: a [`Reader`] that
//! merges the queued mutations into what it reads must see exactly what a
//! reader sees after a settle — ill-formed mutations included — leave the
//! log as it found it, read for a fetch only the run pages that hold a
//! surrogate it asks for, once a call, settle instead once reading
//! through stops paying, and fail over to the strategies' restart and
//! recovery paths when a run page cannot be read.

use std::collections::BTreeMap;

use proptest::prelude::*;

use trijoin_common::{BaseTuple, Cost, Error, Surrogate, SystemParams};
use trijoin_exec::hybridhash::{first_pass_fraction, spilled_partitions};
use trijoin_exec::relation::APPLY_LOG_PAGES;
use trijoin_exec::{
    execute_collect, oracle, HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView,
    Mutation, Reader, StoredRelation, Update,
};
use trijoin_storage::{Disk, FaultPlan, FileId, HeapFile, SimDisk};

const TUPLE: usize = 48;
/// Tuples in the relation; surrogates up to `N + FRESH` are drawn, so
/// some name nothing.
const N: u32 = 300;
const FRESH: u32 = 40;

/// One queued mutation, well-formed or not: the relation is not told.
#[derive(Debug, Clone)]
enum Op {
    Update { sur: u32, key: u64, p: u8 },
    Insert { sur: u32, key: u64, p: u8 },
    Delete { sur: u32 },
}

fn op() -> impl Strategy<Value = Op> {
    let sur = 0..N + FRESH;
    // Few keys and payloads, so chains come back to where they started.
    prop_oneof![
        6 => (sur.clone(), 0u64..3, 0u8..2).prop_map(|(sur, key, p)| Op::Update { sur, key, p }),
        2 => (sur.clone(), 0u64..3, 0u8..2).prop_map(|(sur, key, p)| Op::Insert { sur, key, p }),
        2 => sur.prop_map(|sur| Op::Delete { sur }),
    ]
}

fn tuple(sur: u32, key: u64, p: u8) -> BaseTuple {
    BaseTuple::with_payload(Surrogate(sur), key, &[p], TUPLE).unwrap()
}

fn params() -> SystemParams {
    SystemParams { page_size: 256, mem_pages: 64, ..SystemParams::paper_defaults() }
}

fn relation(disk: &Disk) -> StoredRelation {
    let tuples = (0..N).map(|i| tuple(i, (i % 3) as u64, 0)).collect();
    StoredRelation::build(disk, &params(), "R", tuples, false).unwrap()
}

fn enqueue(rel: &mut StoredRelation, op: &Op) {
    match *op {
        Op::Update { sur, key, p } => rel.apply_update(&tuple(sur, 0, 0), &tuple(sur, key, p)),
        Op::Insert { sur, key, p } => rel.insert(&tuple(sur, key, p)),
        Op::Delete { sur } => rel.delete(&tuple(sur, 0, 0)),
    }
    .unwrap();
}

fn scan(reader: &Reader<'_>) -> Vec<BaseTuple> {
    let mut out = Vec::new();
    reader.scan(|t| out.push(t)).unwrap();
    out
}

fn fetch(reader: &mut Reader<'_>, chunks: &[Vec<Surrogate>]) -> Vec<BaseTuple> {
    let mut out = Vec::new();
    for chunk in chunks {
        reader.fetch_by_surrogates(chunk, |t| out.push(t)).unwrap();
    }
    out
}

/// The surrogates on each page of `run`, read off the run file.
fn run_pages_of(disk: &Disk, run: FileId) -> Vec<Vec<u32>> {
    let heap = HeapFile::open(disk, run);
    let surs = |page| {
        let mut surs = Vec::new();
        heap.for_each_page_record(page, |_, bytes| {
            surs.push(BaseTuple::from_bytes(bytes).unwrap().sur.0);
        })
        .unwrap();
        surs
    };
    (0..heap.num_pages()).map(surs).collect()
}

/// The run pages a fetch of `keys` reads: each page whose records include
/// one of `keys`, once.
fn column_selected(disk: &Disk, runs: &[FileId], keys: &[u32]) -> u64 {
    let pages = runs.iter().flat_map(|&run| run_pages_of(disk, run));
    pages.filter(|surs| surs.iter().any(|sur| keys.contains(sur))).count() as u64
}

/// `(base.read_through.pages, base.read_through.skipped)` on `disk`.
fn read_through_pages(disk: &Disk) -> (u64, u64) {
    let metrics = disk.metrics();
    (metrics.counter("base.read_through.pages"), metrics.counter("base.read_through.skipped"))
}

/// The run pages each fetch of `chunks` reads: each page whose records
/// include a surrogate the chunk asks for, once a chunk.
fn chunks_selected(disk: &Disk, runs: &[FileId], chunks: &[Vec<Surrogate>]) -> u64 {
    let keys = |chunk: &Vec<Surrogate>| chunk.iter().map(|s| s.0).collect::<Vec<u32>>();
    chunks.iter().map(|chunk| column_selected(disk, runs, &keys(chunk))).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scans, and fetches in any order, overlapping ones included, through
    /// the log equal the same reads after a settle; the log is untouched by
    /// them, and the settle that follows refuses and writes what it would
    /// have anyway. A fetch reads exactly the run pages whose records
    /// include a surrogate it asks for, once a call, and passes over no
    /// more than the rest: a sparse one a few, one that asks for a chunk of
    /// surrogates the pages the chunk spans. The sparse one asks for the
    /// first surrogate of a few run pages too, which the page before may
    /// lack.
    #[test]
    fn reading_through_equals_settling_then_reading(
        ops in prop::collection::vec(op(), 200..330),
        cuts in prop::collection::vec((1usize..50, any::<bool>(), 0u32..8), 1..40),
        salt in any::<u32>(),
        picks in prop::collection::vec(0..N + FRESH, 1..12),
        firsts in prop::collection::vec(0usize..1 << 16, 1..4),
    ) {
        let (through_disk, settled_disk) =
            (SimDisk::new(&params(), Cost::new()), SimDisk::new(&params(), Cost::new()));
        let (mut through, mut settled) = (relation(&through_disk), relation(&settled_disk));
        for op in &ops {
            enqueue(&mut through, op);
            enqueue(&mut settled, op);
        }
        // Chunks over every surrogate drawn, each sometimes reaching back
        // over the one before and asking for its first surrogate twice,
        // fetched in an order the salt shuffles.
        let mut chunks: Vec<Vec<Surrogate>> = Vec::new();
        let mut at = 0;
        for (len, repeat, back) in cuts.iter().cycle() {
            if at >= N + FRESH {
                break;
            }
            let end = (at + *len as u32).min(N + FRESH);
            let mut chunk: Vec<Surrogate> = (at.saturating_sub(*back)..end).map(Surrogate).collect();
            if *repeat {
                chunk.insert(0, chunk[0]);
            }
            chunks.push(chunk);
            at = end;
        }
        chunks.sort_by_key(|chunk| (chunk[0].0 ^ salt).wrapping_mul(0x9e37_79b9));

        // A sparse fetch, in two calls, the higher half first.
        let runs: Vec<FileId> = through.file_ids().skip(1).collect();
        let pages: Vec<Vec<u32>> =
            runs.iter().flat_map(|&run| run_pages_of(&through_disk, run)).collect();
        let run_pages = pages.len() as u64;
        let mut picks = picks;
        picks.extend(firsts.iter().map(|first| pages[first % pages.len()][0]));
        picks.sort_unstable();
        picks.dedup();
        let (low, high) = picks.split_at(picks.len() / 2);
        let sparse: Vec<Vec<Surrogate>> =
            [high, low].iter().map(|half| half.iter().copied().map(Surrogate).collect()).collect();
        let all: Vec<u32> = (0..N + FRESH).collect();
        prop_assert_eq!(column_selected(&through_disk, &runs, &all), run_pages);

        let queued = through.pending_ops();
        let (picked, scanned, fetched) = {
            let mut picked = Vec::new();
            for half in &sparse {
                let (pages, skipped) = read_through_pages(&through_disk);
                let mut reader = through.reader().unwrap();
                prop_assert!(reader.pages_held() >= 3, "{} runs", reader.pages_held());
                picked.extend(fetch(&mut reader, std::slice::from_ref(half)));
                drop(reader);
                let (now, now_skipped) = read_through_pages(&through_disk);
                let (read, passed) = (now - pages, now_skipped - skipped);
                prop_assert_eq!(read, chunks_selected(&through_disk, &runs, std::slice::from_ref(half)));
                prop_assert!(read + passed <= run_pages, "{read} read, {passed} skipped");
            }
            let pages = read_through_pages(&through_disk).0;
            let scanned = scan(&through.reader().unwrap());
            prop_assert_eq!(read_through_pages(&through_disk).0 - pages, run_pages, "a scan");
            let mut reader = through.reader().unwrap();
            let fetched = fetch(&mut reader, &chunks);
            drop(reader);
            let read = read_through_pages(&through_disk).0 - pages - run_pages;
            prop_assert_eq!(read, chunks_selected(&through_disk, &runs, &chunks));
            (picked, scanned, fetched)
        };
        prop_assert_eq!(through.pending_ops(), queued);
        prop_assert_eq!(through_disk.metrics().counter("base.settles"), 0);
        prop_assert_eq!(through_disk.metrics().counter("base.read_through.reads"), 4);

        let stats = settled.settle().unwrap();
        let reader = settled.reader().unwrap();
        prop_assert_eq!(reader.pages_held(), 0);
        prop_assert_eq!(&scanned, &scan(&reader));
        drop(reader);
        prop_assert_eq!(&fetched, &fetch(&mut settled.reader().unwrap(), &chunks));
        prop_assert_eq!(&picked, &fetch(&mut settled.reader().unwrap(), &sparse));

        let later = through.settle().unwrap();
        prop_assert_eq!((later.ops, later.rejected), (stats.ops, stats.rejected));
        prop_assert_eq!(later.leaves_written, stats.leaves_written);
        prop_assert_eq!(scan(&through.reader().unwrap()), scanned);
        through.check_invariants().unwrap();
    }
}

/// A 72-leaf relation with one spilled run: readers read through, 16 run
/// pages each, until the pages read reach `2·min(leaves, queued)` = 144;
/// the tenth reader settles instead. A log still in memory costs readers
/// no page, so they never buy.
#[test]
fn readers_rent_the_log_until_a_settle_pays_then_buy() {
    let params = SystemParams::paper_defaults();
    let disk = SimDisk::new(&params, Cost::new());
    // 14 tuples of 200 bytes to a leaf.
    let tuples = (0..72 * 14).map(|i| BaseTuple::padded(Surrogate(i), i as u64, 200)).collect();
    let mut rel = StoredRelation::build(&disk, &params, "R", tuples, false).unwrap();
    assert_eq!(rel.data_pages(), 72);
    let update = |i: u32| BaseTuple::padded(Surrogate(i * 3 % 1008), 7, 200);
    let metrics = disk.metrics();
    for i in 0..40 {
        rel.apply_update(&update(i), &update(i)).unwrap();
    }
    for _ in 0..50 {
        assert_eq!(rel.reader().unwrap().pages_held(), 0);
    }
    assert_eq!(metrics.counter("base.settles"), 0, "the buffer is free to read through");
    // A buffer of 19 records a page, 16 pages: one run and a few more.
    for i in 40..310 {
        rel.apply_update(&update(i), &update(i)).unwrap();
    }
    assert_eq!(metrics.counter("base.apply_log.runs"), 1);
    let mut count = 0;
    for read in 1..=9u64 {
        let reader = rel.reader().unwrap();
        assert_eq!(reader.pages_held(), 1);
        reader.scan_pinned(|_, _| count += 1).unwrap();
        assert_eq!(metrics.counter("base.read_through.pages"), 16 * read);
    }
    assert_eq!((count, metrics.counter("base.settles"), rel.pending_ops()), (9 * 1008, 0, 310));
    let reader = rel.reader().unwrap();
    assert_eq!((reader.pages_held(), metrics.counter("base.settles")), (0, 1));
    assert_eq!(rel.pending_ops(), 0);
    drop(reader);
    // The settle started the count over.
    for i in 0..310 {
        rel.apply_update(&update(i), &update(i)).unwrap();
    }
    assert_eq!(rel.reader().unwrap().pages_held(), 1);
    assert_eq!(metrics.counter("base.settles"), 1);
}

/// The same relation's run, read by fetches: a fetch seeks the run by its
/// surrogate column (19 records of every third surrogate to a page, page
/// `p` from `57·p` to `57·p + 54`), so it reads the pages that hold a
/// surrogate it asks for and passes over the rest: those before, one whose
/// range a surrogate falls in but which lacks it, and one that lacks a
/// surrogate opening the next page. A fetch that asks a surrogate on every
/// page reads every page.
#[test]
fn a_fetch_reads_only_the_run_pages_that_hold_its_surrogates() {
    let params = SystemParams::paper_defaults();
    let disk = SimDisk::new(&params, Cost::new());
    let tuples = (0..72 * 14).map(|i| BaseTuple::padded(Surrogate(i), i as u64, 200)).collect();
    let mut rel = StoredRelation::build(&disk, &params, "R", tuples, false).unwrap();
    let update = |i: u32| BaseTuple::padded(Surrogate(i * 3 % 1008), 7, 200);
    for i in 0..310 {
        rel.apply_update(&update(i), &update(i)).unwrap();
    }
    let run = rel.file_ids().nth(1).unwrap();
    let pages: Vec<Vec<u32>> =
        (0..16).map(|p| (57 * p..57 * p + 57).step_by(3).collect()).collect();
    assert_eq!(run_pages_of(&disk, run), pages);
    let fetch = |surs: &[u32]| {
        let (pages, skipped) = read_through_pages(&disk);
        let mut got = Vec::new();
        let surs: Vec<Surrogate> = surs.iter().copied().map(Surrogate).collect();
        rel.reader().unwrap().fetch_by_surrogates(&surs, |t| got.push(t)).unwrap();
        let (now, now_skipped) = read_through_pages(&disk);
        (got, now - pages, now_skipped - skipped)
    };
    // 450 is in the log (and on page 7, from 399 to 456), 451 only in the
    // tree.
    let (got, pages, skipped) = fetch(&[450, 451]);
    let want = vec![
        BaseTuple::padded(Surrogate(450), 7, 200),
        BaseTuple::padded(Surrogate(451), 451, 200),
    ];
    assert_eq!((got, pages, skipped), (want, 1, 7));
    // 452 falls in page 7's range and is not on it; 456 opens page 8, which
    // page 7 lacks; 457 falls in page 8's range. Only page 8 is read.
    let (got, pages, skipped) = fetch(&[452, 456, 457]);
    let keys: Vec<(u32, u64)> = got.iter().map(|t| (t.sur.0, t.key)).collect();
    assert_eq!((keys, pages, skipped), (vec![(452, 452), (456, 7), (457, 457)], 1, 8));
    // One surrogate in the middle of each page: ji_cycle's dense shape.
    let every: Vec<u32> = (0..16).map(|p| 57 * p + 27).collect();
    let (got, pages, skipped) = fetch(&every);
    assert_eq!((got.len(), pages, skipped), (16, 16, 0));
    assert!(got.iter().all(|t| t.key == 7), "each is a logged update");
    assert_eq!(disk.metrics().counter("base.settles"), 0);
}

/// A fault on any run page a fetch reads fails that fetch with an `Err`;
/// the next fetch, by the same reader or a new one, answers as a fetch
/// after a settle does. A fault one read past the last a fetch makes of a
/// run never fires.
#[test]
fn a_fault_on_any_run_page_a_fetch_reads_fails_that_fetch_alone() {
    let build = || {
        let disk = SimDisk::new(&params(), Cost::new());
        let mut rel = relation(&disk);
        for i in 0..500u32 {
            let sur = i * 7 % N;
            rel.apply_update(&tuple(sur, 0, 0), &tuple(sur, 1, (i % 2) as u8)).unwrap();
        }
        (disk, rel)
    };
    let keys: Vec<Surrogate> = (0..N + FRESH).step_by(11).map(Surrogate).collect();
    let (disk, rel) = build();
    let runs: Vec<FileId> = rel.file_ids().skip(1).collect();
    assert!(runs.len() >= 5, "{} runs", runs.len());
    let got = fetch(&mut rel.reader().unwrap(), std::slice::from_ref(&keys));
    let reads: Vec<u64> =
        runs.iter().map(|run| disk.metrics().counter(&format!("disk.read.f{}", run.0))).collect();
    assert_eq!(reads.iter().sum::<u64>(), read_through_pages(&disk).0);
    rel.settle().unwrap();
    assert_eq!(got, fetch(&mut rel.reader().unwrap(), std::slice::from_ref(&keys)));
    for (&run, &n) in runs.iter().zip(&reads) {
        for nth in 0..=n {
            let (disk, rel) = build();
            disk.install_fault_plan(FaultPlan::new().fail_nth_op(Some(run), nth));
            let mut reader = rel.reader().unwrap();
            let first = reader.fetch_by_surrogates(&keys, |_| {});
            let label = format!("f{} read {nth}", run.0);
            if nth == n {
                assert_eq!((first.is_ok(), disk.faults_fired()), (true, 0), "{label}");
                continue;
            }
            assert!(matches!(first, Err(Error::DeviceFault { .. })), "{label}: {first:?}");
            assert_eq!(disk.faults_fired(), 1, "{label}");
            assert_eq!(fetch(&mut reader, std::slice::from_ref(&keys)), got, "{label}");
            drop(reader);
            assert_eq!(fetch(&mut rel.reader().unwrap(), std::slice::from_ref(&keys)), got);
            assert_eq!(disk.metrics().counter("base.read_through.reads"), 2, "{label}");
        }
    }
}

/// A spill that a write fault cut short leaves its records in the run
/// writer; the next spill writes them first, as a run of their own, so a
/// fetch that reads the runs in spill order meets each surrogate's
/// operations in submission order: the last update wins.
#[test]
fn a_spill_a_write_fault_cut_short_keeps_submission_order_across_runs() {
    let disk = SimDisk::new(&params(), Cost::new());
    let mut rel = relation(&disk);
    let update = |rel: &mut StoredRelation, sur: u32, p: u8| {
        rel.apply_update(&tuple(sur, 0, 0), &tuple(sur, 1, p))
    };
    disk.install_fault_plan(FaultPlan::new().fail_nth_op(None, 0));
    let mut cap = 0;
    while update(&mut rel, cap % N, 1).is_ok() {
        cap += 1;
    }
    disk.clear_faults();
    assert_eq!((disk.metrics().counter("base.apply_log.runs"), rel.pending_ops()), (0, cap as u64));
    // A full buffer whose middle and last updates are of surrogate 7, then
    // one more update, which spills it.
    for i in 0..cap {
        let (sur, p) = match i {
            _ if i == cap / 2 => (7, 2),
            _ if i == cap - 1 => (7, 3),
            _ => (100 + i % 100, 1),
        };
        update(&mut rel, sur, p).unwrap();
    }
    update(&mut rel, 8, 1).unwrap();
    assert_eq!(disk.metrics().counter("base.apply_log.runs"), 2);
    let keys = [Surrogate(7)];
    let got = fetch(&mut rel.reader().unwrap(), &[keys.to_vec()]);
    assert_eq!(got, vec![tuple(7, 1, 3)]);
    assert_eq!(disk.metrics().counter("base.settles"), 0);
    rel.settle().unwrap();
    assert_eq!(fetch(&mut rel.reader().unwrap(), &[keys.to_vec()]), got);
}

/// The pages a read-through holds count toward the log's peak, which
/// stays within the log's bound.
#[test]
fn a_read_through_holds_its_run_pages_within_the_logs_bound() {
    let disk = SimDisk::new(&params(), Cost::new());
    let mut rel = relation(&disk);
    for i in 0..500u32 {
        rel.apply_update(&tuple(i % N, 0, 0), &tuple(i % N, 1, (i % 2) as u8)).unwrap();
    }
    assert_eq!(rel.apply_log_peak_pages(), 0, "nothing held yet");
    let reader = rel.reader().unwrap();
    let runs = reader.pages_held();
    assert!(runs >= 7, "{runs} runs");
    // The runs, and the buffer's pages beside them.
    assert!(rel.apply_log_peak_pages() > runs);
    assert!(rel.apply_log_peak_pages() <= rel.apply_log_bound_pages());
}

/// A settle that failed part-way leaves the log frozen: the next reader
/// settles — resuming where the sweep stopped — rather than read through
/// it, and sees every mutation once.
#[test]
fn a_reader_of_a_frozen_log_settles_and_reads_the_trees() {
    let disk = SimDisk::new(&params(), Cost::new());
    let mut rel = relation(&disk);
    let mut mirror: BTreeMap<u32, BaseTuple> =
        (0..N).map(|i| (i, tuple(i, i as u64 % 3, 0))).collect();
    for i in 0..N {
        let new = tuple(i, 2, 1);
        rel.apply_update(&mirror[&i], &new).unwrap();
        mirror.insert(i, new);
    }
    let clustered = rel.file_ids().next().unwrap();
    disk.install_fault_plan(FaultPlan::new().fail_nth_read(Some(clustered), 9));
    assert!(matches!(rel.settle().unwrap_err(), Error::DeviceFault { .. }));
    let landed = disk.metrics().counter("base.settle.ops");
    assert!(landed > 0 && landed < N as u64);
    assert!(rel.settle_due(), "the log is frozen");
    disk.clear_faults();
    let reader = rel.reader().unwrap();
    assert_eq!((reader.pages_held(), rel.pending_ops()), (0, 0));
    assert_eq!(scan(&reader), mirror.into_values().collect::<Vec<_>>());
    assert_eq!(disk.metrics().counter("base.read_through.reads"), 0);
    assert_eq!(disk.metrics().counter("base.settle.ops"), N as u64, "every operation once");
}

/// `R` and `S` on one disk, a join index and hybrid hash over them, and a
/// batch of mutations queued in `R`'s log (spilling runs) and in the join
/// index's. Returns the run files the batch added to `R`'s log, and the
/// oracle join after it.
struct Fixture {
    disk: Disk,
    r: StoredRelation,
    s: StoredRelation,
    ji: JoinIndexStrategy,
    hh: HybridHash,
    runs: Vec<FileId>,
    want: Vec<trijoin_common::ViewTuple>,
}

fn fixture_params() -> SystemParams {
    SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() }
}

fn fixture() -> Fixture {
    let params = fixture_params();
    let cost = Cost::new();
    let disk = SimDisk::new(&params, cost.clone());
    let s_tuples: Vec<BaseTuple> = (0..200).map(|i| tuple(i, (i % 7) as u64, 0)).collect();
    let mut mirror: BTreeMap<u32, BaseTuple> =
        (0..200).map(|i| (i, tuple(i, (i % 7) as u64, 0))).collect();
    let mut r =
        StoredRelation::build(&disk, &params, "R", mirror.values().cloned().collect(), false)
            .unwrap();
    let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let hh = HybridHash::new(&disk, &params, &cost);
    let mut batch = Vec::new();
    for i in (0..200u32).rev().chain(0..200) {
        let new = tuple(i, (i as u64 * 5 + batch.len() as u64) % 9, 1);
        batch.push(Mutation::Update(Update { old: mirror.insert(i, new.clone()).unwrap(), new }));
    }
    batch.push(Mutation::Delete(mirror.remove(&3).unwrap()));
    let fresh = tuple(500, 4, 2);
    mirror.insert(500, fresh.clone());
    batch.push(Mutation::Insert(fresh));
    let before = disk.live_files();
    for m in &batch {
        r.apply_mutation(m).unwrap();
    }
    let runs: Vec<FileId> = disk.live_files().into_iter().filter(|f| !before.contains(f)).collect();
    assert!(runs.len() >= 3, "{} runs", runs.len());
    for m in &batch {
        ji.on_mutation(m).unwrap();
    }
    let want = oracle::join_tuples(&mirror.into_values().collect::<Vec<_>>(), &s_tuples);
    disk.metrics().reset();
    Fixture { disk, r, s, ji, hh, runs, want }
}

/// `R` of 400 tuples, one in forty of which joins `S`, each updated in
/// place with its join key kept: `R`'s log spills runs while the join
/// index logs nothing, so a join-index pass fetches the few `R` tuples it
/// joins through the log, a sparse keyed read-through.
fn sparse_fixture() -> Fixture {
    let params = fixture_params();
    let cost = Cost::new();
    let disk = SimDisk::new(&params, cost.clone());
    let key = |i: u32| if i.is_multiple_of(40) { (i % 7) as u64 } else { 100 + i as u64 };
    let s_tuples: Vec<BaseTuple> = (0..200).map(|i| tuple(i, (i % 7) as u64, 0)).collect();
    let r_tuples: Vec<BaseTuple> = (0..400).map(|i| tuple(i, key(i), 0)).collect();
    let mut r = StoredRelation::build(&disk, &params, "R", r_tuples.clone(), false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let hh = HybridHash::new(&disk, &params, &cost);
    let before = disk.live_files();
    let mut mirror = Vec::new();
    for old in r_tuples.into_iter().rev() {
        let new = tuple(old.sur.0, old.key, 1);
        let m = Mutation::Update(Update { old, new: new.clone() });
        r.apply_mutation(&m).unwrap();
        ji.on_mutation(&m).unwrap();
        mirror.push(new);
    }
    let runs: Vec<FileId> = disk.live_files().into_iter().filter(|f| !before.contains(f)).collect();
    assert!(runs.len() >= 2, "{} runs", runs.len());
    let want = oracle::join_tuples(&mirror, &s_tuples);
    disk.metrics().reset();
    Fixture { disk, r, s, ji, hh, runs, want }
}

/// Seals of `R`'s log in [`held_runs_fixture`], each spilling a run of one
/// page.
const HELD_RUNS: u32 = 12;

/// `R` of 800 tuples, nine in ten of which join one tuple of `S` each (400
/// tuples, their keys distinct), so that a join-index pass ends where
/// `|JI_k|` ends it, not at the end of a long group. `R`'s log is
/// [`HELD_RUNS`] runs of one page, each sealed after four updates of tuples
/// that join nothing: a scan holds a page of `|M|` for each run, a
/// join-index fetch reads none of them, and the join index logs nothing.
fn held_runs_fixture() -> Fixture {
    let params = fixture_params();
    let cost = Cost::new();
    let disk = SimDisk::new(&params, cost.clone());
    let key = |i: u32| if i % 10 == 9 { 1_000 + i as u64 } else { (i % 400) as u64 };
    let s_tuples: Vec<BaseTuple> = (0..400).map(|i| tuple(i, i as u64, 0)).collect();
    let mut mirror: Vec<BaseTuple> = (0..800).map(|i| tuple(i, key(i), 0)).collect();
    let mut r = StoredRelation::build(&disk, &params, "R", mirror.clone(), false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
    let ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let hh = HybridHash::new(&disk, &params, &cost);
    let before = disk.live_files();
    for n in 0..4 * HELD_RUNS {
        let i = 10 * n as usize + 9;
        let new = tuple(i as u32, key(i as u32), 1);
        r.apply_update(&mirror[i], &new).unwrap();
        mirror[i] = new;
        if n % 4 == 3 {
            r.seal().unwrap();
        }
    }
    let runs: Vec<FileId> = disk.live_files().into_iter().filter(|f| !before.contains(f)).collect();
    assert_eq!(runs.len(), HELD_RUNS as usize);
    let want = oracle::join_tuples(&mirror, &s_tuples);
    disk.metrics().reset();
    Fixture { disk, r, s, ji, hh, runs, want }
}

/// Every run page a sparse join-index pass reads, faulted in turn: once,
/// which the run reader's retry heals, and fatally, which the query
/// returns. Either way the answer is the oracle's or a typed error, and
/// the next query's is the oracle's. A fault one read past the last the
/// pass makes of a run sits on a page its seeks pass over: it never fires.
#[test]
fn every_run_page_a_sparse_join_index_pass_reads_can_fail() {
    let mut f = sparse_fixture();
    let got = execute_collect(&mut f.ji, &f.r, &f.s).unwrap();
    oracle::assert_same_join("ji, sparse", got, f.want.clone());
    let reads = |run: FileId| f.disk.metrics().counter(&format!("disk.read.f{}", run.0));
    let read: Vec<(FileId, u64)> = f.runs.iter().map(|&run| (run, reads(run))).collect();
    let total: u64 = f.runs.iter().map(|&run| f.disk.num_pages(run).unwrap() as u64).sum();
    let (pages, skipped) = read_through_pages(&f.disk);
    assert_eq!(read.iter().map(|(_, n)| n).sum::<u64>(), pages);
    assert!(pages > 0 && 2 * pages < total, "{pages} of {total} run pages read");
    assert!(skipped > 0 && pages + skipped <= total, "{skipped} skipped");

    for (run, n) in read {
        for nth in 0..n {
            let transient = FaultPlan::new().fail_nth_read(Some(run), nth);
            let fatal = FaultPlan::new().fail_nth_op(Some(run), nth);
            for (kind, plan) in [("transient", transient), ("fatal", fatal)] {
                let label = format!("ji, f{} read {nth}, {kind}", run.0);
                let mut f = sparse_fixture();
                f.disk.install_fault_plan(plan);
                match execute_collect(&mut f.ji, &f.r, &f.s) {
                    Ok(got) => oracle::assert_same_join(&label, got, f.want.clone()),
                    Err(e) => assert!(matches!(e, Error::DeviceFault { .. }), "{label}: {e:?}"),
                }
                assert_eq!(f.disk.faults_fired(), 1, "{label}");
                let again = execute_collect(&mut f.ji, &f.r, &f.s).unwrap();
                oracle::assert_same_join(&format!("{label}, the next query"), again, f.want);
            }
        }
        let mut f = sparse_fixture();
        f.disk.install_fault_plan(FaultPlan::new().fail_nth_op(Some(run), n));
        let got = execute_collect(&mut f.ji, &f.r, &f.s).unwrap();
        oracle::assert_same_join(&format!("ji, f{} read {n}", run.0), got, f.want);
        assert_eq!(f.disk.faults_fired(), 0, "f{}: a skipped page was read", run.0);
    }
}

/// Fail the `n`-th charged read of `file` `times` times running: once
/// heals inside the run reader's own retries, three times exhausts them.
fn fail_reads(file: FileId, n: u64, times: usize) -> FaultPlan {
    (0..times).fold(FaultPlan::new(), |plan, _| plan.fail_nth_read(Some(file), n))
}

/// Every run of the fixture's log, by file id, at its first page and at
/// its last.
fn run_pages() -> Vec<(FileId, u64)> {
    let f = fixture();
    let last = |run| f.disk.num_pages(run).unwrap() as u64 - 1;
    let mut pages: Vec<_> = f.runs.iter().flat_map(|&run| [(run, 0), (run, last(run))]).collect();
    pages.dedup();
    pages
}

/// A run page of `R`'s log that will not read during hybrid hash's scan,
/// at every run's first and last page: one failure heals in the run
/// reader's retry, three restart the join; either way the answer is the
/// oracle's, the failed read leaves the log as it was, and the settle
/// after it lands every operation once.
#[test]
fn hybrid_hash_restarts_past_an_unreadable_log_run() {
    for (run, page) in run_pages() {
        for (times, restarts) in [(1, 0), (3, 1)] {
            let label = format!("hh, f{} page {page}, {times} failures", run.0);
            let mut f = fixture();
            let queued = f.r.pending_ops();
            f.disk.install_fault_plan(fail_reads(run, page, times));
            let got = execute_collect(&mut f.hh, &f.r, &f.s).unwrap();
            oracle::assert_same_join(&label, got, f.want.clone());
            let metrics = f.disk.metrics();
            assert_eq!(f.disk.faults_fired(), times as u64, "{label}");
            assert_eq!(metrics.counter("hh.restarts"), restarts, "{label}");
            assert_eq!((f.r.pending_ops(), metrics.counter("base.settles")), (queued, 0));
            let stats = f.r.settle().unwrap();
            assert_eq!((stats.ops, stats.rejected), (queued, 0), "{label}");
            let again = execute_collect(&mut f.hh, &f.r, &f.s).unwrap();
            oracle::assert_same_join(&format!("{label}, after the settle"), again, f.want);
        }
    }
}

/// The same during a join-index pass: one failure heals in the run
/// reader's retry and the passes go on; three send the query to the index's
/// recovery, which settles `R` (every operation once) and rebuilds.
#[test]
fn a_join_index_pass_past_an_unreadable_log_run_answers_or_recovers() {
    for (run, page) in run_pages() {
        for (times, recoveries) in [(1, 0), (3, 1)] {
            let label = format!("ji, f{} page {page}, {times} failures", run.0);
            let mut f = fixture();
            let queued = f.r.pending_ops();
            f.disk.install_fault_plan(fail_reads(run, page, times));
            let got = execute_collect(&mut f.ji, &f.r, &f.s).unwrap();
            oracle::assert_same_join(&label, got, f.want.clone());
            let metrics = f.disk.metrics();
            assert_eq!(f.disk.faults_fired(), times as u64, "{label}");
            assert_eq!(metrics.counter("ji.recoveries"), recoveries, "{label}");
            if recoveries == 0 {
                assert_eq!((f.r.pending_ops(), metrics.counter("base.settles")), (queued, 0));
                assert_eq!(f.r.settle().unwrap().ops, queued, "{label}");
            } else {
                assert_eq!(f.r.pending_ops(), 0, "{label}");
                assert_eq!(metrics.counter("base.settle.ops"), queued, "{label}: every op once");
            }
            let again = execute_collect(&mut f.ji, &f.r, &f.s).unwrap();
            oracle::assert_same_join(&format!("{label}, after the settle"), again, f.want);
            f.ji.check_invariants().unwrap();
        }
    }
}

/// Hybrid hash sizes its partitions from the `|M|` its read-through leaves
/// it: one input page per run of `R`'s log is held while `R` is scanned.
#[test]
fn hybrid_hash_partitions_the_memory_the_read_through_leaves() {
    let mut f = fixture();
    for i in 0..1_000u32 {
        let t = tuple(i % 200, (i % 9) as u64, 3);
        f.r.apply_update(&t, &t).unwrap();
    }
    let (held, leaves) = {
        let reader = f.r.reader().unwrap();
        (reader.pages_held() as usize, reader.data_pages())
    };
    let params = fixture_params();
    let left = SystemParams { mem_pages: params.mem_pages - held, ..params.clone() };
    let b = spilled_partitions(leaves, &left);
    assert!(b > spilled_partitions(leaves, &params), "{held} pages held");
    let got = execute_collect(&mut f.hh, &f.r, &f.s).unwrap();
    assert_eq!(f.disk.metrics().gauge("hh.spilled_partitions"), Some(b as f64));
    f.r.settle().unwrap();
    let (mut r_now, mut s_now) = (Vec::new(), Vec::new());
    f.r.scan(|t| r_now.push(t)).unwrap();
    f.s.scan(|t| s_now.push(t)).unwrap();
    oracle::assert_same_join("hh", got, oracle::join_tuples(&r_now, &s_now));
}

/// Rent paid so far: run pages read through `R`'s log, and `|M|` rent.
fn rent_paid(disk: &Disk) -> u64 {
    let metrics = disk.metrics();
    metrics.counter("base.read_through.pages") + metrics.counter("base.read_through.rent")
}

/// A join-index query over `R`'s spilled log makes the passes it makes once
/// `R` settled: its fetches hold one run page at a time, not one a run, so
/// the log takes none of the passes' `|M|` and is paid no rent. Its fetches
/// read no run page here, so nothing brings a settle.
#[test]
fn a_join_index_over_a_spilled_log_makes_the_passes_it_makes_with_no_log() {
    // The passes a query made.
    let query = |f: &mut Fixture| {
        let passes = |spans: Vec<trijoin_common::SpanRecord>| {
            spans.iter().find(|s| s.name == "ji.read_index").map_or(0, |s| s.invocations)
        };
        let before = passes(f.disk.cost().span_tree());
        let got = execute_collect(&mut f.ji, &f.r, &f.s).unwrap();
        oracle::assert_same_join("ji", got, f.want.clone());
        passes(f.disk.cost().span_tree()) - before
    };
    let mut settled = held_runs_fixture();
    settled.r.settle().unwrap();
    let with_no_log = query(&mut settled);
    assert!(with_no_log > 1, "{with_no_log} passes");
    let mut f = held_runs_fixture();
    let (queued, disk) = (f.r.pending_ops(), f.disk.clone());
    let metrics = disk.metrics();
    for reads in 1..=3 {
        assert_eq!(query(&mut f), with_no_log, "read through {reads} times");
        assert_eq!(metrics.counter("base.read_through.reads"), reads);
    }
    assert_eq!(metrics.counter("base.read_through.pages"), 0, "no run holds a fetched tuple");
    assert_eq!(metrics.counter("base.read_through.rent"), 0);
    assert_eq!((f.r.pending_ops(), metrics.counter("base.settles")), (queued, 0));
}

/// A hybrid-hash query whose reader holds `R`'s runs keeps a smaller share
/// `q` of `R` in memory, and pays `R`'s log the spill that costs it: the
/// lost share of both relations written and read back, `2·(q(|M|) − q(|M|
/// − held))·(|R| + |S|)` pages. With its scan's run pages it brings the
/// settle sooner: the first reader once the two reach `2·min(leaves,
/// queued)` settles, where the pages alone would have read on.
#[test]
fn rent_for_held_runs_is_the_hybrid_hash_spill_they_cost() {
    let mut f = held_runs_fixture();
    let (queued, metrics, params) = (f.r.pending_ops(), f.disk.metrics(), fixture_params());
    let (held, leaves) = {
        let reader = f.r.reader().unwrap();
        (reader.pages_held() as usize, reader.data_pages())
    };
    assert_eq!(held, HELD_RUNS as usize);
    let q = |mem_pages| first_pass_fraction(leaves, &SystemParams { mem_pages, ..params.clone() });
    let lost = q(params.mem_pages) - q(params.mem_pages - held);
    let rent = (2.0 * lost * (leaves + f.s.data_pages()) as f64).round() as u64;
    assert!(rent > 0, "q = {} at |M|, {lost} less", q(params.mem_pages));
    let price = 2 * leaves.min(queued);
    let mut reads = 0;
    while rent_paid(&f.disk) < price {
        let got = execute_collect(&mut f.hh, &f.r, &f.s).unwrap();
        oracle::assert_same_join("hh", got, f.want.clone());
        reads += 1;
        let read =
            (metrics.counter("base.read_through.pages"), metrics.counter("base.read_through.rent"));
        assert_eq!(read, (reads * HELD_RUNS as u64, reads * rent), "a page a run, and the spill");
        assert_eq!(metrics.counter("base.settles"), 0);
    }
    assert!(reads * (HELD_RUNS as u64) < price, "the pages alone would read on");
    let got = execute_collect(&mut f.hh, &f.r, &f.s).unwrap();
    oracle::assert_same_join("hh settles", got, f.want.clone());
    assert_eq!(
        (metrics.counter("base.read_through.reads"), metrics.counter("base.settles")),
        (reads, 1)
    );
    assert_eq!(
        metrics.counter("base.read_through.rent"),
        reads * rent,
        "a settled reader owes none"
    );
}

/// The view's queries never read `R`, so under view-only traffic `R`'s log
/// is paid no rent: it settles of its own accord, when its runs would pass
/// three quarters of `R`'s leaf pages — more than its floor of 16 runs
/// here, and under what `|M|` can merge.
#[test]
fn rent_is_not_paid_under_view_only_traffic_and_the_log_fills_to_three_quarters() {
    let params = SystemParams { page_size: 512, mem_pages: 128, ..SystemParams::paper_defaults() };
    let cost = Cost::new();
    let disk = SimDisk::new(&params, cost.clone());
    let key = |i: u32| if i.is_multiple_of(40) { (i % 7) as u64 } else { 100 + i as u64 };
    let n = 6_000;
    let mut mirror: Vec<BaseTuple> = (0..n).map(|i| tuple(i, key(i), 0)).collect();
    let s_tuples: Vec<BaseTuple> = (0..200).map(|i| tuple(i, (i % 7) as u64, 0)).collect();
    let mut r = StoredRelation::build(&disk, &params, "R", mirror.clone(), false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", s_tuples.clone(), true).unwrap();
    let mut mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    let runs = r.data_pages() as usize * 3 / 4 / APPLY_LOG_PAGES;
    assert!(runs > 16, "{runs} runs fill three quarters of the leaves");
    // The log's bound fits |M|, and 128 pages merge that many runs with
    // their columns (64 would merge 19).
    assert!(r.apply_log_bound_pages() <= params.mem_pages as u64);
    let metrics = disk.metrics();
    metrics.reset();
    let (mut at, mut spilled) = (0u32, 0);
    while metrics.counter("base.settles") == 0 {
        spilled = metrics.counter("base.apply_log.runs");
        let i = at * 7 % n;
        let old = mirror[i as usize].clone();
        let new = tuple(i, old.key, (at % 5) as u8 + 1);
        let m = Mutation::Update(Update { old, new: new.clone() });
        mv.on_mutation(&m).unwrap();
        r.apply_mutation(&m).unwrap();
        mirror[i as usize] = new;
        at += 1;
        if at.is_multiple_of(500) {
            let got = execute_collect(&mut mv, &r, &s).unwrap();
            oracle::assert_same_join(
                &format!("mv at {at}"),
                got,
                oracle::join_tuples(&mirror, &s_tuples),
            );
        }
    }
    assert_eq!(spilled as usize, runs - 1, "a run short of the bound, and a full buffer");
    assert!(at > 2_000);
    assert_eq!(metrics.counter("base.read_through.reads"), 0, "the view never read R");
    assert_eq!(metrics.counter("base.read_through.rent"), 0);
    let got = execute_collect(&mut mv, &r, &s).unwrap();
    oracle::assert_same_join("mv", got, oracle::join_tuples(&mirror, &s_tuples));
}
