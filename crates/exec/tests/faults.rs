//! Fault injection: every strategy and substrate must surface a fatal
//! fault as a clean `Err`, never a panic — and must *recover* from the
//! other device faults of a [`FaultPlan`], answering the query exactly
//! despite damaged cached state.

use trijoin_common::{
    BaseTuple, Cost, Error, FaultKind, FaultOp, Surrogate, SystemParams, ViewTuple,
};
use trijoin_exec::{
    execute_collect, oracle, HybridHash, JoinIndexStrategy, JoinStrategy, MaterializedView,
    Mutation, StoredRelation,
};
use trijoin_storage::{Disk, FaultPlan, SimDisk};

fn setup() -> (Disk, Cost, SystemParams, StoredRelation, StoredRelation) {
    let cost = Cost::new();
    let params = SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() };
    let disk = SimDisk::new(&params, cost.clone());
    let mk = |i: u32| BaseTuple::padded(Surrogate(i), (i % 7) as u64, 64);
    let r = StoredRelation::build(&disk, &params, "R", (0..150).map(mk).collect(), false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", (0..150).map(mk).collect(), true).unwrap();
    (disk, cost, params, r, s)
}

/// Plan a fatal fault on the charged I/O `after` operations from now.
fn fail_op(disk: &Disk, after: u64) {
    disk.install_fault_plan(FaultPlan::new().fail_nth_op(None, after));
}

fn is_fatal(e: &Error) -> bool {
    matches!(e, Error::DeviceFault { kind: FaultKind::Fatal, .. })
}

#[test]
fn btree_lookup_surfaces_fault_and_recovers() {
    let (disk, _c, _p, r, _s) = setup();
    fail_op(&disk, 0);
    let err = r.get(Surrogate(10)).unwrap_err();
    assert!(is_fatal(&err), "{err:?}");
    // One-shot: the next access succeeds.
    assert!(r.get(Surrogate(10)).unwrap().is_some());
}

#[test]
fn strategies_surface_faults_mid_query() {
    let (disk, cost, params, r, s) = setup();
    let mut mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let mut hh = HybridHash::new(&disk, &params, &cost);
    let strategies: Vec<(&str, &mut dyn JoinStrategy)> =
        vec![("hh", &mut hh), ("mv", &mut mv), ("ji", &mut ji)];
    for (label, strategy) in strategies {
        // Fail a read somewhere in the middle of the query.
        fail_op(&disk, 7);
        let got = strategy.execute(&r, &s, &mut |_| {});
        assert!(is_fatal(&got.unwrap_err()), "{label} must propagate the fault");
        disk.clear_faults();
    }
    // Hybrid hash is stateless: it recovers immediately and fully.
    let ok = execute_collect(&mut hh, &r, &s).unwrap();
    assert!(!ok.is_empty());
}

#[test]
fn fault_countdown_is_precise() {
    let (disk, cost, _p, r, _s) = setup();
    cost.reset();
    // Warm nothing: each get costs height-1..height IOs; fail exactly the
    // third charged I/O.
    fail_op(&disk, 2);
    let mut results = Vec::new();
    for i in 0..4 {
        results.push(r.get(Surrogate(i)).map(|t| t.is_some()));
    }
    let failures = results.iter().filter(|x| x.is_err()).count();
    assert_eq!(failures, 1, "exactly one operation fails: {results:?}");
}

#[test]
fn relation_mutation_fault_does_not_panic() {
    let (disk, _c, _p, mut r, _s) = setup();
    let old = r.get(Surrogate(3)).unwrap().unwrap();
    let new = BaseTuple::padded(Surrogate(3), 99, 64);
    // Queueing touches no page; the fault meets the sweep.
    r.apply_update(&old, &new).unwrap();
    fail_op(&disk, 0);
    assert!(is_fatal(&r.settle().unwrap_err()));
    // Nothing landed, nothing is lost: the update is still queued, and the
    // next reader applies it.
    assert_eq!(r.pending_ops(), 1);
    assert_eq!(r.get(Surrogate(3)).unwrap().unwrap().key, 99);
    let _ = r.get(Surrogate(4)).unwrap();
    r.check_invariants().unwrap();
}

// ---------------------------------------------------------------------
// Typed device faults (FaultPlan): strategies recover, answers stay exact.
// ---------------------------------------------------------------------

fn oracle_answer(r: &StoredRelation, s: &StoredRelation) -> Vec<ViewTuple> {
    let mut r_all = Vec::new();
    r.scan(|t| r_all.push(t)).unwrap();
    let mut s_all = Vec::new();
    s.scan(|t| s_all.push(t)).unwrap();
    oracle::join_tuples(&r_all, &s_all)
}

#[test]
fn mv_recovers_exactly_from_poisoned_view_read() {
    let (disk, cost, params, r, s) = setup();
    let mut mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    let want = oracle_answer(&r, &s);
    disk.install_fault_plan(FaultPlan::new().poison_nth_read(Some(mv.view_file()), 0));
    let got = execute_collect(&mut mv, &r, &s).unwrap();
    oracle::assert_same_join("mv poisoned view", got, want.clone());
    assert_eq!(disk.faults_fired(), 1, "the poison fired exactly once");
    assert!(
        !cost.section_counts("mv.recover").is_zero(),
        "rebuild work appears as the mv.recover section"
    );
    // The rebuilt view serves the next query without further recovery.
    let recover_before = cost.section_counts("mv.recover");
    let again = execute_collect(&mut mv, &r, &s).unwrap();
    oracle::assert_same_join("mv after rebuild", again, want);
    assert_eq!(cost.section_counts("mv.recover"), recover_before);
}

#[test]
fn mv_recovers_exactly_from_torn_view_write() {
    let (disk, cost, params, mut r, s) = setup();
    let mut mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    // Pend an insertion so the merge must rewrite a view bucket.
    let t = BaseTuple::padded(Surrogate(500), 3, 64);
    mv.on_mutation(&Mutation::Insert(t.clone())).unwrap();
    r.apply_mutation(&Mutation::Insert(t)).unwrap();
    let want = oracle_answer(&r, &s);
    disk.install_fault_plan(FaultPlan::new().torn_write(Some(mv.view_file()), 0));
    let got = execute_collect(&mut mv, &r, &s).unwrap();
    oracle::assert_same_join("mv torn view write", got, want.clone());
    assert_eq!(disk.faults_fired(), 1);
    assert!(!cost.section_counts("mv.recover").is_zero());
    let again = execute_collect(&mut mv, &r, &s).unwrap();
    oracle::assert_same_join("mv after torn-write rebuild", again, want);
}

#[test]
fn ji_recovers_exactly_from_poisoned_index_read() {
    let (disk, cost, params, r, s) = setup();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let want = oracle_answer(&r, &s);
    disk.install_fault_plan(FaultPlan::new().poison_nth_read(Some(ji.index_file()), 0));
    let got = execute_collect(&mut ji, &r, &s).unwrap();
    oracle::assert_same_join("ji poisoned index", got, want.clone());
    assert_eq!(disk.faults_fired(), 1);
    assert!(
        !cost.section_counts("ji.recover").is_zero(),
        "rebuild work appears as the ji.recover section"
    );
    ji.check_invariants().unwrap();
    let recover_before = cost.section_counts("ji.recover");
    let again = execute_collect(&mut ji, &r, &s).unwrap();
    oracle::assert_same_join("ji after rebuild", again, want);
    assert_eq!(cost.section_counts("ji.recover"), recover_before);
}

/// One pass over an index that deletions leave packable into fewer pages,
/// with an insertion in the same pass: the write-back repacks.
fn repacking_pass() -> (Disk, Cost, StoredRelation, StoredRelation, JoinIndexStrategy) {
    let cost = Cost::new();
    let params = SystemParams { page_size: 512, mem_pages: 200, ..SystemParams::paper_defaults() };
    let disk = SimDisk::new(&params, cost.clone());
    let mk = |i: u32| BaseTuple::padded(Surrogate(i), (i % 50) as u64, 64);
    let mut r =
        StoredRelation::build(&disk, &params, "R", (0..150).map(mk).collect(), false).unwrap();
    let s = StoredRelation::build(&disk, &params, "S", (0..150).map(mk).collect(), true).unwrap();
    let mut ji = JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap();
    let mut pend = |m: Mutation| {
        ji.on_mutation(&m).unwrap();
        r.apply_mutation(&m).unwrap();
    };
    for i in 0..100 {
        pend(Mutation::Delete(mk(i)));
    }
    pend(Mutation::Insert(BaseTuple::padded(Surrogate(500), 3, 64)));
    (disk, cost, r, s, ji)
}

#[test]
fn ji_fault_during_a_compacting_write_back_recovers_through_a_rebuild() {
    // The clean run: one pass, and it frees pages.
    let (_disk, cost, r, s, mut ji) = repacking_pass();
    let pages = ji.index_pages();
    let want = oracle_answer(&r, &s);
    oracle::assert_same_join("ji repack", execute_collect(&mut ji, &r, &s).unwrap(), want);
    let passes = cost.span_tree().into_iter().find(|s| s.name == "ji.read_index").unwrap();
    assert_eq!(passes.invocations, 1);
    assert!(ji.index_pages() < pages && ji.index_meta().free_pages > 0);

    // The same pass with its landing's first write failing (the pass
    // reads every leaf first): the landing is void and the tree sound,
    // under a log that still holds the pass's changes.
    fault_the_landing_then_rebuild(pages, true);
    // Its second write failing: the first landed page is on disk under a
    // log that still holds the pass's changes, and only the rebuild makes
    // the index right again.
    fault_the_landing_then_rebuild(pages + 1, false);
}

/// [`repacking_pass`] with a fatal fault at the index file's `nth`
/// operation: the fault surfaces, and the next query rebuilds rather than
/// folding the log a second time. `sound` says the faulted tree must pass
/// its audit before that rebuild.
fn fault_the_landing_then_rebuild(nth: u64, sound: bool) {
    let (disk, cost, r, s, mut ji) = repacking_pass();
    let file = ji.index_file();
    disk.install_fault_plan(FaultPlan::new().fail_nth_op(Some(file), nth));
    let err = execute_collect(&mut ji, &r, &s).unwrap_err();
    assert!(
        matches!(err, Error::DeviceFault { kind: FaultKind::Fatal, op: FaultOp::Write, file: f, .. } if f == file.0),
        "{err:?}"
    );
    assert!(cost.section_counts("ji.recover").is_zero(), "a fatal fault surfaces");
    if sound {
        ji.check_invariants().unwrap();
    }
    let want = oracle_answer(&r, &s);
    oracle::assert_same_join(
        "ji after failed repack",
        execute_collect(&mut ji, &r, &s).unwrap(),
        want.clone(),
    );
    assert!(!cost.section_counts("ji.recover").is_zero());
    ji.check_invariants().unwrap();
    assert_eq!(ji.index_meta().free_pages, 0, "a rebuilt index starts with no free page");
    let recovered = cost.section_counts("ji.recover");
    oracle::assert_same_join("ji after rebuild", execute_collect(&mut ji, &r, &s).unwrap(), want);
    assert_eq!(cost.section_counts("ji.recover"), recovered);
}

#[test]
fn hh_survives_transient_read_faults_anywhere() {
    // Unscoped transient read faults at several countdowns: whether the
    // fault lands on a base-relation scan (whole-join restart) or a
    // spilled-run scan (bounded per-run retry), the answer stays exact.
    let (disk, cost, params, r, s) = setup();
    let want = oracle_answer(&r, &s);
    let mut hh = HybridHash::new(&disk, &params, &cost);
    for after in [0u64, 3, 11, 29] {
        disk.clear_faults();
        let fired_before = disk.faults_fired();
        disk.install_fault_plan(FaultPlan::new().fail_nth_read(None, after));
        let got = execute_collect(&mut hh, &r, &s).unwrap();
        oracle::assert_same_join(&format!("hh transient read after {after}"), got, want.clone());
        assert_eq!(
            disk.faults_fired() - fired_before,
            1,
            "after {after}: fault must actually fire"
        );
    }
    let retry = cost.section_counts("hh.retry");
    let restart = cost.section_counts("hh.recover");
    assert!(
        !retry.is_zero() || !restart.is_zero(),
        "recovery work must be ledgered: retry {retry:?}, restart {restart:?}"
    );
}

#[test]
fn legacy_fault_is_never_recovered() {
    // A fatal fault is the error-path contract: strategies must surface
    // it, not absorb it into recovery.
    let (disk, cost, params, r, s) = setup();
    let mut mv = MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap();
    fail_op(&disk, 7);
    assert!(is_fatal(&mv.execute(&r, &s, &mut |_| {}).unwrap_err()));
    assert!(
        cost.section_counts("mv.recover").is_zero(),
        "fatal faults must not trigger the recovery path"
    );
}

#[test]
fn a_mutation_whose_spill_fails_is_refused_whole() {
    // Every key-changing update is logged under an armed write fault, and
    // applied to `R` only if the strategy took it: the first one that needs
    // a full buffer spilled is refused — both of its sides, or the answer
    // would fold a deletion `R` never saw.
    for use_ji in [false, true] {
        let (disk, cost, params, mut r, s) = setup();
        let mut strategy: Box<dyn JoinStrategy> = if use_ji {
            Box::new(JoinIndexStrategy::build(&disk, &params, &cost, &r, &s).unwrap())
        } else {
            Box::new(MaterializedView::build(&disk, &params, &cost, &r, &s).unwrap())
        };
        let mut refused = 0;
        for i in 0..150u32 {
            let old = BaseTuple::padded(Surrogate(i), (i % 7) as u64, 64);
            let new = BaseTuple::padded(Surrogate(i), (i % 7) as u64 + 100, 64);
            let m = Mutation::Update(trijoin_exec::Update { old, new });
            disk.install_fault_plan(FaultPlan::new().fail_nth_write(None, 0));
            let logged = strategy.on_mutation(&m);
            disk.clear_faults();
            match logged {
                Ok(()) => r.apply_mutation(&m).unwrap(),
                Err(_) => refused += 1,
            }
        }
        assert!(refused > 0, "use_ji {use_ji}: no spill was due");
        let want = oracle_answer(&r, &s);
        oracle::assert_same_join(
            "after refused mutations",
            execute_collect(&mut *strategy, &r, &s).unwrap(),
            want,
        );
    }
}
