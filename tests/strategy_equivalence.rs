//! Workspace-level equivalence: through the public `trijoin` facade, the
//! three strategies must return exactly the current join across multiple
//! update/query epochs, for a spread of selectivities, update rates and
//! `Pr_A` values from the paper's parameter family.

use trijoin::{Database, JoinStrategy, WorkloadSpec};
use trijoin_common::SystemParams;
use trijoin_exec::{execute_collect, oracle};

fn run_scenario(sr: f64, update_rate: f64, pra: f64, epochs: usize, seed: u64) {
    let params = SystemParams { mem_pages: 48, page_size: 1024, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 1_500,
        s_tuples: 1_200,
        tuple_bytes: 96,
        sr,
        group_size: 4,
        pra,
        update_rate,
        seed,
    };
    let gen = spec.generate();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let mut mv = db.materialized_view().unwrap();
    let mut ji = db.join_index().unwrap();
    let mut hh = db.hybrid_hash();
    let mut stream = gen.update_stream();
    for epoch in 0..epochs {
        for _ in 0..gen.updates_per_epoch() {
            let u = stream.next_update();
            mv.on_update(&u).unwrap();
            ji.on_update(&u).unwrap();
            hh.on_update(&u).unwrap();
            db.r_mut().apply_update(&u.old, &u.new).unwrap();
        }
        let want = oracle::join_tuples(stream.current(), &gen.s);
        let label = format!("sr={sr} rate={update_rate} pra={pra} epoch={epoch}");
        oracle::assert_same_join(
            &format!("{label}/mv"),
            execute_collect(&mut mv, db.r(), db.s()).unwrap(),
            want.clone(),
        );
        oracle::assert_same_join(
            &format!("{label}/ji"),
            execute_collect(&mut ji, db.r(), db.s()).unwrap(),
            want.clone(),
        );
        oracle::assert_same_join(
            &format!("{label}/hh"),
            execute_collect(&mut hh, db.r(), db.s()).unwrap(),
            want,
        );
    }
}

#[test]
fn low_selectivity_low_activity() {
    run_scenario(0.005, 0.02, 0.1, 3, 101);
}

#[test]
fn moderate_selectivity_moderate_activity() {
    run_scenario(0.05, 0.06, 0.1, 3, 102);
}

#[test]
fn high_selectivity() {
    run_scenario(0.5, 0.04, 0.1, 2, 103);
}

#[test]
fn high_update_activity() {
    run_scenario(0.05, 0.4, 0.1, 3, 104);
}

#[test]
fn high_pra_every_update_hits_the_join_attribute() {
    run_scenario(0.05, 0.1, 1.0, 3, 105);
}

#[test]
fn zero_pra_payload_only_updates() {
    run_scenario(0.05, 0.1, 0.0, 2, 106);
}

#[test]
fn empty_join_stays_empty_through_epochs() {
    run_scenario(0.0, 0.1, 0.5, 2, 107);
}

/// The join index's write-back repacks a pass that fits in fewer pages, so
/// `|JI|` stays `⌈‖JI‖/n_JI⌉` pages (plus at most one a pass, for group
/// alignment and splits) however long updates shuffle it — at this shape
/// an index that only ever split grew from 14 to 30 pages in 200 rounds.
/// Freed pages are reused before the file grows, so once the free list
/// has absorbed the index's swings the file stops growing.
#[test]
fn join_index_stays_packed_over_200_rounds() {
    let params = SystemParams { mem_pages: 40, page_size: 512, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 4_000,
        s_tuples: 4_000,
        tuple_bytes: 64,
        sr: 0.01,
        group_size: 20,
        pra: 0.1,
        update_rate: 0.06,
        seed: 1990,
    };
    let gen = spec.generate();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let mut ji = db.join_index().unwrap();
    let n_ji = params.tuples_per_page(8) as u64;
    let read_index_calls = |db: &Database| -> u64 {
        let spans = db.cost().span_tree();
        spans.iter().filter(|s| s.name == "ji.read_index").map(|s| s.invocations).sum()
    };
    let (mut repacked, mut file_at_100) = (false, None);
    let mut stream = gen.update_stream();
    for round in 0..200 {
        for _ in 0..gen.updates_per_epoch() {
            let u = stream.next_update();
            ji.on_update(&u).unwrap();
            db.r_mut().apply_update(&u.old, &u.new).unwrap();
        }
        let before = read_index_calls(&db);
        let got = execute_collect(&mut ji, db.r(), db.s()).unwrap();
        let passes = read_index_calls(&db) - before;
        if round % 50 == 49 {
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(&format!("packed/ji round {round}"), got, want);
        }
        ji.check_invariants().unwrap();
        let bound = ji.index_len().div_ceil(n_ji) + passes;
        assert!(
            ji.index_pages() <= bound,
            "round {round}: |JI| = {} pages for {} entries over {passes} passes",
            ji.index_pages(),
            ji.index_len()
        );
        repacked |= ji.index_meta().free_pages > 0;
        let pages = db.disk().num_pages(ji.index_file()).unwrap();
        match file_at_100 {
            None if round == 100 => file_at_100 = Some(pages),
            Some(at_100) => assert_eq!(pages, at_100, "round {round}: the JI file grew"),
            None => {}
        }
    }
    assert!(repacked, "no pass ever repacked");
}

#[test]
fn tiny_memory_forces_multipass_everywhere() {
    let params = SystemParams { mem_pages: 12, page_size: 512, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 800,
        s_tuples: 800,
        tuple_bytes: 64,
        sr: 0.1,
        group_size: 4,
        pra: 0.3,
        update_rate: 0.2,
        seed: 108,
    };
    let gen = spec.generate();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
    let mut mv = db.materialized_view().unwrap();
    let mut ji = db.join_index().unwrap();
    let mut stream = gen.update_stream();
    for _ in 0..gen.updates_per_epoch() {
        let u = stream.next_update();
        mv.on_update(&u).unwrap();
        ji.on_update(&u).unwrap();
        db.r_mut().apply_update(&u.old, &u.new).unwrap();
    }
    let want = oracle::join_tuples(stream.current(), &gen.s);
    oracle::assert_same_join(
        "tiny-mem/mv",
        execute_collect(&mut mv, db.r(), db.s()).unwrap(),
        want.clone(),
    );
    oracle::assert_same_join(
        "tiny-mem/ji",
        execute_collect(&mut ji, db.r(), db.s()).unwrap(),
        want,
    );
}
