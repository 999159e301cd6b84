//! Model-versus-engine agreement: the analytical model and the measured
//! engine must rank the strategies the same way and respond the same way
//! to the paper's parameters (selectivity, update activity, Pr_A). For the
//! join index and hybrid hash that is agreement in *shape* (the engine's
//! B⁺-trees, batching and netting are real implementations, not closed
//! forms); the materialized view is held to the model's number.

use trijoin::{Database, Experiment, JoinStrategy, Method, SystemParams, Workload, WorkloadSpec};

fn params() -> SystemParams {
    SystemParams { mem_pages: 80, ..SystemParams::paper_defaults() }
}

fn spec(sr: f64, rate: f64, pra: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        r_tuples: 4_000,
        s_tuples: 4_000,
        tuple_bytes: 200,
        sr,
        group_size: 5,
        pra,
        update_rate: rate,
        seed,
    }
}

#[test]
fn engine_and_model_agree_on_the_winner_across_regimes() {
    // One point well inside each of the paper's three regions (at this
    // scaled-down size with |M| = 80 pages).
    let cases = [
        (0.002, 0.02, 201), // very low selectivity -> join index
        (0.06, 0.02, 202),  // moderate selectivity, low activity
        (0.9, 0.02, 203),   // extreme selectivity -> hybrid hash
    ];
    for (sr, rate, seed) in cases {
        let exp = Experiment::new(&params(), spec(sr, rate, 0.1, seed).generate());
        let report = exp.run_epoch().unwrap();
        assert_eq!(
            report.engine_winner(),
            report.model_winner(),
            "sr={sr} rate={rate}: engine picked {:?}, model {:?}\n{:#?}",
            report.engine_winner(),
            report.model_winner(),
            report.outcomes
        );
    }
}

/// The `examples/engine_vs_model.rs` grid (`results/engine_vs_model.txt`):
/// the view file reads the pages that hold tuples and writes the pages
/// that changed, which is what C3.1 and C3.2 price, so the engine's MV
/// lands on the model's number and the two agree on every winner.
#[test]
fn mv_engine_matches_the_model_on_the_whole_grid() {
    for sr in [0.002, 0.01, 0.05, 0.25] {
        for rate in [0.02, 0.2] {
            let report =
                Experiment::new(&params(), spec(sr, rate, 0.1, 42).generate()).run_epoch().unwrap();
            assert_eq!(report.engine_winner(), report.model_winner(), "sr={sr} rate={rate}");
            let mv = report.outcomes.iter().find(|o| o.method == Method::MaterializedView).unwrap();
            let ratio = mv.engine_secs / mv.model_secs;
            assert!(
                (0.9..=1.25).contains(&ratio),
                "sr={sr} rate={rate}: engine MV {:.2} s is {ratio:.2}x the model's {:.2} s",
                mv.engine_secs,
                mv.model_secs
            );
        }
    }
}

/// The same grid for the join index: the engine sizes `|JI_k|` as Figure 3
/// does and keeps `|JI|` packed, so it makes exactly the model's
/// `n₂ = ⌈|JI|/|JI_k|⌉` passes, and its cost lands in MV's band.
#[test]
fn ji_engine_makes_the_models_passes_on_the_whole_grid() {
    for sr in [0.002, 0.01, 0.05, 0.25] {
        for rate in [0.02, 0.2] {
            let exp = Experiment::new(&params(), spec(sr, rate, 0.1, 42).generate());
            let report = exp.run_epoch().unwrap();
            let ji = report.outcomes.iter().find(|o| o.method == Method::JoinIndex).unwrap();
            let ratio = ji.engine_secs / ji.model_secs;
            assert!(
                (0.9..=1.25).contains(&ratio),
                "sr={sr} rate={rate}: engine JI {:.2} s is {ratio:.2}x the model's {:.2} s",
                ji.engine_secs,
                ji.model_secs
            );
            assert_eq!(
                engine_ji_passes(&exp),
                model_ji_passes(&report.workload),
                "sr={sr} rate={rate}: pass count"
            );
        }
    }
}

/// Passes the engine makes over the epoch `run_epoch` prices: one
/// `ji.read_index` span entry each.
fn engine_ji_passes(exp: &Experiment) -> u64 {
    let gen = exp.generated();
    let mut db = Database::new(&params(), gen.r.clone(), gen.s.clone()).unwrap();
    let mut ji = db.join_index().unwrap();
    let mut stream = gen.update_stream();
    for _ in 0..gen.updates_per_epoch() {
        let u = stream.next_update();
        ji.on_update(&u).unwrap();
        db.r_mut().apply_update(&u.old, &u.new).unwrap();
    }
    db.settle().unwrap();
    db.reset_cost();
    ji.execute(db.r(), db.s(), &mut |_| {}).unwrap();
    let spans = db.cost().span_tree();
    spans.iter().filter(|s| s.name == "ji.read_index").map(|s| s.invocations).sum()
}

/// The model's `n₂`, exactly as `trijoin_model::ji::cost` plans it.
fn model_ji_passes(w: &Workload) -> u64 {
    let p = params();
    let d = w.derived(&p);
    let z = trijoin_model::mv::z_pages(&p, d.n_ir);
    let (_, _, n1) = trijoin_model::mv::n1_runs(w.pra * d.ir_pages, z);
    (d.ji_pages / trijoin_model::ji::jik_pages(&p, w, &d, n1)).ceil().max(1.0) as u64
}

#[test]
fn engine_measurements_track_model_within_a_small_factor() {
    let exp = Experiment::new(&params(), spec(0.05, 0.05, 0.1, 210).generate());
    let report = exp.run_epoch().unwrap();
    for (method, ratio) in report.ratios() {
        assert!(
            (0.2..=5.0).contains(&ratio),
            "{method}: engine/model ratio {ratio:.2} out of band\n{:#?}",
            report.outcomes
        );
    }
}

#[test]
fn hybrid_hash_is_update_invariant_in_both() {
    let quiet =
        Experiment::new(&params(), spec(0.05, 0.0, 0.1, 220).generate()).run_epoch().unwrap();
    let busy =
        Experiment::new(&params(), spec(0.05, 0.3, 0.1, 220).generate()).run_epoch().unwrap();
    let hh = |r: &trijoin::EpochReport| {
        r.outcomes.iter().find(|o| o.method == Method::HybridHash).unwrap().engine_secs
    };
    let (a, b) = (hh(&quiet), hh(&busy));
    assert!(
        (a - b).abs() / a < 0.05,
        "hybrid hash should not care about updates: {a:.2} vs {b:.2}"
    );
}

#[test]
fn update_activity_hurts_mv_more_than_ji_in_both() {
    let low =
        Experiment::new(&params(), spec(0.02, 0.01, 0.1, 230).generate()).run_epoch().unwrap();
    let high =
        Experiment::new(&params(), spec(0.02, 0.4, 0.1, 230).generate()).run_epoch().unwrap();
    let get = |r: &trijoin::EpochReport, m: Method| {
        r.outcomes.iter().find(|o| o.method == m).unwrap().engine_secs
    };
    let mv_growth = get(&high, Method::MaterializedView) / get(&low, Method::MaterializedView);
    let ji_growth = get(&high, Method::JoinIndex) / get(&low, Method::JoinIndex);
    assert!(
        mv_growth > ji_growth,
        "with Pr_A = 0.1 the view (all updates) must suffer more than the \
         index (10% of updates): MV ×{mv_growth:.2} vs JI ×{ji_growth:.2}"
    );
    // And the model agrees on the direction.
    let mv_growth_m =
        get_model(&high, Method::MaterializedView) / get_model(&low, Method::MaterializedView);
    let ji_growth_m = get_model(&high, Method::JoinIndex) / get_model(&low, Method::JoinIndex);
    assert!(mv_growth_m > ji_growth_m);

    fn get_model(r: &trijoin::EpochReport, m: Method) -> f64 {
        r.outcomes.iter().find(|o| o.method == m).unwrap().model_secs
    }
}

#[test]
fn selectivity_hurts_caches_but_not_hash_join_in_both() {
    let lo = Experiment::new(&params(), spec(0.01, 0.02, 0.1, 240).generate()).run_epoch().unwrap();
    let hi = Experiment::new(&params(), spec(0.3, 0.02, 0.1, 241).generate()).run_epoch().unwrap();
    let get = |r: &trijoin::EpochReport, m: Method| {
        r.outcomes.iter().find(|o| o.method == m).unwrap().engine_secs
    };
    assert!(get(&hi, Method::MaterializedView) > 3.0 * get(&lo, Method::MaterializedView));
    assert!(get(&hi, Method::JoinIndex) > 2.0 * get(&lo, Method::JoinIndex));
    let hh_lo = get(&lo, Method::HybridHash);
    let hh_hi = get(&hi, Method::HybridHash);
    assert!(
        (hh_hi - hh_lo).abs() / hh_lo < 0.25,
        "hash join is (nearly) selectivity-invariant: {hh_lo:.2} vs {hh_hi:.2}"
    );
}
