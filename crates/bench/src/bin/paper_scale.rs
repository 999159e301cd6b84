//! Full Table 7 scale, on the real engine: ‖R‖ = ‖S‖ = 200 000 tuples of
//! 200 bytes, |M| = 1000 pages, SR = 0.01 (the paper's canonical "join is
//! as big as an operand" point), 6% update activity, Pr_A = 0.1 — the
//! exact configuration of Figure 5's middle column.
//!
//! Every strategy runs for real against the simulated disk (the base data
//! alone is ~80 MB of pages); measured simulated seconds are printed next
//! to the §3 cost model's predictions.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin paper_scale`
//! (takes a couple of minutes of wall-clock; the *simulated* times are
//! what's being measured).

use trijoin::{CachedStrategy, Database, Method, WorkloadSpec};
use trijoin_bench::{emit_json, paper_params};
use trijoin_common::Json;
use trijoin_model::all_costs;

fn main() {
    let params = paper_params();
    let spec = WorkloadSpec {
        r_tuples: 200_000,
        s_tuples: 200_000,
        tuple_bytes: 200,
        sr: 0.01,
        group_size: 100, // the paper's JS = 100·SR/‖R‖ family
        pra: 0.1,
        update_rate: 0.06,
        seed: 1990,
    };
    eprintln!("generating the Table 7 workload (‖R‖ = ‖S‖ = 200 000)...");
    let gen = spec.generate();
    let measured = gen.measured();
    eprintln!(
        "achieved: SR = {:.4}, SS = {:.4}, ‖V‖ = {:.0}, ‖iR‖ = {}",
        measured.sr,
        measured.ss,
        measured.js * measured.r_tuples * measured.s_tuples,
        gen.updates_per_epoch()
    );
    let model = all_costs(&params, &measured);

    println!("== Paper scale (Figure 5 @ SR = 0.01, 6% activity): engine vs model ==");
    println!(
        "{:<18} {:>14} {:>14} {:>8}   {:>12} {:>12}",
        "method", "engine secs", "model secs", "ratio", "engine IOs", "result"
    );
    let mut rows = Vec::new();
    for method in Method::all() {
        eprintln!("building database + {} cache...", method);
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut cached = CachedStrategy::build(&db, method).unwrap();
        eprintln!("applying {} updates, then querying...", gen.updates_per_epoch());
        let updates = gen.update_stream().take(gen.updates_per_epoch() as usize);
        let (cost, answer) = db.run_epoch(&mut [cached.as_dyn()], updates).unwrap().remove(0);
        // Strategy-attributable cost: the strategy's logging plus its query;
        // base-relation maintenance is shared work.
        let engine_secs = cost.log.time_secs(db.params()) + cost.query.time_secs(db.params());
        let engine_ios = cost.query.ios; // query-phase I/O (dominant term)
        let n = answer.len() as u64;
        let model_secs = model.iter().find(|c| c.method == method).unwrap().total();
        println!(
            "{:<18} {:>14.1} {:>14.1} {:>8.2}   {:>12} {:>12}",
            method.to_string(),
            engine_secs,
            model_secs,
            engine_secs / model_secs,
            engine_ios,
            n
        );
        rows.push(
            Json::obj()
                .set("method", method.label())
                .set("engine_secs", engine_secs)
                .set("model_secs", model_secs)
                .set("ratio", engine_secs / model_secs)
                .set("query_ios", engine_ios)
                .set("result_tuples", n),
        );
    }
    emit_json("paper_scale", &Json::obj().set("figure", "paper_scale").set("rows", rows));
    println!("\n(ratios near 1.0 mean the closed-form model prices the real pipeline well;");
    println!(" the engine's B-tree heights, batching and leaf packing are real");
    println!(" implementations, not the paper's idealized two/three-level formulas.)");
}
