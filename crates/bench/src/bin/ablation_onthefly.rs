//! Ablation: the on-the-fly merge (§3.2's step (3) folded into step (4)).
//!
//! The paper performs the view update *while* reading the view for the
//! answer, "thus saving the cost of reading V once". The naive variant
//! updates V in one pass and then re-reads it to answer. The saving is
//! exactly one full view scan — `F·|V|·IO` — which this bin quantifies
//! across selectivities, in the model and in the engine.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin ablation_onthefly`

use trijoin::{Database, SystemParams, WorkloadSpec};
use trijoin_bench::{emit_json, paper_params};
use trijoin_common::Json;
use trijoin_model::{mv, Workload};

fn main() {
    let params = paper_params();
    println!("== Model: cost of a second view scan (naive two-pass maintenance) ==");
    println!("{:>8} {:>14} {:>14} {:>10}", "SR", "on-the-fly", "naive 2-pass", "overhead");
    let mut rows = Vec::new();
    for &sr in &[0.001, 0.01, 0.05, 0.1] {
        let w = Workload::figure4_point(sr, 0.06);
        let fused = mv::cost(&params, &w).total();
        let extra_scan = mv::cost(&params, &w).term("C3.1"); // one more F·|V|·IO
        let naive = fused + extra_scan;
        println!("{:>8} {:>14.1} {:>14.1} {:>9.1}%", sr, fused, naive, 100.0 * extra_scan / fused);
        rows.push(
            Json::obj()
                .set("sr", sr)
                .set("fused_secs", fused)
                .set("naive_secs", naive)
                .set("overhead_pct", 100.0 * extra_scan / fused),
        );
    }

    println!("\n== Engine: measured (4000-tuple scale, 6% activity) ==");
    let engine_params = SystemParams { mem_pages: 80, ..params };
    let spec = WorkloadSpec::engine_scale(0.02, 0.06, 0.1, 23);
    let gen = spec.generate();
    let mut db = Database::new(&engine_params, gen.r.clone(), gen.s.clone()).unwrap();
    let mut mv_strategy = db.materialized_view().unwrap();
    let updates = gen.update_stream().take(gen.updates_per_epoch() as usize);
    let (cost, answer) = db.run_epoch(&mut [&mut mv_strategy], updates).unwrap().remove(0);
    let (fused_ios, n) = (cost.query.ios, answer.len() as u64);
    let scan_ios = mv_strategy.view_pages(); // one extra full read of V
    println!("  fused query: {fused_ios} IOs for {n} tuples");
    println!(
        "  naive 2-pass would add {} IOs (+{:.1}%) — the read of V the paper saves",
        scan_ios,
        100.0 * scan_ios as f64 / fused_ios as f64
    );
    let json = Json::obj().set("figure", "ablation_onthefly").set("model_rows", rows).set(
        "engine",
        Json::obj()
            .set("fused_ios", fused_ios)
            .set("extra_scan_ios", scan_ios)
            .set("result_tuples", n),
    );
    emit_json("ablation_onthefly", &json);
}
