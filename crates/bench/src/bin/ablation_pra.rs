//! Ablation: the `Pr_A` filter — the join index's structural advantage.
//!
//! §4: "The join index method gains a competitive advantage from only
//! having to process a percentage of the updates. Therefore ... its area
//! of superiority varies inversely with the probability of an update
//! altering the join attribute."
//!
//! Sweeps Pr_A at a fixed (SR, activity) point and reports each method's
//! total plus where the JI→MV boundary sits, in both the model and the
//! engine.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin ablation_pra`

use trijoin::{Experiment, SystemParams, WorkloadSpec};
use trijoin_bench::{emit_json, paper_params};
use trijoin_common::Json;
use trijoin_model::{all_costs, Workload};

fn main() {
    let params = paper_params();
    println!("== Model: Pr_A sweep at SR = 0.01, activity = 20% (paper scale) ==");
    println!("{:>6} {:>12} {:>12} {:>12}  winner", "Pr_A", "MV secs", "JI secs", "HH secs");
    let mut model_rows = Vec::new();
    for &pra in &[0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let mut w = Workload::figure4_point(0.01, 0.2);
        w.pra = pra;
        let costs = all_costs(&params, &w);
        let t: Vec<f64> = costs.iter().map(|c| c.total()).collect();
        let winner = costs.iter().min_by(|a, b| a.total().total_cmp(&b.total())).unwrap().method;
        println!("{pra:>6} {:>12.1} {:>12.1} {:>12.1}  {winner}", t[0], t[1], t[2]);
        model_rows.push(
            Json::obj()
                .set("pra", pra)
                .set("mv_secs", t[0])
                .set("ji_secs", t[1])
                .set("hh_secs", t[2])
                .set("winner", winner.label()),
        );
    }

    println!("\n== Engine: same sweep, scaled down 50x (measured simulated seconds) ==");
    println!("{:>6} {:>12} {:>12} {:>12}  winner", "Pr_A", "MV secs", "JI secs", "HH secs");
    let engine_params = SystemParams { mem_pages: 80, ..params };
    let mut engine_rows = Vec::new();
    for &pra in &[0.0, 0.1, 0.5, 1.0] {
        let spec = WorkloadSpec::engine_scale(0.01, 0.2, pra, 31);
        let mut exp = Experiment::new(&engine_params, &spec);
        exp.verify = false;
        let report = exp.run_epoch().expect("epoch");
        let t: Vec<f64> = report.outcomes.iter().map(|o| o.engine_secs).collect();
        println!(
            "{pra:>6} {:>12.2} {:>12.2} {:>12.2}  {}",
            t[0],
            t[1],
            t[2],
            report.engine_winner()
        );
        engine_rows.push(
            Json::obj()
                .set("pra", pra)
                .set("mv_secs", t[0])
                .set("ji_secs", t[1])
                .set("hh_secs", t[2])
                .set("winner", report.engine_winner().label()),
        );
    }
    let json = Json::obj()
        .set("figure", "ablation_pra")
        .set("model_rows", model_rows)
        .set("engine_rows", engine_rows);
    emit_json("ablation_pra", &json);
    println!("\nreading: MV is Pr_A-invariant; JI's cost rises with Pr_A toward MV-like");
    println!("update processing, which is exactly why its region shrinks as Pr_A grows.");
}
