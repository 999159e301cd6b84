//! Engine vs model: run all three strategies for real on the simulated
//! storage stack and put the measured simulated seconds next to the §3
//! cost model's predictions, across a grid of (SR, update-rate) points.
//!
//! Absolute agreement is not the point (the engine's B⁺-trees, batching
//! and netting are real code, not closed forms) — the *ranking* and the
//! *response to parameters* are what the paper's conclusions rest on.
//!
//! Run with: `cargo run --release --example engine_vs_model`

use trijoin::{Experiment, SystemParams, WorkloadSpec};

fn main() {
    let params = SystemParams { mem_pages: 80, ..SystemParams::paper_defaults() };
    println!(
        "{:<8} {:<6} | {:>24} | {:>24} | winners (engine/model)",
        "SR", "rate", "engine secs (MV/JI/HH)", "model secs (MV/JI/HH)"
    );
    let mut rank_agreements = 0;
    let mut total = 0;
    for &sr in &[0.002, 0.01, 0.05, 0.25] {
        for &rate in &[0.02, 0.2] {
            let spec = WorkloadSpec::engine_scale(sr, rate, 0.1, 42);
            let exp = Experiment::new(&params, spec.generate());
            let report = exp.run_epoch().expect("epoch");
            let engine: Vec<f64> = report.outcomes.iter().map(|o| o.engine_secs).collect();
            let model: Vec<f64> = report.outcomes.iter().map(|o| o.model_secs).collect();
            let ew = report.engine_winner();
            let mw = report.model_winner();
            total += 1;
            if ew == mw {
                rank_agreements += 1;
            }
            println!(
                "{:<8} {:<6} | {:>7.2} {:>7.2} {:>7.2}  | {:>7.2} {:>7.2} {:>7.2}  | {} / {}",
                sr, rate, engine[0], engine[1], engine[2], model[0], model[1], model[2], ew, mw
            );
        }
    }
    println!("\nwinner agreement: {rank_agreements}/{total} grid points");
    println!("(every engine result above was verified tuple-for-tuple against the oracle)");
}
