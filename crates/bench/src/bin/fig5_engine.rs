//! Engine-side Figure 5: the white/dark decomposition *measured* from the
//! engine's span tree, next to the model's analytical split.
//!
//! White = non-update-related file cost of the basic algorithm. Engine
//! mapping (see [`trijoin::breakdown`]): MV's `mv.scan_view`
//! (+`mv.write_view` is update-driven → dark); JI's `ji.read_index` +
//! `ji.fetch_r` + `ji.fetch_s` I/O; HH's entire query I/O. Dark =
//! everything else the strategy charges (logging, diff merging, insert
//! joining, write-back, CPU). The split is exact on integer op counts:
//! white + dark == the strategy's total, its logging plus its query. The
//! base relation's own maintenance (apply-log spills and the settle's
//! sweep) is the same for every method, and the model prices none of it:
//! it is its own column, outside the bar.
//!
//! Run at a 50×-scaled workload; the model is priced at the *measured*
//! workload so the comparison is apples-to-apples. Emits
//! `results/fig5_breakdown.json` next to the text table.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin fig5_engine`

use trijoin::{CachedStrategy, Database, Fig5Breakdown, Method, SystemParams, WorkloadSpec};
use trijoin_bench::emit_json;
use trijoin_common::Json;
use trijoin_model::all_costs;

fn main() {
    let params = SystemParams { mem_pages: 80, ..SystemParams::paper_defaults() };
    println!("== Engine-measured cost decomposition (6% activity, 4000-tuple scale) ==");
    println!(
        "{:>7} {:<18} {:>10} {:>10} {:>7} {:>8}   {:>10} {:>7}",
        "SR", "method", "total s", "white s", "dark%", "base s", "model tot", "dark%"
    );
    let mut rows = Vec::new();
    for &sr in &[0.002, 0.01, 0.05] {
        let spec = WorkloadSpec::engine_scale(sr, 0.06, 0.1, 55);
        let gen = spec.generate();
        let measured = gen.measured();
        let model = all_costs(&params, &measured);
        for method in Method::all() {
            let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
            let mut cached = CachedStrategy::build(&db, method).unwrap();
            db.reset_cost();
            let updates = gen.update_stream().take(gen.updates_per_epoch() as usize);
            let (cost, _) = db.run_epoch(&mut [cached.as_dyn()], updates).unwrap().remove(0);
            let b = Fig5Breakdown::measure(method, db.cost(), cost.strategy());
            let base_secs = cost.base.time_secs(db.params());
            let m = model.iter().find(|c| c.method == method).unwrap();
            let model_dark = 100.0 * m.update_and_internal() / m.total();
            println!(
                "{:>7} {:<18} {:>10.2} {:>10.2} {:>6.1}% {:>8.2}   {:>10.1} {:>6.1}%",
                sr,
                method.to_string(),
                b.total.time_secs(db.params()),
                b.white_secs(db.params()),
                b.dark_pct(db.params()),
                base_secs,
                m.total(),
                model_dark
            );
            rows.push(
                b.to_json(db.params())
                    .set("sr", sr)
                    .set("base_secs", base_secs)
                    .set("model_total_secs", m.total())
                    .set("model_dark_pct", model_dark),
            );
        }
    }
    emit_json("fig5_breakdown", &Json::obj().set("figure", "fig5_engine").set("rows", rows));
    println!("\nreading: the engine's measured dark share tracks the model's ordering —");
    println!("hash join is almost pure base file I/O; the caches' dark share shrinks as");
    println!("selectivity (and with it the base file work) grows.");
}
