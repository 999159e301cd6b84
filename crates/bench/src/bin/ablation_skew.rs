//! Ablation: join-key skew (beyond the paper — its analysis assumes
//! uniform hashing and uniform partner counts).
//!
//! The matched mass is redistributed over the same group count by Zipf
//! weights (θ = 0 is the paper's uniform family). Skew concentrates join
//! pairs in hot groups, which stresses each method differently: the view
//! grows quadratically in the hot group (|V| ∝ Σ zᵢ²), hot hash-join
//! partitions overflow memory and recurse, and the join index's pass
//! extension keeps hot r-groups page-aligned.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin ablation_skew`

use trijoin::{CachedStrategy, Database, Method, SystemParams, WorkloadSpec};
use trijoin_bench::emit_json;
use trijoin_common::Json;
use trijoin_exec::{execute_collect, oracle};

fn main() {
    let params = SystemParams { mem_pages: 60, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 4_000,
        s_tuples: 4_000,
        tuple_bytes: 200,
        sr: 0.05,
        group_size: 10,
        pra: 0.1,
        update_rate: 0.06,
        seed: 1234,
    };
    println!("== Key skew: engine cost and correctness per strategy ==");
    println!(
        "{:>6} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "theta", "‖V‖", "hot group", "MV secs", "JI secs", "HH secs"
    );
    let mut rows = Vec::new();
    for &theta in &[0.0, 0.5, 1.0, 1.5] {
        let gen = spec.generate_skewed(theta);
        let m = gen.measured();
        let join_tuples = (m.js * m.r_tuples * m.s_tuples).round();
        // Hot group size = partners of the most frequent key.
        let hot = {
            let mut counts = std::collections::HashMap::new();
            for t in &gen.r {
                *counts.entry(t.key).or_insert(0u32) += 1;
            }
            counts.into_iter().filter(|&(k, _)| k < 1 << 40).map(|(_, c)| c).max().unwrap_or(0)
        };
        let mut secs = Vec::new();
        for method in Method::all() {
            let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
            let mut cached = CachedStrategy::build(&db, method).unwrap();
            let strategy = cached.as_dyn();
            let mut stream = gen.update_stream();
            db.reset_cost();
            for _ in 0..gen.updates_per_epoch() {
                let u = stream.next_update();
                strategy.on_update(&u).unwrap();
                db.r_mut().apply_update(&u.old, &u.new).unwrap();
            }
            db.settle().unwrap();
            let got = execute_collect(strategy, db.r(), db.s()).unwrap();
            // Correctness under skew is part of the ablation.
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(&format!("theta={theta} {method}"), got, want);
            secs.push(db.cost().elapsed_secs(db.params()));
        }
        println!(
            "{:>6} {:>10} {:>10} | {:>10.2} {:>10.2} {:>10.2}",
            theta, join_tuples, hot, secs[0], secs[1], secs[2]
        );
        rows.push(
            Json::obj()
                .set("theta", theta)
                .set("join_tuples", join_tuples)
                .set("hot_group", hot as u64)
                .set("mv_secs", secs[0])
                .set("ji_secs", secs[1])
                .set("hh_secs", secs[2]),
        );
    }
    emit_json("ablation_skew", &Json::obj().set("figure", "ablation_skew").set("rows", rows));
    println!("\nreading: with SR fixed, skew grows the join result (Σ z² effect), so the");
    println!("caches pay for the bigger V/JI while hash join only pays for the extra");
    println!("output; every result above was verified against the oracle.");
}
