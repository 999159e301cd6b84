//! Ablation: join-key skew (beyond the paper — its analysis assumes
//! uniform hashing and uniform partner counts).
//!
//! The matched mass is redistributed over the same group count by Zipf
//! weights (θ = 0 is the paper's uniform family). Skew concentrates join
//! pairs in hot groups, which stresses each method differently: the view
//! grows quadratically in the hot group (|V| ∝ Σ zᵢ²) and pays for it, hot
//! hash-join partitions overflow memory and recurse at a flat cost, and the
//! join index, a B⁺-tree on `(r, s)`, gets *cheaper* with skew here — a
//! behaviour the model, which has no skew input, does not price yet.
//!
//! A method's seconds are its logging plus its query; the base relation's
//! own maintenance, the same for all three, is the last column.
//!
//! Run with: `cargo run --release -p trijoin-bench --bin ablation_skew`

use trijoin::{CachedStrategy, Database, Method, SystemParams, WorkloadSpec};
use trijoin_bench::emit_json;
use trijoin_common::Json;
use trijoin_exec::oracle;

fn main() {
    let params = SystemParams { mem_pages: 60, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec { group_size: 10, ..WorkloadSpec::engine_scale(0.05, 0.06, 0.1, 1234) };
    println!("== Key skew: engine cost and correctness per strategy ==");
    println!(
        "{:>6} {:>10} {:>10} | {:>10} {:>10} {:>10} | {:>10}",
        "theta", "‖V‖", "hot group", "MV secs", "JI secs", "HH secs", "base secs"
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
        let (mut secs, mut base) = (Vec::new(), Vec::new());
        for method in Method::all() {
            let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
            let mut cached = CachedStrategy::build(&db, method).unwrap();
            let mut stream = gen.update_stream();
            let updates = stream.by_ref().take(gen.updates_per_epoch() as usize);
            let (cost, got) = db.run_epoch(&mut [cached.as_dyn()], updates).unwrap().remove(0);
            // Correctness under skew is part of the ablation.
            let want = oracle::join_tuples(stream.current(), &gen.s);
            oracle::assert_same_join(&format!("theta={theta} {method}"), got, want);
            secs.push(cost.strategy().time_secs(db.params()));
            base.push(cost.base.time_secs(db.params()));
        }
        // The relation's own maintenance does not depend on who caches.
        assert!(base.iter().all(|&b| b == base[0]), "base maintenance differs: {base:?}");
        println!(
            "{:>6} {:>10} {:>10} | {:>10.2} {:>10.2} {:>10.2} | {:>10.2}",
            theta, join_tuples, hot, secs[0], secs[1], secs[2], base[0]
        );
        rows.push(
            Json::obj()
                .set("theta", theta)
                .set("join_tuples", join_tuples)
                .set("hot_group", hot as u64)
                .set("mv_secs", secs[0])
                .set("ji_secs", secs[1])
                .set("hh_secs", secs[2])
                .set("base_secs", base[0]),
        );
    }
    emit_json("ablation_skew", &Json::obj().set("figure", "ablation_skew").set("rows", rows));
    println!("\nreading: with SR fixed, skew grows the join result (Σ z² effect), so the");
    println!("view pays for the bigger V while hash join only pays for the extra output;");
    println!("the join index gets cheaper with skew, which no term of the model prices");
    println!("yet. Every result above was verified against the oracle.");
}
