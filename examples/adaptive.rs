//! Self-adapting strategy selection under a shifting workload — the
//! paper's closing vision of a system that "could automatically adapt to
//! the appropriate structures and algorithms after a suitable period of
//! time".
//!
//! Three workload phases hit the same database:
//!   1. calm  — 2% update rate (materialized-view country),
//!   2. storm — 40% update rate (join-index country),
//!   3. calm again.
//!
//! The adaptive strategy starts on the materialized view and re-selects
//! after every query from *measured* statistics (the same controller a
//! serve shard runs, stepped to completion inside each query). Its
//! per-epoch cost is compared against the three static strategies running
//! the same epochs.
//!
//! Run with: `cargo run --release --example adaptive`

use trijoin::{
    AdaptiveStrategy, CachedStrategy, Database, JoinStrategy, Method, SystemParams, WorkloadSpec,
};

fn main() {
    let params = SystemParams { mem_pages: 80, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec::engine_scale(0.01, 0.02, 0.1, 777);
    let gen = spec.generate();
    let phases: Vec<(&str, u64, usize)> = vec![
        ("calm", (0.02 * gen.r.len() as f64) as u64, 3),
        ("storm", (0.40 * gen.r.len() as f64) as u64, 3),
        ("calm again", (0.02 * gen.r.len() as f64) as u64, 3),
    ];

    // One database per contender so ledgers are attributable.
    let contenders: Vec<(&str, Option<Method>)> = vec![
        ("adaptive", None),
        ("static MV", Some(Method::MaterializedView)),
        ("static JI", Some(Method::JoinIndex)),
        ("static HH", Some(Method::HybridHash)),
    ];
    for (label, fixed) in contenders {
        let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let mut strategy: Box<dyn JoinStrategy> = match fixed {
            Some(Method::MaterializedView) => Box::new(db.materialized_view().unwrap()),
            Some(Method::JoinIndex) => Box::new(db.join_index().unwrap()),
            Some(Method::HybridHash) => Box::new(db.hybrid_hash()),
            None => {
                let initial = CachedStrategy::Mv(db.materialized_view().unwrap());
                Box::new(AdaptiveStrategy::new(db.disk(), db.params(), db.cost(), initial))
            }
        };
        let mut stream = gen.update_stream();
        println!("== {label} ==");
        let mut grand_total = 0.0;
        for (phase, updates, epochs) in &phases {
            for e in 0..*epochs {
                let updates = stream.by_ref().take(*updates as usize);
                let (cost, answer) =
                    db.run_epoch(&mut [strategy.as_mut()], updates).unwrap().remove(0);
                // Strategy-attributable cost: logging, passes, scans and
                // migrations; the base relation's own maintenance is
                // identical shared work for every contender.
                let secs = cost.strategy().time_secs(db.params());
                grand_total += secs;
                let n = answer.len();
                println!("  {phase:<11} epoch {e}: {secs:>8.2} strategy-s ({n} tuples)");
            }
        }
        println!("  TOTAL: {grand_total:.2} strategy-attributable simulated seconds\n");
    }
    println!("reading: the adaptive run starts on the view, pays one storm epoch on it");
    println!("plus the hand-off, then tracks the join index and returns to the view. It");
    println!("beats the static strategies that are badly wrong in some phase (MV in the");
    println!("storm, HH throughout) but not static JI, which is never far from the best.");
}
