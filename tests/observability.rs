//! Tier-2: the observability layer against the real engine — span-tree
//! totals, run-report fidelity, metrics determinism, and the Figure-5
//! white/dark decomposition's exactness.

use trijoin::{Database, Fig5Breakdown, JoinStrategy, Method, SystemParams, WorkloadSpec};
use trijoin_common::{EventKind, MetricsSnapshot, RunReport};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        r_tuples: 2_000,
        s_tuples: 2_000,
        tuple_bytes: 200,
        sr: 0.02,
        group_size: 5,
        pra: 0.1,
        update_rate: 0.06,
        seed: 7,
    }
}

fn params() -> SystemParams {
    SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() }
}

/// Run one update-then-query epoch of `method` on a fresh database and
/// return it (ledger, metrics and events reflect exactly that epoch).
fn run_epoch(method: Method) -> Database {
    let gen = spec().generate();
    let mut db = Database::new(&params(), gen.r.clone(), gen.s.clone()).unwrap();
    let mut strategy: Box<dyn JoinStrategy> = match method {
        Method::MaterializedView => Box::new(db.materialized_view().unwrap()),
        Method::JoinIndex => Box::new(db.join_index().unwrap()),
        Method::HybridHash => Box::new(db.hybrid_hash()),
    };
    db.reset_observability();
    let mut stream = gen.update_stream();
    for _ in 0..gen.updates_per_epoch() {
        let u = stream.next_update();
        strategy.on_update(&u).unwrap();
        db.apply_r_update(&u).unwrap();
    }
    db.query(strategy.as_mut()).unwrap();
    db
}

#[test]
fn report_sections_match_ledger_for_all_three_strategies() {
    for method in Method::all() {
        let db = run_epoch(method);
        let report = db.run_report(method.label());
        assert_eq!(report.totals, db.cost().total(), "{method:?} totals");
        for (name, ops) in db.cost().sections() {
            assert_eq!(
                report.section_counts(&name),
                ops,
                "{method:?} section {name:?} drifted between report and ledger"
            );
            assert_eq!(db.cost().section_counts(&name), ops);
        }
        assert!(!report.spans.is_empty(), "{method:?} produced no spans");
    }
}

#[test]
fn report_round_trips_through_json_after_a_real_run() {
    let db = run_epoch(Method::MaterializedView);
    let report = db.run_report("round-trip");
    let text = report.to_json().pretty();
    let back = RunReport::parse(&text).unwrap();
    assert_eq!(report, back);
}

#[test]
fn metrics_and_spans_are_deterministic_across_identical_runs() {
    let (a, b) = (run_epoch(Method::JoinIndex), run_epoch(Method::JoinIndex));
    let (snap_a, snap_b): (MetricsSnapshot, MetricsSnapshot) =
        (a.metrics().snapshot(), b.metrics().snapshot());
    assert_eq!(snap_a, snap_b, "two identical runs must produce identical metrics");
    assert_eq!(a.cost().span_tree(), b.cost().span_tree());
    assert_eq!(a.events().emitted(), b.events().emitted());
}

#[test]
fn query_is_observed_with_events_and_counters() {
    let db = run_epoch(Method::HybridHash);
    assert_eq!(db.metrics().counter("db.queries"), 1);
    assert_eq!(db.metrics().counter("db.mutations"), spec().generate().updates_per_epoch());
    assert_eq!(db.events().count_of(EventKind::QueryStart), 1);
    assert_eq!(db.events().count_of(EventKind::QueryEnd), 1);
    let events = db.events().events();
    let end = events.iter().find(|e| e.kind == EventKind::QueryEnd).unwrap();
    assert!(end.detail.contains("strategy=hybrid-hash"), "{:?}", end.detail);
    // The end event's timestamp prices the whole run so far.
    assert_eq!(end.at, db.cost().total());
}

/// Bit-distance between two f64s ("within 1 ULP" made literal).
fn ulp_distance(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

#[test]
fn fig5_categories_sum_to_the_grand_total_within_one_ulp() {
    for method in Method::all() {
        let db = run_epoch(method);
        let b = Fig5Breakdown::measure(method, db.cost());
        // Integer op counts partition exactly.
        let mut sum = b.white;
        sum.add(&b.dark);
        assert_eq!(sum, b.total, "{method:?} white+dark must equal the ledger total exactly");
        assert!(b.white.ios > 0, "{method:?} measured no white I/O");
        // Hybrid hash reads the epoch's updates through `R`'s apply log,
        // still in memory: its dark work is CPU alone.
        assert!(b.dark_secs(db.params()) > 0.0, "{method:?} measured no dark work");
        assert_eq!(b.dark.ios > 0, method != Method::HybridHash, "{method:?} dark I/O");
        // Priced in simulated seconds the split stays within 1 ULP.
        let p = db.params();
        let total = b.total.time_secs(p);
        let parts = b.white_secs(p) + b.dark_secs(p);
        assert!(
            ulp_distance(total, parts) <= 1,
            "{method:?}: {total} vs {parts} differ by {} ULP",
            ulp_distance(total, parts)
        );
    }
}
