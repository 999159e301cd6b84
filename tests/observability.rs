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

/// The metrics registry scales with live files, not with every file ever
/// created: 200 view cycles, each sealing its differential into run files
/// the query then deletes, leave the counter slots and the telemetry
/// baseline where the second cycle left them, while the disk totals keep
/// every I/O.
#[test]
fn registry_bound_holds_over_view_cycles() {
    use trijoin_common::{Telemetry, TelemetryConfig};
    let spec = WorkloadSpec { r_tuples: 1_000, s_tuples: 1_000, ..spec() };
    let gen = spec.generate();
    let mut db = Database::new(&params(), gen.r.clone(), gen.s.clone()).unwrap();
    let mut mv = db.materialized_view().unwrap();
    db.reset_observability();
    db.enable_telemetry(TelemetryConfig::default());
    // A second sampler over the engine's registry, closing a window a
    // cycle, exposes the baseline the engine's own sampler keeps.
    let tel = Telemetry::new(TelemetryConfig { window_ticks: 1, ..Default::default() }, "t", "ops");
    let m = db.metrics().clone();
    tel.tick(0, &m);
    let mut stream = gen.update_stream();
    let mut sizes = Vec::new();
    for cycle in 1..=200 {
        for _ in 0..gen.updates_per_epoch() {
            let u = stream.next_update();
            mv.on_update(&u).unwrap();
            db.apply_r_update(&u).unwrap();
        }
        db.query(&mut mv).unwrap();
        db.settle().unwrap();
        let report = db.run_report("cycle");
        let live = report.metrics.gauge("disk.live_files").unwrap();
        let named = report.metrics.counters.iter().filter(|(k, _)| k.starts_with("disk.write.f"));
        assert!(named.count() as f64 <= live, "per-file counters of deleted files");
        tel.tick(cycle, &m);
        sizes.push((m.counter_slots(), tel.baseline_slots()));
    }
    assert!(sizes[1..].iter().all(|&s| s == sizes[1]), "the registry grew: {sizes:?}");
    let slots = sizes[1].0;
    assert!(slots < 64, "{slots} counter slots for a handful of live files");
    // The disk totals are the ledger's I/O, the same counts as when every
    // file's counters outlived it (and 402 files had a write counter).
    assert_eq!(m.counter("disk.reads") + m.counter("disk.writes"), db.cost().total().ios);
    assert_eq!((m.counter("disk.reads"), m.counter("disk.writes")), (15_162, 10_267));

    // A window straddling a slot reuse reports the new file's writes
    // exactly, and an I/O on a deleted file touches no counter.
    let disk = db.disk();
    let page = vec![3u8; disk.page_size()];
    let old = disk.create_file();
    for _ in 0..5 {
        let pid = disk.append_page(old, &page).unwrap();
        disk.read_page(pid).unwrap();
    }
    tel.tick(201, &m);
    disk.delete_file(old);
    let (before, ios) = (m.snapshot(), db.cost().total().ios);
    assert!(disk.read_page(trijoin_storage::PageId::new(old, 0)).is_err());
    assert_eq!((m.snapshot(), db.cost().total().ios), (before, ios));
    let new = disk.create_file();
    for _ in 0..3 {
        disk.append_page(new, &page).unwrap();
    }
    assert_eq!(m.counter_slots(), slots, "the new file took the freed slots");
    tel.tick(202, &m);
    let series = tel.series();
    let window = series.windows.last().unwrap();
    let delta = |name: &str| window.counters.iter().find(|(k, _)| k == name).map(|c| c.1);
    assert_eq!(delta(&format!("disk.write.f{}", new.0)), Some(3));
    assert_eq!(delta("disk.writes"), Some(3));
    assert_eq!(delta(&format!("disk.read.f{}", new.0)), None);
    assert!(tel.baseline_slots() <= slots, "the baseline outgrew the registry");
}

/// Bit-distance between two f64s ("within 1 ULP" made literal).
fn ulp_distance(a: f64, b: f64) -> u64 {
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

#[test]
fn fig5_categories_sum_to_the_grand_total_within_one_ulp() {
    for method in Method::all() {
        let db = run_epoch(method);
        let b = Fig5Breakdown::measure(method, db.cost(), db.cost().total());
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
