//! Telemetry and cost-audit integration tests: the predicted-vs-actual
//! audit must vouch for the stock analytical model on the committed
//! corpus (no `CostDrift` events at calibration 1.0) while a deliberately
//! miscalibrated model parameter trips the detector immediately — the
//! pair of properties that makes the drift hook trustworthy as a
//! regression tripwire rather than a noise source.

use std::path::PathBuf;

use trijoin::{measure_workload, Database, JoinStrategy, Method, SystemParams, WorkloadSpec};
use trijoin_check::{generate, run_script, CheckConfig, GenConfig};
use trijoin_common::{EventKind, Script, TelemetryConfig};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn corpus_scripts() -> Vec<Script> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).expect("corpus file is readable");
            Script::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        })
        .collect()
}

/// The stock model, audited at calibration 1.0 over every corpus script,
/// stays inside the drift threshold: zero `CostDrift` events. If this
/// fires, either the model or a strategy implementation changed cost
/// shape — exactly the regression the audit exists to catch.
#[test]
fn stock_model_stays_under_drift_threshold_on_the_corpus() {
    let cfg = CheckConfig::default();
    assert_eq!(cfg.audit_calibration, 1.0, "default audits the stock model");
    for script in corpus_scripts() {
        let outcome = run_script(&script, &cfg).unwrap_or_else(|f| panic!("{}: {f}", script.name));
        assert_eq!(
            outcome.cost_drift_events, 0,
            "{}: stock model drifted past the threshold",
            script.name
        );
    }
}

/// A model miscalibrated by 2^12 (predictions scaled 4096×) must raise
/// `CostDrift` on the same traffic the stock model passes: the detector
/// has teeth, and the threshold separates the two regimes cleanly.
#[test]
fn miscalibrated_model_raises_cost_drift() {
    let script = generate(&GenConfig::new(21, 60));
    let stock = CheckConfig::default();
    let skewed = CheckConfig { audit_calibration: 4096.0, ..CheckConfig::default() };

    let clean = run_script(&script, &stock).expect("script replays clean");
    assert_eq!(clean.cost_drift_events, 0, "stock model must not drift");

    let drifted = run_script(&script, &skewed).expect("miscalibration changes no answers");
    assert!(drifted.cost_drift_events > 0, "4096x miscalibration must trip the drift detector");
    // Everything except the audit verdict is untouched: the audit is an
    // observer, never a participant.
    assert_eq!(clean.checkpoints, drifted.checkpoints);
    assert_eq!(clean.applied, drifted.applied);
}

/// Engine-level audit anatomy: every query cycle of every paper strategy
/// records a predicted-vs-actual pair under `cycle.<strategy>`, every
/// settle of the base relations records one under `apply`, and the drift
/// events carry the offending section. A stand-alone engine (no check harness) exercises the same
/// hooks the serve shards use.
#[test]
fn every_cycle_and_apply_is_audited() {
    let params = SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 300,
        s_tuples: 200,
        tuple_bytes: 48,
        sr: 0.2,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.1,
        seed: 17,
    };
    let w = spec.generate();
    let mut db = Database::new(&params, w.r.clone(), w.s.clone()).unwrap();
    db.enable_telemetry(TelemetryConfig::default());
    db.enable_cost_audit(measure_workload(&w.r, &w.s, 0.1, 0.0), 1.0);

    let mut mv = db.materialized_view().unwrap();
    let mut ji = db.join_index().unwrap();
    let mut hh = db.hybrid_hash();
    let mut updates = w.update_stream();
    for round in 0..3 {
        for _ in 0..5 {
            let u = updates.next_update();
            mv.on_update(&u).unwrap();
            ji.on_update(&u).unwrap();
            hh.on_update(&u).unwrap();
            db.apply_r_update(&u).unwrap();
        }
        db.query(&mut mv).unwrap();
        db.query(&mut ji).unwrap();
        db.query(&mut hh).unwrap();
        let _ = round;
    }

    let report = db.run_report("audited");
    assert_eq!(report.series.len(), 1, "engine telemetry serializes one series");
    let series = &report.series[0];
    assert_eq!(series.name, "engine");
    assert_eq!(series.domain, "ops");

    for method in Method::all() {
        let section = format!("cycle.{}", method.label());
        let entry = series
            .audit_section(&section)
            .unwrap_or_else(|| panic!("missing audit section {section}"));
        assert_eq!(entry.samples, 3, "{section}: one audit record per query cycle");
        assert!(entry.predicted_us > 0.0, "{section}: model predicted a positive cost");
        assert!(entry.actual_us > 0.0, "{section}: ledger charged a positive cost");
    }
    // Five updates queue up per round; no query settles them — the view's
    // never reads `R`, the join index and hybrid hash read them through the
    // log's buffer — and the report settles all fifteen in one sweep.
    let apply = series.audit_section("apply").expect("apply section present");
    assert_eq!(apply.samples, 1, "one audit record per settle");
    assert_eq!(report.metrics.counter("base.settle.ops"), 15);
    assert_eq!(report.metrics.counter("base.read_through.reads"), 6);
    assert!(apply.predicted_us > 0.0 && apply.actual_us > 0.0);

    // Stock calibration stays quiet on this workload.
    assert!(
        !report.events.iter().any(|e| e.kind == EventKind::CostDrift),
        "stock model must not raise CostDrift here"
    );

    // The audit never charges the simulated ledger: a twin run without
    // telemetry produces the identical cost totals.
    let mut twin = Database::new(&params, w.r.clone(), w.s.clone()).unwrap();
    let mut mv2 = twin.materialized_view().unwrap();
    let mut ji2 = twin.join_index().unwrap();
    let mut hh2 = twin.hybrid_hash();
    let mut updates2 = w.update_stream();
    for _ in 0..3 {
        for _ in 0..5 {
            let u = updates2.next_update();
            mv2.on_update(&u).unwrap();
            ji2.on_update(&u).unwrap();
            hh2.on_update(&u).unwrap();
            twin.apply_r_update(&u).unwrap();
        }
        twin.query(&mut mv2).unwrap();
        twin.query(&mut ji2).unwrap();
        twin.query(&mut hh2).unwrap();
    }
    let quiet = twin.run_report("quiet");
    assert_eq!(quiet.totals, report.totals, "telemetry must charge nothing to the ledger");
    assert!(quiet.series.is_empty(), "telemetry is strictly opt-in");
}

/// The `apply` section is priced with the model it belongs to: a settle is
/// a scheduled access to the clustered tree, every distinct leaf read and
/// written and every distinct internal page read,
/// `[2·Yao(k,m,n) + Yao(Yao(k,m,n), m/FO, m)]·IO` (`model::sweep_cost`),
/// with `k` the distinct surrogates the sweep nets. On uniform updates the
/// ledger stays within 1.25× of that, settle after settle, whether the log
/// stayed in memory or spilled, whether it held one epoch or — under a
/// view's queries, which never read `R` — five, and nothing drifts.
#[test]
fn apply_section_tracks_the_scheduled_access_model() {
    let params = SystemParams { mem_pages: 80, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 4_000,
        s_tuples: 2_000,
        tuple_bytes: 200,
        sr: 0.01,
        group_size: 5,
        pra: 0.1,
        update_rate: 0.06,
        seed: 91,
    };
    let w = spec.generate();
    for updates in [40usize, 240, 700] {
        let mut db = Database::new(&params, w.r.clone(), w.s.clone()).unwrap();
        db.enable_telemetry(TelemetryConfig::default());
        db.enable_cost_audit(measure_workload(&w.r, &w.s, 0.06, 0.1), 1.0);
        let mut hh = db.hybrid_hash();
        let mut stream = w.update_stream();
        for _ in 0..3 {
            for _ in 0..updates {
                db.apply_r_update(&stream.next_update()).unwrap();
            }
            // Hybrid hash reads the log through; the sweep is asked for.
            db.query(&mut hh).unwrap();
            db.settle().unwrap();
        }
        let report = db.run_report("apply-audit");
        let apply = report.series[0].audit_section("apply").expect("apply section present");
        assert_eq!(apply.samples, 3);
        let ratio = apply.actual_us / apply.predicted_us;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "{updates} updates a settle: ledger {} µs, model {} µs, ratio {ratio:.3}",
            apply.actual_us,
            apply.predicted_us
        );
        assert!(!report.events.iter().any(|e| e.kind == EventKind::CostDrift));
        // 700 updates outgrow the 16-page buffer (19 records a page).
        let spilled = report.metrics.counter("base.apply_log.runs") > 0;
        assert_eq!(spilled, updates > 16 * 19, "{updates} updates");
    }

    // Five epochs a settle: 3 600 operations on 4 000 tuples repeat
    // surrogates, and the sweep — and its price — follow the distinct ones.
    let mut db = Database::new(&params, w.r.clone(), w.s.clone()).unwrap();
    db.enable_telemetry(TelemetryConfig::default());
    db.enable_cost_audit(measure_workload(&w.r, &w.s, 0.06, 0.1), 1.0);
    let mut mv = db.materialized_view().unwrap();
    let mut stream = w.update_stream();
    let mut ops = 0;
    for _ in 0..3 {
        for _ in 0..5 {
            for _ in 0..240 {
                let u = stream.next_update();
                mv.on_update(&u).unwrap();
                db.apply_r_update(&u).unwrap();
            }
            db.query(&mut mv).unwrap();
        }
        ops += 1_200;
        assert_eq!(db.r().pending_ops(), 1_200, "five view queries settled nothing");
        db.settle().unwrap();
        assert_eq!(db.metrics().counter("base.settle.ops"), ops);
    }
    let report = db.run_report("apply-audit-epochs");
    let apply = report.series[0].audit_section("apply").expect("apply section present");
    assert_eq!((apply.samples, report.metrics.counter("base.settles")), (3, 3));
    let ratio = apply.actual_us / apply.predicted_us;
    assert!((0.8..=1.25).contains(&ratio), "five epochs a settle: ratio {ratio:.3}");
    assert!(!report.events.iter().any(|e| e.kind == EventKind::CostDrift));
}

/// The drift events a miscalibrated engine emits are typed and carry the
/// offending section in their detail line.
#[test]
fn drift_events_name_the_offending_section() {
    let params = SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() };
    let spec = WorkloadSpec {
        r_tuples: 200,
        s_tuples: 150,
        tuple_bytes: 48,
        sr: 0.2,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.1,
        seed: 29,
    };
    let w = spec.generate();
    let db = Database::new(&params, w.r.clone(), w.s.clone()).unwrap();
    db.enable_telemetry(TelemetryConfig::default());
    db.enable_cost_audit(measure_workload(&w.r, &w.s, 0.1, 0.0), 4096.0);

    let mut hh = db.hybrid_hash();
    for _ in 0..4 {
        db.query(&mut hh).unwrap();
    }
    let report = db.run_report("drifted");
    let drift: Vec<_> = report.events.iter().filter(|e| e.kind == EventKind::CostDrift).collect();
    assert!(!drift.is_empty(), "4096x miscalibration must raise CostDrift");
    for e in &drift {
        assert!(
            e.detail.contains("section=cycle.hybrid-hash"),
            "drift detail names the section: {}",
            e.detail
        );
        assert!(e.detail.contains("log2="), "drift detail carries the ratio: {}", e.detail);
    }
}
