//! Serving-subsystem integration tests: the sharded, multi-threaded
//! server must be *observationally identical* to a single-engine oracle.
//!
//! The load-bearing invariants:
//!
//! - **Oracle equivalence.** For any shard count and any interleaving of
//!   client submissions, the merged answer at a batch boundary is
//!   tuple-identical to a single engine's join over the same logical
//!   state (hash-partitioning on the join attribute makes shard joins
//!   exhaustive and disjoint; disjoint client ownership makes the final
//!   state interleaving-independent).
//! - **Exact rollup.** Every non-`serve.` metric in the server rollup is
//!   the exact sum of the per-shard metrics, and the rollup totals are
//!   the sum of the shard cost totals.
//! - **Degraded, not dead.** A device-fault plan on one shard leaves the
//!   server answering correctly (the shard recovers through the
//!   strategies' documented recovery paths) and the recovery shows up,
//!   shard-tagged, in the rolled-up event log.

use trijoin::{AdaptiveController, CachedStrategy, Database, Method, MigrationState, WorkloadSpec};
use trijoin_common::{BaseTuple, EventKind, SystemParams, ViewTuple};
use trijoin_exec::relation::apply_log_floor_pages;
use trijoin_exec::{oracle, Mutation};
use trijoin_serve::{merged_current, ClientTraffic, ServeConfig, Server};
use trijoin_storage::FaultPlan;

fn params() -> SystemParams {
    SystemParams { page_size: 512, mem_pages: 24, ..SystemParams::paper_defaults() }
}

fn config(shards: usize, batch: usize) -> ServeConfig {
    ServeConfig { batch, seed: 7, ..ServeConfig::new(params(), shards) }
}

fn spec(pra: f64) -> WorkloadSpec {
    WorkloadSpec {
        r_tuples: 400,
        s_tuples: 300,
        tuple_bytes: 48,
        sr: 0.15,
        group_size: 5,
        pra,
        update_rate: 0.1,
        seed: 5,
    }
}

/// The ground-truth join of the clients' merged mirror against `s`.
fn oracle_answer(clients: &[ClientTraffic], s: &[BaseTuple]) -> Vec<ViewTuple> {
    oracle::canonicalize(oracle::join_tuples(&merged_current(clients), s))
}

#[test]
fn any_shard_count_matches_the_single_database_oracle() {
    let w = spec(0.3).generate();
    let mut per_shards: Vec<Vec<ViewTuple>> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let cfg = config(shards, 16);
        let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
        let session = server.session().unwrap();
        let mut clients = ClientTraffic::split(&w, &cfg, 3);
        // Interleave the clients' submissions round-robin.
        for _ in 0..20 {
            for c in clients.iter_mut() {
                session.update_r(c.next_mutation()).unwrap();
            }
        }
        let want = oracle_answer(&clients, &w.s);
        for method in Method::all() {
            let got = session.query(method).unwrap();
            assert_eq!(got, want, "{shards} shards, {method}: diverged from oracle");
        }
        per_shards.push(want);
    }
    // Every shard count produced the same answer for the same traffic.
    for answer in &per_shards[1..] {
        assert_eq!(answer, &per_shards[0], "answers must not depend on the shard count");
    }
}

#[test]
fn client_interleaving_does_not_change_the_answer() {
    let w = spec(0.3).generate();
    let cfg = config(4, 8);

    // Run A: strict round-robin across clients.
    let server_a = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session_a = server_a.session().unwrap();
    let mut clients_a = ClientTraffic::split(&w, &cfg, 4);
    for _ in 0..15 {
        for c in clients_a.iter_mut() {
            session_a.update_r(c.next_mutation()).unwrap();
        }
    }

    // Run B: the same per-client streams, submitted client-by-client.
    let server_b = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session_b = server_b.session().unwrap();
    let mut clients_b = ClientTraffic::split(&w, &cfg, 4);
    for c in clients_b.iter_mut() {
        for _ in 0..15 {
            session_b.update_r(c.next_mutation()).unwrap();
        }
    }

    let a = session_a.query(Method::MaterializedView).unwrap();
    let b = session_b.query(Method::MaterializedView).unwrap();
    assert_eq!(a, b, "disjoint client ownership makes order irrelevant");
    assert_eq!(a, oracle_answer(&clients_a, &w.s));
}

#[test]
fn shard_metrics_and_totals_sum_to_the_rollup() {
    let w = spec(0.3).generate();
    let cfg = config(4, 8);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    for _ in 0..30 {
        for c in clients.iter_mut() {
            session.update_r(c.next_mutation()).unwrap();
        }
    }
    for method in Method::all() {
        session.query(method).unwrap();
    }
    let report = session.report().unwrap();
    assert_eq!(report.shards.len(), 4);

    // Every counter that appears in any shard sums exactly to the rollup.
    let mut counter_keys: Vec<&str> = report
        .shards
        .iter()
        .flat_map(|s| s.metrics.counters.iter().map(|(k, _)| k.as_str()))
        .collect();
    counter_keys.sort_unstable();
    counter_keys.dedup();
    assert!(!counter_keys.is_empty());
    for key in counter_keys {
        assert!(!key.starts_with("serve."), "shards must not use the scheduler namespace");
        let sum: u64 = report.shards.iter().map(|s| s.metrics.counter(key)).sum();
        assert_eq!(report.rollup.metrics.counter(key), sum, "counter {key} must sum exactly");
    }
    // Each shard ran every query the server ran.
    assert_eq!(report.rollup.metrics.counter("db.queries"), 4 * 3);
    assert_eq!(report.rollup.metrics.counter("serve.queries"), 3);

    // Cost totals aggregate the same way.
    let mut want_ios = 0;
    let mut want_comps = 0;
    for shard in &report.shards {
        want_ios += shard.totals.ios;
        want_comps += shard.totals.comps;
    }
    assert_eq!(report.rollup.totals.ios, want_ios);
    assert_eq!(report.rollup.totals.comps, want_comps);
    assert!(want_ios > 0, "the run must have charged simulated I/O");
}

#[test]
fn fault_on_one_shard_degrades_and_recovers() {
    let w = spec(0.3).generate();
    let cfg = config(4, 8);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    for _ in 0..10 {
        for c in clients.iter_mut() {
            session.update_r(c.next_mutation()).unwrap();
        }
    }
    // Drain pending updates, then damage shard 0 mid-run: poison its
    // cached view, forcing the next materialized-view query through the
    // `mv.recover` path. (Installing a plan replaces any active plan, so
    // the scoped poison is the whole schedule here.)
    session.flush().unwrap();
    session.poison_cached_view(0).unwrap();

    // The server stays available and the answer is still exact: the shard
    // recovers through the strategy's own recovery path.
    let want = oracle_answer(&clients, &w.s);
    let got = session.query(Method::MaterializedView).unwrap();
    assert_eq!(got, want, "the faulted shard must recover, not corrupt the answer");

    let report = session.report().unwrap();
    assert!(report.shards[0].metrics.gauge("shard.faults_fired").unwrap() >= 1.0);
    assert_eq!(report.shards[0].metrics.counter("mv.recoveries"), 1);
    for other in &report.shards[1..] {
        assert_eq!(other.metrics.gauge("shard.faults_fired"), Some(0.0));
    }
    // The recovery is visible, shard-tagged, in the rolled-up event log.
    let fault_events: Vec<_> = report
        .rollup
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FaultFired || e.kind == EventKind::RecoveryTriggered)
        .collect();
    assert!(
        fault_events.iter().any(|e| e.kind == EventKind::FaultFired),
        "the fault must appear in the rollup"
    );
    assert!(
        fault_events.iter().any(|e| e.kind == EventKind::RecoveryTriggered),
        "the recovery must appear in the rollup"
    );
    for e in &fault_events {
        assert!(e.detail.starts_with("shard0: "), "events must be shard-tagged: {}", e.detail);
    }

    // A generic client-supplied plan degrades gracefully too: a transient
    // read fault on another shard is absorbed by a retry path.
    session.install_fault_plan(2, FaultPlan::new().fail_nth_read(None, 0)).unwrap();
    assert_eq!(session.query(Method::HybridHash).unwrap(), want, "retry must absorb the fault");

    // Healed shards serve clean queries on every strategy.
    session.clear_faults(0).unwrap();
    session.clear_faults(2).unwrap();
    for method in Method::all() {
        assert_eq!(session.query(method).unwrap(), want);
    }
}

#[test]
fn attribute_changing_updates_route_across_shards() {
    // Pr_A = 1: every update changes the join attribute, so many move
    // their tuple between shards and must split into delete + insert.
    let w = spec(1.0).generate();
    let cfg = config(4, 8);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    for _ in 0..40 {
        for c in clients.iter_mut() {
            session.update_r(c.next_mutation()).unwrap();
        }
    }
    let want = oracle_answer(&clients, &w.s);
    for method in Method::all() {
        assert_eq!(session.query(method).unwrap(), want, "{method} diverged");
    }
    let report = session.report().unwrap();
    assert!(
        report.rollup.metrics.counter("serve.updates.cross_shard") > 0,
        "Pr_A = 1 traffic must exercise the cross-shard split path"
    );
}

#[test]
fn s_mutations_fold_into_cached_state_everywhere() {
    let w = spec(0.3).generate();
    let cfg = config(2, 4);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    // Warm the caches, then delete two S tuples through the server.
    session.query(Method::MaterializedView).unwrap();
    session.query(Method::JoinIndex).unwrap();
    let builds = session.report().unwrap().rollup.metrics.counter("shard.builds");
    let mut s_now = w.s.clone();
    for _ in 0..2 {
        let victim = s_now.remove(3);
        session.update_s(Mutation::Delete(victim)).unwrap();
    }
    let want = oracle::canonicalize(oracle::join_tuples(&w.r, &s_now));
    for method in Method::all() {
        assert_eq!(session.query(method).unwrap(), want, "{method} served a stale S");
    }
    let report = session.report().unwrap();
    assert_eq!(report.rollup.metrics.counter("shard.builds"), builds, "S forced a rebuild");
    assert_eq!(report.rollup.metrics.counter("shard.s_mutations"), 2);
}

#[test]
fn updates_coalesce_into_differential_batches() {
    // Pr_A = 0 traffic is payload-only: one routed mutation per update,
    // so the batch accounting is exact.
    let w = spec(0.0).generate();
    let cfg = config(2, 8);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 1);
    for _ in 0..20 {
        session.update_r(clients[0].next_mutation()).unwrap();
    }
    let report = session.report().unwrap();
    // 20 updates at batch size 8: two full batches + the report's flush.
    assert_eq!(report.rollup.metrics.counter("serve.updates.r"), 20);
    assert_eq!(report.rollup.metrics.counter("serve.batches"), 3);
    let hist = report.rollup.metrics.histogram("serve.batch.len").unwrap();
    assert_eq!(hist.count, 3);
    assert_eq!(hist.sum, 20);
    assert_eq!(hist.max, 8);
}

// ---------------------------------------------------------------------
// Adaptive serving: per-shard online strategy migration. The contract is
// the pinned path's, plus: migrations are incremental, never change an
// answer, and roll back cleanly when a device fault lands mid-flight.
// ---------------------------------------------------------------------

/// Update-heavy workload that reliably pulls a shard off its initial
/// materialized view (same shape the adaptive unit tests pin).
fn adaptive_spec(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        r_tuples: 1_500,
        s_tuples: 1_500,
        tuple_bytes: 96,
        sr: 0.01,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.3,
        seed,
    }
}

#[test]
fn adaptive_server_migrates_and_stays_oracle_equivalent() {
    let w = adaptive_spec(31).generate();
    let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
    let cfg = ServeConfig { batch: 32, seed: 7, adaptive: true, ..ServeConfig::new(params, 2) };
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    for round in 0..6 {
        for _ in 0..w.updates_per_epoch() / 2 {
            for c in clients.iter_mut() {
                session.update_r(c.next_mutation()).unwrap();
            }
        }
        let want = oracle_answer(&clients, &w.s);
        // The requested method is advisory under --adaptive; whatever the
        // shards currently hold must produce the oracle's rows.
        let got = session.query(Method::HybridHash).unwrap();
        assert_eq!(got, want, "round {round}: adaptive answer diverged mid-migration");
    }
    // A device fault on a shard mid-run: still available, still exact.
    session.install_fault_plan(0, FaultPlan::new().fail_nth_read(None, 0)).unwrap();
    let want = oracle_answer(&clients, &w.s);
    assert_eq!(session.query(Method::MaterializedView).unwrap(), want);
    session.clear_faults(0).unwrap();

    let report = session.report().unwrap();
    let m = &report.rollup.metrics;
    assert_eq!(m.gauge("serve.adaptive"), Some(1.0));
    assert!(m.counter("migrate.count") >= 1, "no shard migrated under an update storm");
    assert!(
        report.shards.iter().any(|s| s.metrics.gauge("shard.strategy").unwrap_or(0.0) != 0.0),
        "at least one shard must have left the initial materialized view"
    );
    for shard in &report.shards {
        assert!(shard.metrics.gauge("shard.migration_state").is_some());
    }
    // The incremental contract at the serving layer: across all completed
    // migrations, pages written for target structures stay under one
    // base-relation pass per migration.
    let ps = cfg.params.page_size as u64;
    let page_bound = |tuples: u64| (tuples * 96).div_ceil(ps);
    let full_rebuild = page_bound(w.r.len() as u64) + page_bound(w.s.len() as u64);
    let rebuilt = m.counter("migrate.rebuild_pages");
    assert!(
        rebuilt < m.counter("migrate.count") * full_rebuild,
        "{rebuilt} pages rebuilt over {} migrations vs {full_rebuild} pages per base rescan",
        m.counter("migrate.count")
    );
    // Migration activity is visible in the rolled-up event log.
    assert!(report.rollup.events.iter().any(|e| e.kind == EventKind::MigrationStep));
    assert!(report.rollup.events.iter().any(|e| e.kind == EventKind::StrategySwitch));
}

/// Direct harness over one shard's controller, so faults can be armed at
/// an exact [`MigrationState`] phase.
struct PhaseHarness {
    db: Database,
    shard: AdaptiveController,
    gen: trijoin::GeneratedWorkload,
}

impl PhaseHarness {
    fn new(seed: u64) -> (PhaseHarness, trijoin::UpdateStream) {
        let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
        let gen = adaptive_spec(seed).generate();
        let db = Database::new(&params, gen.r.clone(), gen.s.clone()).unwrap();
        let initial = CachedStrategy::Mv(db.materialized_view().unwrap());
        let shard = AdaptiveController::new(db.disk(), db.params(), db.cost(), initial);
        db.reset_observability();
        shard.register_metrics();
        let stream = gen.update_stream();
        (PhaseHarness { db, shard, gen }, stream)
    }

    fn apply(&mut self, m: &Mutation) {
        self.shard.on_mutation(m).unwrap();
        self.db.apply_r_mutation(m).unwrap();
    }

    fn query(&mut self, stream: &trijoin::UpdateStream) -> Vec<ViewTuple> {
        let mut rows = self.db.query(self.shard.strategy()).unwrap();
        rows.sort_by_key(|t| (t.r_sur, t.s_sur));
        let want = oracle::join_tuples(stream.current(), &self.gen.s);
        oracle::assert_same_join("phase harness", rows.clone(), want);
        self.shard.after_query(self.db.r(), self.db.s(), &rows);
        rows
    }

    /// Run whole epochs (mutations, then an oracle-checked query) until a
    /// migration starts; the controller is left in `Building` because no
    /// advance step has run yet.
    fn walk_to_building(&mut self, stream: &mut trijoin::UpdateStream) {
        for _ in 0..6 {
            for _ in 0..self.gen.updates_per_epoch() {
                let m = Mutation::Update(stream.next_update());
                self.apply(&m);
            }
            self.query(stream);
            if matches!(self.shard.state(), MigrationState::Building { .. }) {
                return;
            }
        }
        panic!("the update storm never started a migration");
    }
}

#[test]
fn write_fault_while_building_rolls_back_to_the_incumbent() {
    let (mut h, mut stream) = PhaseHarness::new(811);
    h.walk_to_building(&mut stream);
    let incumbent = h.shard.current_method();

    // Arm the fault now: staging chunks are in-memory, so the first write
    // the migration issues is the target structure's build — it must fail,
    // and the failure must roll the migration back, not poison the shard.
    h.db.install_fault_plan(FaultPlan::new().fail_nth_write(None, 0));
    for _ in 0..64 {
        h.shard.advance();
        if matches!(h.shard.state(), MigrationState::Stable) {
            break;
        }
    }
    assert!(matches!(h.shard.state(), MigrationState::Stable), "rollback must reach Stable");
    assert_eq!(h.db.metrics().counter("migrate.rollbacks"), 1, "the abort must be counted");
    assert_eq!(h.db.metrics().counter("migrate.count"), 0, "no migration completed");
    assert_eq!(h.shard.current_method(), incumbent, "the incumbent must keep serving");
    h.db.clear_faults();

    // The incumbent is undamaged and the controller retries: driving the
    // same traffic on must eventually complete a migration, oracle-green.
    for _ in 0..6 {
        for _ in 0..h.gen.updates_per_epoch() {
            let m = Mutation::Update(stream.next_update());
            h.apply(&m);
        }
        h.query(&stream);
        for _ in 0..64 {
            h.shard.advance();
        }
        if h.db.metrics().counter("migrate.count") >= 1 {
            break;
        }
    }
    assert_eq!(
        h.db.metrics().counter("migrate.count"),
        1,
        "the controller must retry after a rollback"
    );
    h.query(&stream);
}

#[test]
fn abort_while_draining_destroys_the_built_target_and_keeps_the_incumbent() {
    let (mut h, mut stream) = PhaseHarness::new(812);
    h.walk_to_building(&mut stream);
    let incumbent = h.shard.current_method();

    // Advance cleanly through Building until the target is fully built and
    // the controller sits in Draining — the phase where a rollback has a
    // real structure to tear down, not just staged rows.
    for _ in 0..64 {
        h.shard.advance();
        if matches!(h.shard.state(), MigrationState::Draining { .. }) {
            break;
        }
    }
    assert!(matches!(h.shard.state(), MigrationState::Draining { .. }), "never reached Draining");

    // Mutations arriving now go to the incumbent and the pending log.
    for _ in 0..48 {
        let m = Mutation::Update(stream.next_update());
        h.apply(&m);
    }
    // A write fault lands in the drain: a tuple inserted and deleted again
    // often enough that replaying the pair fills the target's buffers, so
    // the drain must spill. The migration must abort, destroying the
    // built-but-never-serving target, and the incumbent (plus its pending
    // differential) keeps answering exactly.
    let ghost = BaseTuple::padded(trijoin_common::Surrogate(9_000_000), 1, 96);
    for _ in 0..1_300 {
        h.apply(&Mutation::Insert(ghost.clone()));
        h.apply(&Mutation::Delete(ghost.clone()));
    }
    h.db.install_fault_plan(FaultPlan::new().fail_nth_write(None, 0));
    h.shard.advance();
    h.db.clear_faults();
    assert!(matches!(h.shard.state(), MigrationState::Stable), "drain abort must roll back");
    assert_eq!(h.db.metrics().counter("migrate.rollbacks"), 1);
    assert_eq!(h.db.metrics().counter("migrate.count"), 0);
    assert_eq!(h.shard.current_method(), incumbent);
    h.query(&stream);
}

#[test]
fn serving_runs_are_bit_identical() {
    use trijoin_serve::server::VOLATILE_METRICS;
    let run = || {
        let w = spec(0.3).generate();
        let cfg = config(4, 8);
        let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
        let session = server.session().unwrap();
        let mut clients = ClientTraffic::split(&w, &cfg, 3);
        for _ in 0..10 {
            for c in clients.iter_mut() {
                session.update_r(c.next_mutation()).unwrap();
            }
        }
        let rows = session.query(Method::JoinIndex).unwrap();
        let mut report = session.report().unwrap();
        // The ring's drain chunking and the latency percentiles are
        // wall-clock shaped — the server declares exactly which metrics
        // those are; everything else must be bit-identical. Assert the
        // volatile ones were present before scrubbing them out, so the
        // scrub can never silently mask a missing metric.
        let m = &mut report.rollup.metrics;
        for name in VOLATILE_METRICS {
            let present = m.counters.iter().any(|(k, _)| k == name)
                || m.gauges.iter().any(|(k, _)| k == name)
                || m.histograms.iter().any(|(k, _)| k == name);
            assert!(present, "volatile metric {name} missing from the rollup");
        }
        m.counters.retain(|(k, _)| !VOLATILE_METRICS.contains(&k.as_str()));
        m.gauges.retain(|(k, _)| !VOLATILE_METRICS.contains(&k.as_str()));
        m.histograms.retain(|(k, _)| !VOLATILE_METRICS.contains(&k.as_str()));
        // The scheduler's batch-domain series captures those same volatile
        // gauges and drain-shape histograms inside its windows, so it is
        // scrubbed the same way. The merged per-shard engine series sample
        // only simulated state and stay under the bit-identity pin.
        let series = &mut report.rollup.series;
        assert!(series.iter().any(|s| s.name == "serve"), "scheduler series missing");
        assert!(series.iter().any(|s| s.name == "engine"), "engine series missing");
        series.retain(|s| s.name != "serve");
        (rows, report.to_json().dump())
    };
    let (rows_a, report_a) = run();
    let (rows_b, report_b) = run();
    assert_eq!(rows_a, rows_b, "query answers must be bit-identical across reruns");
    assert_eq!(
        report_a, report_b,
        "serialized reports (volatile ring/latency metrics scrubbed) must be bit-identical"
    );
}

// ---------------------------------------------------------------------
// Demand-driven residency on pinned shards: a cached structure exists
// only while queries use it, so what a shard keeps on disk is bounded by
// what its queries read — not by how long it has been running.
// ---------------------------------------------------------------------

/// Submit `n` client mutations round-robin.
fn submit(session: &trijoin_serve::ClientSession, clients: &mut [ClientTraffic], n: usize) {
    for i in 0..n {
        let c = i % clients.len();
        session.update_r(clients[c].next_mutation()).unwrap();
    }
}

/// One gauge of every shard, in shard order.
fn shard_gauges(report: &trijoin_common::ShardedRunReport, name: &str) -> Vec<f64> {
    report.shards.iter().map(|s| s.metrics.gauge(name).unwrap()).collect()
}

#[test]
fn hh_only_soak_keeps_shard_disk_pages_flat() {
    // Payload-only updates (Pr_A = 0) change no tuple's shard and no page
    // count, so any growth would be differential logs nobody reads. |M| is
    // small enough that a log spills a run every ~110 updates.
    let w = spec(0.0).generate();
    let cfg = config(2, 16);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    submit(&session, &mut clients, 500);
    session.query(Method::HybridHash).unwrap();
    let warm = shard_gauges(&session.report().unwrap(), "shard.disk_pages");
    for _ in 0..20 {
        submit(&session, &mut clients, 1_000);
        assert_eq!(session.query(Method::HybridHash).unwrap(), oracle_answer(&clients, &w.s));
    }
    let report = session.report().unwrap();
    let end = shard_gauges(&report, "shard.disk_pages");
    for (shard, (warm, end)) in warm.iter().zip(&end).enumerate() {
        assert!(
            (end - warm).abs() <= 0.01 * warm,
            "shard {shard}: {warm} disk pages after warm-up, {end} after 20 000 more updates"
        );
    }
    assert_eq!(report.rollup.metrics.counter("shard.builds"), 0, "no query named MV or JI");
    assert_eq!(shard_gauges(&report, "shard.log_pages"), [0.0, 0.0]);
}

#[test]
fn churn_soak_gives_base_pages_back() {
    // `serve_wide`'s shape at smoke scale: updates : inserts : deletes =
    // 2 : 1 : 1, every insert on a fresh ascending surrogate, every
    // delete on a random survivor, one MV query per round. Each insert
    // takes over the join key of the tuple deleted before it and
    // key-changing updates swap keys in pairs, so every round ends with
    // the same keys on the same shards and the same answer size while
    // R's tuples turn over four times: whatever a shard holds beyond its
    // first round's pages is B⁺-tree space that deletes emptied and
    // nothing took back.
    use rand::Rng;
    use trijoin_common::Surrogate;
    let w = spec(0.3).generate();
    let cfg = config(2, 16);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut rng = trijoin_common::rng::seeded(17);
    let mut mirror = w.r.clone();
    let mut next_sur = w.r.iter().map(|t| t.sur.0).max().unwrap() + 1;
    let mut stamp = 0u64;
    let mut tuple = |sur: Surrogate, key: u64| {
        stamp += 1;
        BaseTuple::with_payload(sur, key, &stamp.to_le_bytes(), 48).unwrap()
    };
    let mut round0 = Vec::new();
    for round in 0..32 {
        for _ in 0..50 {
            let (a, b) = (rng.gen_range(0..mirror.len()), rng.gen_range(0..mirror.len()));
            let (key_a, key_b) = if rng.gen_bool(0.3) {
                (mirror[b].key, mirror[a].key) // swap: both tuples may change shard
            } else {
                (mirror[a].key, mirror[b].key) // payload only
            };
            for (at, key) in [(a, key_a), (b, key_b)] {
                let new = tuple(mirror[at].sur, key);
                let old = std::mem::replace(&mut mirror[at], new.clone());
                session.update_r(Mutation::Update(trijoin_exec::Update { old, new })).unwrap();
            }
            let gone = mirror.swap_remove(rng.gen_range(0..mirror.len()));
            let fresh = tuple(Surrogate(next_sur), gone.key);
            next_sur += 1;
            mirror.push(fresh.clone());
            session.update_r(Mutation::Delete(gone)).unwrap();
            session.update_r(Mutation::Insert(fresh)).unwrap();
        }
        let want = oracle::canonicalize(oracle::join_tuples(&mirror, &w.s));
        assert_eq!(session.query(Method::MaterializedView).unwrap(), want, "round {round}");
        if round == 0 {
            round0 = shard_gauges(&session.report().unwrap(), "shard.disk_pages");
        }
    }
    let report = session.report().unwrap();
    let end = shard_gauges(&report, "shard.disk_pages");
    for (shard, (round0, end)) in round0.iter().zip(&end).enumerate() {
        assert!(
            *end <= 1.5 * round0,
            "shard {shard}: {round0} disk pages after round 0, {end} after 32 rounds at the same ‖R‖"
        );
    }
    // The apply log is held to account apart from the trees. Those disk
    // pages were read off reports, which settle first: none of them is a
    // run of the log. In between the view's queries leave `R`'s log to
    // grow — it settles when it is full, not once a round — and its peak
    // stays within its own bound: buffer, runs, their fences and path,
    // never the trees'.
    for (shard, report) in report.shards.iter().enumerate() {
        let gauge = |name: &str| report.metrics.gauge(name).unwrap();
        assert_eq!(gauge("base.apply_log.pending"), 0.0, "shard {shard}");
        let height = gauge("base.tree_height") as usize;
        let floor = apply_log_floor_pages(height, report.params.page_size) as f64;
        let bound = report.metrics.gauge("base.apply_log.bound_pages").unwrap_or(floor);
        let peak = gauge("base.apply_log.peak_pages");
        assert!(peak > 16.0 && peak <= bound, "shard {shard}: {peak} log pages, bound {bound}");
        let settles = report.metrics.counter("base.settles");
        assert!(settles < 8, "shard {shard}: {settles} settles in 32 rounds of view queries");
    }
    let m = &report.rollup.metrics;
    assert!(m.counter("btree.merges") > 0 && m.counter("btree.pages_reused") > 0);
    // The occupancy rule of `report-validate` holds after the churn.
    trijoin_serve::validate::validate_report_json("soak", &report.to_json()).unwrap();
}

#[test]
fn idle_view_is_evicted_and_rebuilt_on_next_use() {
    let w = spec(0.3).generate();
    let cfg = config(2, 16);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    session.query(Method::MaterializedView).unwrap();
    assert_eq!(shard_gauges(&session.report().unwrap(), "shard.resident.mv"), [1.0, 1.0]);

    // Hybrid-hash traffic only: the view's log grows unread until it
    // outweighs the view, and each shard drops its view exactly once.
    let evictions = |session: &trijoin_serve::ClientSession| -> Vec<u64> {
        let report = session.report().unwrap();
        report.shards.iter().map(|s| s.metrics.counter("shard.evictions")).collect()
    };
    let mut rounds = 0;
    while evictions(&session).contains(&0) {
        rounds += 1;
        assert!(rounds <= 100, "idle views were never evicted: {:?}", evictions(&session));
        submit(&session, &mut clients, 100);
        session.query(Method::HybridHash).unwrap();
    }
    // A few more rounds: nothing is resident, so nothing more to evict.
    for _ in 0..5 {
        submit(&session, &mut clients, 100);
        session.query(Method::HybridHash).unwrap();
    }
    assert_eq!(evictions(&session), [1, 1]);
    let idle = session.report().unwrap();
    assert_eq!(shard_gauges(&idle, "shard.resident.mv"), [0.0, 0.0]);
    assert_eq!(shard_gauges(&idle, "shard.log_pages"), [0.0, 0.0]);

    let got = session.query(Method::MaterializedView).unwrap();
    assert_eq!(got, oracle_answer(&clients, &w.s), "the rebuilt view must be exact");
    let report = session.report().unwrap();
    for shard in &report.shards {
        assert_eq!(shard.metrics.counter("shard.builds"), 2, "{}: first use + rebuild", shard.name);
    }
    assert_eq!(shard_gauges(&report, "shard.resident.mv"), [1.0, 1.0]);
}

#[test]
fn first_use_build_under_a_transient_fault_is_retried() {
    // A build on first use runs under whatever fault plan is armed (the
    // eager start-up build never did): a transient fault landing in its
    // base-relation scan or in its page writes must cost a retry, not the
    // query. The retry starts a fresh file, so the half-written one must
    // not stay behind: the shard ends with the pages of a fault-free run.
    let w = spec(0.3).generate();
    let cfg = config(2, 8);
    let want = oracle::canonicalize(oracle::join_tuples(&w.r, &w.s));
    let plans: [Option<fn() -> FaultPlan>; 3] = [
        None,
        Some(|| FaultPlan::new().fail_nth_read(None, 1)),
        Some(|| FaultPlan::new().fail_nth_write(None, 1)),
    ];
    let mut disk_pages = Vec::new();
    for plan in plans {
        let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
        let session = server.session().unwrap();
        for method in [Method::JoinIndex, Method::MaterializedView] {
            if let Some(plan) = plan {
                session.install_fault_plan(1, plan()).unwrap();
            }
            assert_eq!(session.query(method).unwrap(), want, "{method}");
        }
        let report = session.report().unwrap();
        let shard = &report.shards[1].metrics;
        let fired = if plan.is_some() { 2.0 } else { 0.0 };
        assert_eq!(shard.gauge("shard.faults_fired"), Some(fired), "one fault per build");
        assert_eq!(shard.counter("shard.builds"), 2);
        assert_eq!(shard.counter("shard.build_errors"), 0);
        disk_pages.push(shard.gauge("shard.disk_pages").unwrap());
    }
    assert_eq!(disk_pages, [disk_pages[0]; 3], "a retried build leaked pages");
}

#[test]
fn poisoned_view_stays_resident_until_the_mv_query_reads_it() {
    // `PoisonCachedView` builds the view without a query. Update batches
    // that arrive before the MV query — enough of them for the view's log
    // to outgrow it — must not evict it: the armed poison would point at a
    // deleted file and the recovery the client asked to see would never
    // run. A join index that answered the last query is resident too, so
    // the exemption really moves.
    let w = spec(0.3).generate();
    let cfg = config(2, 16);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    session.query(Method::JoinIndex).unwrap();
    session.poison_cached_view(0).unwrap();
    submit(&session, &mut clients, 1_500);
    session.flush().unwrap();
    let before = session.report().unwrap();
    assert_eq!(before.shards[0].metrics.gauge("shard.resident.mv"), Some(1.0));
    assert!(
        before.shards[0].metrics.gauge("shard.log_pages").unwrap()
            > before.shards[0].metrics.gauge("shard.resident_pages").unwrap(),
        "the traffic was meant to spill the view's log past the view"
    );

    let got = session.query(Method::MaterializedView).unwrap();
    assert_eq!(got, oracle_answer(&clients, &w.s));
    let report = session.report().unwrap();
    assert_eq!(report.shards[0].metrics.counter("mv.recoveries"), 1);
    assert_eq!(report.shards[1].metrics.counter("mv.recoveries"), 0);
}

#[test]
fn interleaved_methods_match_the_one_shard_answer_at_any_shard_count() {
    // Rotate which method answers, with enough updates between queries
    // that structures get built, logged into, evicted and rebuilt along
    // the way: none of it may show in an answer.
    let w = spec(0.3).generate();
    let mut answers: Vec<Vec<Vec<ViewTuple>>> = Vec::new();
    let mut churn: Vec<(u64, u64)> = Vec::new();
    for shards in [1usize, 2, 4] {
        let cfg = config(shards, 16);
        let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
        let session = server.session().unwrap();
        // Client streams are seeded from the config's seed alone: the same
        // three streams whatever the shard count.
        let mut clients = ClientTraffic::split(&w, &cfg, 3);
        let mut run = Vec::new();
        for round in 0..24 {
            // Every fourth round is long enough to spill logs past their
            // structures; the short ones keep several structures resident.
            submit(&session, &mut clients, if round % 4 == 3 { 400 } else { 30 });
            let method = Method::all()[(round * 2 / 3) % 3];
            let got = session.query(method).unwrap();
            assert_eq!(got, oracle_answer(&clients, &w.s), "{shards} shards, round {round}");
            run.push(got);
        }
        let m = session.report().unwrap().rollup.metrics;
        churn.push((m.counter("shard.builds"), m.counter("shard.evictions")));
        answers.push(run);
    }
    assert_eq!(answers[1], answers[0], "2 shards diverged from the 1-shard answers");
    assert_eq!(answers[2], answers[0], "4 shards diverged from the 1-shard answers");
    assert!(churn[0].1 > 0 && churn[0].0 > 2, "the 1-shard run never evicted: {churn:?}");
}

#[test]
fn s_churn_with_spilling_logs_keeps_disk_pages_flat() {
    // Each cycle: mutate S (the view logs it), query the view (it folds
    // both logs), then spill its differential log with R updates. A folded
    // log must take its spilled runs with it.
    let w = spec(0.0).generate();
    let cfg = config(1, 16);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 1);
    let victim = w.s[3].clone();
    let mut pages = Vec::new();
    for cycle in 0..12 {
        // Delete and re-insert one S tuple on alternate cycles.
        let m = if cycle % 2 == 0 { Mutation::Delete } else { Mutation::Insert };
        session.update_s(m(victim.clone())).unwrap();
        session.query(Method::MaterializedView).unwrap();
        submit(&session, &mut clients, 300);
        let report = session.report().unwrap();
        assert!(shard_gauges(&report, "shard.log_pages")[0] > 0.0, "300 updates must spill");
        pages.push(shard_gauges(&report, "shard.disk_pages")[0]);
    }
    let report = session.report().unwrap();
    assert_eq!(report.rollup.metrics.counter("shard.builds"), 1, "built once, on first use");
    // Same S on every odd cycle: compare like with like.
    assert!(
        (pages[11] - pages[1]).abs() <= 2.0,
        "disk pages drifted over S-mutation cycles: {pages:?}"
    );
}

#[test]
fn view_built_on_first_use_is_audited_at_zero_pending() {
    // 2 000 updates under hybrid-hash traffic, then the first MV query:
    // the view is built from the stored relations, so its cycle folds
    // nothing and the audit must price it so — not at the 2 000 applies
    // the label has "pending" since the audit was armed.
    let w = spec(0.3).generate();
    let cfg = config(1, 16);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    for _ in 0..4 {
        submit(&session, &mut clients, 500);
        session.query(Method::HybridHash).unwrap();
    }
    session.query(Method::MaterializedView).unwrap();

    let report = session.report().unwrap();
    let shard = &report.shards[0];
    let cycle = shard.series[0].audit_section("cycle.materialized-view").expect("MV cycle audited");
    assert_eq!(cycle.samples, 1);
    let measured = trijoin::measure_workload(&w.r, &w.s, 0.1, 0.0);
    let predicted_us = |pending: f64| {
        let w = trijoin::Workload { updates: pending, ..measured.clone() };
        trijoin_model::mv::cost(&cfg.params, &w).total() * 1e6
    };
    let (at_zero, at_all) = (predicted_us(0.0), predicted_us(2_000.0));
    assert!(at_all > 1.5 * at_zero, "the two prices must be told apart: {at_zero} vs {at_all}");
    assert!(
        (cycle.predicted_us - at_zero).abs() <= 1e-6 * at_zero,
        "priced at {} µs; pending 0 is {at_zero} µs, pending 2000 is {at_all} µs",
        cycle.predicted_us
    );
    assert!(
        !shard.events.iter().any(|e| e.kind == EventKind::CostDrift),
        "a fresh view's first cycle must not read as drift"
    );
}

/// A mutation its relation refuses on sight — an update that changes the
/// surrogate, a tuple of the wrong width — is refused before any cached
/// structure logs it, on pinned shards (view and join index resident) and
/// adaptive ones, for `R` and `S` alike: every method stays on the
/// oracle, each refusal is one `shard.apply_errors`, and nothing rebuilds.
#[test]
fn malformed_mutations_are_refused_before_any_structure_logs() {
    use trijoin_common::Surrogate;
    let w = spec(0.3).generate();
    // A tuple that joins, on either side: the refusals must not reach a
    // key the answer shows.
    let joins = |t: &&BaseTuple, other: &[BaseTuple]| other.iter().any(|o| o.key == t.key);
    for shards in [1usize, 2, 4] {
        for adaptive in [false, true] {
            for of_s in [false, true] {
                let label = format!("{shards} shards, adaptive {adaptive}, of S {of_s}");
                let cfg = ServeConfig { adaptive, ..config(shards, 16) };
                let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
                let session = server.session().unwrap();
                session.query(Method::MaterializedView).unwrap();
                session.query(Method::JoinIndex).unwrap();
                let builds = session.report().unwrap().rollup.metrics.counter("shard.builds");

                let (mut r, mut s) = (w.r.clone(), w.s.clone());
                let (rel, other) = if of_s { (&mut s, &w.r) } else { (&mut r, &w.s) };
                let old = rel.iter().find(|t| joins(t, other)).unwrap().clone();
                let renamed = BaseTuple { sur: Surrogate(90_000), ..old.clone() };
                let narrow = BaseTuple::padded(Surrogate(90_001), old.key, 32);
                // One well-formed update after the refusals still lands.
                let new = BaseTuple::with_payload(old.sur, old.key, b"kept", 48).unwrap();
                let valid = trijoin::Update { old: old.clone(), new: new.clone() };
                *rel.iter_mut().find(|t| t.sur == old.sur).unwrap() = new;
                for m in [
                    Mutation::Update(trijoin::Update { old: old.clone(), new: renamed }),
                    Mutation::Insert(narrow),
                    Mutation::Update(valid),
                ] {
                    if of_s { session.update_s(m) } else { session.update_r(m) }.unwrap();
                }

                let want = oracle::join_tuples(&r, &s);
                for method in Method::all() {
                    let got = session.query(method).unwrap_or_else(|e| panic!("{label}: {e}"));
                    oracle::assert_same_join(&format!("{label}: {method}"), got, want.clone());
                }
                let m = session.report().unwrap().rollup.metrics;
                assert_eq!(m.counter("shard.apply_errors"), 2, "{label}");
                let side = if of_s { "shard.apply_errors.S" } else { "shard.apply_errors.R" };
                assert_eq!(m.counter(side), 2, "{label}");
                assert_eq!(m.counter("shard.builds"), builds, "{label}: a refusal rebuilt");
            }
        }
    }
}

/// An ill-formed mutation queued under view-only traffic: the view's
/// queries never go back to `R`, so nothing settles and nothing is
/// refused until someone asks — the report does — and that is where
/// `base.settle.rejected` and `shard.apply_errors` count it, once.
#[test]
fn a_reject_under_view_only_traffic_is_counted_at_the_later_settle() {
    let w = spec(0.3).generate();
    let cfg = config(1, 16);
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 2);
    session.query(Method::MaterializedView).unwrap();
    // An update of a surrogate `R` never held, to a key nothing joins.
    let ghost = |key| BaseTuple::padded(trijoin_common::Surrogate(9_000_000), key, 48);
    let bad = trijoin::Update { old: ghost(u64::MAX - 1), new: ghost(u64::MAX) };
    session.update_r(Mutation::Update(bad)).unwrap();
    for _ in 0..3 {
        submit(&session, &mut clients, 40);
        let got = session.query(Method::MaterializedView).unwrap();
        oracle::assert_same_join("view-only", got, oracle_answer(&clients, &w.s));
    }
    let shard = &session.report().unwrap().shards[0];
    assert_eq!(shard.metrics.counter("base.settles"), 1, "the report's settle is the only one");
    assert_eq!(shard.metrics.counter("base.settle.ops"), 121);
    assert_eq!(shard.metrics.counter("base.settle.rejected"), 1);
    assert_eq!(shard.metrics.counter("shard.apply_errors"), 1);
    assert_eq!(shard.metrics.counter("shard.apply_errors.R"), 1);
    assert_eq!(shard.metrics.gauge("base.apply_log.pending"), Some(0.0));
}

/// `serve_light`'s shape: 4 000 tuples of 200 B over four shards, 0.5 %
/// of `R` updated between hybrid-hash queries. An update that changes a
/// tuple's join key moves it to another shard — a delete on one, a
/// mid-tree insert on the other — so the shards' trees churn. The sweeps
/// that settle them pack the leaves they pass, so every shard's `R` stays
/// within 10 % of the leaf pages its tuples fill at `n_R` a page, plus its
/// root.
#[test]
fn cross_shard_churn_keeps_base_pages_packed() {
    let spec = WorkloadSpec {
        r_tuples: 4_000,
        s_tuples: 4_000,
        tuple_bytes: 200,
        sr: 0.01,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.005,
        seed: 1990,
    };
    let w = spec.generate();
    let params = SystemParams { mem_pages: 1_000, ..SystemParams::paper_defaults() };
    let cfg = ServeConfig { seed: 1990, ..ServeConfig::new(params, 4) };
    let server = Server::start(&cfg, w.r.clone(), w.s.clone()).unwrap();
    let session = server.session().unwrap();
    let mut clients = ClientTraffic::split(&w, &cfg, 1);
    for _ in 0..500 {
        submit(&session, &mut clients, 20);
        session.query(Method::HybridHash).unwrap();
    }
    let report = session.report().unwrap();
    let packed = shard_gauges(&report, "shard.base_packed.r");
    let pages = shard_gauges(&report, "shard.base_pages.r");
    assert_eq!(
        shard_gauges(&report, "base.tree_height"),
        [2.0; 4],
        "a resident root over the leaves"
    );
    for (shard, (pages, packed)) in pages.iter().zip(&packed).enumerate() {
        assert!(
            *pages <= 1.1 * packed + 1.0,
            "shard {shard}: {pages} pages of R for {packed} leaves packed full"
        );
    }
}
