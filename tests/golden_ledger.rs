//! Golden simulated-ledger test: the engine's *simulated* cost numbers are
//! frozen against committed baselines.
//!
//! Wall-clock optimizations (zero-copy tuple paths, interned metric
//! handles, batched sequential I/O) must never change a single simulated
//! number. This test pins the full [`RunReport`] — span tree, I/O counters,
//! metrics snapshot, event log — for the MV, JI, and HH strategies on a
//! Figure-5-shaped workload, plus the sharded server's result checksum and
//! the deterministic part of its report rollup, against JSON baselines
//! committed under `tests/golden/`.
//!
//! Regenerate the baselines (only when a change *intends* to alter the
//! simulated cost model) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p trijoin-serve --test golden_ledger
//! ```
//!
//! The comparison is on the serialized JSON text, so any drift — one extra
//! I/O, one re-ordered span, one renamed counter — fails with a diff
//! pointer rather than silently absorbing a cost-model regression.

use std::path::PathBuf;

use trijoin::{Database, JoinStrategy, Method, SystemParams, WorkloadSpec};
use trijoin_common::{Json, OpCounts, RunReport};
use trijoin_serve::{ClientTraffic, ServeConfig, Server};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn regen() -> bool {
    std::env::var("GOLDEN_REGEN").map(|v| v == "1").unwrap_or(false)
}

/// Compare `got` against the committed baseline `name`, or rewrite the
/// baseline when `GOLDEN_REGEN=1`.
fn check_golden(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if regen() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden baseline {} ({e}); regenerate with \
             GOLDEN_REGEN=1 cargo test -p trijoin-serve --test golden_ledger",
            path.display()
        )
    });
    if got != want {
        // Point at the first diverging line so a failure is actionable.
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "simulated ledger drifted from golden baseline {} \
             (first differing line: {:?}); if the cost model was *intentionally* \
             changed, regenerate with GOLDEN_REGEN=1",
            path.display(),
            line.map(|i| i + 1),
        );
    }
}

/// The Figure-5 workload shape (6% activity, SR = 1%, seed 55) at half the
/// figure's 4000-tuple scale so the test stays fast in debug builds. The
/// cost *model* is scale-free; what the golden files freeze is every
/// simulated charge the engine makes on this exact input.
fn fig5_spec() -> WorkloadSpec {
    WorkloadSpec {
        r_tuples: 2_000,
        s_tuples: 2_000,
        tuple_bytes: 200,
        sr: 0.01,
        group_size: 5,
        pra: 0.1,
        update_rate: 0.06,
        seed: 55,
    }
}

/// One observed maintenance epoch + query for `method`, exactly the
/// fig5_engine sequence, returning its run report.
fn epoch_report(method: Method) -> RunReport {
    let params = SystemParams { mem_pages: 80, ..SystemParams::paper_defaults() };
    let gen = fig5_spec().generate();
    let mut db = Database::new(&params, gen.r.clone(), gen.s.clone()).expect("build database");
    let mut strategy: Box<dyn JoinStrategy> = match method {
        Method::MaterializedView => Box::new(db.materialized_view().expect("build mv")),
        Method::JoinIndex => Box::new(db.join_index().expect("build ji")),
        Method::HybridHash => Box::new(db.hybrid_hash()),
    };
    let mut stream = gen.update_stream();
    db.reset_observability();
    for _ in 0..gen.updates_per_epoch() {
        let u = stream.next_update();
        strategy.on_update(&u).expect("log update");
        db.apply_r_update(&u).expect("apply update");
    }
    db.query(strategy.as_mut()).expect("query");
    db.run_report(format!("golden-{}", strategy.name()))
}

#[test]
fn mv_ledger_matches_golden() {
    check_golden("mv_report.json", &epoch_report(Method::MaterializedView).to_json().pretty());
}

#[test]
fn ji_ledger_matches_golden() {
    check_golden("ji_report.json", &epoch_report(Method::JoinIndex).to_json().pretty());
}

#[test]
fn hh_ledger_matches_golden() {
    check_golden("hh_report.json", &epoch_report(Method::HybridHash).to_json().pretty());
}

/// Every operation of a JI, MV or HH epoch is charged under some span:
/// the report's depth-0 spans add up to its totals.
#[test]
fn ji_report_spans_cover_its_totals() {
    for method in [Method::JoinIndex, Method::MaterializedView, Method::HybridHash] {
        let report = epoch_report(method);
        let mut spanned = OpCounts::default();
        report.spans.iter().filter(|s| s.depth == 0).for_each(|s| spanned.add(&s.cum_ops));
        assert_eq!(spanned, report.totals, "{method}");
    }
}

/// A served query's result checksum (FNV-1a over the answer's surrogate
/// pairs, in answer order) at a reduced scale, for shard counts 1 and 4.
/// The checksum must be shard-count-invariant *and* match the committed
/// baseline: sharding may only change wall-clock time, never the answer.
#[test]
fn serve_checksum_matches_golden() {
    const CLIENTS: usize = 3;
    const QUERIES: u64 = 3;
    let spec = WorkloadSpec {
        r_tuples: 400,
        s_tuples: 400,
        tuple_bytes: 200,
        sr: 0.02,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.01,
        seed: trijoin_common::rng::derive(42, "workload"),
    };
    let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
    let gen = spec.generate();
    let updates_per_query = gen.updates_per_epoch();

    let mut checksums: Vec<u64> = Vec::new();
    for shards in [1usize, 4] {
        let config =
            ServeConfig { batch: 16, seed: 42, ..ServeConfig::new(params.clone(), shards) };
        let server = Server::start(&config, gen.r.clone(), gen.s.clone())
            .unwrap_or_else(|e| panic!("start {shards}-shard server: {e}"));
        let session = server.session().expect("live server");
        let mut traffic = ClientTraffic::split(&gen, &config, CLIENTS);
        let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for q in 0..QUERIES {
            for u in 0..updates_per_query {
                let c = ((q * updates_per_query + u) % CLIENTS as u64) as usize;
                session.update_r(traffic[c].next_mutation()).expect("update");
            }
            let answer = session.query(Method::HybridHash).expect("query");
            for t in &answer {
                for word in [t.r_sur.0 as u64, t.s_sur.0 as u64] {
                    checksum = (checksum ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        checksums.push(checksum);
    }
    assert_eq!(checksums[0], checksums[1], "sharding changed the join answer");

    let json = Json::obj()
        .set("figure", "golden_serve")
        .set("queries", QUERIES)
        .set("checksum", format!("{:016x}", checksums[0]).as_str());
    check_golden("serve_checksum.json", &json.pretty());
}

/// One fixed single-client serving run on two shards, returning its
/// report's rollup with the wall-clock-shaped metrics
/// ([`trijoin_serve::server::VOLATILE_METRICS`]) and the scheduler's
/// batch-domain series scrubbed. What is left — the scheduler's `serve.*`
/// accounting, every shard metric summed, the merged spans, events and
/// engine series — is a pure function of the submission order.
fn serve_rollup(adaptive: bool) -> RunReport {
    use trijoin_exec::Mutation;
    use trijoin_serve::server::VOLATILE_METRICS;
    let spec = WorkloadSpec {
        r_tuples: 1_500,
        s_tuples: 1_500,
        tuple_bytes: 96,
        sr: 0.01,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.3,
        seed: 31,
    };
    let gen = spec.generate();
    let params = SystemParams { mem_pages: 64, ..SystemParams::paper_defaults() };
    let config = ServeConfig { batch: 32, seed: 7, adaptive, ..ServeConfig::new(params, 2) };
    let server = Server::start(&config, gen.r.clone(), gen.s.clone()).expect("start server");
    let session = server.session().expect("live server");
    let mut client = ClientTraffic::split(&gen, &config, 1).remove(0);
    for round in 0..6 {
        for _ in 0..gen.updates_per_epoch() / 2 {
            session.update_r(client.next_mutation()).expect("update R");
        }
        // An S tuple leaves in one round and comes back in the next, so
        // both relations' batches ride the same rounds.
        let s = gen.s[round / 2 * 7].clone();
        let m = if round % 2 == 0 { Mutation::Delete(s) } else { Mutation::Insert(s) };
        session.update_s(m).expect("update S");
        session.query(Method::all()[round % 3]).expect("query");
        if round == 3 {
            session.flush().expect("flush");
            session.commit().expect("commit");
            session.sync().expect("sync");
        }
    }
    let mut rollup = session.report().expect("report").rollup;
    let m = &mut rollup.metrics;
    m.counters.retain(|(k, _)| !VOLATILE_METRICS.contains(&k.as_str()));
    m.gauges.retain(|(k, _)| !VOLATILE_METRICS.contains(&k.as_str()));
    m.histograms.retain(|(k, _)| !VOLATILE_METRICS.contains(&k.as_str()));
    rollup.series.retain(|s| s.name != "serve");
    rollup
}

/// The scheduler's deterministic accounting, pinned across commits: a
/// pinned run that names all three methods and an adaptive run that
/// migrates (its `migrate.*` counters included).
#[test]
fn serve_rollup_matches_golden() {
    let adaptive = serve_rollup(true);
    assert!(adaptive.metrics.counter("migrate.count") >= 1, "the adaptive run must migrate");
    let json = Json::obj()
        .set("figure", "golden_serve_rollup")
        .set("pinned", serve_rollup(false).to_json())
        .set("adaptive", adaptive.to_json());
    check_golden("serve_rollup.json", &json.pretty());
}
