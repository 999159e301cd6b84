//! Wall-clock bench harness: real elapsed time of the engine's hot paths.
//!
//! Everything else in `results/` reports *simulated* cost (the paper's
//! Table 6/7 ledger). This binary is the one place that measures what the
//! host actually spends: MV/JI query cycles (one epoch of updates + one
//! query), the HH recompute, and sharded-serve throughput at 1 and 4
//! shards. It exists so the zero-copy / interned-metrics / batched-I/O
//! work has a before/after record — the simulated ledgers are pinned
//! bit-identical by `tests/golden_ledger.rs`, and this harness shows the
//! wall-clock side actually moved.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p trijoin-bench --bin wallclock            # full run
//! cargo run --release -p trijoin-bench --bin wallclock -- --smoke # CI gate
//! cargo run --release -p trijoin-bench --bin wallclock -- \
//!     --baseline /tmp/wallclock_before.json                       # + BENCH_wallclock.json
//! cargo run --release -p trijoin-bench --bin wallclock -- \
//!     --baseline BENCH_wallclock.json --gate 20                   # CI regression gate
//! ```
//!
//! Emits `results/wallclock.json` (`figure: "wallclock"`). With
//! `--baseline <path>` (a previous `wallclock.json`, or a committed
//! `BENCH_wallclock.json` whose `after_*` fields are read as the
//! baseline), also writes the repo-root `BENCH_wallclock.json` comparing
//! before/after per bench. `--gate <pct>` turns the comparison into a CI
//! gate: exit non-zero if any serve bench's qps fell more than `<pct>`
//! percent below the baseline.
//!
//! The serve rows also measure telemetry overhead: `serve_qps_4shard`
//! runs with the default-on telemetry sampler while
//! `serve_qps_4shard_notel` disables it, and the printed overhead is the
//! acceptance check that sampling costs <5% of 4-shard throughput.
//!
//! Durability is priced the same way: `mv_query_cycle_wal` re-runs the MV
//! query cycle on the WAL-guarded file backend with a *deferred* commit
//! per cycle plus one barrier seal amortized over the loop (the
//! group-commit fast path), and `serve_qps_4shard_wal` backs every shard
//! with its own WAL, issues a deferred commit barrier per round, and
//! seals once at the end — each against its in-memory twin row.
//! `serve_qps_4shard_barrier` runs the same per-round commit cadence on a
//! *non-durable* server: its qps pins "commit barriers cost nothing when
//! there is nothing to make durable".

use std::path::PathBuf;
use std::time::Instant;

use trijoin::{Database, Durability, JoinStrategy, Method, SystemParams, WorkloadSpec};
use trijoin_bench::{emit_json, paper_params};
use trijoin_common::Json;
use trijoin_serve::{ClientTraffic, ServeConfig, Server};

/// One measured bench: mean seconds per iteration, plus qps for the
/// serve rows (where one "iteration" is the whole query loop).
struct Row {
    bench: &'static str,
    secs: f64,
    iters: u64,
    qps: Option<f64>,
}

impl Row {
    fn to_json(&self) -> Json {
        let j =
            Json::obj().set("bench", self.bench).set("secs", self.secs).set("iters", self.iters);
        match self.qps {
            Some(qps) => j.set("qps", qps),
            None => j,
        }
    }
}

/// Scale knobs: `--smoke` shrinks everything so the CI gate runs in
/// seconds and exercises the same code paths without meaningful timings.
struct Scale {
    cycle_tuples: u32,
    cycle_iters: u64,
    serve_tuples: u32,
    serve_queries: u64,
    /// Minimum timed duration of each serve loop: the loop keeps cycling
    /// (in whole update-epoch + query rounds) until at least this much
    /// wall time has elapsed, so one OS scheduling hiccup cannot dominate
    /// the reported qps. Zero in smoke runs — their timings are not read.
    serve_min_secs: f64,
}

const FULL: Scale = Scale {
    cycle_tuples: 4_000,
    cycle_iters: 20,
    serve_tuples: 3_000,
    serve_queries: 24,
    serve_min_secs: 2.0,
};
const SMOKE: Scale = Scale {
    cycle_tuples: 600,
    cycle_iters: 1,
    serve_tuples: 300,
    serve_queries: 2,
    serve_min_secs: 0.0,
};

/// The Figure-5 workload shape (6% activity, SR = 1%, seed 55).
fn cycle_spec(n: u32) -> WorkloadSpec {
    WorkloadSpec {
        r_tuples: n,
        s_tuples: n,
        tuple_bytes: 200,
        sr: 0.01,
        group_size: 5,
        pra: 0.1,
        update_rate: 0.06,
        seed: 55,
    }
}

/// Mean wall seconds of (one epoch of updates + one query) for `method`,
/// after one untimed warmup cycle. Setup (load + cache build) is untimed.
/// With `wal`, the store is the WAL-guarded file backend and every timed
/// cycle ends in a **deferred** commit (append, no fsync); one barrier
/// seal inside the timed region closes the loop, so its fsync is
/// amortized across the iterations exactly as group commit amortizes it
/// in production. The `_wal` row prices durability against its in-memory
/// twin.
fn query_cycle(method: Method, scale: &Scale, wal: bool) -> Row {
    let bench = match (method, wal) {
        (Method::MaterializedView, false) => "mv_query_cycle",
        (Method::MaterializedView, true) => "mv_query_cycle_wal",
        (Method::JoinIndex, _) => "ji_query_cycle",
        (Method::HybridHash, _) => "hh_recompute",
    };
    let params = SystemParams { mem_pages: 80, ..paper_params() };
    let gen = cycle_spec(scale.cycle_tuples).generate();
    let mut db = if wal {
        let dir =
            std::env::temp_dir().join(format!("trijoin-wallclock-{}-{bench}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Database::create_durable(&params, gen.r.clone(), gen.s.clone(), &dir)
            .expect("build durable database")
    } else {
        Database::new(&params, gen.r.clone(), gen.s.clone()).expect("build database")
    };
    let mut strategy: Box<dyn JoinStrategy> = match method {
        Method::MaterializedView => Box::new(db.materialized_view().expect("build mv")),
        Method::JoinIndex => Box::new(db.join_index().expect("build ji")),
        Method::HybridHash => Box::new(db.hybrid_hash()),
    };
    let mut stream = gen.update_stream();
    db.reset_observability();

    let mut cycle = |timed: bool| -> f64 {
        let at = Instant::now();
        for _ in 0..gen.updates_per_epoch() {
            let u = stream.next_update();
            strategy.on_update(&u).expect("log update");
            db.apply_r_update(&u).expect("apply update");
        }
        db.query(strategy.as_mut()).expect("query");
        if wal {
            db.commit_with(Durability::Deferred).expect("commit cycle");
        }
        if timed {
            at.elapsed().as_secs_f64()
        } else {
            0.0
        }
    };
    cycle(false); // warmup: touches every path once, faults in lazy state

    // The durable row's final seal is one device fsync amortized into
    // the mean; at 20 iters a single ~100 ms device stall would swing
    // the row 2×, so run it 3× longer to keep the stall inside the
    // regression gate's margin.
    let iters = if wal { scale.cycle_iters * 3 } else { scale.cycle_iters };
    let mut total = 0.0;
    for _ in 0..iters {
        total += cycle(true);
    }
    if wal {
        // Seal the deferred groups: one fsync for the whole timed loop,
        // charged into the mean so the row never reports throughput the
        // durability contract hasn't paid for.
        let at = Instant::now();
        db.commit().expect("seal deferred commits");
        total += at.elapsed().as_secs_f64();
    }
    Row { bench, secs: total / iters as f64, iters, qps: None }
}

/// The serve_bench inner loop (wide tuples, spilling HH) at `shards`
/// shards: wall seconds of the whole query loop plus derived qps.
/// `telemetry` toggles the default-on windowed sampler so the 4-shard
/// pair of rows exposes its overhead; `wal` backs every shard with the
/// WAL-guarded file backend, issues a **deferred** commit barrier per
/// round, and seals once inside the timed region — pricing the
/// group-committed durable serving path against the in-memory row.
/// `barrier` keeps the server non-durable but still commits every round:
/// that row pins the no-op cost of the barrier machinery itself, i.e.
/// "turning durability off really pays zero durability overhead".
/// `adaptive` turns on the per-shard strategy controller (§17): its row
/// prices adaptive serving — one maintained structure plus signal
/// windows, skew sketch, per-epoch re-pricing and whatever migrations the
/// controller starts — against the pinned row whose `method` is the
/// materialized view, the structure an adaptive shard starts from. (A
/// pinned shard maintains only what its queries name, so the hybrid-hash
/// rows carry no structure maintenance to compare with.) Every other row
/// queries hybrid hash.
fn serve_qps(
    shards: usize,
    scale: &Scale,
    method: Method,
    telemetry: bool,
    wal: bool,
    barrier: bool,
    adaptive: bool,
) -> Row {
    const CLIENTS: usize = 4;
    let spec = WorkloadSpec {
        r_tuples: scale.serve_tuples,
        s_tuples: scale.serve_tuples,
        tuple_bytes: 1900,
        sr: 0.01,
        group_size: 4,
        pra: 0.1,
        update_rate: 0.005,
        seed: trijoin_common::rng::derive(42, "workload"),
    };
    let params = SystemParams { mem_pages: 1850, ..paper_params() };
    let gen = spec.generate();
    let updates_per_query = gen.updates_per_epoch();

    let mut config =
        ServeConfig { batch: 32, seed: 42, adaptive, ..ServeConfig::new(params, shards) };
    if !telemetry {
        config.telemetry = None;
    }
    if wal {
        let dir = std::env::temp_dir()
            .join(format!("trijoin-wallclock-{}-serve{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        config.durable_dir = Some(dir);
        config.durability = Durability::Deferred;
    }
    let server = Server::start(&config, gen.r.clone(), gen.s.clone())
        .unwrap_or_else(|e| panic!("start {shards}-shard server: {e}"));
    let session = server.session().expect("live server");
    let mut traffic = ClientTraffic::split(&gen, &config, CLIENTS);

    // One round is an epoch of updates round-robined across the clients
    // followed by one query — the serve_bench inner loop.
    let mut round = |q: u64| {
        for u in 0..updates_per_query {
            let c = ((q * updates_per_query + u) % CLIENTS as u64) as usize;
            session.update_r(traffic[c].next_mutation()).expect("update");
        }
        session.query(method).expect("query");
        if wal || barrier {
            session.commit().expect("commit round");
        }
    };

    // Untimed warmup: faults in lazy engine state (allocator, page cache,
    // spill files) so the timed loop measures steady state, not startup.
    round(0);

    let started = Instant::now();
    let mut done = 0u64;
    while done < scale.serve_queries || started.elapsed().as_secs_f64() < scale.serve_min_secs {
        round(done + 1);
        done += 1;
    }
    if wal {
        // Seal every deferred barrier — one fsync per shard for the whole
        // loop, inside the timed region so the qps includes it.
        session.sync().expect("seal deferred barriers");
    }
    let wall = started.elapsed().as_secs_f64();
    let bench = match (shards, method, telemetry, wal, barrier, adaptive) {
        (_, _, _, true, _, _) => "serve_qps_4shard_wal",
        (_, _, _, _, true, _) => "serve_qps_4shard_barrier",
        (_, _, _, _, _, true) => "serve_qps_4shard_adaptive",
        (_, Method::MaterializedView, _, _, _, _) => "serve_qps_4shard_mv",
        (1, _, _, _, _, _) => "serve_qps_1shard",
        (_, _, true, _, _, _) => "serve_qps_4shard",
        (_, _, false, _, _, _) => "serve_qps_4shard_notel",
    };
    Row { bench, secs: wall, iters: done, qps: Some(done as f64 / wall.max(1e-9)) }
}

/// Compare fresh rows against a previous `wallclock.json` and write the
/// repo-root `BENCH_wallclock.json`. Speedup is before/after seconds for
/// cycle benches and after/before qps for serve benches — both read as
/// "how many times faster the optimized build is". Baselines in the
/// `wallclock_cmp` format (a committed `BENCH_wallclock.json`) are
/// accepted too: their `after_*` fields are the baseline numbers.
///
/// With `gate_pct`, a serve bench whose fresh qps fell more than that
/// many percent below the baseline — or a cycle bench whose seconds rose
/// more than that many percent above it — fails the run: the CI
/// regression gate covers throughput and latency rows alike (so the
/// durable `mv_query_cycle_wal` path is gated, not just the serve qps).
/// Returns the names of the benches that failed it.
fn write_comparison(rows: &[Row], baseline_path: &str, gate_pct: Option<f64>) -> Vec<String> {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = Json::parse(&text).expect("parse baseline json");
    let base_rows = baseline.get("rows").and_then(Json::as_arr).expect("baseline rows");
    let find = |bench: &str| -> Option<&Json> {
        base_rows.iter().find(|r| r.get("bench").and_then(Json::as_str) == Some(bench))
    };
    // "secs"/"qps" in a results file, "after_secs"/"after_qps" in a
    // comparison file.
    let base_secs = |r: &Json| r.get("secs").or_else(|| r.get("after_secs")).and_then(Json::as_f64);
    let base_qps = |r: &Json| r.get("qps").or_else(|| r.get("after_qps")).and_then(Json::as_f64);

    let mut out_rows: Vec<Json> = Vec::new();
    let mut regressed: Vec<String> = Vec::new();
    println!("\n== before/after (baseline: {baseline_path}) ==");
    println!("{:>18}  {:>12}  {:>12}  {:>8}", "bench", "before", "after", "speedup");
    for row in rows {
        // A bench absent from the baseline (first run after it was added)
        // enters the comparison as its own baseline — speedup 1.0, never
        // gated — so the committed file picks it up for future gates.
        let (before_secs, before_qps) = match find(row.bench) {
            Some(before) => (base_secs(before).expect("baseline secs"), base_qps(before)),
            None => (row.secs, row.qps),
        };
        let speedup = match (row.qps, before_qps) {
            (Some(after_qps), Some(before_qps)) => after_qps / before_qps.max(1e-12),
            _ => before_secs / row.secs.max(1e-12),
        };
        println!(
            "{:>18}  {:>11.4}s  {:>11.4}s  {:>7.2}x",
            row.bench, before_secs, row.secs, speedup
        );
        if let Some(pct) = gate_pct {
            match (row.qps, before_qps) {
                (Some(after_qps), Some(before_qps)) => {
                    if after_qps < before_qps * (1.0 - pct / 100.0) {
                        println!(
                            "  GATE: {} qps {after_qps:.1} is more than {pct:.0}% below \
                             baseline {before_qps:.1}",
                            row.bench
                        );
                        regressed.push(row.bench.to_string());
                    }
                }
                _ => {
                    if row.secs > before_secs * (1.0 + pct / 100.0) {
                        println!(
                            "  GATE: {} {:.4}s is more than {pct:.0}% above baseline \
                             {before_secs:.4}s",
                            row.bench, row.secs
                        );
                        regressed.push(row.bench.to_string());
                    }
                }
            }
        }
        let mut j = Json::obj()
            .set("bench", row.bench)
            .set("before_secs", before_secs)
            .set("after_secs", row.secs)
            .set("speedup", speedup);
        if let (Some(after_qps), Some(before_qps)) = (row.qps, before_qps) {
            j = j.set("before_qps", before_qps).set("after_qps", after_qps);
        }
        out_rows.push(j);
    }
    // Gate runs are read-only checks: don't clobber the committed
    // comparison file from CI.
    if gate_pct.is_none() {
        let json = Json::obj().set("figure", "wallclock_cmp").set("rows", out_rows);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wallclock.json");
        std::fs::write(&path, json.pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("\njson: BENCH_wallclock.json");
    }
    regressed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .map(|i| args.get(i + 1).expect("--baseline needs a path").clone());
    let gate_pct = args.iter().position(|a| a == "--gate").map(|i| {
        let pct = args.get(i + 1).expect("--gate needs a percent");
        pct.parse::<f64>().unwrap_or_else(|_| panic!("--gate: bad percent {pct:?}"))
    });
    if gate_pct.is_some() && baseline.is_none() {
        panic!("--gate requires --baseline");
    }
    let scale = if smoke { SMOKE } else { FULL };

    println!("== Wall-clock hot-path benchmarks ({}) ==", if smoke { "smoke" } else { "full" });
    println!(
        "   cycles: {} tuples x {} iters; serve: {} tuples x {} queries\n",
        scale.cycle_tuples, scale.cycle_iters, scale.serve_tuples, scale.serve_queries
    );
    println!("{:>18}  {:>12}  {:>6}  {:>10}", "bench", "secs/iter", "iters", "qps");

    // Durable rows fsync against a real device, whose occasional
    // ~100 ms stalls would swamp one 20-iter (or one 2 s) measurement
    // and trip the 20% regression gate on pure device noise: take the
    // median of three runs so a single hiccup cannot decide the row.
    let median3 = |mut runs: Vec<Row>| -> Row {
        runs.sort_by(|a, b| match (a.qps, b.qps) {
            (Some(x), Some(y)) => y.total_cmp(&x),
            _ => a.secs.total_cmp(&b.secs),
        });
        runs.swap_remove(1)
    };

    let mut rows: Vec<Row> = Vec::new();
    for (method, wal) in [
        (Method::MaterializedView, false),
        (Method::MaterializedView, true),
        (Method::JoinIndex, false),
        (Method::HybridHash, false),
    ] {
        let row = if wal {
            median3((0..3).map(|_| query_cycle(method, &scale, wal)).collect())
        } else {
            query_cycle(method, &scale, wal)
        };
        println!("{:>20}  {:>11.4}s  {:>6}  {:>10}", row.bench, row.secs, row.iters, "-");
        rows.push(row);
    }
    const HH: Method = Method::HybridHash;
    for (shards, method, telemetry, wal, barrier, adaptive) in [
        (1usize, HH, true, false, false, false),
        (4, HH, true, false, false, false),
        (4, HH, false, false, false, false),
        (4, HH, true, false, true, false),
        (4, Method::MaterializedView, true, false, false, false),
        (4, HH, true, false, false, true),
        (4, HH, true, true, false, false),
    ] {
        let run = || serve_qps(shards, &scale, method, telemetry, wal, barrier, adaptive);
        let row = if wal { median3((0..3).map(|_| run()).collect()) } else { run() };
        println!(
            "{:>20}  {:>11.4}s  {:>6}  {:>10.1}",
            row.bench,
            row.secs,
            row.iters,
            row.qps.unwrap_or(0.0)
        );
        rows.push(row);
    }
    // Telemetry overhead: the acceptance bar is <5% qps regression at 4
    // shards with the default-on sampler (meaningless under --smoke,
    // whose timings are noise by design).
    let qps_of =
        |bench: &str| rows.iter().find(|r| r.bench == bench).and_then(|r| r.qps).unwrap_or(0.0);
    let (with_tel, without_tel) = (qps_of("serve_qps_4shard"), qps_of("serve_qps_4shard_notel"));
    if without_tel > 0.0 {
        println!(
            "\ntelemetry overhead at 4 shards: {:+.2}% qps ({with_tel:.1} on vs \
             {without_tel:.1} off)",
            (with_tel / without_tel - 1.0) * 100.0
        );
    }
    // Adaptive overhead, gated alongside the baseline comparison so CI
    // fails if it slides. The pinned side queries the materialized view,
    // so both sides log into and fold one cached structure and what is
    // left is the controller and its migrations. Like for like the
    // adaptive row measures 0.59–0.77× the pinned one, not the 0.8× §17
    // set out to hold (DESIGN.md §17, open), and two 2 s rows swing ±15%
    // against each other on a shared host: the floor is a ratchet that
    // keeps adaptive serving from getting worse than it is.
    const ADAPTIVE_FLOOR: f64 = 0.5;
    let (pinned_mv, adaptive_qps) =
        (qps_of("serve_qps_4shard_mv"), qps_of("serve_qps_4shard_adaptive"));
    if pinned_mv > 0.0 && adaptive_qps > 0.0 {
        println!(
            "adaptive overhead at 4 shards: {:+.2}% qps ({adaptive_qps:.1} adaptive vs \
             {pinned_mv:.1} pinned on the materialized view; gate at {:+.0}%)",
            (adaptive_qps / pinned_mv - 1.0) * 100.0,
            (ADAPTIVE_FLOOR - 1.0) * 100.0
        );
        if gate_pct.is_some() && !smoke && adaptive_qps < pinned_mv * ADAPTIVE_FLOOR {
            eprintln!("bench-regression gate FAILED: serve_qps_4shard_adaptive vs pinned");
            std::process::exit(1);
        }
    }

    let json = Json::obj()
        .set("figure", "wallclock")
        .set("smoke", if smoke { 1u64 } else { 0u64 })
        .set("rows", rows.iter().map(Row::to_json).collect::<Vec<_>>());
    // Smoke and gate runs get their own files so the CI gates never
    // clobber the committed full-scale results.
    let figure = if smoke {
        "wallclock_smoke"
    } else if gate_pct.is_some() {
        "wallclock_gate"
    } else {
        "wallclock"
    };
    emit_json(figure, &json);

    if let Some(path) = baseline {
        let regressed = write_comparison(&rows, &path, gate_pct);
        if !regressed.is_empty() {
            eprintln!("bench-regression gate FAILED: {}", regressed.join(", "));
            std::process::exit(1);
        }
        if gate_pct.is_some() {
            println!("bench-regression gate: ok");
        }
    }
}
