//! `trijoin` — command-line front end.
//!
//! ```text
//! trijoin advise --sr 0.01 --activity 0.06 [--pra 0.1] [--mem 1000]
//!     recommend a strategy (paper heuristic + cost model)
//! trijoin model --sr 0.01 --activity 0.06 [--pra 0.1] [--mem 1000]
//!     print the full per-term cost breakdown of all three methods
//! trijoin run --scale 50 --sr 0.01 --activity 0.06 [--pra 0.1] [--mem 80]
//!             [--strategy mv|ji|hh|all] [--seed 42] [--epochs 1]
//!             [--trace] [--report <path>] [--durable <dir>]
//!     run the engine on a scaled paper workload and report measured cost;
//!     `--trace` prints each strategy's span-tree profile, `--report`
//!     writes a JSON run report (params, spans, metrics, events, deltas);
//!     `--durable <dir>` backs each strategy's store with the WAL-guarded
//!     file backend under `<dir>/<strategy>`, committing once per epoch
//! trijoin serve --shards 4 --clients 4 --batch 64 --queries 10
//!               [--scale 200] [--sr 0.01] [--activity 0.06] [--pra 0.1]
//!               [--mem 1000] [--strategy mv|ji|hh] [--seed 42] [--report <path>]
//!               [--durable <dir>] [--deferred] [--adaptive]
//!     run the sharded serving layer on a scaled paper workload: clients
//!     submit batched updates between queries, answers are checked against
//!     the single-engine oracle, and `--report` writes the per-shard
//!     reports plus their rollup as JSON; `--durable <dir>` gives every
//!     shard a WAL-backed store with a commit barrier per query round, and
//!     `--deferred` makes those barriers group-commit (append per round,
//!     one coalesced fsync per shard at the next seal); `--adaptive` lets
//!     every shard pick and *migrate* its own strategy online from the §3
//!     cost model (the `--strategy` flag then only names the advisory
//!     method; answers are still oracle-checked every query)
//! trijoin top --shards 4 --clients 4 [--batch 64] [--ring 1024]
//!             [--scale 200] [--queries 4] [--refreshes 0] [--mem 80]
//!             [--strategy mv|ji|hh] [--seed 42] [--once] [--json]
//!             [--report <path>] [--durable <dir>] [--deferred] [--adaptive]
//!     live serving-stack monitor: spawns a server plus client traffic and
//!     renders qps, latency percentiles, ring backpressure, per-shard
//!     update/query ratio, key skew and resident cached structures
//!     (`mv`, `ji`, `mv+ji`, `-`), cost-drift counts, and the telemetry
//!     window series. `--once` renders a single frame and
//!     exits; `--json` emits the sharded run report as JSON (scriptable,
//!     `report-validate`-clean) instead of the dashboard; `--durable`/
//!     `--deferred` mirror `trijoin serve` and add a `wal` dashboard row
//!     (commits, fsyncs, skip-clean frames, apply lag, log bytes);
//!     `--adaptive` turns on per-shard online strategy migration: the
//!     per-shard column then shows the serving strategy and migration
//!     state, and a `migrate` row is added
//! trijoin report-validate <path> [--min-series-windows <n>]
//!     check that <path> holds a well-formed report (CI schema gate); the
//!     schema is sniffed: a run report, a sharded serve report (per-shard
//!     reports + rollup, with the metric-sum invariant and each shard's
//!     residency bound re-verified), or a bench results file (a string
//!     `figure`); `--min-series-windows` additionally requires every
//!     per-shard telemetry series to carry at least that many closed windows
//! trijoin check --seed 7 --ops 160 [--shards 1,2,4] [--batch 8] [--mem 64]
//!               [--crash-pct <n>] [--durable <dir>] [--emit <path>]
//!               [--adversary bursty|zipf|phase|imbalance] [--adaptive]
//!               [--out <path>] | --corpus <dir>
//!     deterministic simulation check: generate a workload script from the
//!     seed, replay it against MV/JI/HH, the brute-force oracle, and the
//!     sharded server at every shard count, verifying equivalence at every
//!     checkpoint (faults included); on failure, delta-debug the script to
//!     a minimal repro and write it as JSON. `--crash-pct` mixes durable
//!     crash/recover ops into the script (a scratch `--durable` root is
//!     chosen when none is given), `--emit` writes the generated script for
//!     corpus curation, and `--corpus <dir>` instead replays every
//!     committed `*.json` script in the directory (crash-bearing scripts
//!     get a scratch durable root automatically). `--adversary <shape>`
//!     generates shaped traffic (update bursts, zipf skew, phase flips,
//!     or shard imbalance) and implies `--adaptive`, which adds a second
//!     serving fleet per shard count running online strategy migration —
//!     checked against the same oracle at every checkpoint, with a
//!     flapping cap on per-shard migration counts
//! trijoin repro <file>
//!     replay a JSON repro file produced by `trijoin check`
//! ```
//!
//! (No external argument-parsing dependency: flags are `--name value`
//! pairs, order-free; `--trace` is a bare boolean flag.)

use std::collections::HashMap;
use std::process::ExitCode;

use trijoin::{Advisor, CachedStrategy, Database, Method, SystemParams, Workload, WorkloadSpec};
use trijoin_check::{generate, run_script, shrink, CheckConfig, CheckOutcome, GenConfig};
use trijoin_common::{AdversaryShape, ModelDelta, RunReport, Script, ViewTuple};
use trijoin_model::all_costs;
use trijoin_serve::{ClientSession, ClientTraffic, ServeConfig, Server};
use trijoin_storage::Durability;

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["trace", "once", "json", "deferred", "adaptive"];

struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let name = a.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {a:?}"))?;
            if BOOL_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn opt_str(&self, name: &str) -> Option<String> {
        self.flags.get(name).cloned()
    }

    fn f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: not a number: {v:?}")),
        }
    }

    fn u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: not an integer: {v:?}")),
        }
    }

    fn str(&self, name: &str, default: &str) -> String {
        self.flags.get(name).cloned().unwrap_or_else(|| default.to_string())
    }
}

fn usage() -> &'static str {
    "usage:\n  trijoin advise --sr <f> --activity <f> [--pra <f>] [--mem <pages>]\n  trijoin model  --sr <f> --activity <f> [--pra <f>] [--mem <pages>]\n  trijoin run    --scale <n> --sr <f> --activity <f> [--pra <f>] [--mem <pages>]\n                 [--strategy mv|ji|hh|all] [--seed <n>] [--epochs <n>]\n                 [--trace] [--report <path>] [--durable <dir>]\n  trijoin serve  --shards <n> --clients <n> --batch <n> --queries <n>\n                 [--scale <n>] [--sr <f>] [--activity <f>] [--pra <f>]\n                 [--mem <pages>] [--strategy mv|ji|hh] [--seed <n>] [--report <path>]\n                 [--durable <dir>] [--deferred] [--adaptive]\n  trijoin top    --shards <n> --clients <n> [--batch <n>] [--ring <n>]\n                 [--scale <n>] [--queries <n>] [--refreshes <n>] [--mem <pages>]\n                 [--strategy mv|ji|hh] [--seed <n>] [--once] [--json] [--report <path>]\n                 [--durable <dir>] [--deferred] [--adaptive]\n  trijoin check  --seed <n> --ops <n> [--shards <a,b,c>] [--batch <n>]\n                 [--mem <pages>] [--crash-pct <n>] [--durable <dir>]\n                 [--adversary bursty|zipf|phase|imbalance] [--adaptive]\n                 [--emit <path>] [--out <path>] | --corpus <dir>\n  trijoin repro  <file>\n  trijoin report-validate <path> [--min-series-windows <n>]"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = if cmd == "report-validate" {
        report_validate(rest)
    } else if cmd == "repro" {
        repro(rest)
    } else {
        match Args::parse(rest) {
            Ok(args) => match cmd.as_str() {
                "advise" => advise(&args),
                "model" => model(&args),
                "run" => run(&args),
                "serve" => serve(&args),
                "top" => top(&args),
                "check" => check(&args),
                other => Err(format!("unknown command {other:?}\n{}", usage())),
            },
            Err(e) => Err(e),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn err(e: trijoin_common::Error) -> String {
    e.to_string()
}

fn params_from(args: &Args, mem: u64) -> Result<SystemParams, String> {
    Ok(SystemParams { mem_pages: args.u64("mem", mem)? as usize, ..SystemParams::paper_defaults() })
}

/// `--sr`, `--activity` and `--pra`, each checked to lie within [0, 1]:
/// the one parse of them every command runs.
fn selectivities(args: &Args) -> Result<(f64, f64, f64), String> {
    let sr = args.f64("sr", 0.01)?;
    let activity = args.f64("activity", 0.06)?;
    let pra = args.f64("pra", 0.1)?;
    if ![sr, activity, pra].iter().all(|x| (0.0..=1.0).contains(x)) {
        return Err("--sr, --activity and --pra must be within [0, 1]".into());
    }
    Ok((sr, activity, pra))
}

/// The scaled paper workload `run`, `serve` and `top` generate: `--scale`
/// (`scale` by default) and the selectivities, seeded from `seed`.
fn spec_from(args: &Args, scale: u64, seed: u64) -> Result<WorkloadSpec, String> {
    let (sr, activity, pra) = selectivities(args)?;
    Ok(WorkloadSpec::paper_scaled(args.u64("scale", scale)? as u32, sr, activity, pra, seed))
}

fn workload_from(args: &Args) -> Result<Workload, String> {
    let (sr, activity, pra) = selectivities(args)?;
    let mut w = Workload::figure4_point(sr.max(1e-6), activity);
    w.pra = pra;
    Ok(w)
}

fn advise(args: &Args) -> Result<(), String> {
    let params = params_from(args, 1000)?;
    let w = workload_from(args)?;
    let advisor = Advisor::new(&params);
    let (heuristic, model_pick) = advisor.both(&w);
    println!(
        "workload: SR={} activity={} Pr_A={} |M|={} pages",
        w.sr,
        w.updates / w.r_tuples,
        w.pra,
        params.mem_pages
    );
    println!("paper heuristic : {}", heuristic.method);
    println!("                  {}", heuristic.reason);
    println!("cost-model pick : {}", model_pick.method);
    println!("                  {}", model_pick.reason);
    Ok(())
}

fn model(args: &Args) -> Result<(), String> {
    let params = params_from(args, 1000)?;
    let w = workload_from(args)?;
    for report in all_costs(&params, &w) {
        println!(
            "== {} : {:.1} s total ({:.1} s base file, {:.1} s update+internal) ==",
            report.method,
            report.total(),
            report.base_file(),
            report.update_and_internal()
        );
        for term in &report.terms {
            if term.secs >= 0.05 {
                println!("  {:<48} {:>10.1} s", term.name, term.secs);
            }
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let spec = spec_from(args, 50, args.u64("seed", 42)?)?;
    let params = params_from(args, 1000)?;
    let epochs = args.u64("epochs", 1)?;
    let which = args.str("strategy", "all");
    let gen = spec.generate();
    let measured = gen.measured();
    println!(
        "workload: ‖R‖=‖S‖={} SR={:.4} ‖iR‖={}/epoch Pr_A={} |M|={}",
        gen.r.len(),
        measured.sr,
        gen.updates_per_epoch(),
        measured.pra,
        params.mem_pages
    );
    let wanted: Vec<&str> = match which.as_str() {
        "all" => vec!["mv", "ji", "hh"],
        one @ ("mv" | "ji" | "hh") => vec![one],
        other => return Err(format!("--strategy: unknown {other:?} (mv|ji|hh|all)")),
    };
    let durable = args.opt_str("durable").map(std::path::PathBuf::from);
    for name in wanted {
        let mut db = match &durable {
            // One WAL-backed store per strategy; each epoch ends in a
            // commit so the log carries every update batch.
            Some(root) => {
                Database::create_durable(&params, gen.r.clone(), gen.s.clone(), &root.join(name))
                    .map_err(|e| e.to_string())?
            }
            None => {
                Database::new(&params, gen.r.clone(), gen.s.clone()).map_err(|e| e.to_string())?
            }
        };
        let method = match name {
            "mv" => Method::MaterializedView,
            "ji" => Method::JoinIndex,
            _ => Method::HybridHash,
        };
        let mut cached = CachedStrategy::build(&db, method).map_err(|e| e.to_string())?;
        let label = cached.as_dyn().name();
        let mut stream = gen.update_stream();
        for epoch in 0..epochs {
            db.reset_cost();
            let updates = stream.by_ref().take(gen.updates_per_epoch() as usize);
            let (cost, answer) =
                db.run_epoch(&mut [cached.as_dyn()], updates).map_err(|e| e.to_string())?.remove(0);
            let own = cost.strategy();
            println!(
                "{:<18} epoch {epoch}: {:>9.2} simulated s  ({} IOs, {} tuples; base {:.2} s)",
                label,
                own.time_secs(db.params()),
                own.ios,
                answer.len(),
                cost.base.time_secs(db.params())
            );
            if durable.is_some() {
                db.commit().map_err(|e| e.to_string())?;
            }
        }
        if args.flag("trace") {
            println!("\n-- {label} span profile (last epoch) --");
            print!("{}", db.cost().render_profile(db.params()));
            println!();
        }
    }
    // Model reference, priced at the measured (scaled) workload.
    let model = all_costs(&params, &measured);
    let preds: Vec<String> =
        model.iter().map(|c| format!("{}={:.1}s", c.method, c.total())).collect();
    println!("model prediction for this workload: {}", preds.join("  "));
    if let Some(path) = args.opt_str("report") {
        let report = observed_report(&params, &gen, &measured, epochs, durable.as_deref())?;
        std::fs::write(&path, report.to_json().pretty())
            .map_err(|e| format!("--report {path}: {e}"))?;
        println!("run report written to {path}");
    }
    Ok(())
}

/// One observed pass with MV, JI and HH sharing a single database, so the
/// emitted [`RunReport`] carries every strategy's cost sections in one span
/// tree, plus per-method engine-vs-model deltas (each method's logging and
/// queries; the base relations' maintenance is nobody's).
fn observed_report(
    params: &SystemParams,
    gen: &trijoin::GeneratedWorkload,
    measured: &Workload,
    epochs: u64,
    durable: Option<&std::path::Path>,
) -> Result<RunReport, String> {
    let mut db = match durable {
        Some(root) => {
            Database::create_durable(params, gen.r.clone(), gen.s.clone(), &root.join("report"))
                .map_err(err)?
        }
        None => Database::new(params, gen.r.clone(), gen.s.clone()).map_err(err)?,
    };
    let mut mv = db.materialized_view().map_err(err)?;
    let mut ji = db.join_index().map_err(err)?;
    let mut hh = db.hybrid_hash();
    db.reset_observability();
    let mut stream = gen.update_stream();
    let mut engine = [0.0f64; 3];
    for _ in 0..epochs {
        let updates = stream.by_ref().take(gen.updates_per_epoch() as usize);
        let runs = db.run_epoch(&mut [&mut mv, &mut ji, &mut hh], updates).map_err(err)?;
        for (secs, (cost, _)) in engine.iter_mut().zip(runs) {
            *secs += cost.strategy().time_secs(params);
        }
        if durable.is_some() {
            db.commit().map_err(err)?;
        }
    }
    let mut report = db.run_report("trijoin run");
    let model = all_costs(params, measured);
    for (method, secs) in Method::all().into_iter().zip(engine) {
        let m = model.iter().find(|c| c.method == method).unwrap();
        report.deltas.push(ModelDelta {
            label: method.label().to_string(),
            engine_secs: secs,
            model_secs: m.total(),
        });
    }
    Ok(report)
}

/// A server on a scaled paper workload and the client traffic that feeds
/// it: what `serve` and `top` launch alike.
struct Launched {
    method: Method,
    config: ServeConfig,
    gen: trijoin::GeneratedWorkload,
    traffic: Vec<ClientTraffic>,
    /// Queries per frame of `top`, or in all for `serve`.
    queries: u64,
    /// Updates sent so far; the next goes to client `sent % clients`.
    sent: u64,
    session: ClientSession,
    _server: Server,
}

impl Launched {
    /// Parse the flags `serve` and `top` share, with the command's own
    /// defaults for `--mem` and `--queries`, and start the server.
    fn start(args: &Args, mem: u64, queries: u64) -> Result<Self, String> {
        let shards = args.u64("shards", 4)? as usize;
        let clients = args.u64("clients", 4)? as usize;
        let ring = args.u64("ring", 1024)? as usize;
        let queries = args.u64("queries", queries)?;
        let seed = args.u64("seed", 42)?;
        let batch = args.u64("batch", 64)? as usize;
        if shards == 0 || clients == 0 || queries == 0 || ring == 0 || batch == 0 {
            return Err(
                "--shards, --clients, --queries, --ring and --batch must be positive".into()
            );
        }
        let method = match args.str("strategy", "hh").as_str() {
            "mv" => Method::MaterializedView,
            "ji" => Method::JoinIndex,
            "hh" => Method::HybridHash,
            other => return Err(format!("--strategy: unknown {other:?} (mv|ji|hh)")),
        };
        let spec = spec_from(args, 200, trijoin_common::rng::derive(seed, "workload"))?;
        let durable_dir = args.opt_str("durable").map(std::path::PathBuf::from);
        let deferred = args.flag("deferred");
        if deferred && durable_dir.is_none() {
            return Err("--deferred needs --durable".into());
        }
        let config = ServeConfig {
            batch,
            ring,
            seed,
            durable_dir,
            durability: if deferred { Durability::Deferred } else { Durability::Barrier },
            adaptive: args.flag("adaptive"),
            ..ServeConfig::new(params_from(args, mem)?, shards)
        };
        let gen = spec.generate();
        // Each client owns the R-tuples whose surrogate is its index modulo
        // the client count, so every client owns one only up to ‖R‖.
        if clients > gen.r.len() {
            return Err(format!("--clients {clients} exceeds ‖R‖ = {}", gen.r.len()));
        }
        let server = Server::start(&config, gen.r.clone(), gen.s.clone()).map_err(err)?;
        let session = server.session().map_err(err)?;
        let traffic = ClientTraffic::split(&gen, &config, clients);
        Ok(Launched { method, config, gen, traffic, queries, sent: 0, session, _server: server })
    }

    /// One traffic round: an epoch of updates dealt round-robin over the
    /// clients, then a query, then a commit barrier when the store is
    /// durable (every shard WAL seals the round's updates, and the report
    /// carries `wal.*` accounting). Returns the query's answer.
    fn round(&mut self) -> Result<Vec<ViewTuple>, String> {
        for _ in 0..self.gen.updates_per_epoch() {
            let c = (self.sent % self.traffic.len() as u64) as usize;
            self.session.update_r(self.traffic[c].next_mutation()).map_err(err)?;
            self.sent += 1;
        }
        let rows = self.session.query(self.method).map_err(err)?;
        if self.config.durable_dir.is_some() {
            self.session.commit().map_err(err)?;
        }
        Ok(rows)
    }
}

/// `trijoin serve` — run the sharded serving layer on a scaled paper
/// workload: `--clients` deterministic update streams feed the admission
/// scheduler between `--queries` queries, every answer is checked against
/// the single-engine oracle, and `--report` writes the per-shard reports
/// plus their rollup.
fn serve(args: &Args) -> Result<(), String> {
    let mut served = Launched::start(args, 1000, 10)?;
    let (config, gen) = (&served.config, &served.gen);
    let (durable, deferred) =
        (config.durable_dir.is_some(), config.durability == Durability::Deferred);
    let (method, queries, adaptive) = (served.method, served.queries, config.adaptive);
    println!(
        "serve: ‖R‖=‖S‖={} shards={} clients={} batch={} ring={} \
         strategy={} ‖iR‖={}/query{}",
        gen.r.len(),
        config.shards,
        served.traffic.len(),
        config.batch,
        config.ring,
        if adaptive { "adaptive".to_string() } else { method.to_string() },
        gen.updates_per_epoch(),
        match (durable, deferred) {
            (true, true) => " (durable, deferred commits)",
            (true, false) => " (durable)",
            _ => "",
        }
    );
    let started = std::time::Instant::now();
    let mut total_rows = 0;
    for q in 0..queries {
        let rows = served.round()?;
        total_rows += rows.len() as u64;
        // The merged answer must equal the single-engine oracle over the
        // clients' merged mirror.
        let want = trijoin_exec::oracle::canonicalize(trijoin_exec::oracle::join_tuples(
            &trijoin_serve::merged_current(&served.traffic),
            &served.gen.s,
        ));
        if rows != want {
            return Err(format!("query {q}: sharded answer diverged from the oracle"));
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let report = served.session.report().map_err(err)?;
    let rollup = &report.rollup;
    println!(
        "{queries} queries, {} updates, {total_rows} result tuples \
         in {wall:.2} s wall ({:.1} q/s)",
        served.sent,
        queries as f64 / wall.max(1e-9)
    );
    println!(
        "rollup: {} shard queries, {} batches (mean len {:.1}), {} cross-shard splits, \
         {} simulated IOs",
        rollup.metrics.counter("db.queries"),
        rollup.metrics.counter("serve.batches"),
        rollup.metrics.histogram("serve.batch.len").map(|h| h.mean()).unwrap_or(0.0),
        rollup.metrics.counter("serve.updates.cross_shard"),
        rollup.totals.ios
    );
    if durable {
        // Group-commit accounting across all shard WALs: under --deferred
        // the fsync count trails the commit count — that gap is the
        // coalescing win.
        println!(
            "wal: {} commits, {} fsyncs, {} frames ({} skipped clean), apply lag {:.0}",
            rollup.metrics.counter("wal.commits"),
            rollup.metrics.counter("wal.fsyncs"),
            rollup.metrics.counter("wal.frames"),
            rollup.metrics.counter("wal.frames_skipped"),
            rollup.metrics.gauge("wal.apply_lag").unwrap_or(0.0),
        );
    }
    if adaptive {
        println!(
            "migrate: {} switches, {} pages rebuilt, {} rollbacks; per-shard strategies [{}]",
            rollup.metrics.counter("migrate.count"),
            rollup.metrics.counter("migrate.rebuild_pages"),
            rollup.metrics.counter("migrate.rollbacks"),
            report
                .shards
                .iter()
                .map(|s| shard_strategy_label(&s.metrics))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    if let Some(path) = args.opt_str("report") {
        std::fs::write(&path, report.to_json().pretty())
            .map_err(|e| format!("--report {path}: {e}"))?;
        println!("sharded run report written to {path}");
    }
    Ok(())
}

/// Compact per-shard strategy cell. Adaptive shards show the method they
/// currently serve with (the `shard.strategy` gauge indexes
/// [`Method::all`]).
/// Pinned shards answer whatever method a query names, so they show the
/// cached structures they hold: `mv`, `ji`, `mv+ji`, or `-` for none.
fn shard_strategy_label(m: &trijoin_common::MetricsSnapshot) -> String {
    let Some(idx) = m.gauge("shard.strategy") else {
        let resident: Vec<&str> = [("shard.resident.mv", "mv"), ("shard.resident.ji", "ji")]
            .into_iter()
            .filter(|(gauge, _)| m.gauge(gauge).unwrap_or(0.0) >= 1.0)
            .map(|(_, name)| name)
            .collect();
        return if resident.is_empty() { "-".to_string() } else { resident.join("+") };
    };
    match Method::all().get(idx as usize) {
        Some(Method::MaterializedView) => "mv",
        Some(Method::JoinIndex) => "ji",
        Some(Method::HybridHash) => "hh",
        None => "?",
    }
    .to_string()
}

/// `trijoin report-validate <path>` — the CI schema gate, implemented in
/// [`trijoin_serve::validate`] so its error paths are unit-tested.
fn report_validate(rest: &[String]) -> Result<(), String> {
    let usage = "usage: trijoin report-validate <path> [--min-series-windows <n>]";
    let (path, min_windows) = match rest {
        [path] => (path, 0usize),
        [path, flag, n] if flag == "--min-series-windows" => {
            let n = n.parse().map_err(|_| format!("--min-series-windows: bad count {n:?}"))?;
            (path, n)
        }
        _ => return Err(usage.into()),
    };
    let summary = trijoin_serve::validate::validate_report_file_with(path, min_windows)?;
    println!("{summary}");
    Ok(())
}

/// `trijoin top` — the live serving-stack monitor. Spawns its own server
/// plus deterministic client traffic, then refreshes a dashboard frame
/// per traffic round: throughput, latency percentiles, ring
/// backpressure, per-shard update/query ratio, key skew, cost-drift
/// counts, and the telemetry window series. `--once` renders
/// a single frame; `--json` prints the sharded run report instead (it
/// validates under `trijoin report-validate`).
fn top(args: &Args) -> Result<(), String> {
    let refreshes = args.u64("refreshes", 0)?;
    let once = args.flag("once");
    let json = args.flag("json");
    let mut served = Launched::start(args, 80, 4)?;
    let mut frame = 0u64;
    loop {
        // A frame is `--queries` traffic rounds, whose query completion
        // times feed the percentiles.
        let round_start = std::time::Instant::now();
        for _ in 0..served.queries {
            served.round()?;
        }
        let wall = round_start.elapsed().as_secs_f64();
        let report = served.session.report().map_err(err)?;
        frame += 1;

        let last_frame = once || (refreshes > 0 && frame >= refreshes);
        if json {
            if last_frame {
                println!("{}", report.to_json().pretty());
            }
        } else {
            if !once {
                // Redraw in place: clear screen, home the cursor.
                print!("\x1b[2J\x1b[H");
            }
            let qps = served.queries as f64 / wall.max(1e-9);
            render_top_frame(&report, frame, served.method, qps);
        }
        if let Some(path) = args.opt_str("report") {
            if last_frame {
                std::fs::write(&path, report.to_json().pretty())
                    .map_err(|e| format!("--report {path}: {e}"))?;
            }
        }
        if last_frame {
            return Ok(());
        }
    }
}

/// Render one `trijoin top` dashboard frame from a sharded run report.
fn render_top_frame(
    report: &trijoin_common::ShardedRunReport,
    frame: u64,
    method: Method,
    qps: f64,
) {
    use trijoin_common::telemetry::safe_div;
    let rollup = &report.rollup;
    let m = &rollup.metrics;
    let gauge = |name: &str| m.gauge(name).unwrap_or(0.0);
    let adaptive = gauge("serve.adaptive") >= 1.0;
    println!(
        "trijoin top — frame {frame}: {} shards, strategy {}",
        report.shards.len(),
        if adaptive { "adaptive".to_string() } else { method.to_string() }
    );
    println!(
        "  qps {qps:>8.1}   p50 {:>7.0}us   p99 {:>7.0}us   ring cap {:>5.0} \
         ({:.0} full-waits)",
        gauge("serve.latency.p50_us"),
        gauge("serve.latency.p99_us"),
        gauge("serve.ring.capacity"),
        gauge("serve.ring.full_waits"),
    );
    if gauge("wal.enabled") >= 1.0 {
        // Durable serving: group-commit accounting summed across shard
        // WALs. fsyncs < commits means deferred barriers coalesced; the
        // skipped count is frames dropped by the skip-clean encoder; the
        // apply lag is committed-but-unapplied pages awaiting checkpoint.
        println!(
            "  wal  commits {:>6}   fsyncs {:>6}   frames {:>7} ({} skipped clean)   \
             apply lag {:>5.0}   log {:>9.0} B",
            m.counter("wal.commits"),
            m.counter("wal.fsyncs"),
            m.counter("wal.frames"),
            m.counter("wal.frames_skipped"),
            gauge("wal.apply_lag"),
            gauge("wal.len_bytes"),
        );
    }
    if adaptive {
        // Rollup migration accounting: switches completed, pages written
        // into migration targets, rollbacks (device faults while a target
        // was written).
        println!(
            "  migrate  switches {:>4}   rebuilt {:>7} pages   rollbacks {:>3}",
            m.counter("migrate.count"),
            m.counter("migrate.rebuild_pages"),
            m.counter("migrate.rollbacks"),
        );
    }
    let mean_r = safe_div(
        report.shards.iter().map(|s| s.metrics.gauge("shard.r_tuples").unwrap_or(0.0)).sum(),
        report.shards.len() as f64,
    );
    let strategy_header = if adaptive { "strategy" } else { "resident" };
    println!("  shard   r_tuples   s_tuples   upd/query   skew   drift   {strategy_header}");
    for shard in &report.shards {
        let sm = &shard.metrics;
        let drift =
            shard.events.iter().filter(|e| e.kind == trijoin_common::EventKind::CostDrift).count();
        let strategy = shard_strategy_label(sm);
        println!(
            "  {:>5}   {:>8.0}   {:>8.0}   {:>9.1}   {:>4.2}   {drift:>5}   {strategy:>8}",
            shard.name.trim_start_matches("shard"),
            sm.gauge("shard.r_tuples").unwrap_or(0.0),
            sm.gauge("shard.s_tuples").unwrap_or(0.0),
            safe_div(sm.counter("db.mutations") as f64, sm.counter("db.queries") as f64),
            safe_div(sm.gauge("shard.r_tuples").unwrap_or(0.0), mean_r),
        );
    }
    for series in &rollup.series {
        let audited: usize = series.audit.len();
        println!(
            "  series {:<8} domain {:<8} {:>3} windows   {audited} audited sections",
            series.name,
            series.domain,
            series.windows.len()
        );
    }
}

/// `trijoin check` — the deterministic simulation harness. Generates a
/// seeded workload script (or loads a committed corpus), replays it
/// against every implementation, and on failure shrinks to a minimal
/// JSON repro.
fn check(args: &Args) -> Result<(), String> {
    let mut cfg = CheckConfig {
        params: SystemParams {
            mem_pages: args.u64("mem", 64)? as usize,
            ..SystemParams::paper_defaults()
        },
        ..CheckConfig::default()
    };
    cfg.durable_root = args.opt_str("durable").map(std::path::PathBuf::from);
    if let Some(dir) = args.opt_str("corpus") {
        return check_corpus(&dir, &cfg);
    }
    let seed = args.u64("seed", 42)?;
    let ops = args.u64("ops", 160)? as usize;
    let mut gen_cfg = match args.opt_str("adversary") {
        // A shaped stream without adaptive replay would stress nothing:
        // --adversary therefore implies --adaptive.
        Some(name) => match AdversaryShape::from_wire(&name) {
            Some(shape) => GenConfig::adversarial(seed, ops, shape),
            None => {
                return Err(format!(
                    "--adversary: unknown shape {name:?} (bursty|zipf|phase|imbalance)"
                ))
            }
        },
        None => GenConfig::new(seed, ops),
    };
    if args.flag("adaptive") {
        gen_cfg.adaptive = true;
    }
    gen_cfg.batch = args.u64("batch", gen_cfg.batch as u64)? as usize;
    gen_cfg.crash_pct = args.u64("crash-pct", 0)? as u32;
    if gen_cfg.crash_pct > 100 {
        return Err("--crash-pct: must be within [0, 100]".into());
    }
    if gen_cfg.crash_pct > 0 && cfg.durable_root.is_none() {
        // Crash ops are inert on the in-memory backend; give the run a
        // scratch durable root so they actually exercise recovery.
        let root = std::env::temp_dir().join(format!("trijoin-check-{seed}"));
        println!("check: --crash-pct without --durable; using {}", root.display());
        cfg.durable_root = Some(root);
    }
    if let Some(list) = args.opt_str("shards") {
        gen_cfg.shard_counts = list
            .split(',')
            .map(|s| s.trim().parse::<usize>().map_err(|_| format!("--shards: bad count {s:?}")))
            .collect::<Result<Vec<usize>, String>>()?;
        if gen_cfg.shard_counts.is_empty() || gen_cfg.shard_counts.contains(&0) {
            return Err("--shards: counts must be positive".into());
        }
    }
    let script = generate(&gen_cfg);
    println!(
        "check: script {} — {} ops, {} checkpoints, shards {:?}{}{}",
        script.name,
        script.ops.len(),
        script.checkpoints(),
        script.shard_counts,
        match &script.spec.adversary {
            Some(a) => format!(", adversary {}", a.shape.as_str()),
            None => String::new(),
        },
        if script.spec.adaptive { ", adaptive" } else { "" }
    );
    if let Some(path) = args.opt_str("emit") {
        std::fs::write(&path, script.to_json_string())
            .map_err(|e| format!("--emit {path}: {e}"))?;
        println!("script written to {path}");
    }
    match run_script(&script, &cfg) {
        Ok(outcome) => {
            println!(
                "check ok: {} checkpoints verified (MV ≡ JI ≡ HH ≡ oracle ≡ serve), \
                 {} ops applied, {} skipped, {} fault plans, {} crash-recovery cycles{}",
                outcome.checkpoints,
                outcome.applied,
                outcome.skipped,
                outcome.faults_installed,
                outcome.crashes,
                reopened(&outcome)
            );
            if script.spec.adaptive {
                let per: Vec<String> = outcome
                    .migrations_by_server
                    .iter()
                    .map(|(shards, n)| format!("{shards}-shard:{n}"))
                    .collect();
                println!(
                    "adaptive ok: {} migrations ({} rollbacks) under the same oracle [{}]",
                    outcome.migrations,
                    outcome.migration_rollbacks,
                    per.join(" ")
                );
            }
            Ok(())
        }
        Err(failure) => {
            println!("check FAILED: {failure}");
            let out = args.opt_str("out").unwrap_or_else(|| format!("repro-seed-{seed}.json"));
            let shrunk = shrink(&script, &cfg).expect("a failing script shrinks");
            std::fs::write(&out, shrunk.script.to_json_string())
                .map_err(|e| format!("--out {out}: {e}"))?;
            println!(
                "shrunk {} ops -> {} ops in {} runs; minimal failure: {}",
                script.ops.len(),
                shrunk.script.ops.len(),
                shrunk.runs,
                shrunk.failure
            );
            println!("repro written to {out} (replay with: trijoin repro {out})");
            Err(format!("simulation check failed (seed {seed}); repro at {out}"))
        }
    }
}

/// What a replay's recoveries reopened of the sealed apply logs, for a
/// replay that crashed.
fn reopened(outcome: &CheckOutcome) -> String {
    if outcome.crashes == 0 {
        return String::new();
    }
    format!(" ({} queued mutations reopened)", outcome.recovered_queued_ops)
}

/// Replay every `*.json` script in a corpus directory.
fn check_corpus(dir: &str, cfg: &CheckConfig) -> Result<(), String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("--corpus {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("--corpus {dir}: no .json scripts found"));
    }
    let mut checkpoints = 0;
    for path in &paths {
        let shown = path.display();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
        let script = Script::from_json_str(&text).map_err(|e| format!("{shown}: {e}"))?;
        let cfg = durable_cfg_for(&script, cfg, "corpus");
        let outcome = run_script(&script, &cfg).map_err(|f| format!("{shown}: {f}"))?;
        println!(
            "{shown}: ok — {} checkpoints, {} ops applied, {} fault plans, {} crashes{}",
            outcome.checkpoints,
            outcome.applied,
            outcome.faults_installed,
            outcome.crashes,
            if script.spec.adaptive {
                format!(", {} migrations", outcome.migrations)
            } else {
                String::new()
            }
        );
        checkpoints += outcome.checkpoints;
    }
    println!("corpus ok: {} scripts, {checkpoints} checkpoints verified", paths.len());
    Ok(())
}

/// Crash ops are inert on the in-memory backend. When a script carries
/// them and the caller supplied no durable root, replay it under a
/// scratch directory so the crash-recovery cycles actually run.
fn durable_cfg_for(script: &Script, cfg: &CheckConfig, tag: &str) -> CheckConfig {
    let mut cfg = cfg.clone();
    let has_crashes =
        script.ops.iter().any(|op| matches!(op, trijoin_common::ScriptOp::Crash { .. }));
    if has_crashes && cfg.durable_root.is_none() {
        cfg.durable_root =
            Some(std::env::temp_dir().join(format!("trijoin-{tag}-{}", script.name)));
    }
    cfg
}

/// `trijoin repro <file>` — replay a shrunk repro (or any script file).
fn repro(rest: &[String]) -> Result<(), String> {
    let [path] = rest else {
        return Err("usage: trijoin repro <file>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let script = Script::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "repro: script {} — {} ops, {} checkpoints, shards {:?}",
        script.name,
        script.ops.len(),
        script.checkpoints(),
        script.shard_counts
    );
    let cfg = durable_cfg_for(&script, &CheckConfig::default(), "repro");
    match run_script(&script, &cfg) {
        Ok(outcome) => {
            println!(
                "script passes: {} checkpoints verified, {} ops applied, {} skipped, {} crashes{}",
                outcome.checkpoints,
                outcome.applied,
                outcome.skipped,
                outcome.crashes,
                reopened(&outcome)
            );
            Ok(())
        }
        Err(failure) => Err(format!("reproduced: {failure}")),
    }
}
