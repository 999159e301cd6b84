//! The round loop shared by every workload, and the metrics it yields.

use std::path::PathBuf;
use std::time::Instant;

use trijoin::GeneratedWorkload;
use trijoin_common::telemetry::safe_div;
use trijoin_common::MetricsSnapshot;

use crate::cycle::{self, Cycle};
use crate::serve::{self, Serve};
use crate::spans::{self, Recorder};
use crate::stats::{self, median, per_segment, summarize_capped};
use crate::workload::{
    Def, Instance, Kind, Observation, Round, Scale, VERIFY_EVERY, WARMUP_ROUNDS,
};
use crate::{load, Metric, Options, DEFAULT_SEED};

/// Set-ups per run: at least this many, and more (up to the cap) while
/// they are short. The quickest is reported: a set-up is a sum of many
/// steps, so a slow spell of the host moves its mean and median (by 34 %
/// between two sets of ten runs) where it barely moves its minimum.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.6;

/// Everything one run of one workload produced.
pub struct Outcome {
    /// The result line's metrics: the end-to-end or the per-layer set.
    pub metrics: Vec<Metric>,
    /// Listed with them but not in the result line: an untraced run's
    /// host-clock numbers, which carry no bound.
    pub listed_only: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

fn durable_dir(def: &Def, seed: u64) -> Option<PathBuf> {
    match &def.kind {
        Kind::Serve(s) if s.durable => Some(crate::out_dir().join(format!(
            "{}-seed{seed}-pid{}",
            def.name,
            std::process::id()
        ))),
        _ => None,
    }
}

fn generate(def: &Def, seed: u64, scale: &Scale) -> GeneratedWorkload {
    match &def.kind {
        Kind::Cycle(_) => cycle::generate(seed, scale),
        Kind::Serve(s) => serve::generate(s, seed, scale),
    }
}

/// `bench.load_checksum`: what this workload feeds the program at `seed`.
pub fn load_checksum(def: &Def, seed: u64) -> u64 {
    let gen = generate(def, seed, &crate::workload::FULL);
    match &def.kind {
        Kind::Cycle(_) => {
            let mut stream = gen.update_stream();
            load::checksum(&gen, || trijoin::Mutation::Update(stream.next_update()))
        }
        Kind::Serve(s) => load::checksum(&gen, serve::checksum_stream(s, &gen)),
    }
}

/// Generate, load, build the cached structures and warm up.
fn setup(
    def: &'static Def,
    opts: &Options,
    rec: &Recorder,
) -> Result<(Box<dyn Instance>, u64), String> {
    let mut instance: Box<dyn Instance> = match &def.kind {
        Kind::Cycle(method) => {
            Box::new(Cycle::setup(*method, opts.seed, &opts.scale, opts.sabotage, rec)?)
        }
        Kind::Serve(s) => Box::new(Serve::setup(
            s,
            opts.seed,
            &opts.scale,
            durable_dir(def, opts.seed),
            opts.sabotage,
            rec,
        )?),
    };
    let mut failed = 0;
    for i in 0..WARMUP_ROUNDS {
        failed += instance.round(i, rec).failed as u64;
    }
    Ok((instance, failed))
}

/// Timed rounds plus the checks made between them.
#[derive(Default)]
struct Region {
    rounds: Vec<Round>,
    checks: u64,
    bad_checks: u64,
}

/// Run rounds `from..to` of `total`, verifying every [`VERIFY_EVERY`]-th
/// round and round `total - 1` outside the timed phases.
fn run_rounds(
    instance: &mut dyn Instance,
    rec: &Recorder,
    range: std::ops::Range<u32>,
    total: u32,
    region: &mut Region,
) {
    for i in range {
        rec.set_round(i);
        let round = {
            let _span = rec.span("round");
            instance.round(WARMUP_ROUNDS + i, rec)
        };
        region.rounds.push(round);
        if (i + 1) % VERIFY_EVERY == 0 || i + 1 == total {
            region.checks += 1;
            region.bad_checks += u64::from(!instance.verify());
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Rounds per second of timed phases (the generator is excluded).
fn qps(rounds: &[Round]) -> f64 {
    let timed: u64 = rounds.iter().map(Round::timed_ns).sum();
    rounds.len() as f64 / (timed as f64 / 1e9).max(1e-12)
}

/// Median over the segments of each segment's 10th percentile of `f`.
/// Slowdowns on a shared host are one-sided, and a server with more
/// threads than cores flips between a fast and a slow scheduling state;
/// the low percentile reads the undisturbed cost in either case, where
/// the median flips with the mix.
fn segment_p10(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&per_segment(rounds, |seg| {
        stats::percentile_of(&seg.iter().map(&f).collect::<Vec<_>>(), 10.0)
    }))
}

fn p10_round_ms(rounds: &[Round]) -> f64 {
    stats::percentile_of(&rounds.iter().map(|r| ms(r.timed_ns())).collect::<Vec<_>>(), 10.0)
}

/// The host-clock numbers of `rounds`: the ungated `bench.*` group. Ten
/// runs of one binary differed by up to 29 % on them (interquartile range
/// over median, see README.md), more than any bound could absorb.
fn wall_clock(rounds: &[Round]) -> Vec<Metric> {
    let n = rounds.len();
    let update_us: Vec<f64> = rounds.iter().map(|r| r.update_ns as f64 / 1e3).collect();
    let round_ms: Vec<f64> = rounds.iter().map(|r| ms(r.timed_ns())).collect();
    let query_ms: Vec<f64> = rounds.iter().map(|r| ms(r.query_ns)).collect();
    let (round_tail, query_tail) =
        (summarize_capped(&round_ms, 95.0), summarize_capped(&query_ms, 95.0));
    let per_segment_qps = per_segment(rounds, qps);
    vec![
        Metric::new("bench.queries_per_s", median(&per_segment_qps), "1/s", n),
        Metric::new("bench.update_us_p50", median(&update_us), "us", n),
        Metric::new("bench.round_ms_p50", round_tail.p50, "ms", n),
        Metric::new("bench.query_ms_p50", query_tail.p50, "ms", n),
        Metric::new("bench.round_ms_p95", round_tail.tail, "ms", n)
            .note(format!("p{}", round_tail.tail_pct)),
        Metric::new("bench.query_ms_p95", query_tail.tail, "ms", n)
            .note(format!("p{}", query_tail.tail_pct)),
        Metric::new("bench.round_ms_p10", segment_p10(rounds, |r| ms(r.timed_ns())), "ms", n),
        Metric::new("bench.query_ms_p10", segment_p10(rounds, |r| ms(r.query_ns)), "ms", n),
        Metric::new("bench.segment_spread_pct", stats::spread_pct(&per_segment_qps), "%", n)
            .note(format!("{per_segment_qps:.1?}")),
    ]
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `commit_ms_p50`, `recovery_s` and `wal_bytes_per_update` of ISSUE 11.
/// Only `serve_durable` has them; elsewhere they have no samples (`n` = 0)
/// and are not printed.
fn durable_metrics(rounds: &[Round], recovery_s: Option<f64>, wal_bytes: u64) -> Vec<Metric> {
    let commit_ms: Vec<f64> =
        rounds.iter().filter(|r| r.commit_ns > 0).map(|r| ms(r.commit_ns)).collect();
    let updates: u64 = rounds.iter().map(|r| r.updates as u64).sum();
    vec![
        Metric::new("durable.commit_ms_p50", median(&commit_ms), "ms", commit_ms.len()),
        Metric::new(
            "durable.recovery_s",
            recovery_s.unwrap_or(0.0),
            "s",
            usize::from(recovery_s.is_some()),
        ),
        Metric::new(
            "durable.wal_bytes_per_update",
            safe_div(wal_bytes as f64, updates as f64),
            "B",
            if wal_bytes > 0 { updates as usize } else { 0 },
        ),
    ]
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(def: &'static Def, opts: &Options) -> Result<Outcome, String> {
    let rec = Recorder::default();
    let checksum = load_checksum(def, opts.seed);
    let checksum_ok = opts.seed != DEFAULT_SEED || checksum == def.checksum;

    let mut setups = Vec::new();
    let mut current = None;
    let mut failed = 0u64;
    let budget = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(current.take());
        let at = Instant::now();
        let (instance, warmup_failed) = setup(def, opts, &rec)?;
        setups.push(at.elapsed().as_secs_f64());
        failed += warmup_failed;
        current = Some(instance);
    }
    let mut instance = current.expect("at least one set-up ran");

    let total = def.rounds(opts.seconds, &opts.scale);
    let before = instance.observe()?;
    let mut region = Region::default();
    run_rounds(instance.as_mut(), &rec, 0..total, total, &mut region);
    let after = instance.observe()?;
    let epilogue = instance.finish(&rec);

    let rounds = &region.rounds;
    let migrations = delta(&before, &after, "migrate.count");
    let adaptive_ok = !matches!(&def.kind, Kind::Serve(s) if s.adaptive)
        || migrations >= if opts.scale.rounds_div == 1 { 4 } else { 1 };
    let calls: u64 = rounds.iter().map(|r| r.calls as u64).sum();
    // The load checksum and the migration guard are the two extra checks.
    let attempted = calls + region.checks + epilogue.calls as u64 + 2;
    failed += rounds.iter().map(|r| r.failed as u64).sum::<u64>()
        + region.bad_checks
        + epilogue.failed as u64
        + u64::from(!checksum_ok)
        + u64::from(!adaptive_ok);

    let updates: u64 = rounds.iter().map(|r| r.updates as u64).sum();
    let wal_bytes = delta(&before, &after, "wal.bytes");
    let page_bytes = delta(&before, &after, "disk.writes")
        * trijoin::SystemParams::paper_defaults().page_size as u64;
    let metrics = vec![
        Metric::new("setup_s", setups.iter().copied().fold(f64::MAX, f64::min), "s", setups.len()),
        Metric::new(
            "sim_s_per_round",
            (after.sim_secs - before.sim_secs) / rounds.len() as f64,
            "s",
            rounds.len(),
        ),
        Metric::new(
            "write_bytes_per_update",
            (page_bytes + wal_bytes) as f64 / updates as f64,
            "B",
            updates as usize,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
    ];
    let mut listed_only = wall_clock(rounds);
    listed_only.extend(durable_metrics(rounds, epilogue.recovery_s, wal_bytes));
    println!(
        "{} bench.load_checksum {checksum:#018x} hash pinned={}",
        def.name,
        if opts.seed == DEFAULT_SEED { checksum_ok.to_string() } else { "n/a".into() }
    );
    if !adaptive_ok {
        println!("{} FAILED: only {migrations} strategy migrations in the timed region", def.name);
    }
    Ok(Outcome { metrics, listed_only, attempted, failed })
}

fn delta(before: &Observation, after: &Observation, counter: &str) -> u64 {
    after.metrics.counter(counter).saturating_sub(before.metrics.counter(counter))
}

/// Mean of a histogram's samples between two snapshots.
fn histogram_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let at = |m: &MetricsSnapshot| m.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let ((c0, s0), (c1, s1)) = (at(before), at(after));
    safe_div(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
}

/// Per-layer counts read from the program's own reports over `rounds`
/// traced rounds.
fn layer_counts(before: &Observation, after: &Observation, rounds: usize) -> Vec<Metric> {
    let n = rounds as f64;
    let d = |name: &str| delta(before, after, name) as f64;
    let (frames, skipped) = (d("wal.frames"), d("wal.frames_skipped"));
    let full_waits = after.metrics.gauge("serve.ring.full_waits").unwrap_or(0.0)
        - before.metrics.gauge("serve.ring.full_waits").unwrap_or(0.0);
    let count =
        |name: &'static str, value: f64, unit: &'static str| Metric::new(name, value, unit, rounds);
    vec![
        count("storage.disk.reads_per_round", d("disk.reads") / n, "count"),
        count("storage.disk.writes_per_round", d("disk.writes") / n, "count"),
        count("storage.disk.pages_per_user_page", after.pages_per_user_page, "ratio"),
        count(
            "storage.wal.fsyncs_per_commit",
            safe_div(d("wal.fsyncs"), d("wal.commits")),
            "count",
        ),
        count("storage.wal.frames_per_commit", safe_div(frames, d("wal.commits")), "count"),
        count("storage.wal.frames_skipped_share", safe_div(skipped, frames + skipped), "ratio"),
        count("storage.wal.checkpoints", d("wal.checkpoints"), "count"),
        count(
            "serve.batch_len_mean",
            histogram_mean(&before.metrics, &after.metrics, "serve.batch.len"),
            "count",
        ),
        count(
            "serve.ring.drain_len_mean",
            histogram_mean(&before.metrics, &after.metrics, "serve.ring.drain.len"),
            "count",
        ),
        count("serve.ring.full_waits_per_round", full_waits / n, "count"),
        count(
            "serve.cross_shard_share",
            safe_div(d("serve.updates.cross_shard"), d("serve.updates.r")),
            "ratio",
        ),
        count(
            "serve.latency_p50_us",
            after.metrics.gauge("serve.latency.p50_us").unwrap_or(0.0),
            "us",
        ),
        count("serve.migrations", d("migrate.count"), "count"),
        count("serve.migrate_rebuild_pages_per_round", d("migrate.rebuild_pages") / n, "count"),
    ]
}

/// Blocks the traced run's rounds are cut into, alternately untraced and
/// traced. Odd, and five to a `serve_adaptive` traffic cycle, so neither
/// side keeps meeting the same phase.
const TRACE_BLOCKS: u32 = 25;

/// The traced run: every per-layer metric. The workload runs at half
/// length, a quarter untraced and a quarter traced, and probes of the
/// single layers follow.
pub fn per_layer(def: &'static Def, opts: &Options) -> Result<Outcome, String> {
    let rec = Recorder::default();
    let checksum = load_checksum(def, opts.seed);
    let (mut instance, mut failed) = setup(def, opts, &rec)?;

    // Short alternating blocks: a host's slow spells and a server's
    // scheduling states last seconds, and both sides must see them alike.
    let block = (def.rounds(opts.seconds, &opts.scale) / (2 * TRACE_BLOCKS)).max(2);
    let total = block * TRACE_BLOCKS;
    let mut plain = Region::default();
    let mut traced = Region::default();
    let before = instance.observe()?;
    for b in 0..TRACE_BLOCKS {
        let on = b % 2 == 1;
        rec.set_on(on);
        let region = if on { &mut traced } else { &mut plain };
        run_rounds(instance.as_mut(), &rec, b * block..(b + 1) * block, total, region);
    }
    rec.set_on(false);
    let after = instance.observe()?;
    let wal_bytes = delta(&before, &after, "wal.bytes");
    rec.set_on(true);
    let epilogue = instance.finish(&rec);
    rec.set_on(false);
    let spans = rec.take();

    let all: Vec<Round> = plain.rounds.iter().chain(&traced.rounds).copied().collect();
    let calls: u64 = all.iter().map(|r| r.calls as u64).sum();
    let checks = plain.checks + traced.checks;
    let attempted = calls + checks + epilogue.calls as u64;
    failed += all.iter().map(|r| r.failed as u64).sum::<u64>()
        + plain.bad_checks
        + traced.bad_checks
        + epilogue.failed as u64;

    let gen_ns: u64 = all.iter().map(|r| r.gen_ns).sum();
    let timed_ns: u64 = all.iter().map(Round::timed_ns).sum();

    let mut metrics = wall_clock(&plain.rounds);
    metrics.extend([
        Metric::new(
            "bench.generator_share",
            safe_div(gen_ns as f64, (gen_ns + timed_ns) as f64),
            "ratio",
            all.len(),
        ),
        Metric::new(
            "bench.trace_overhead_pct",
            (safe_div(p10_round_ms(&traced.rounds), p10_round_ms(&plain.rounds)) - 1.0) * 100.0,
            "%",
            traced.rounds.len(),
        ),
        // Folded to 32 bits so the value is exact as a JSON number.
        Metric::new(
            "bench.load_checksum",
            ((checksum >> 32) ^ (checksum & 0xffff_ffff)) as f64,
            "hash",
            1,
        )
        .note(format!("{checksum:#018x}")),
        Metric::new(
            "bench.error_rate",
            safe_div(failed as f64, attempted as f64),
            "ratio",
            attempted as usize,
        ),
    ]);
    metrics.extend(durable_metrics(&all, epilogue.recovery_s, wal_bytes));
    // The program's counters do not depend on the recorder: count over
    // both halves.
    metrics.extend(layer_counts(&before, &after, total as usize));

    // Where a traced round's wall time goes, by span self time.
    let by_name = spans::self_ms_per_round(&spans, traced.rounds.len());
    let self_ms = |names: &[&str]| -> f64 {
        by_name.iter().filter(|(name, _)| names.contains(name)).fold(0.0, |sum, (_, ms)| sum + ms)
    };
    let span_metric =
        |name, spans: &[&str]| Metric::new(name, self_ms(spans), "ms", traced.rounds.len());
    metrics.extend([
        span_metric("trace.harness_ms", &["round", "update"]),
        span_metric("trace.generate_ms", &["generate"]),
        span_metric(
            "trace.update_calls_ms",
            &["strategy.on_update", "db.apply_r_update", "session.update_r"],
        ),
        span_metric("trace.query_self_ms", &["db.query", "session.query"]),
        span_metric("trace.strategy_execute_ms", &["strategy.execute"]),
        span_metric("trace.commit_ms", &["session.commit"]),
    ]);

    metrics.extend(crate::probes::run(&opts.scale)?);

    let path = crate::out_dir().join(format!("trace-{}.json", def.name));
    std::fs::create_dir_all(crate::out_dir()).map_err(|e| e.to_string())?;
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced_rounds\":{},\"metrics\":{},\"spans\":{}}}\n",
        def.name,
        opts.seed,
        traced.rounds.len(),
        crate::metrics_json(&metrics, true),
        spans::spans_json(&spans)
    );
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{} trace file {} ({} spans)", def.name, path.display(), spans.len());
    Ok(Outcome { metrics, listed_only: Vec::new(), attempted, failed })
}
