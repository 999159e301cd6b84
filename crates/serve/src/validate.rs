//! Report-file validation: the library behind `trijoin report-validate`.
//!
//! The CI schema gate feeds every emitted JSON artifact through these
//! functions. The file's shape is *sniffed*: a sharded serve report
//! (`shards` + `rollup`), a bench results file (a string `figure`), or a
//! plain run report — each must deserialize losslessly into its schema,
//! and cross-field invariants (rollup counter sums, the `serve.`
//! namespace reservation, shard-count-invariant checksums) are
//! re-verified from the raw JSON. Every rejection names the file, the
//! offending field, and what was expected, because a CI gate that says
//! "invalid" without saying *where* just moves the debugging to a human.
//!
//! Functions return the success summary as a `String` (the CLI prints
//! it) so every path is unit-testable without capturing stdout.

use trijoin_common::{Json, RunReport, SeriesSnapshot, ShardedRunReport};
use trijoin_exec::relation::apply_log_floor_pages;

/// Validate the report file at `path` (reads, parses, sniffs, checks),
/// requiring every telemetry series carried by (per-shard) run reports to
/// hold at least `min_series_windows` closed windows. `0` keeps series
/// optional — structural checks still run on any series that is present.
pub fn validate_report_file_with(path: &str, min_series_windows: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    validate_report_json_with(path, &json, min_series_windows)
}

/// Validate already-parsed JSON, dispatching on its sniffed schema.
pub fn validate_report_json(path: &str, json: &Json) -> Result<String, String> {
    validate_report_json_with(path, json, 0)
}

/// [`validate_report_json`] with a minimum-series-windows requirement.
fn validate_report_json_with(
    path: &str,
    json: &Json,
    min_series_windows: usize,
) -> Result<String, String> {
    if json.get("shards").is_some() && json.get("rollup").is_some() {
        return validate_sharded_report_with(path, json, min_series_windows);
    }
    if json.get("figure").and_then(Json::as_str).is_some() {
        return validate_bench_results(path, json);
    }
    validate_run_report_with(path, json, min_series_windows)
}

/// Structural invariants of one report's telemetry series: non-empty
/// identity, monotone window indices, ordered tick ranges, ordered
/// quantiles, finite audit ratios — plus the minimum-window floor when
/// the caller gates on sustained sampling.
fn check_series(
    path: &str,
    owner: &str,
    series: &[SeriesSnapshot],
    min_windows: usize,
) -> Result<(), String> {
    if min_windows > 0 && series.is_empty() {
        return Err(format!("{path}: {owner} carries no telemetry series"));
    }
    for snap in series {
        let tag = format!("{path}: {owner} series {:?}", snap.name);
        if snap.name.is_empty() || snap.domain.is_empty() {
            return Err(format!("{tag}: empty name or domain"));
        }
        if snap.window_ticks == 0 {
            return Err(format!("{tag}: window_ticks must be positive"));
        }
        if snap.windows.len() < min_windows {
            return Err(format!(
                "{tag}: {} windows, need at least {min_windows}",
                snap.windows.len()
            ));
        }
        for pair in snap.windows.windows(2) {
            if pair[1].index <= pair[0].index {
                return Err(format!(
                    "{tag}: window indices must increase ({} then {})",
                    pair[0].index, pair[1].index
                ));
            }
        }
        for w in &snap.windows {
            if w.end_tick < w.start_tick {
                return Err(format!(
                    "{tag}: window {} closes before it opens ({} < {})",
                    w.index, w.end_tick, w.start_tick
                ));
            }
            for (name, q) in &w.quantiles {
                if q.p99 < q.p50 {
                    return Err(format!(
                        "{tag}: window {} quantile {name:?} has p99 {} < p50 {}",
                        w.index, q.p99, q.p50
                    ));
                }
            }
            for a in &w.audit {
                if !a.log2_ratio.is_finite() {
                    return Err(format!(
                        "{tag}: window {} audit {:?} has non-finite log2_ratio",
                        w.index, a.section
                    ));
                }
            }
        }
        for a in &snap.audit {
            if a.samples == 0 {
                return Err(format!("{tag}: lifetime audit {:?} has zero samples", a.section));
            }
            if !a.log2_ratio.is_finite() {
                return Err(format!("{tag}: lifetime audit {:?} non-finite ratio", a.section));
            }
        }
    }
    Ok(())
}

/// When a report advertises the durable backend (the `wal.enabled`
/// gauge), the WAL instrumentation contract applies: commit accounting
/// and the live log-length gauge must be present. A durable run whose
/// report carries no `wal.*` counters is a report-capture bug — the
/// commit path stamps them unconditionally.
fn check_wal_marker(
    path: &str,
    owner: &str,
    metrics: &trijoin_common::MetricsSnapshot,
) -> Result<(), String> {
    if metrics.gauge("wal.enabled").unwrap_or(0.0) < 1.0 {
        return Ok(());
    }
    for counter in ["wal.commits", "wal.fsyncs", "wal.frames_skipped"] {
        if !metrics.counters.iter().any(|(k, _)| k == counter) {
            return Err(format!(
                "{path}: {owner} sets wal.enabled but carries no {counter} counter"
            ));
        }
    }
    if metrics.gauge("wal.len_bytes").is_none() {
        return Err(format!("{path}: {owner} sets wal.enabled but carries no wal.len_bytes gauge"));
    }
    Ok(())
}

/// Recovery writes each page once, from its last sealed image, so the
/// distinct pages it wrote (`wal.recovered.pages`) cannot exceed the
/// sealed frames it scanned (`wal.recovered.frames`). More pages than
/// frames means redo wrote an image no verified frame carried. Reports
/// that recovered nothing carry neither counter and owe nothing.
pub fn check_recovery_bound(
    path: &str,
    owner: &str,
    metrics: &trijoin_common::MetricsSnapshot,
) -> Result<(), String> {
    let (pages, frames) =
        (metrics.counter("wal.recovered.pages"), metrics.counter("wal.recovered.frames"));
    if pages > frames {
        return Err(format!(
            "{path}: {owner} reports wal.recovered.pages = {pages}, above its \
             wal.recovered.frames = {frames}"
        ));
    }
    Ok(())
}

/// When a sharded report advertises adaptive serving (the
/// `serve.adaptive` rollup gauge), the migration instrumentation
/// contract applies: the rollup must carry the migration count and the
/// incremental-rebuild page accounting. Adaptive shards register both
/// counters at construction, so even a run that never migrates reports
/// them — their absence means the report was captured from a build
/// without the migration machinery.
fn check_adaptive_marker(
    path: &str,
    metrics: &trijoin_common::MetricsSnapshot,
) -> Result<(), String> {
    if metrics.gauge("serve.adaptive").unwrap_or(0.0) < 1.0 {
        return Ok(());
    }
    for counter in ["migrate.count", "migrate.rebuild_pages"] {
        if !metrics.counters.iter().any(|(k, _)| k == counter) {
            return Err(format!(
                "{path}: rollup sets serve.adaptive but carries no {counter} counter"
            ));
        }
    }
    Ok(())
}

/// The residency bound of a pinned shard (see `shard::ResidentSet`; an
/// adaptive shard has one structure and no eviction rule): right after a
/// query round — no update applied since the shard's last answer — the
/// answering structure's log is folded and every other resident structure
/// whose spilled log outgrew it has been evicted, so the spilled log
/// pages cannot exceed the resident structures' pages. A report that says
/// otherwise was captured from a shard that keeps feeding differential
/// files nobody reads. Shards from builds without the residency gauges
/// owe nothing.
fn check_residency_bound(
    path: &str,
    owner: &str,
    metrics: &trijoin_common::MetricsSnapshot,
) -> Result<(), String> {
    let (Some(log_pages), Some(resident_pages)) =
        (metrics.gauge("shard.log_pages"), metrics.gauge("shard.resident_pages"))
    else {
        return Ok(());
    };
    let after_query_round = metrics.gauge("shard.updates_since_query").unwrap_or(0.0) == 0.0;
    if after_query_round && log_pages > resident_pages {
        return Err(format!(
            "{path}: {owner} reports shard.log_pages = {log_pages} after a query round, above \
             its shard.resident_pages = {resident_pages}"
        ));
    }
    Ok(())
}

/// The occupancy bound of a shard's base relations: the B⁺-trees keep
/// every leaf but the right edge at least half full and give emptied pages
/// back (`btree::tree`), so the node pages of `R` and of `S`
/// (`shard.base_pages.r|s`) stay within twice the leaf pages the same
/// tuples take packed full (`shard.base_packed.r|s`, Σ ⌈tuples ÷
/// leaf_cap⌉ over the relation's trees). The slack is a quarter of the
/// packed size for the internal levels (fan-out ≥ 16 at every page size
/// in use) plus 16 pages for roots, right edges and per-level rounding. A
/// shard past the bound is stranding half-empty pages — what ascending
/// inserts and lazy deletes did before the trees reclaimed space. Shards
/// from builds without the gauges owe nothing.
fn check_base_pages_bound(
    path: &str,
    owner: &str,
    metrics: &trijoin_common::MetricsSnapshot,
) -> Result<(), String> {
    for relation in ["r", "s"] {
        let (pages_name, packed_name) =
            (format!("shard.base_pages.{relation}"), format!("shard.base_packed.{relation}"));
        let (Some(pages), Some(packed)) = (metrics.gauge(&pages_name), metrics.gauge(&packed_name))
        else {
            continue;
        };
        let bound = 2.0 * packed + (packed / 4.0).floor() + 16.0;
        if pages > bound {
            return Err(format!(
                "{path}: {owner} reports {pages_name} = {pages}, above 2 × {packed_name} = \
                 {packed} plus slack ({bound})"
            ));
        }
    }
    Ok(())
}

/// The apply-log contract of an engine's base relations
/// (`exec::relation`): the log holds its buffer, one page for each run
/// being merged, the runs' surrogate columns and the path the sweep holds,
/// so `base.apply_log.peak_pages` stays within the bound the report
/// carries, `base.apply_log.bound_pages` — or, in a report without one (a
/// log within its floor stamps none), within 16 + 16 + the columns of 16
/// full runs of the densest run pages at the report's page size (4 bytes a
/// record and a page) + `base.tree_height` + 1 (the path holds a second
/// leaf) — and a report is taken with the log empty,
/// `base.apply_log.pending` = 0: a report that says otherwise describes
/// trees some acknowledged mutation has not reached. Reports from builds
/// without the gauges owe nothing.
fn check_apply_log_bound(path: &str, owner: &str, report: &RunReport) -> Result<(), String> {
    let metrics = &report.metrics;
    if let Some(peak) = metrics.gauge("base.apply_log.peak_pages") {
        let height = metrics.gauge("base.tree_height").unwrap_or(0.0) as usize;
        let floor = apply_log_floor_pages(height, report.params.page_size) as f64;
        let bound = metrics.gauge("base.apply_log.bound_pages").unwrap_or(floor);
        if peak > bound {
            return Err(format!(
                "{path}: {owner} reports base.apply_log.peak_pages = {peak}, above its bound \
                 {bound} (base.apply_log.bound_pages, or {floor} at its floor without it)"
            ));
        }
    }
    match metrics.gauge("base.apply_log.pending") {
        Some(pending) if pending > 0.0 => Err(format!(
            "{path}: {owner} reports base.apply_log.pending = {pending}: mutations still \
             queued in an emitted report"
        )),
        _ => Ok(()),
    }
}

/// Per-file I/O counters (`disk.read.f<N>`, `disk.write.f<N>`) describe
/// live files: the disk retires a file's pair when it deletes the file, so
/// a report names at most `disk.live_files` distinct files among them. More
/// means some layer still counts history — every run file a query ever
/// sealed. Reports from builds without the gauge owe nothing.
fn check_live_file_counters(
    path: &str,
    owner: &str,
    metrics: &trijoin_common::MetricsSnapshot,
) -> Result<(), String> {
    let Some(live) = metrics.gauge("disk.live_files") else { return Ok(()) };
    let mut files: Vec<&str> = metrics
        .counters
        .iter()
        .filter_map(|(k, _)| {
            k.strip_prefix("disk.read.f").or_else(|| k.strip_prefix("disk.write.f"))
        })
        .collect();
    files.sort_unstable();
    files.dedup();
    if files.len() as f64 > live {
        return Err(format!(
            "{path}: {owner} carries per-file I/O counters for {} files, above its \
             disk.live_files = {live}",
            files.len()
        ));
    }
    Ok(())
}

/// Validate a plain run report (`trijoin run --report`), with a
/// minimum-series-windows requirement.
fn validate_run_report_with(
    path: &str,
    json: &Json,
    min_series_windows: usize,
) -> Result<String, String> {
    for key in ["params", "spans", "metrics", "events"] {
        if json.get(key).is_none() {
            return Err(format!("{path}: run report is missing top-level key {key:?}"));
        }
    }
    let report = RunReport::from_json(json).map_err(|e| format!("{path}: schema drift: {e}"))?;
    check_series(path, "run report", &report.series, min_series_windows)?;
    check_wal_marker(path, "run report", &report.metrics)?;
    check_recovery_bound(path, "run report", &report.metrics)?;
    check_apply_log_bound(path, "run report", &report)?;
    check_live_file_counters(path, "run report", &report.metrics)?;
    let mut summary = format!(
        "{path}: ok — report {:?} with {} spans, {} metrics counters, {} events, {} deltas",
        report.name,
        report.spans.len(),
        report.metrics.counters.len(),
        report.events.len(),
        report.deltas.len()
    );
    if !report.series.is_empty() {
        let windows: usize = report.series.iter().map(|s| s.windows.len()).sum();
        summary.push_str(&format!(
            "\n{path}: {} telemetry series, {windows} closed windows",
            report.series.len()
        ));
    }
    let dropped = report.metrics.counter("events.dropped");
    if dropped > 0 {
        summary.push_str(&format!(
            "\n{path}: warning — event ring overflowed, {dropped} events dropped"
        ));
    }
    Ok(summary)
}

/// Rollup counters a sharded serve report must carry. A scheduler that
/// never went through the ring produces a report without them, and that
/// report is the bug: every serve request is submitted via the ring.
const REQUIRED_ROLLUP_COUNTERS: &[&str] = &["serve.ring.submitted"];

/// Rollup gauges a sharded serve report must carry: the ring geometry
/// and the end-to-end latency percentiles the bench harness graphs.
const REQUIRED_ROLLUP_GAUGES: &[&str] =
    &["serve.ring.capacity", "serve.latency.p50_us", "serve.latency.p99_us"];

/// Validate a sharded serve report: schema round-trip plus the rollup
/// invariant — every counter outside the scheduler-only `serve.`
/// namespace must be the exact sum of the per-shard counters — plus the
/// serve-path instrumentation contract (ring counters and latency
/// gauges must be present in the rollup), with a minimum-series-windows
/// requirement applied to every shard's engine series (the scheduler's
/// batch-domain `serve` series in the rollup only needs to exist and be
/// well-formed — its window count scales with batches, not engine work).
fn validate_sharded_report_with(
    path: &str,
    json: &Json,
    min_series_windows: usize,
) -> Result<String, String> {
    let report =
        ShardedRunReport::from_json(json).map_err(|e| format!("{path}: schema drift: {e}"))?;
    if report.shards.is_empty() {
        return Err(format!("{path}: sharded report carries no shards"));
    }
    for shard in &report.shards {
        check_series(path, &shard.name, &shard.series, min_series_windows)?;
    }
    check_series(path, "rollup", &report.rollup.series, 0)?;
    if min_series_windows > 0 && !report.rollup.series.iter().any(|s| s.name == "serve") {
        return Err(format!("{path}: rollup is missing the scheduler's \"serve\" series"));
    }
    let pinned = report.rollup.metrics.gauge("serve.adaptive").unwrap_or(0.0) < 1.0;
    for shard in &report.shards {
        check_wal_marker(path, &shard.name, &shard.metrics)?;
        check_recovery_bound(path, &shard.name, &shard.metrics)?;
        check_base_pages_bound(path, &shard.name, &shard.metrics)?;
        check_apply_log_bound(path, &shard.name, shard)?;
        check_live_file_counters(path, &shard.name, &shard.metrics)?;
        if pinned {
            check_residency_bound(path, &shard.name, &shard.metrics)?;
        }
        for (key, _) in &shard.metrics.counters {
            if key.starts_with("serve.") {
                return Err(format!(
                    "{path}: shard {:?} uses the scheduler-only namespace: {key}",
                    shard.name
                ));
            }
        }
    }
    for (key, value) in &report.rollup.metrics.counters {
        if key.starts_with("serve.") {
            continue;
        }
        let sum: u64 = report.shards.iter().map(|s| s.metrics.counter(key)).sum();
        if *value != sum {
            return Err(format!(
                "{path}: rollup counter {key} = {value} but the shards sum to {sum}"
            ));
        }
    }
    for key in REQUIRED_ROLLUP_COUNTERS {
        if !report.rollup.metrics.counters.iter().any(|(k, _)| k == key) {
            return Err(format!("{path}: rollup is missing required serve counter {key:?}"));
        }
    }
    for key in REQUIRED_ROLLUP_GAUGES {
        if report.rollup.metrics.gauge(key).is_none() {
            return Err(format!("{path}: rollup is missing required serve gauge {key:?}"));
        }
    }
    check_adaptive_marker(path, &report.rollup.metrics)?;
    Ok(format!(
        "{path}: ok — sharded report {:?} with {} shards, {} rollup counters, {} rollup events",
        report.name,
        report.shards.len(),
        report.rollup.metrics.counters.len(),
        report.rollup.events.len()
    ))
}

/// Validate a bench results file: a string `figure` and at least one
/// other member; `rows`, when present, is a non-empty array.
fn validate_bench_results(path: &str, json: &Json) -> Result<String, String> {
    let figure = json
        .get("figure")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: \"figure\" must be a string"))?;
    let fields = match json {
        Json::Obj(members) => members.len(),
        _ => 0,
    };
    if fields < 2 {
        return Err(format!("{path}: figure {figure:?} carries nothing besides its name"));
    }
    let Some(rows) = json.get("rows") else {
        return Ok(format!("{path}: ok — bench results {figure:?} with {fields} fields"));
    };
    let rows = rows.as_arr().ok_or_else(|| format!("{path}: \"rows\" must be an array"))?;
    if rows.is_empty() {
        return Err(format!("{path}: \"rows\" is empty"));
    }
    Ok(format!("{path}: ok — bench results {figure:?} with {} rows", rows.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unparseable_files_with_the_path_in_the_message() {
        let err = validate_report_file_with("/nonexistent/report.json", 0).unwrap_err();
        assert!(err.starts_with("/nonexistent/report.json:"), "{err}");

        let dir = std::env::temp_dir().join("trijoin-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = validate_report_file_with(path.to_str().unwrap(), 0).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn run_report_missing_top_level_keys_is_named() {
        for key in ["params", "spans", "metrics", "events"] {
            let mut json = Json::obj();
            for k in ["params", "spans", "metrics", "events"] {
                if k != key {
                    json = json.set(k, Json::obj());
                }
            }
            let err = validate_report_json("r.json", &json).unwrap_err();
            assert!(err.contains(key), "dropping {key} must be reported: {err}");
            assert!(err.contains("r.json"), "{err}");
        }
    }

    #[test]
    fn run_report_schema_drift_is_rejected() {
        // All keys present, but none hold the right shapes.
        let json = Json::obj()
            .set("params", Json::Arr(vec![]))
            .set("spans", "nope")
            .set("metrics", Json::obj())
            .set("events", Json::obj());
        let err = validate_report_json("r.json", &json).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
    }

    #[test]
    fn sharded_report_with_no_shards_is_rejected() {
        let json = Json::obj()
            .set("name", "serve")
            .set("shards", Json::Arr(vec![]))
            .set("rollup", Json::obj());
        let err = validate_report_json("s.json", &json).unwrap_err();
        // Either the schema round-trip or the emptiness check fires; both
        // must name the file.
        assert!(err.starts_with("s.json:"), "{err}");
    }

    #[test]
    fn durable_reports_must_carry_wal_accounting() {
        use trijoin_common::MetricsSnapshot;

        let mut metrics = MetricsSnapshot {
            counters: vec![],
            gauges: vec![("wal.enabled".into(), 1.0)],
            histograms: vec![],
        };
        let err = check_wal_marker("d.json", "run report", &metrics).unwrap_err();
        assert!(err.contains("wal.commits"), "{err}");
        assert!(err.contains("d.json"), "{err}");

        // The group-commit counters are part of the contract too: a
        // durable report must say how many fsyncs its commits cost and
        // how many clean frames the skip-clean encoder dropped.
        metrics.counters.push(("wal.commits".into(), 3));
        let err = check_wal_marker("d.json", "run report", &metrics).unwrap_err();
        assert!(err.contains("wal.fsyncs"), "{err}");
        metrics.counters.push(("wal.fsyncs".into(), 2));
        let err = check_wal_marker("d.json", "run report", &metrics).unwrap_err();
        assert!(err.contains("wal.frames_skipped"), "{err}");
        metrics.counters.push(("wal.frames_skipped".into(), 0));

        let err = check_wal_marker("d.json", "run report", &metrics).unwrap_err();
        assert!(err.contains("wal.len_bytes"), "{err}");

        metrics.gauges.push(("wal.len_bytes".into(), 0.0));
        check_wal_marker("d.json", "run report", &metrics).unwrap();

        // Reports that never enabled the WAL owe nothing.
        let inert = MetricsSnapshot { counters: vec![], gauges: vec![], histograms: vec![] };
        check_wal_marker("m.json", "run report", &inert).unwrap();
    }

    #[test]
    fn recovery_cannot_write_more_pages_than_it_scanned_frames() {
        use trijoin_common::MetricsSnapshot;

        let mut metrics = MetricsSnapshot {
            counters: vec![("wal.recovered.frames".into(), 40), ("wal.recovered.pages".into(), 40)],
            gauges: vec![],
            histograms: vec![],
        };
        check_recovery_bound("r.json", "shard0", &metrics).unwrap();
        metrics.counters[1].1 = 41;
        let err = check_recovery_bound("r.json", "shard0", &metrics).unwrap_err();
        assert!(err.contains("r.json") && err.contains("shard0"), "{err}");
        assert!(err.contains("wal.recovered.pages = 41"), "{err}");

        // No recovery ran: neither counter, nothing owed.
        let inert = MetricsSnapshot { counters: vec![], gauges: vec![], histograms: vec![] };
        check_recovery_bound("m.json", "run report", &inert).unwrap();
    }

    #[test]
    fn bench_results_error_paths() {
        let base = Json::obj().set("figure", "fig5");
        let err = validate_report_json("b.json", &base.clone().set("rows", "x")).unwrap_err();
        assert!(err.contains("\"rows\" must be an array"), "{err}");

        let err = validate_report_json("b.json", &base.clone().set("rows", Json::Arr(vec![])))
            .unwrap_err();
        assert!(err.contains("empty"), "{err}");

        // And a well-formed file passes.
        let rows = Json::Arr(vec![Json::obj().set("sr", 0.01), Json::obj().set("sr", 0.02)]);
        let ok = validate_report_json("b.json", &base.set("rows", rows)).unwrap();
        assert!(ok.contains("ok") && ok.contains("2 rows"), "{ok}");
    }

    #[test]
    fn figure_files_without_rows_pass_but_not_empty_ones() {
        // fig4's shape: a string `figure`, sweep sizes and checks, no `rows`.
        let fig4 = Json::obj()
            .set("figure", "fig4")
            .set("sr_steps", 46u64)
            .set("checks", Json::Arr(vec![Json::obj().set("ok", true)]));
        let ok = validate_report_json("fig4.json", &fig4).unwrap();
        assert!(ok.contains("bench results \"fig4\""), "{ok}");

        let err = validate_report_json("e.json", &Json::obj().set("figure", "fig4")).unwrap_err();
        assert!(err.contains("nothing besides its name"), "{err}");
    }

    #[test]
    fn sharded_report_requires_ring_and_latency_instrumentation() {
        use crate::{ServeConfig, Server};
        use trijoin::Method;
        use trijoin_common::{BaseTuple, Surrogate, SystemParams};

        let params = SystemParams { page_size: 512, mem_pages: 24, ..Default::default() };
        let config = ServeConfig { batch: 4, seed: 7, ..ServeConfig::new(params, 2) };
        let tuples: Vec<BaseTuple> =
            (0..24).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % 5, 48)).collect();
        let server = Server::start(&config, tuples.clone(), tuples).unwrap();
        let session = server.session().unwrap();
        session.query(Method::HybridHash).unwrap();
        let report = session.report().unwrap();

        // A live server's report satisfies the instrumentation contract.
        let ok = validate_report_json("s.json", &report.to_json()).unwrap();
        assert!(ok.contains("2 shards"), "{ok}");

        // Strip the ring counter: the validator must name it.
        let mut broken = report.clone();
        broken.rollup.metrics.counters.retain(|(k, _)| k != "serve.ring.submitted");
        let err = validate_report_json("s.json", &broken.to_json()).unwrap_err();
        assert!(err.contains("serve.ring.submitted"), "{err}");

        // Strip each required gauge in turn.
        for gauge in ["serve.ring.capacity", "serve.latency.p50_us", "serve.latency.p99_us"] {
            let mut broken = report.clone();
            broken.rollup.metrics.gauges.retain(|(k, _)| k != gauge);
            let err = validate_report_json("s.json", &broken.to_json()).unwrap_err();
            assert!(err.contains(gauge), "{err}");
        }
    }

    #[test]
    fn idle_log_above_the_resident_pages_is_rejected_after_a_query_round() {
        use crate::{ServeConfig, Server};
        use trijoin::Method;
        use trijoin_common::{BaseTuple, Surrogate, SystemParams};

        let params = SystemParams { page_size: 512, mem_pages: 24, ..Default::default() };
        let config = ServeConfig { batch: 4, seed: 7, ..ServeConfig::new(params, 2) };
        let tuples: Vec<BaseTuple> =
            (0..24).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % 5, 48)).collect();
        let server = Server::start(&config, tuples.clone(), tuples).unwrap();
        let session = server.session().unwrap();
        session.query(Method::MaterializedView).unwrap();
        let report = session.report().unwrap();
        validate_report_json("s.json", &report.to_json()).unwrap();

        let set = |report: &mut ShardedRunReport, name: &str, value: f64| {
            let gauges = &mut report.shards[1].metrics.gauges;
            gauges.iter_mut().find(|(k, _)| k == name).expect("gauge is stamped").1 = value;
        };
        let resident = report.shards[1].metrics.gauge("shard.resident_pages").unwrap();
        assert!(resident > 0.0, "the MV query made the view resident");
        let mut leaking = report.clone();
        set(&mut leaking, "shard.log_pages", resident + 1.0);
        let err = validate_report_json("s.json", &leaking.to_json()).unwrap_err();
        assert!(err.contains("shard1") && err.contains("shard.log_pages"), "{err}");

        // Between query rounds the last answerer's log may be any length.
        set(&mut leaking, "shard.updates_since_query", 9.0);
        validate_report_json("s.json", &leaking.to_json()).unwrap();
    }

    #[test]
    fn base_pages_above_twice_the_packed_size_are_rejected() {
        use crate::{ServeConfig, Server};
        use trijoin::Method;
        use trijoin_common::{BaseTuple, Surrogate, SystemParams};

        let params = SystemParams { page_size: 512, mem_pages: 24, ..Default::default() };
        let config = ServeConfig { batch: 4, seed: 7, ..ServeConfig::new(params, 2) };
        let tuples: Vec<BaseTuple> =
            (0..400).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % 5, 48)).collect();
        let server = Server::start(&config, tuples.clone(), tuples).unwrap();
        let session = server.session().unwrap();
        session.query(Method::HybridHash).unwrap();
        let report = session.report().unwrap();
        validate_report_json("s.json", &report.to_json()).unwrap();

        // A freshly loaded shard is packed: node pages are the packed
        // leaves plus the internal levels.
        let gauge = |name: &str| report.shards[0].metrics.gauge(name).expect("gauge is stamped");
        for relation in ["r", "s"] {
            let (pages, packed) = (
                gauge(&format!("shard.base_pages.{relation}")),
                gauge(&format!("shard.base_packed.{relation}")),
            );
            assert!(packed > 0.0 && pages >= packed && pages <= packed * 1.25 + 4.0, "{relation}");
        }

        // Half-empty pages — R's trees at three times their packed size —
        // are a named rejection.
        let mut bloated = report.clone();
        let packed = gauge("shard.base_packed.r");
        let gauges = &mut bloated.shards[0].metrics.gauges;
        gauges.iter_mut().find(|(k, _)| k == "shard.base_pages.r").unwrap().1 = 3.0 * packed + 17.0;
        let err = validate_report_json("s.json", &bloated.to_json()).unwrap_err();
        assert!(err.contains("shard0") && err.contains("shard.base_pages.r"), "{err}");
    }

    /// A live shard's report after mutations and a query, and shard 0's
    /// gauge `name` set to `value` in a copy of it.
    fn report_with_gauge(name: &str, value: f64) -> (ShardedRunReport, ShardedRunReport) {
        use crate::{ServeConfig, Server};
        use trijoin::{Method, Mutation, Update};
        use trijoin_common::{BaseTuple, Surrogate, SystemParams};

        let params = SystemParams { page_size: 512, mem_pages: 24, ..Default::default() };
        let config = ServeConfig { batch: 4, seed: 7, ..ServeConfig::new(params, 2) };
        let tuples: Vec<BaseTuple> =
            (0..200).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % 5, 48)).collect();
        let server = Server::start(&config, tuples.clone(), tuples.clone()).unwrap();
        let session = server.session().unwrap();
        for old in tuples.iter().take(40) {
            let new = BaseTuple::with_payload(old.sur, old.key, b"new", 48).unwrap();
            session.update_r(Mutation::Update(Update { old: old.clone(), new })).unwrap();
        }
        session.query(Method::HybridHash).unwrap();
        let report = session.report().unwrap();
        let mut edited = report.clone();
        let gauges = &mut edited.shards[0].metrics.gauges;
        gauges.iter_mut().find(|(k, _)| k == name).expect("gauge is stamped").1 = value;
        (report, edited)
    }

    #[test]
    fn apply_log_peak_above_its_constant_bound_is_rejected() {
        let (report, outgrown) = report_with_gauge("base.apply_log.peak_pages", 82.0);
        validate_report_json("s.json", &report.to_json()).unwrap();
        let shard = &report.shards[0].metrics;
        // The query read the shard's updates through the log's buffer; the
        // report settled them.
        assert_eq!(shard.counter("base.read_through.reads"), 1);
        assert_eq!(shard.counter("base.read_through.pages"), 0);
        assert_eq!(shard.counter("base.settles"), 1, "the report settled the shard's updates");
        assert_eq!(shard.gauge("base.tree_height"), Some(2.0));
        // A few buffer pages and the two-level path, far under the floor of
        // 16 + 16 + 3 and 46 512-byte pages for the columns of 16 full runs
        // of 256 pages of 22 records (the most a 512-byte page holds).
        let peak = shard.gauge("base.apply_log.peak_pages").expect("gauge is stamped");
        assert!(peak > 2.0 && peak < 8.0, "{peak} pages");
        let err = validate_report_json("s.json", &outgrown.to_json()).unwrap_err();
        assert!(err.contains("shard0") && err.contains("base.apply_log.peak_pages = 82"), "{err}");
        let (_, at_the_bound) = report_with_gauge("base.apply_log.peak_pages", 81.0);
        validate_report_json("s.json", &at_the_bound.to_json()).unwrap();
        // A larger relation's log is held to the bound its report carries.
        assert_eq!(shard.gauge("base.apply_log.bound_pages"), None, "a log at its floor");
        let mut roomy = outgrown.clone();
        roomy.shards[0].metrics.gauges.push(("base.apply_log.bound_pages".into(), 82.0));
        validate_report_json("s.json", &roomy.to_json()).unwrap();
        roomy.shards[0].metrics.gauges.last_mut().unwrap().1 = 81.5;
        let err = validate_report_json("s.json", &roomy.to_json()).unwrap_err();
        assert!(err.contains("above its bound 81.5"), "{err}");
    }

    /// A relation of the repo benchmark's `ji_cycle` shape (40 000 tuples
    /// of 200 B on 4 000-byte pages, `|M|` = 200) may hold runs over three
    /// quarters of its 2 858 leaves, 133 of them, and their columns: a
    /// bound above the floor and within `|M|`, which its report carries and
    /// is held to.
    #[test]
    fn a_cycle_shaped_relations_report_carries_its_bound_and_is_held_to_it() {
        use trijoin::Database;
        use trijoin_common::{BaseTuple, Surrogate, SystemParams};

        let tuples: Vec<BaseTuple> =
            (0..40_000).map(|i| BaseTuple::padded(Surrogate(i), (i % 2_000) as u64, 200)).collect();
        // Runs of 16 pages of 19 records, with columns of a surrogate and a
        // slice start each, 4 bytes each: at |M| = 200, 133 runs (three
        // quarters of the leaves) and 43 column pages; at 150 and 100 the
        // most runs that fit |M| with their columns, 98 with 32 and 60 with
        // 20. The path holds 4.
        for (mem_pages, runs, columns) in [(200, 133, 43), (150, 98, 32), (100, 60, 20)] {
            let params = SystemParams { mem_pages, ..SystemParams::paper_defaults() };
            let db = Database::new(&params, tuples.clone(), tuples.clone()).unwrap();
            let (leaves, height) = (db.r().data_pages(), db.r().height());
            assert_eq!((leaves, height), (2_858, 3));
            let bound = db.r().apply_log_bound_pages();
            assert_eq!(bound, 16 + runs + columns + 4, "|M| = {mem_pages}");
            assert!(bound <= mem_pages as u64);
            // The floor prices 16 full runs' columns at 173 records a
            // page, 45 pages; it would hold this log to 81.
            let floor = apply_log_floor_pages(height, params.page_size);
            assert_eq!(floor, 16 + 16 + 45 + 4);
            let report = db.run_report("cycle");
            assert_eq!(report.metrics.gauge("base.apply_log.bound_pages"), Some(bound as f64));
            validate_report_json("r.json", &report.to_json()).unwrap();
            let with_peak = |peak: u64| {
                let mut edited = report.clone();
                let gauges = &mut edited.metrics.gauges;
                gauges.iter_mut().find(|(k, _)| k == "base.apply_log.peak_pages").unwrap().1 =
                    peak as f64;
                validate_report_json("r.json", &edited.to_json())
            };
            with_peak(bound).unwrap();
            let err = with_peak(bound + 1).unwrap_err();
            assert!(err.contains(&format!("above its bound {bound}")), "{err}");
        }
    }

    #[test]
    fn mutations_still_queued_in_a_report_are_rejected() {
        let (report, queued) = report_with_gauge("base.apply_log.pending", 3.0);
        assert_eq!(report.shards[0].metrics.gauge("base.apply_log.pending"), Some(0.0));
        let err = validate_report_json("s.json", &queued.to_json()).unwrap_err();
        assert!(err.contains("shard0") && err.contains("base.apply_log.pending = 3"), "{err}");
        // The same rule holds a bare engine's run report to account.
        let run = queued.shards[0].to_json();
        let err = validate_report_json("r.json", &run).unwrap_err();
        assert!(err.contains("run report") && err.contains("base.apply_log.pending"), "{err}");
    }

    #[test]
    fn per_file_counters_beyond_the_live_files_are_rejected() {
        let (report, _) = report_with_gauge("disk.live_files", 0.0);
        validate_report_json("s.json", &report.to_json()).unwrap();
        let shard = &report.shards[0].metrics;
        let live = shard.gauge("disk.live_files").expect("gauge is stamped");
        let named = shard.counters.iter().filter(|(k, _)| k.starts_with("disk.read.f")).count();
        assert!(named > 0 && named as f64 <= live, "{named} files read, {live} live");
        // A report naming one file more than the disk holds counts history.
        let mut stale = report.clone();
        let gauges = &mut stale.shards[0].metrics.gauges;
        gauges.iter_mut().find(|(k, _)| k == "disk.live_files").unwrap().1 = named as f64 - 1.0;
        let err = validate_report_json("s.json", &stale.to_json()).unwrap_err();
        assert!(err.contains("shard0") && err.contains("disk.live_files"), "{err}");
        let err = validate_report_json("r.json", &stale.shards[0].to_json()).unwrap_err();
        assert!(err.contains("run report") && err.contains("disk.live_files"), "{err}");
    }

    #[test]
    fn series_floor_gates_sustained_sampling() {
        use crate::{ServeConfig, Server};
        use trijoin::Method;
        use trijoin_common::{BaseTuple, Surrogate, SystemParams};

        let params = SystemParams { page_size: 512, mem_pages: 24, ..Default::default() };
        let config = ServeConfig { batch: 4, seed: 7, ..ServeConfig::new(params.clone(), 2) };
        let tuples: Vec<BaseTuple> =
            (0..24).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % 5, 48)).collect();
        let server = Server::start(&config, tuples.clone(), tuples.clone()).unwrap();
        let session = server.session().unwrap();
        session.query(Method::HybridHash).unwrap();
        let report = session.report().unwrap();

        // Telemetry defaults on: each shard closed at least the forced
        // final window, and the rollup carries the scheduler series.
        validate_report_json_with("s.json", &report.to_json(), 1).unwrap();
        let err = validate_report_json_with("s.json", &report.to_json(), 10_000).unwrap_err();
        assert!(err.contains("windows, need at least 10000"), "{err}");

        // With telemetry off, any positive floor is a named rejection.
        let quiet_cfg = ServeConfig { telemetry: None, ..config };
        let tuples: Vec<BaseTuple> =
            (0..24).map(|i| BaseTuple::padded(Surrogate(i), (i as u64) % 5, 48)).collect();
        let server = Server::start(&quiet_cfg, tuples.clone(), tuples).unwrap();
        let session = server.session().unwrap();
        session.query(Method::HybridHash).unwrap();
        let quiet = session.report().unwrap();
        validate_report_json("q.json", &quiet.to_json()).unwrap();
        let err = validate_report_json_with("q.json", &quiet.to_json(), 1).unwrap_err();
        assert!(err.contains("no telemetry series"), "{err}");
    }
}
