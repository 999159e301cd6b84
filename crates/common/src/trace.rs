//! Machine-readable run reports.
//!
//! A [`RunReport`] bundles everything the observability layer knows about
//! one run — the [`SystemParams`] it was priced under, the ledger grand
//! total and span tree, a metrics snapshot, the retained event log, and any
//! model-vs-engine deltas — into one value that serializes to JSON
//! ([`RunReport::to_json`]) and parses back ([`RunReport::from_json`]) with
//! full equality. Bench binaries write these next to their text output;
//! `trijoin --report <path>` emits one per run; `ci.sh` schema-checks one.
//!
//! The stable top-level JSON keys are `name`, `params`, `totals`, `spans`,
//! `metrics`, `events`, and `deltas`; runs with telemetry enabled add
//! `series` (omitted entirely when no sampler ran, so telemetry-free
//! reports — including the pinned goldens — are byte-identical to before
//! the subsystem existed).

use crate::cost::{Cost, OpCounts, SpanRecord};
use crate::events::{Event, EventLog};
use crate::json::Json;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::params::SystemParams;
use crate::telemetry::SeriesSnapshot;

/// Serialize an [`OpCounts`] as `{ios, comps, hashes, moves}`.
pub fn ops_to_json(ops: &OpCounts) -> Json {
    Json::obj()
        .set("ios", ops.ios)
        .set("comps", ops.comps)
        .set("hashes", ops.hashes)
        .set("moves", ops.moves)
}

/// Inverse of [`ops_to_json`].
pub fn ops_from_json(json: &Json) -> Result<OpCounts, String> {
    let field = |f: &str| {
        json.get(f).and_then(Json::as_u64).ok_or_else(|| format!("ops: missing field {f:?}"))
    };
    Ok(OpCounts {
        ios: field("ios")?,
        comps: field("comps")?,
        hashes: field("hashes")?,
        moves: field("moves")?,
    })
}

fn params_to_json(params: &SystemParams) -> Json {
    Json::obj()
        .set("mem_pages", params.mem_pages)
        .set("hash_overhead", params.hash_overhead)
        .set("page_size", params.page_size)
        .set("page_occupancy", params.page_occupancy)
        .set("fan_out", params.fan_out)
        .set("ssur", params.ssur)
        .set("sptr", params.sptr)
        .set("io_us", params.io_us)
        .set("comp_us", params.comp_us)
        .set("hash_us", params.hash_us)
        .set("move_us", params.move_us)
}

fn params_from_json(json: &Json) -> Result<SystemParams, String> {
    let uint = |f: &str| {
        json.get(f)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("params: missing field {f:?}"))
    };
    let num = |f: &str| {
        json.get(f).and_then(Json::as_f64).ok_or_else(|| format!("params: missing field {f:?}"))
    };
    Ok(SystemParams {
        mem_pages: uint("mem_pages")?,
        hash_overhead: num("hash_overhead")?,
        page_size: uint("page_size")?,
        page_occupancy: num("page_occupancy")?,
        fan_out: uint("fan_out")?,
        ssur: uint("ssur")?,
        sptr: uint("sptr")?,
        io_us: num("io_us")?,
        comp_us: num("comp_us")?,
        hash_us: num("hash_us")?,
        move_us: num("move_us")?,
    })
}

fn span_to_json(span: &SpanRecord) -> Json {
    Json::obj()
        .set("name", span.name.as_str())
        .set("path", span.path.as_str())
        .set("depth", span.depth)
        .set("self_ops", ops_to_json(&span.self_ops))
        .set("cum_ops", ops_to_json(&span.cum_ops))
        .set("invocations", span.invocations)
        .set("first_enter", span.first_enter)
        .set("last_exit", span.last_exit)
        .set("start_total", ops_to_json(&span.start_total))
        .set("end_total", ops_to_json(&span.end_total))
}

fn span_from_json(json: &Json) -> Result<SpanRecord, String> {
    let text = |f: &str| {
        json.get(f)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("span: missing field {f:?}"))
    };
    let uint = |f: &str| {
        json.get(f).and_then(Json::as_u64).ok_or_else(|| format!("span: missing field {f:?}"))
    };
    let ops = |f: &str| {
        json.get(f).ok_or_else(|| format!("span: missing field {f:?}")).and_then(ops_from_json)
    };
    Ok(SpanRecord {
        name: text("name")?,
        path: text("path")?,
        depth: uint("depth")? as usize,
        self_ops: ops("self_ops")?,
        cum_ops: ops("cum_ops")?,
        invocations: uint("invocations")?,
        first_enter: uint("first_enter")?,
        last_exit: uint("last_exit")?,
        start_total: ops("start_total")?,
        end_total: ops("end_total")?,
    })
}

/// One engine-vs-model comparison line: how far the measured engine drifted
/// from the analytical prediction for a labelled quantity (a method, or a
/// per-section slice of one).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDelta {
    /// What is being compared (`"mv"`, `"ji.read_index"`, ...).
    pub label: String,
    /// Measured simulated seconds from the engine ledger.
    pub engine_secs: f64,
    /// Predicted seconds from the analytical cost model.
    pub model_secs: f64,
}

impl ModelDelta {
    /// `engine/model` ratio; 1.0 means perfect agreement. Returns
    /// `engine_secs` when the model predicts zero.
    pub fn ratio(&self) -> f64 {
        if self.model_secs == 0.0 {
            self.engine_secs
        } else {
            self.engine_secs / self.model_secs
        }
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("label", self.label.as_str())
            .set("engine_secs", self.engine_secs)
            .set("model_secs", self.model_secs)
    }

    fn from_json(json: &Json) -> Result<ModelDelta, String> {
        Ok(ModelDelta {
            label: json
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| "delta: missing label".to_string())?
                .to_string(),
            engine_secs: json
                .get("engine_secs")
                .and_then(Json::as_f64)
                .ok_or_else(|| "delta: missing engine_secs".to_string())?,
            model_secs: json
                .get("model_secs")
                .and_then(Json::as_f64)
                .ok_or_else(|| "delta: missing model_secs".to_string())?,
        })
    }
}

/// Everything observed about one run, in one serializable value.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// What ran (`"trijoin run --strategy mv"`, `"fig5_engine"`, ...).
    pub name: String,
    /// Parameters the run was priced under.
    pub params: SystemParams,
    /// Ledger grand total.
    pub totals: OpCounts,
    /// Span tree in pre-order (see [`Cost::span_tree`]).
    pub spans: Vec<SpanRecord>,
    /// Metrics registry snapshot.
    pub metrics: MetricsSnapshot,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Engine-vs-model drift observations (empty when no model ran).
    pub deltas: Vec<ModelDelta>,
    /// Windowed telemetry series (empty when no sampler was enabled).
    pub series: Vec<SeriesSnapshot>,
}

impl RunReport {
    /// Snapshot the live observability handles into a report.
    pub fn capture(
        name: impl Into<String>,
        params: &SystemParams,
        cost: &Cost,
        metrics: &Metrics,
        events: &EventLog,
    ) -> RunReport {
        let mut snapshot = metrics.snapshot();
        // Ring overflow is not silent: runs that evicted events carry the
        // count as a counter. Injected only on overflow so the reports of
        // runs that never overflow (goldens included) are unchanged.
        let dropped = events.dropped();
        if dropped > 0 {
            let mut patch = MetricsSnapshot::default();
            patch.counters.push(("events.dropped".to_string(), dropped));
            snapshot.merge(&patch);
        }
        RunReport {
            name: name.into(),
            params: params.clone(),
            totals: cost.total(),
            spans: cost.span_tree(),
            metrics: snapshot,
            events: events.events(),
            deltas: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Serialize. Top-level keys: `name`, `params`, `totals`, `spans`,
    /// `metrics`, `events`, `deltas`, plus `series` when telemetry ran.
    pub fn to_json(&self) -> Json {
        let json = Json::obj()
            .set("name", self.name.as_str())
            .set("params", params_to_json(&self.params))
            .set("totals", ops_to_json(&self.totals))
            .set("spans", Json::Arr(self.spans.iter().map(span_to_json).collect()))
            .set("metrics", self.metrics.to_json())
            .set("events", Json::Arr(self.events.iter().map(Event::to_json).collect()))
            .set("deltas", Json::Arr(self.deltas.iter().map(ModelDelta::to_json).collect()));
        if self.series.is_empty() {
            json
        } else {
            json.set("series", Json::Arr(self.series.iter().map(SeriesSnapshot::to_json).collect()))
        }
    }

    /// Inverse of [`RunReport::to_json`].
    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let arr = |f: &str| {
            json.get(f).and_then(Json::as_arr).ok_or_else(|| format!("report: missing array {f:?}"))
        };
        Ok(RunReport {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| "report: missing name".to_string())?
                .to_string(),
            params: params_from_json(
                json.get("params").ok_or_else(|| "report: missing params".to_string())?,
            )?,
            totals: ops_from_json(
                json.get("totals").ok_or_else(|| "report: missing totals".to_string())?,
            )?,
            spans: arr("spans")?.iter().map(span_from_json).collect::<Result<_, _>>()?,
            metrics: MetricsSnapshot::from_json(
                json.get("metrics").ok_or_else(|| "report: missing metrics".to_string())?,
            )?,
            events: arr("events")?.iter().map(Event::from_json).collect::<Result<_, _>>()?,
            deltas: arr("deltas")?.iter().map(ModelDelta::from_json).collect::<Result<_, _>>()?,
            series: match json.get("series") {
                // Absent = no telemetry ran (the pre-telemetry schema).
                None => Vec::new(),
                Some(Json::Arr(items)) => {
                    items.iter().map(SeriesSnapshot::from_json).collect::<Result<_, _>>()?
                }
                Some(_) => return Err("report: series is not an array".to_string()),
            },
        })
    }

    /// Parse a report from JSON text.
    pub fn parse(text: &str) -> Result<RunReport, String> {
        RunReport::from_json(&Json::parse(text)?)
    }

    /// Cumulative ops of a named section, aggregated across the span tree
    /// (the report-side equivalent of [`Cost::section_counts`]).
    pub fn section_counts(&self, name: &str) -> OpCounts {
        let mut total = OpCounts::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            total.add(&span.cum_ops);
        }
        total
    }
}

/// The observability state of one sharded serving run: every shard's own
/// [`RunReport`] plus a server-level rollup.
///
/// The rollup is a *pure aggregate* of the shard reports — totals and span
/// ops sum, metrics merge ([`MetricsSnapshot::merge`]), and events interleave
/// with a `shardN:` detail prefix — so "shard metrics sum to rollup totals"
/// is an invariant tests can assert, not a convention. A server may overlay
/// additional scheduler-level instruments into `rollup.metrics` afterwards
/// under names no shard emits (the `serve.` prefix).
///
/// The stable top-level JSON keys are `name`, `shards`, and `rollup`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRunReport {
    /// What ran (`"trijoin serve --shards 4"`, ...).
    pub name: String,
    /// One report per shard, in shard-index order.
    pub shards: Vec<RunReport>,
    /// The server-level aggregate of the shard reports.
    pub rollup: RunReport,
}

impl ShardedRunReport {
    /// Aggregate per-shard reports into a server-level rollup. Span nodes
    /// are merged by tree path (ops and invocation counts sum; enter/exit
    /// stamps widen), appearing in first-seen pre-order across shards —
    /// shard threads run the same code, so this is shard 0's tree with any
    /// shard-specific paths appended.
    pub fn rollup_of(
        name: impl Into<String>,
        params: &SystemParams,
        shards: Vec<RunReport>,
    ) -> Self {
        let name = name.into();
        let mut totals = OpCounts::default();
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut span_index: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut metrics = MetricsSnapshot::default();
        let mut events: Vec<Event> = Vec::new();
        let mut deltas = Vec::new();
        let mut series: Vec<SeriesSnapshot> = Vec::new();
        for (idx, shard) in shards.iter().enumerate() {
            totals.add(&shard.totals);
            for span in &shard.spans {
                match span_index.get(&span.path) {
                    Some(&i) => {
                        let merged = &mut spans[i];
                        merged.self_ops.add(&span.self_ops);
                        merged.cum_ops.add(&span.cum_ops);
                        merged.start_total.add(&span.start_total);
                        merged.end_total.add(&span.end_total);
                        merged.invocations += span.invocations;
                        merged.first_enter = merged.first_enter.min(span.first_enter);
                        merged.last_exit = merged.last_exit.max(span.last_exit);
                    }
                    None => {
                        span_index.insert(span.path.clone(), spans.len());
                        spans.push(span.clone());
                    }
                }
            }
            metrics.merge(&shard.metrics);
            for event in &shard.events {
                let mut event = event.clone();
                event.detail = format!("shard{idx}: {}", event.detail);
                events.push(event);
            }
            deltas.extend(shard.deltas.iter().cloned());
            // Same-named series merge window-by-window (aligned on the
            // monotone window index), so the rollup carries one fleet-wide
            // "engine" series rather than one per shard.
            for snapshot in &shard.series {
                match series
                    .iter_mut()
                    .find(|s| s.name == snapshot.name && s.domain == snapshot.domain)
                {
                    Some(s) => s.merge(snapshot),
                    None => series.push(snapshot.clone()),
                }
            }
        }
        // Interleave shard event streams round-robin by per-shard sequence
        // number (there is no global clock), then re-sequence. The sort is
        // stable, so ties keep shard-index order — fully deterministic.
        events.sort_by_key(|e| e.seq);
        for (seq, event) in events.iter_mut().enumerate() {
            event.seq = seq as u64;
        }
        let rollup = RunReport {
            name: format!("{name}.rollup"),
            params: params.clone(),
            totals,
            spans,
            metrics,
            events,
            deltas,
            series,
        };
        ShardedRunReport { name, shards, rollup }
    }

    /// Serialize. Top-level keys: `name`, `shards`, `rollup`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("shards", Json::Arr(self.shards.iter().map(RunReport::to_json).collect()))
            .set("rollup", self.rollup.to_json())
    }

    /// Inverse of [`ShardedRunReport::to_json`].
    pub fn from_json(json: &Json) -> Result<ShardedRunReport, String> {
        Ok(ShardedRunReport {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| "sharded report: missing name".to_string())?
                .to_string(),
            shards: json
                .get("shards")
                .and_then(Json::as_arr)
                .ok_or_else(|| "sharded report: missing shards array".to_string())?
                .iter()
                .map(RunReport::from_json)
                .collect::<Result<_, _>>()?,
            rollup: RunReport::from_json(
                json.get("rollup").ok_or_else(|| "sharded report: missing rollup".to_string())?,
            )?,
        })
    }

    /// Parse a sharded report from JSON text.
    pub fn parse(text: &str) -> Result<ShardedRunReport, String> {
        ShardedRunReport::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    fn sample_report() -> RunReport {
        let params = SystemParams::test_small();
        let cost = Cost::new();
        let metrics = Metrics::new();
        let events = EventLog::new();
        events.emit(EventKind::QueryStart, "strategy=mv", cost.total());
        {
            let _q = cost.section("mv.scan_view");
            cost.io(3);
            {
                let _n = cost.section("mv.point_lookup");
                cost.comp(7);
            }
        }
        metrics.incr("db.queries");
        metrics.observe("query.us", 75_021);
        metrics.gauge_set("pool.resident", 2.0);
        events.emit(EventKind::QueryEnd, "strategy=mv", cost.total());
        let mut report = RunReport::capture("unit", &params, &cost, &metrics, &events);
        report.deltas.push(ModelDelta {
            label: "mv".to_string(),
            engine_secs: 0.075,
            model_secs: 0.074,
        });
        report
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn has_the_stable_top_level_keys() {
        let json = sample_report().to_json();
        for key in ["name", "params", "totals", "spans", "metrics", "events", "deltas"] {
            assert!(json.get(key).is_some(), "missing top-level key {key:?}");
        }
    }

    #[test]
    fn capture_matches_live_ledger() {
        let report = sample_report();
        assert_eq!(report.totals.ios, 3);
        assert_eq!(report.totals.comps, 7);
        assert_eq!(report.section_counts("mv.scan_view").comps, 7); // cumulative
        assert_eq!(report.section_counts("mv.point_lookup").comps, 7);
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.metrics.counter("db.queries"), 1);
    }

    #[test]
    fn delta_ratio() {
        let d = ModelDelta { label: "x".into(), engine_secs: 2.0, model_secs: 4.0 };
        assert!((d.ratio() - 0.5).abs() < 1e-12);
        let z = ModelDelta { label: "x".into(), engine_secs: 2.0, model_secs: 0.0 };
        assert!((z.ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn series_round_trip_and_omission() {
        use crate::telemetry::{Telemetry, TelemetryConfig};
        // Telemetry-free reports omit the key entirely (golden safety)...
        let plain = sample_report();
        assert!(plain.to_json().get("series").is_none());
        assert_eq!(RunReport::parse(&plain.to_json().dump()).unwrap(), plain);
        // ...and reports that carry series round-trip them exactly.
        let tel = Telemetry::new(
            TelemetryConfig { window_ticks: 1, capacity: 4, drift_threshold: 3.0 },
            "engine",
            "ops",
        );
        let metrics = Metrics::new();
        tel.tick(0, &metrics);
        metrics.incr("db.queries");
        tel.record_audit("cycle.materialized-view", 10.0, 12.0);
        tel.tick(1, &metrics);
        let mut report = sample_report();
        report.series.push(tel.series());
        let back = RunReport::parse(&report.to_json().pretty()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.series[0].windows.len(), 1);
    }

    #[test]
    fn event_overflow_surfaces_as_dropped_counter() {
        let params = SystemParams::test_small();
        let cost = Cost::new();
        let metrics = Metrics::new();
        let events = EventLog::new();
        for i in 0..crate::events::EVENT_CAPACITY as u64 + 3 {
            events.emit(EventKind::QueryStart, "q", OpCounts { ios: i, ..OpCounts::default() });
        }
        let report = RunReport::capture("overflow", &params, &cost, &metrics, &events);
        assert_eq!(report.metrics.counter("events.dropped"), 3);
        // Without overflow the counter never appears.
        let quiet = sample_report();
        assert!(!quiet.metrics.counters.iter().any(|(k, _)| k == "events.dropped"));
    }

    #[test]
    fn rejects_schema_drift() {
        let mut json = sample_report().to_json();
        if let Json::Obj(members) = &mut json {
            members.retain(|(k, _)| k != "spans");
        }
        assert!(RunReport::from_json(&json).is_err());
    }

    fn shard_report(label: &str, ios: u64) -> RunReport {
        let params = SystemParams::test_small();
        let cost = Cost::new();
        let metrics = Metrics::new();
        let events = EventLog::new();
        {
            let _q = cost.section("mv.scan_view");
            cost.io(ios);
        }
        metrics.counter_add("disk.reads", ios);
        metrics.observe("query.us", ios);
        events.emit(EventKind::QueryStart, "strategy=mv", OpCounts::default());
        events.emit(EventKind::QueryEnd, "strategy=mv", cost.total());
        RunReport::capture(label, &params, &cost, &metrics, &events)
    }

    #[test]
    fn rollup_sums_shards_and_prefixes_events() {
        let params = SystemParams::test_small();
        let shards = vec![shard_report("shard0", 3), shard_report("shard1", 5)];
        let sharded = ShardedRunReport::rollup_of("serve", &params, shards);
        assert_eq!(sharded.rollup.totals.ios, 8);
        assert_eq!(sharded.rollup.metrics.counter("disk.reads"), 8);
        assert_eq!(sharded.rollup.metrics.histogram("query.us").unwrap().count, 2);
        // Spans merged by path: one scan_view node holding both shards' ops.
        let scans: Vec<_> =
            sharded.rollup.spans.iter().filter(|s| s.name == "mv.scan_view").collect();
        assert_eq!(scans.len(), 1);
        assert_eq!(scans[0].cum_ops.ios, 8);
        assert_eq!(scans[0].invocations, 2);
        // Events interleave round-robin by per-shard seq, re-sequenced,
        // with the owning shard named in the detail.
        let details: Vec<&str> = sharded.rollup.events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "shard0: strategy=mv",
                "shard1: strategy=mv",
                "shard0: strategy=mv",
                "shard1: strategy=mv"
            ]
        );
        let seqs: Vec<u64> = sharded.rollup.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        // Per-shard reports are preserved untouched.
        assert_eq!(sharded.shards[1].totals.ios, 5);
        assert_eq!(sharded.shards[1].events[0].detail, "strategy=mv");
    }

    #[test]
    fn sharded_report_json_round_trip() {
        let params = SystemParams::test_small();
        let sharded = ShardedRunReport::rollup_of(
            "serve",
            &params,
            vec![shard_report("shard0", 2), shard_report("shard1", 4)],
        );
        let text = sharded.to_json().pretty();
        let back = ShardedRunReport::parse(&text).unwrap();
        assert_eq!(back, sharded);
        for key in ["name", "shards", "rollup"] {
            assert!(sharded.to_json().get(key).is_some(), "missing top-level key {key:?}");
        }
        // Dropping the rollup is schema drift.
        let mut json = sharded.to_json();
        if let Json::Obj(members) = &mut json {
            members.retain(|(k, _)| k != "rollup");
        }
        assert!(ShardedRunReport::from_json(&json).is_err());
    }
}
