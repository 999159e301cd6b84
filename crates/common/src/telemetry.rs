//! Windowed time-series telemetry and the predicted-vs-actual cost audit.
//!
//! A [`Telemetry`] instance samples a [`Metrics`] registry into
//! fixed-capacity ring of [`SeriesWindow`]s: per-window counter deltas,
//! point-in-time gauges, and histogram quantiles computed over just the
//! samples recorded inside the window. Time is a *logical tick*, not a
//! wall clock — engines tick on primitive-op totals, the serving
//! scheduler ticks on flushed batches — so two identical runs produce
//! bit-identical series and the golden ledgers stay safe: sampling reads
//! observability state and charges nothing to the simulated [`crate::Cost`]
//! ledger.
//!
//! The same instance carries the cost-model audit: callers record the
//! analytical model's predicted cost next to the actual ledger charge for
//! each strategy operation ([`Telemetry::record_audit`]), per-window
//! accumulators compute the log2 error per section, and closing a window
//! returns [`DriftAlert`]s for every *query-cycle* section whose error
//! exceeds the configured threshold; the engine logs each as a
//! `CostDrift` event, which `trijoin top` counts per shard. Nothing
//! decides on them. Sections that are not `cycle.*` (differential
//! applies, spills, recovery) are recorded and serialized but never
//! alert: their predictions carry known structural bias (amortized log
//! writes vs. point btree updates) that is stable in log space but not
//! meaningful to alarm on.

use crate::json::Json;
use crate::metrics::{Histogram, Metrics, HISTOGRAM_BUCKETS};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// `n / d`, degraded to `0.0` whenever the quotient is not finite (zero
/// denominator, overflow, NaN operands). Series math and derived rates go
/// through this so idle instruments serialize as `0`, never `NaN`.
pub fn safe_div(n: f64, d: f64) -> f64 {
    let q = n / d;
    if q.is_finite() {
        q
    } else {
        0.0
    }
}

/// `log2(actual / predicted)` when both sides are positive and finite,
/// else `0.0` — a zero prediction (e.g. recovery work the model never
/// prices) reads as "no drift" rather than infinite drift.
pub fn safe_log2_ratio(actual: f64, predicted: f64) -> f64 {
    if actual > 0.0 && predicted > 0.0 {
        let r = (actual / predicted).log2();
        if r.is_finite() {
            r
        } else {
            0.0
        }
    } else {
        0.0
    }
}

/// Sampling parameters of one [`Telemetry`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Logical ticks per window. Engines tick once per primitive ledger
    /// op (ios + comps + hashes + moves); the serving scheduler ticks
    /// once per flushed batch.
    pub window_ticks: u64,
    /// Windows retained (oldest evicted first; evictions are counted).
    pub capacity: usize,
    /// `|log2(actual/predicted)|` above which a window's `cycle.*` audit
    /// section raises a [`DriftAlert`].
    pub drift_threshold: f64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        // 4096 primitive ops per window keeps even small serving shards
        // closing several windows per sustained run; the drift threshold
        // (log2 units: 3.0 = 8x) sits well above the measured stock-model
        // agreement band (see DESIGN.md section 14) while a deliberately
        // miscalibrated model still trips it immediately.
        TelemetryConfig { window_ticks: 4096, capacity: 64, drift_threshold: 3.0 }
    }
}

impl TelemetryConfig {
    /// The serving scheduler's batch-domain variant: windows span a few
    /// flushed batches instead of thousands of primitive ops.
    pub fn serve(self) -> Self {
        TelemetryConfig { window_ticks: 4, ..self }
    }
}

/// One audited section's accumulated predicted-vs-actual costs (per
/// window, or lifetime totals in [`SeriesSnapshot::audit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// What was audited (`"cycle.materialized-view"`, `"apply"`,
    /// `"spill.hybrid-hash"`, `"recovery"`).
    pub section: String,
    /// Summed analytical prediction, simulated microseconds.
    pub predicted_us: f64,
    /// Summed ledger charge, simulated microseconds.
    pub actual_us: f64,
    /// Operations folded into this entry.
    pub samples: u64,
    /// `log2(actual/predicted)` of the sums (0.0 when either side is 0).
    pub log2_ratio: f64,
}

impl AuditEntry {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("section", self.section.as_str())
            .set("predicted_us", self.predicted_us)
            .set("actual_us", self.actual_us)
            .set("samples", self.samples)
            .set("log2_ratio", self.log2_ratio)
    }

    fn from_json(json: &Json) -> Result<AuditEntry, String> {
        let num = |f: &str| {
            json.get(f).and_then(Json::as_f64).ok_or_else(|| format!("audit: missing {f:?}"))
        };
        Ok(AuditEntry {
            section: json
                .get("section")
                .and_then(Json::as_str)
                .ok_or_else(|| "audit: missing section".to_string())?
                .to_string(),
            predicted_us: num("predicted_us")?,
            actual_us: num("actual_us")?,
            samples: json
                .get("samples")
                .and_then(Json::as_u64)
                .ok_or_else(|| "audit: missing samples".to_string())?,
            log2_ratio: num("log2_ratio")?,
        })
    }

    fn absorb(&mut self, other: &AuditEntry) {
        self.predicted_us += other.predicted_us;
        self.actual_us += other.actual_us;
        self.samples += other.samples;
        self.log2_ratio = safe_log2_ratio(self.actual_us, self.predicted_us);
    }
}

/// Windowed quantiles of one histogram, computed over the samples the
/// window added (bucket-wise delta against the previous window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Samples recorded inside the window.
    pub count: u64,
    /// Approximate 50th percentile (exact within a power-of-two bucket).
    pub p50: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

/// One closed telemetry window.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesWindow {
    /// Monotone window index (survives ring eviction).
    pub index: u64,
    /// Tick at which the window opened.
    pub start_tick: u64,
    /// Tick at which it closed (`end_tick - start_tick >= window_ticks`
    /// except for a final forced close).
    pub end_tick: u64,
    /// Counter deltas over the window, non-zero entries only, sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at close (point-in-time), sorted.
    pub gauges: Vec<(String, f64)>,
    /// Per-histogram windowed quantiles, sorted by name.
    pub quantiles: Vec<(String, Quantiles)>,
    /// Cost-audit sections that recorded inside the window.
    pub audit: Vec<AuditEntry>,
}

impl SeriesWindow {
    fn to_json(&self) -> Json {
        let counters = self.counters.iter().fold(Json::obj(), |acc, (k, v)| acc.set(k, *v));
        let gauges = self.gauges.iter().fold(Json::obj(), |acc, (k, v)| acc.set(k, *v));
        let quantiles = self.quantiles.iter().fold(Json::obj(), |acc, (k, q)| {
            acc.set(k, Json::obj().set("count", q.count).set("p50", q.p50).set("p99", q.p99))
        });
        Json::obj()
            .set("index", self.index)
            .set("start_tick", self.start_tick)
            .set("end_tick", self.end_tick)
            .set("counters", counters)
            .set("gauges", gauges)
            .set("quantiles", quantiles)
            .set("audit", Json::Arr(self.audit.iter().map(AuditEntry::to_json).collect()))
    }

    fn from_json(json: &Json) -> Result<SeriesWindow, String> {
        let uint = |f: &str| {
            json.get(f).and_then(Json::as_u64).ok_or_else(|| format!("window: missing {f:?}"))
        };
        let pairs = |key: &str| -> Result<Vec<(String, Json)>, String> {
            match json.get(key) {
                Some(Json::Obj(members)) => Ok(members.clone()),
                _ => Err(format!("window: missing object {key:?}")),
            }
        };
        let counters = pairs("counters")?
            .into_iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("window: counter {k:?} not a u64"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let gauges = pairs("gauges")?
            .into_iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("window: gauge {k:?} not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let quantiles = pairs("quantiles")?
            .into_iter()
            .map(|(k, v)| -> Result<(String, Quantiles), String> {
                let field = |f: &str| {
                    v.get(f)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("window: quantile {k:?} missing {f:?}"))
                };
                Ok((
                    k.clone(),
                    Quantiles { count: field("count")?, p50: field("p50")?, p99: field("p99")? },
                ))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let audit = json
            .get("audit")
            .and_then(Json::as_arr)
            .ok_or_else(|| "window: missing audit array".to_string())?
            .iter()
            .map(AuditEntry::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SeriesWindow {
            index: uint("index")?,
            start_tick: uint("start_tick")?,
            end_tick: uint("end_tick")?,
            counters,
            gauges,
            quantiles,
            audit,
        })
    }

    /// Fold another shard's same-index window into this one: counters and
    /// gauges add, windowed quantile counts add with the percentile upper
    /// envelope (max), audit sections sum with their ratio recomputed.
    fn merge(&mut self, other: &SeriesWindow) {
        self.start_tick = self.start_tick.min(other.start_tick);
        self.end_tick = self.end_tick.max(other.end_tick);
        fn fold<V: Clone>(
            mine: &mut Vec<(String, V)>,
            theirs: &[(String, V)],
            add: impl Fn(&mut V, &V),
        ) {
            for (name, value) in theirs {
                match mine.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
                    Ok(i) => add(&mut mine[i].1, value),
                    Err(i) => mine.insert(i, (name.clone(), value.clone())),
                }
            }
        }
        fold(&mut self.counters, &other.counters, |a, b| *a += *b);
        fold(&mut self.gauges, &other.gauges, |a, b| *a += *b);
        fold(&mut self.quantiles, &other.quantiles, |a, b| {
            a.count += b.count;
            a.p50 = a.p50.max(b.p50);
            a.p99 = a.p99.max(b.p99);
        });
        for entry in &other.audit {
            match self.audit.iter_mut().find(|e| e.section == entry.section) {
                Some(e) => e.absorb(entry),
                None => self.audit.push(entry.clone()),
            }
        }
        self.audit.sort_by(|a, b| a.section.cmp(&b.section));
    }
}

/// A serializable snapshot of one telemetry instance: its retained
/// windows plus the lifetime audit totals. Embedded in
/// `RunReport { series }` and merged across shards in rollups.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Which instance (`"engine"` per shard, `"serve"` for the scheduler).
    pub name: String,
    /// Tick domain (`"ops"` or `"batches"`).
    pub domain: String,
    /// Window width in ticks.
    pub window_ticks: u64,
    /// Windows evicted from the ring (the series kept counting).
    pub dropped: u64,
    /// Retained windows, oldest first.
    pub windows: Vec<SeriesWindow>,
    /// Lifetime per-section audit totals (across all windows, including
    /// evicted ones).
    pub audit: Vec<AuditEntry>,
}

impl SeriesSnapshot {
    /// Serialize for embedding in a run report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.name.as_str())
            .set("domain", self.domain.as_str())
            .set("window_ticks", self.window_ticks)
            .set("dropped", self.dropped)
            .set("windows", Json::Arr(self.windows.iter().map(SeriesWindow::to_json).collect()))
            .set("audit", Json::Arr(self.audit.iter().map(AuditEntry::to_json).collect()))
    }

    /// Inverse of [`SeriesSnapshot::to_json`].
    pub fn from_json(json: &Json) -> Result<SeriesSnapshot, String> {
        let text = |f: &str| {
            json.get(f)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("series: missing {f:?}"))
        };
        let uint = |f: &str| {
            json.get(f).and_then(Json::as_u64).ok_or_else(|| format!("series: missing {f:?}"))
        };
        let arr = |f: &str| {
            json.get(f).and_then(Json::as_arr).ok_or_else(|| format!("series: missing array {f:?}"))
        };
        Ok(SeriesSnapshot {
            name: text("name")?,
            domain: text("domain")?,
            window_ticks: uint("window_ticks")?,
            dropped: uint("dropped")?,
            windows: arr("windows")?
                .iter()
                .map(SeriesWindow::from_json)
                .collect::<Result<_, _>>()?,
            audit: arr("audit")?.iter().map(AuditEntry::from_json).collect::<Result<_, _>>()?,
        })
    }

    /// Fold another shard's series into this one, aligning windows by
    /// their monotone index (shards tick independently but index their
    /// windows identically from 0).
    pub fn merge(&mut self, other: &SeriesSnapshot) {
        self.dropped += other.dropped;
        for w in &other.windows {
            match self.windows.iter_mut().find(|m| m.index == w.index) {
                Some(m) => m.merge(w),
                None => {
                    let at = self.windows.partition_point(|m| m.index < w.index);
                    self.windows.insert(at, w.clone());
                }
            }
        }
        for entry in &other.audit {
            match self.audit.iter_mut().find(|e| e.section == entry.section) {
                Some(e) => e.absorb(entry),
                None => self.audit.push(entry.clone()),
            }
        }
        self.audit.sort_by(|a, b| a.section.cmp(&b.section));
    }

    /// Lifetime audit totals for one section, if it ever recorded.
    pub fn audit_section(&self, section: &str) -> Option<&AuditEntry> {
        self.audit.iter().find(|e| e.section == section)
    }
}

/// A window's `cycle.*` audit section exceeded the drift threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlert {
    /// The drifting section (`"cycle.join-index"`, ...).
    pub section: String,
    /// Index of the window that tripped.
    pub window: u64,
    /// The window's summed prediction, microseconds.
    pub predicted_us: f64,
    /// The window's summed ledger charge, microseconds.
    pub actual_us: f64,
    /// `log2(actual/predicted)` of the window.
    pub log2_ratio: f64,
}

impl DriftAlert {
    /// Deterministic event-detail rendering (`{:.3}` keeps two identical
    /// runs byte-identical).
    pub fn detail(&self) -> String {
        format!(
            "section={} window={} predicted_us={:.1} actual_us={:.1} log2={:.3}",
            self.section, self.window, self.predicted_us, self.actual_us, self.log2_ratio
        )
    }
}

#[derive(Debug, Default)]
struct Acc {
    predicted_us: f64,
    actual_us: f64,
    samples: u64,
}

#[derive(Debug)]
struct State {
    config: TelemetryConfig,
    name: String,
    domain: String,
    started: bool,
    open_tick: u64,
    /// Counter `(generation, value)` at the last window edge, indexed by
    /// the registry's counter-slot id — no names, no sort, no clone. A slot
    /// seen under another generation was retired and reused since: its
    /// baseline is 0.
    baseline_counters: Vec<(u32, u64)>,
    /// Histograms at the last window edge, sorted by name. Entries are
    /// overwritten in place (`clone_from` reuses the bucket allocation).
    baseline_histograms: Vec<(String, Histogram)>,
    windows: VecDeque<SeriesWindow>,
    next_index: u64,
    dropped: u64,
    window_audit: BTreeMap<String, Acc>,
    total_audit: BTreeMap<String, Acc>,
}

impl State {
    /// (Re)arm the delta baselines at the registry's current values.
    fn arm_baseline(&mut self, metrics: &Metrics) {
        let bc = &mut self.baseline_counters;
        bc.clear();
        metrics.visit_counters(|id, generation, _, value| {
            if id >= bc.len() {
                bc.resize(id + 1, (0, 0));
            }
            bc[id] = (generation, value);
        });
        let bh = &mut self.baseline_histograms;
        bh.clear();
        metrics.visit_histograms(|name, h| bh.push((name.to_string(), h.clone())));
    }

    fn close_window(&mut self, now: u64, metrics: &Metrics) -> Vec<DriftAlert> {
        // This path runs on every due tick — a heavy query can span many
        // windows — so deltas are computed against slot-indexed baselines
        // updated in place rather than a full `Metrics::snapshot` (which
        // clones every name and bucket vector in the registry).
        let mut counters = Vec::new();
        let bc = &mut self.baseline_counters;
        metrics.visit_counters(|id, generation, name, value| {
            if id >= bc.len() {
                bc.resize(id + 1, (0, 0));
            }
            let (seen, base) = bc[id];
            let delta = if seen == generation { value.saturating_sub(base) } else { value };
            if delta > 0 {
                counters.push((name.to_string(), delta));
            }
            bc[id] = (generation, value);
        });
        // Slot order is first-touch order; windows serialize name-sorted.
        counters.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let mut gauges = Vec::new();
        metrics.visit_gauges(|name, value| gauges.push((name.to_string(), value)));
        let mut quantiles = Vec::new();
        let bh = &mut self.baseline_histograms;
        metrics.visit_histograms(|name, h| {
            let delta = match bh.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
                Ok(i) => {
                    let delta = delta_histogram(h, Some(&bh[i].1));
                    bh[i].1.clone_from(h);
                    delta
                }
                Err(i) => {
                    bh.insert(i, (name.to_string(), h.clone()));
                    delta_histogram(h, None)
                }
            };
            if delta.count > 0 {
                quantiles.push((
                    name.to_string(),
                    Quantiles {
                        count: delta.count,
                        p50: delta.quantile(0.50),
                        p99: delta.quantile(0.99),
                    },
                ));
            }
        });
        let index = self.next_index;
        let mut audit = Vec::new();
        let mut alerts = Vec::new();
        for (section, acc) in std::mem::take(&mut self.window_audit) {
            let log2_ratio = safe_log2_ratio(acc.actual_us, acc.predicted_us);
            if section.starts_with("cycle.") && log2_ratio.abs() > self.config.drift_threshold {
                alerts.push(DriftAlert {
                    section: section.clone(),
                    window: index,
                    predicted_us: acc.predicted_us,
                    actual_us: acc.actual_us,
                    log2_ratio,
                });
            }
            audit.push(AuditEntry {
                section,
                predicted_us: acc.predicted_us,
                actual_us: acc.actual_us,
                samples: acc.samples,
                log2_ratio,
            });
        }
        let window = SeriesWindow {
            index,
            start_tick: self.open_tick,
            end_tick: now,
            counters,
            gauges,
            quantiles,
            audit,
        };
        if self.windows.len() == self.config.capacity.max(1) {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(window);
        self.next_index += 1;
        self.open_tick = now;
        alerts
    }
}

/// Approximate the histogram of just-this-window samples: bucket counts,
/// count, and sum subtract exactly; min/max are bounded by the occupied
/// delta buckets (and the lifetime max), which is what makes the derived
/// quantiles exact for single-sample and same-bucket-heavy windows.
fn delta_histogram(cur: &Histogram, prev: Option<&Histogram>) -> Histogram {
    let Some(prev) = prev else { return cur.clone() };
    let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
    for (i, slot) in buckets.iter_mut().enumerate() {
        *slot = cur.buckets[i].saturating_sub(prev.buckets[i]);
    }
    let count = cur.count.saturating_sub(prev.count);
    let sum = cur.sum.saturating_sub(prev.sum);
    let min = buckets
        .iter()
        .position(|&c| c != 0)
        // Window samples are a subset of the lifetime samples, so the
        // lifetime min is a valid lower bound that sharpens bucket 0.
        .map(|i| {
            let lower = if i == 0 { 0 } else { 1u64 << i };
            lower.max(cur.min)
        })
        .unwrap_or(0);
    let max = buckets
        .iter()
        .rposition(|&c| c != 0)
        .map(|i| {
            let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            upper.min(cur.max)
        })
        .unwrap_or(0);
    Histogram { count, sum, min, max, buckets }
}

/// Shared handle to one telemetry sampler. Clones alias the same state
/// (the workspace-wide `Rc<RefCell<..>>` idiom).
#[derive(Debug, Clone)]
pub struct Telemetry(Rc<RefCell<State>>);

impl Telemetry {
    /// A fresh sampler. `name` labels the series (`"engine"`, `"serve"`);
    /// `domain` names the tick unit (`"ops"`, `"batches"`).
    pub fn new(
        config: TelemetryConfig,
        name: impl Into<String>,
        domain: impl Into<String>,
    ) -> Self {
        Telemetry(Rc::new(RefCell::new(State {
            config,
            name: name.into(),
            domain: domain.into(),
            started: false,
            open_tick: 0,
            baseline_counters: Vec::new(),
            baseline_histograms: Vec::new(),
            windows: VecDeque::new(),
            next_index: 0,
            dropped: 0,
            window_audit: BTreeMap::new(),
            total_audit: BTreeMap::new(),
        })))
    }

    /// The configuration in force.
    pub fn config(&self) -> TelemetryConfig {
        self.0.borrow().config
    }

    /// Advance the logical clock. The first tick arms the baseline; any
    /// later tick at least `window_ticks` past the open edge closes one
    /// window spanning `[open_tick, now]` and returns its drift alerts.
    pub fn tick(&self, now: u64, metrics: &Metrics) -> Vec<DriftAlert> {
        let mut st = self.0.borrow_mut();
        if !st.started {
            st.started = true;
            st.open_tick = now;
            st.arm_baseline(metrics);
            return Vec::new();
        }
        if now.saturating_sub(st.open_tick) < st.config.window_ticks {
            return Vec::new();
        }
        st.close_window(now, metrics)
    }

    /// True when the next [`Telemetry::tick`] at `now` would close a
    /// window — callers that stamp gauges lazily (latency percentiles)
    /// refresh them just before a due close.
    pub fn due(&self, now: u64) -> bool {
        let st = self.0.borrow();
        st.started && now.saturating_sub(st.open_tick) >= st.config.window_ticks
    }

    /// Close the currently open window even if it is short — run reports
    /// call this so a run shorter than one window still serializes ≥ 1
    /// window. A no-op when nothing happened since the last close.
    pub fn force_close(&self, now: u64, metrics: &Metrics) -> Vec<DriftAlert> {
        let mut st = self.0.borrow_mut();
        if !st.started {
            st.started = true;
            st.open_tick = now;
            st.arm_baseline(metrics);
        }
        if now == st.open_tick && st.window_audit.is_empty() && st.next_index > 0 {
            return Vec::new();
        }
        st.close_window(now, metrics)
    }

    /// Record one audited operation: the model's prediction next to the
    /// ledger's actual charge, both in simulated microseconds.
    pub fn record_audit(&self, section: &str, predicted_us: f64, actual_us: f64) {
        let st = &mut *self.0.borrow_mut();
        // Sections repeat every operation: allocate the owned key only
        // the first time a map sees one.
        for map in [&mut st.window_audit, &mut st.total_audit] {
            match map.get_mut(section) {
                Some(acc) => {
                    acc.predicted_us += predicted_us;
                    acc.actual_us += actual_us;
                    acc.samples += 1;
                }
                None => {
                    map.insert(section.to_string(), Acc { predicted_us, actual_us, samples: 1 });
                }
            }
        }
    }

    /// Counter slots the window-delta baseline holds: at most the
    /// registry's [`Metrics::counter_slots`].
    pub fn baseline_slots(&self) -> usize {
        self.0.borrow().baseline_counters.len()
    }

    /// Snapshot the retained windows and lifetime audit totals.
    pub fn series(&self) -> SeriesSnapshot {
        let st = self.0.borrow();
        SeriesSnapshot {
            name: st.name.clone(),
            domain: st.domain.clone(),
            window_ticks: st.config.window_ticks,
            dropped: st.dropped,
            windows: st.windows.iter().cloned().collect(),
            audit: st
                .total_audit
                .iter()
                .map(|(section, acc)| AuditEntry {
                    section: section.clone(),
                    predicted_us: acc.predicted_us,
                    actual_us: acc.actual_us,
                    samples: acc.samples,
                    log2_ratio: safe_log2_ratio(acc.actual_us, acc.predicted_us),
                })
                .collect(),
        }
    }

    /// Drop every window and audit accumulator and disarm the clock (the
    /// next tick re-baselines). Configuration survives — the measurement-
    /// boundary analogue of `Metrics::reset`.
    pub fn reset(&self) {
        let mut st = self.0.borrow_mut();
        st.started = false;
        st.open_tick = 0;
        st.baseline_counters.clear();
        st.baseline_histograms.clear();
        st.windows.clear();
        st.next_index = 0;
        st.dropped = 0;
        st.window_audit.clear();
        st.total_audit.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(window: u64, capacity: usize) -> (Telemetry, Metrics) {
        let cfg = TelemetryConfig { window_ticks: window, capacity, drift_threshold: 3.0 };
        (Telemetry::new(cfg, "engine", "ops"), Metrics::new())
    }

    #[test]
    fn windows_hold_counter_deltas_not_totals() {
        let (tel, m) = sampler(10, 8);
        assert!(tel.tick(0, &m).is_empty(), "first tick only arms the baseline");
        m.counter_add("db.queries", 3);
        tel.tick(10, &m);
        m.counter_add("db.queries", 2);
        m.incr("other");
        tel.tick(25, &m);
        let s = tel.series();
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[0].counters, vec![("db.queries".to_string(), 3)]);
        assert_eq!(s.windows[0].start_tick, 0);
        assert_eq!(s.windows[0].end_tick, 10);
        assert_eq!(
            s.windows[1].counters,
            vec![("db.queries".to_string(), 2), ("other".to_string(), 1)]
        );
        assert_eq!(s.windows[1].index, 1);
    }

    #[test]
    fn a_reused_slot_reports_the_new_counter_exactly() {
        let (tel, m) = sampler(10, 8);
        let old = m.counter_handle("disk.write.f1");
        m.counter_add_id(old, 5);
        tel.tick(0, &m);
        m.retire(old);
        let new = m.counter_handle("disk.write.f2");
        assert_eq!(new, old, "the freed slot is reused");
        m.counter_add_id(new, 3);
        tel.tick(10, &m);
        let s = tel.series();
        assert_eq!(s.windows[0].counters, vec![("disk.write.f2".to_string(), 3)]);
        assert_eq!(tel.baseline_slots(), m.counter_slots());
    }

    #[test]
    fn short_ticks_do_not_close_windows() {
        let (tel, m) = sampler(100, 8);
        tel.tick(0, &m);
        m.incr("c");
        for now in [10, 50, 99] {
            assert!(tel.tick(now, &m).is_empty());
        }
        assert!(tel.series().windows.is_empty());
        tel.tick(100, &m);
        assert_eq!(tel.series().windows.len(), 1);
    }

    #[test]
    fn ring_evicts_and_counts_dropped_windows() {
        let (tel, m) = sampler(1, 4);
        tel.tick(0, &m);
        for now in 1..=9u64 {
            m.incr("c");
            tel.tick(now, &m);
        }
        let s = tel.series();
        assert_eq!(s.windows.len(), 4);
        assert_eq!(s.dropped, 5);
        assert_eq!(s.windows.first().unwrap().index, 5, "oldest retained window");
        assert_eq!(s.windows.last().unwrap().index, 8);
    }

    #[test]
    fn windowed_quantiles_cover_only_the_window() {
        let (tel, m) = sampler(10, 8);
        tel.tick(0, &m);
        for _ in 0..100 {
            m.observe("query.us", 1);
        }
        tel.tick(10, &m);
        // Second window holds only large samples; its quantiles must not
        // be dragged down by the first window's 100 tiny ones.
        for _ in 0..10 {
            m.observe("query.us", 4096);
        }
        tel.tick(20, &m);
        let s = tel.series();
        let (_, q0) = s.windows[0].quantiles[0].clone();
        let (_, q1) = s.windows[1].quantiles[0].clone();
        assert_eq!((q0.count, q0.p50, q0.p99), (100, 1, 1));
        assert_eq!(q1.count, 10);
        assert_eq!(q1.p50, 4096, "duplicate-heavy window is exact");
        assert_eq!(q1.p99, 4096);
    }

    #[test]
    fn audit_accumulates_per_window_and_lifetime() {
        let (tel, m) = sampler(10, 8);
        tel.tick(0, &m);
        tel.record_audit("cycle.join-index", 100.0, 200.0);
        tel.record_audit("cycle.join-index", 100.0, 200.0);
        tel.tick(10, &m);
        tel.record_audit("cycle.join-index", 50.0, 50.0);
        tel.tick(20, &m);
        let s = tel.series();
        let w0 = &s.windows[0].audit[0];
        assert_eq!(w0.samples, 2);
        assert!((w0.log2_ratio - 1.0).abs() < 1e-12, "2x off = 1 in log2");
        let total = s.audit_section("cycle.join-index").unwrap();
        assert_eq!(total.samples, 3);
        assert!((total.predicted_us - 250.0).abs() < 1e-9);
        assert!((total.actual_us - 450.0).abs() < 1e-9);
    }

    #[test]
    fn drift_alerts_only_on_cycle_sections_over_threshold() {
        let (tel, m) = sampler(10, 8);
        tel.tick(0, &m);
        tel.record_audit("cycle.materialized-view", 1.0, 1000.0); // ~10 in log2
        tel.record_audit("apply", 1.0, 1000.0); // not drift-eligible
        tel.record_audit("recovery", 0.0, 1000.0); // zero prediction: no drift
        tel.record_audit("cycle.hybrid-hash", 100.0, 150.0); // under threshold
        let alerts = tel.tick(10, &m);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].section, "cycle.materialized-view");
        assert!(alerts[0].log2_ratio > 3.0);
        assert!(alerts[0].detail().contains("section=cycle.materialized-view"));
    }

    #[test]
    fn force_close_flushes_a_short_window_once() {
        let (tel, m) = sampler(1_000_000, 8);
        tel.tick(0, &m);
        m.incr("c");
        tel.record_audit("cycle.join-index", 1.0, 1.0);
        assert!(tel.force_close(5, &m).is_empty());
        assert_eq!(tel.series().windows.len(), 1);
        // Nothing new happened: a second forced close adds no window.
        tel.force_close(5, &m);
        assert_eq!(tel.series().windows.len(), 1);
    }

    #[test]
    fn series_json_round_trip() {
        let (tel, m) = sampler(10, 8);
        tel.tick(0, &m);
        m.incr("db.queries");
        m.gauge_set("pool.resident", 3.5);
        m.observe("query.us", 77);
        tel.record_audit("cycle.hybrid-hash", 120.0, 130.0);
        tel.tick(10, &m);
        let s = tel.series();
        let back = SeriesSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // Schema drift (a window without its audit array) is rejected.
        let mut json = s.to_json();
        if let Json::Obj(members) = &mut json {
            members.retain(|(k, _)| k != "windows");
        }
        assert!(SeriesSnapshot::from_json(&json).is_err());
    }

    #[test]
    fn merge_aligns_windows_by_index_and_sums_audit() {
        let mk = |ios: u64, pred: f64, act: f64| {
            let (tel, m) = sampler(10, 8);
            tel.tick(0, &m);
            m.counter_add("disk.reads", ios);
            m.observe("query.us", ios);
            tel.record_audit("cycle.join-index", pred, act);
            tel.tick(10, &m);
            tel.series()
        };
        let mut a = mk(3, 100.0, 100.0);
        let b = mk(5, 100.0, 300.0);
        a.merge(&b);
        assert_eq!(a.windows.len(), 1);
        assert_eq!(a.windows[0].counters, vec![("disk.reads".to_string(), 8)]);
        let q = a.windows[0].quantiles[0].1;
        assert_eq!(q.count, 2);
        assert_eq!(q.p99, 5, "upper envelope across shards");
        let audit = a.audit_section("cycle.join-index").unwrap();
        assert_eq!(audit.samples, 2);
        assert!((audit.log2_ratio - 1.0).abs() < 1e-12, "400/200 summed = 2x");
    }

    #[test]
    fn reset_disarms_and_clears() {
        let (tel, m) = sampler(10, 8);
        tel.tick(0, &m);
        m.incr("c");
        tel.record_audit("apply", 1.0, 1.0);
        tel.tick(10, &m);
        tel.reset();
        let s = tel.series();
        assert!(s.windows.is_empty() && s.audit.is_empty() && s.dropped == 0);
        // Re-arms cleanly: the first tick after reset is a baseline again.
        assert!(tel.tick(500, &m).is_empty());
        m.incr("c");
        tel.tick(510, &m);
        assert_eq!(tel.series().windows.len(), 1);
        assert_eq!(tel.series().windows[0].start_tick, 500);
    }

    #[test]
    fn safe_math_never_produces_non_finite() {
        assert_eq!(safe_div(1.0, 0.0), 0.0);
        assert_eq!(safe_div(0.0, 0.0), 0.0);
        assert_eq!(safe_div(f64::NAN, 2.0), 0.0);
        assert!((safe_div(6.0, 3.0) - 2.0).abs() < 1e-12);
        assert_eq!(safe_log2_ratio(5.0, 0.0), 0.0);
        assert_eq!(safe_log2_ratio(0.0, 5.0), 0.0);
        assert_eq!(safe_log2_ratio(-1.0, 5.0), 0.0);
        assert!((safe_log2_ratio(8.0, 1.0) - 3.0).abs() < 1e-12);
    }
}
