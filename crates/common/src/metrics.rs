//! Engine metrics registry: counters, gauges, and histograms.
//!
//! [`Metrics`] is a cheaply-cloneable handle over shared state, the same
//! `Rc<RefCell<..>>` idiom as [`crate::Cost`]: every layer that holds a
//! clone observes (and contributes to) the same registry. The engine is
//! simulated and single-threaded, so there is no atomics machinery —
//! determinism is the point: two identical runs must produce bit-identical
//! [`MetricsSnapshot`]s.
//!
//! Names are dotted paths (`"disk.reads"`, `"disk.read.f3"`,
//! `"mv.tuples_emitted"`). Instruments are created on first touch; reading
//! a never-touched counter yields 0 rather than registering it.
//!
//! Counters are *interned*: each name maps to a stable [`CounterId`] slot,
//! and hot loops that pre-resolve a handle via [`Metrics::counter_handle`]
//! bump a plain array cell — no string hash, no allocation, no tree walk.
//! The string-keyed methods remain as a thin compatibility layer over the
//! same slots, so both paths observe identical state. Handles stay valid
//! across [`Metrics::reset`] (the intern table is retained; only values are
//! cleared), which lets long-lived components resolve their counters once
//! at construction.
//!
//! A counter that describes something short-lived (a file's I/O) is
//! [`Metrics::retire`]d with it: its name leaves the registry and its slot
//! is reused, so the registry scales with what is live, not with history.
//! Each slot carries a generation that changes when it is retired, so a
//! slot-indexed baseline can tell a reused slot from the one it knew.

use crate::fx::FxHashMap;
use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Interned handle for one counter in one [`Metrics`] registry.
///
/// Obtained from [`Metrics::counter_handle`]; bumping through a handle is
/// an array index instead of a string hash. Handles are only meaningful
/// for the registry (or a clone of it) that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Number of power-of-two buckets a [`Histogram`] keeps (`2^0 .. 2^62`,
/// plus a final overflow bucket).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket histogram over non-negative integer samples
/// (microsecond durations, byte sizes, run lengths).
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 also holds 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Log2 bucket counts.
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: 0, max: 0, buckets: vec![0; HISTOGRAM_BUCKETS] }
    }
}

impl Histogram {
    fn record(&mut self, sample: u64) {
        if self.count == 0 {
            self.min = sample;
            self.max = sample;
        } else {
            self.min = self.min.min(sample);
            self.max = self.max.max(sample);
        }
        self.count += 1;
        self.sum += sample;
        let bucket = if sample == 0 {
            0
        } else {
            (63 - sample.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
    }

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate of the sample at rank `ceil(p * count)` (1-based, clamped
    /// into `[1, count]`). Rank 1 is exactly `min` and rank `count` exactly
    /// `max`; an interior rank resolves to the lower edge of the bucket
    /// holding it, clamped into `[min, max]`. That makes single-sample and
    /// duplicate-heavy distributions exact and bounds everything else by
    /// one power-of-two bucket. Returns 0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << i };
                return lower.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other`'s samples into this histogram (bucket-wise). Exact for
    /// count/sum/min/max/buckets — the merge of per-shard histograms equals
    /// the histogram a single registry would have recorded.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// One interned counter slot. `touched` distinguishes "registered by an
/// add (possibly of 0)" from "merely handle-resolved": snapshots include
/// only touched slots, preserving the first-touch registration semantics
/// the string API always had. `generation` changes each time the slot is
/// retired.
#[derive(Debug)]
struct CounterSlot {
    name: String,
    value: u64,
    touched: bool,
    generation: u32,
}

#[derive(Debug, Default)]
struct Registry {
    counter_ids: FxHashMap<String, usize>,
    counter_slots: Vec<CounterSlot>,
    /// Retired slots, reused (last retired first) before the table grows.
    free_slots: Vec<usize>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.counter_ids.get(name) {
            return id;
        }
        let id = match self.free_slots.pop() {
            Some(id) => {
                self.counter_slots[id].name.push_str(name);
                id
            }
            None => {
                let slot =
                    CounterSlot { name: name.to_string(), value: 0, touched: false, generation: 0 };
                self.counter_slots.push(slot);
                self.counter_slots.len() - 1
            }
        };
        self.counter_ids.insert(name.to_string(), id);
        id
    }
}

/// Shared handle to the metrics registry. Clones alias the same state.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Rc<RefCell<Registry>>);

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Resolve (interning if needed) the stable handle for a counter,
    /// without registering it: a handle-only counter stays out of
    /// snapshots until the first add through it.
    pub fn counter_handle(&self, name: &str) -> CounterId {
        CounterId(self.0.borrow_mut().intern(name))
    }

    /// Add `delta` to the counter behind an interned handle — the hot-loop
    /// path: one array index, no hashing.
    #[inline]
    pub fn counter_add_id(&self, id: CounterId, delta: u64) {
        let mut reg = self.0.borrow_mut();
        let slot = &mut reg.counter_slots[id.0];
        slot.value += delta;
        slot.touched = true;
    }

    /// Increment the counter behind an interned handle by one.
    #[inline]
    pub fn incr_id(&self, id: CounterId) {
        self.counter_add_id(id, 1);
    }

    /// Add `delta` to the named counter (created at 0 on first touch).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut reg = self.0.borrow_mut();
        let id = reg.intern(name);
        let slot = &mut reg.counter_slots[id];
        slot.value += delta;
        slot.touched = true;
    }

    /// Increment the named counter by one.
    pub fn incr(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Drop a counter from the registry: its name leaves the intern table
    /// (and so every later snapshot), and its slot goes on the free list
    /// that the next new name reuses, under a new generation. `id` and
    /// every copy of it are dead from here on: the owner must not add
    /// through them again. Retiring a slot that is already free is a
    /// no-op.
    pub fn retire(&self, id: CounterId) {
        let reg = &mut *self.0.borrow_mut();
        let slot = &mut reg.counter_slots[id.0];
        if reg.counter_ids.get(&slot.name) != Some(&id.0) {
            return;
        }
        reg.counter_ids.remove(&slot.name);
        slot.name.clear();
        (slot.value, slot.touched) = (0, false);
        slot.generation = slot.generation.wrapping_add(1);
        reg.free_slots.push(id.0);
    }

    /// Counter slots the registry holds, live or free: what a slot-indexed
    /// baseline grows to. Bounded by the most counters ever live at once.
    pub fn counter_slots(&self) -> usize {
        self.0.borrow().counter_slots.len()
    }

    /// Current value of a counter (0 if never touched). Reading never
    /// registers the counter.
    pub fn counter(&self, name: &str) -> u64 {
        let reg = self.0.borrow();
        match reg.counter_ids.get(name) {
            Some(&id) => reg.counter_slots[id].value,
            None => 0,
        }
    }

    /// Set the named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.0.borrow_mut().gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge (`None` if never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.0.borrow().gauges.get(name).copied()
    }

    /// Record one sample into the named histogram.
    pub fn observe(&self, name: &str, sample: u64) {
        self.0.borrow_mut().histograms.entry(name.to_string()).or_default().record(sample);
    }

    /// Copy of the named histogram (`None` if never observed).
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.0.borrow().histograms.get(name).cloned()
    }

    /// Visit every touched counter as `(slot, generation, name, value)`
    /// without allocating. A slot keeps its id until it is retired, and a
    /// reused slot comes back under a new generation, so callers can keep
    /// slot-indexed baselines keyed by `(slot, generation)` — the telemetry
    /// window-close path, which runs too often to afford a full
    /// [`Metrics::snapshot`].
    pub fn visit_counters(&self, mut f: impl FnMut(usize, u32, &str, u64)) {
        let reg = self.0.borrow();
        for (id, slot) in reg.counter_slots.iter().enumerate() {
            if slot.touched {
                f(id, slot.generation, &slot.name, slot.value);
            }
        }
    }

    /// Visit every gauge in name order without allocating.
    pub fn visit_gauges(&self, mut f: impl FnMut(&str, f64)) {
        for (k, v) in self.0.borrow().gauges.iter() {
            f(k, *v);
        }
    }

    /// Visit every histogram in name order without allocating.
    pub fn visit_histograms(&self, mut f: impl FnMut(&str, &Histogram)) {
        for (k, h) in self.0.borrow().histograms.iter() {
            f(k, h);
        }
    }

    /// Clear every instrument (used between measured phases, mirroring
    /// [`crate::Cost::reset`]). The counter intern table survives — values
    /// drop to zero and slots leave snapshots until touched again — so
    /// pre-resolved [`CounterId`] handles stay valid across resets.
    pub fn reset(&self) {
        let mut reg = self.0.borrow_mut();
        for slot in &mut reg.counter_slots {
            slot.value = 0;
            slot.touched = false;
        }
        reg.gauges.clear();
        reg.histograms.clear();
    }

    /// Point-in-time copy of the whole registry, ordered by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.0.borrow();
        let mut counters: Vec<(String, u64)> = reg
            .counter_slots
            .iter()
            .filter(|s| s.touched)
            .map(|s| (s.name.clone(), s.value))
            .collect();
        counters.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        MetricsSnapshot {
            counters,
            gauges: reg.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: reg.histograms.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }
}

/// An immutable, comparable copy of the registry at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Counter value from the snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// Gauge value from the snapshot (`None` if absent).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Histogram from the snapshot (`None` if absent).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, h)| h)
    }

    /// Fold `other` into this snapshot: counters and gauges add, histograms
    /// merge bucket-wise, and name order stays sorted. Adding gauges makes
    /// per-shard capacity gauges (`shard.resident_pages`, ...) roll up to fleet
    /// totals; point-in-time gauges should be read per shard instead.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
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
        fold(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// Serialize for embedding in a run report.
    pub fn to_json(&self) -> Json {
        let counters = self.counters.iter().fold(Json::obj(), |acc, (k, v)| acc.set(k, *v));
        let gauges = self.gauges.iter().fold(Json::obj(), |acc, (k, v)| acc.set(k, *v));
        let histograms = self.histograms.iter().fold(Json::obj(), |acc, (k, h)| {
            // Trailing zero buckets are elided; `from_json` re-pads.
            let occupied = h.buckets.iter().rposition(|&c| c != 0).map(|i| i + 1).unwrap_or(0);
            acc.set(
                k,
                Json::obj()
                    .set("count", h.count)
                    .set("sum", h.sum)
                    .set("min", h.min)
                    .set("max", h.max)
                    .set(
                        "buckets",
                        Json::Arr(h.buckets[..occupied].iter().map(|&c| Json::from(c)).collect()),
                    ),
            )
        });
        Json::obj().set("counters", counters).set("gauges", gauges).set("histograms", histograms)
    }

    /// Inverse of [`MetricsSnapshot::to_json`].
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, String> {
        let obj_pairs = |key: &str| -> Result<Vec<(String, Json)>, String> {
            match json.get(key) {
                Some(Json::Obj(members)) => Ok(members.clone()),
                _ => Err(format!("metrics: missing object {key:?}")),
            }
        };
        let counters = obj_pairs("counters")?
            .into_iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("metrics: counter {k:?} not a u64"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let gauges = obj_pairs("gauges")?
            .into_iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("metrics: gauge {k:?} not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let histograms = obj_pairs("histograms")?
            .into_iter()
            .map(|(k, v)| -> Result<(String, Histogram), String> {
                let field = |f: &str| {
                    v.get(f)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("metrics: histogram {k:?} missing {f:?}"))
                };
                let mut buckets: Vec<u64> = v
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("metrics: histogram {k:?} missing buckets"))?
                    .iter()
                    .map(|b| b.as_u64().ok_or_else(|| format!("metrics: bad bucket in {k:?}")))
                    .collect::<Result<Vec<_>, _>>()?;
                buckets.resize(HISTOGRAM_BUCKETS, 0);
                Ok((
                    k.clone(),
                    Histogram {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                    },
                ))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MetricsSnapshot { counters, gauges, histograms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_registry() {
        let m = Metrics::new();
        let alias = m.clone();
        m.incr("pool.hits");
        alias.counter_add("pool.hits", 2);
        assert_eq!(m.counter("pool.hits"), 3);
        assert_eq!(m.counter("never.touched"), 0);
    }

    #[test]
    fn interned_handles_alias_string_counters() {
        let m = Metrics::new();
        let id = m.counter_handle("pool.hits");
        // Handle resolution alone does not register the counter.
        assert!(m.snapshot().counters.is_empty());
        m.incr_id(id);
        m.counter_add("pool.hits", 2);
        assert_eq!(m.counter("pool.hits"), 3);
        // Same name resolves to the same slot, including on clones.
        assert_eq!(m.clone().counter_handle("pool.hits"), id);
    }

    #[test]
    fn handles_survive_reset() {
        let m = Metrics::new();
        let id = m.counter_handle("disk.reads");
        m.counter_add_id(id, 5);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        m.incr_id(id);
        assert_eq!(m.counter("disk.reads"), 1);
        assert_eq!(m.snapshot().counters, vec![("disk.reads".to_string(), 1)]);
    }

    #[test]
    fn retired_slots_leave_snapshots_and_are_reused_under_a_new_generation() {
        let m = Metrics::new();
        let keep = m.counter_handle("disk.reads");
        let gone = m.counter_handle("disk.read.f7");
        m.counter_add_id(gone, 5);
        m.incr_id(keep);
        let generation = |m: &Metrics, name: &str| {
            let mut seen = None;
            m.visit_counters(|_, g, n, _| seen = seen.or((n == name).then_some(g)));
            seen
        };
        let before = generation(&m, "disk.read.f7").unwrap();
        m.retire(gone);
        m.retire(gone); // idempotent
        assert_eq!(m.snapshot().counters, vec![("disk.reads".to_string(), 1)]);
        assert_eq!(m.counter("disk.read.f7"), 0);
        // The next new name takes the freed slot; the table does not grow.
        let reused = m.counter_handle("disk.read.f8");
        assert_eq!((reused, m.counter_slots()), (gone, 2));
        m.incr_id(reused);
        assert_eq!(m.counter("disk.read.f8"), 1, "the slot starts from zero");
        assert_ne!(generation(&m, "disk.read.f8"), Some(before));
        // A retired name interns afresh, and a live name stays put.
        assert_eq!(m.counter_handle("disk.reads"), keep);
        assert_eq!(m.counter_handle("disk.read.f7").0, 2);
    }

    #[test]
    fn zero_delta_add_registers_the_counter() {
        // `counter_add(name, 0)` has always created the entry; the interned
        // slots must preserve that first-touch semantics.
        let m = Metrics::new();
        m.counter_add("hh.recoveries", 0);
        assert_eq!(m.snapshot().counters, vec![("hh.recoveries".to_string(), 0)]);
    }

    #[test]
    fn gauges_overwrite() {
        let m = Metrics::new();
        assert_eq!(m.gauge("pool.resident"), None);
        m.gauge_set("pool.resident", 7.0);
        m.gauge_set("pool.resident", 5.0);
        assert_eq!(m.gauge("pool.resident"), Some(5.0));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let m = Metrics::new();
        for sample in [0, 1, 1, 3, 8, 1024] {
            m.observe("query.us", sample);
        }
        let h = m.histogram("query.us").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1037);
        assert_eq!((h.min, h.max), (0, 1024));
        assert_eq!(h.buckets[0], 3); // 0, 1, 1
        assert_eq!(h.buckets[1], 1); // 3
        assert_eq!(h.buckets[3], 1); // 8
        assert_eq!(h.buckets[10], 1); // 1024
        assert!((h.mean() - 1037.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_match_exact_on_known_distributions() {
        // Single sample: every quantile is that sample, exactly.
        let m = Metrics::new();
        m.observe("one", 37);
        let h = m.histogram("one").unwrap();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), 37, "p={p}");
        }

        // Duplicate-heavy: 99 copies of 10 and one 1000 — p50 must be 10
        // and p99 must stay 10 (rank 99 of 100), p100 the outlier's bucket.
        let m = Metrics::new();
        for _ in 0..99 {
            m.observe("dup", 10);
        }
        m.observe("dup", 1000);
        let h = m.histogram("dup").unwrap();
        assert_eq!(h.quantile(0.50), 10);
        assert_eq!(h.quantile(0.99), 10);
        assert_eq!(h.quantile(1.0), 1000, "rank == count returns max exactly");

        // Powers of two land on their bucket lower edges: every rank of
        // this distribution comes back exact.
        let m = Metrics::new();
        for sample in [1u64, 2, 4, 8] {
            m.observe("pow", sample);
        }
        let h = m.histogram("pow").unwrap();
        assert_eq!(h.quantile(0.25), 1, "rank 1 returns min exactly");
        assert_eq!(h.quantile(0.5), 2, "rank 2: bucket [2,4) lower edge");
        assert_eq!(h.quantile(0.75), 4, "rank 3: bucket [4,8) lower edge");
        assert_eq!(h.quantile(1.0), 8, "rank 4 returns max exactly");

        // Empty histogram yields 0, never panics.
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_detached() {
        let run = || {
            let m = Metrics::new();
            m.incr("b");
            m.incr("a");
            m.observe("h", 5);
            m.gauge_set("g", 1.5);
            m.snapshot()
        };
        let s1 = run();
        let s2 = run();
        assert_eq!(s1, s2);
        // Snapshots are copies: later registry changes don't leak in.
        let m = Metrics::new();
        m.incr("a");
        let snap = m.snapshot();
        m.incr("a");
        assert_eq!(snap.counter("a"), 1);
        assert_eq!(m.counter("a"), 2);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let m = Metrics::new();
        m.counter_add("disk.read.f0", 12);
        m.gauge_set("pool.resident", 3.0);
        m.observe("run.len", 100);
        m.observe("run.len", 0);
        let snap = m.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn merge_equals_single_registry() {
        // Two "shards" recording disjoint and overlapping instruments must
        // merge to exactly what one registry recording everything holds.
        let a = Metrics::new();
        let b = Metrics::new();
        let all = Metrics::new();
        for (m, samples) in [(&a, [1u64, 8]), (&b, [0, 1024])] {
            for s in samples {
                m.observe("query.us", s);
                all.observe("query.us", s);
            }
        }
        a.counter_add("disk.reads", 3);
        all.counter_add("disk.reads", 3);
        b.counter_add("disk.reads", 4);
        all.counter_add("disk.reads", 4);
        b.incr("only.b");
        all.incr("only.b");
        a.gauge_set("pool.resident", 2.0);
        all.gauge_set("pool.resident", 2.0 + 5.0);
        b.gauge_set("pool.resident", 5.0);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
        assert_eq!(merged.counter("only.b"), 1);
        assert_eq!(merged.histogram("query.us").unwrap().count, 4);
        // Merging an empty snapshot is the identity.
        let before = merged.clone();
        merged.merge(&MetricsSnapshot::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn histogram_merge_handles_empty_sides() {
        let m = Metrics::new();
        m.observe("h", 7);
        let recorded = m.histogram("h").unwrap();
        let mut empty = Histogram::default();
        empty.merge(&recorded);
        assert_eq!(empty, recorded);
        let mut copy = recorded.clone();
        copy.merge(&Histogram::default());
        assert_eq!(copy, recorded);
    }

    #[test]
    fn reset_clears_everything() {
        let m = Metrics::new();
        m.incr("a");
        m.gauge_set("g", 2.0);
        m.observe("h", 9);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }
}
