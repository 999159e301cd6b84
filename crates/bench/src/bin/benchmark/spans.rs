//! Spans recorded by the benchmark around its calls into the program
//! (`Database`, `JoinStrategy`, `ClientSession`, `Server`). They are kept
//! in memory and written out once, at exit. With the recorder off a span
//! costs one branch, so untraced runs measure the program alone.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use trijoin_common::{Result, ViewTuple};
use trijoin_exec::{JoinStrategy, Mutation, StoredRelation};

/// One recorded interval. A span that stands for many short calls
/// (`calls > 1`) starts at the first call and its `busy_ns` is the sum of
/// the calls' durations, so self time stays `busy - children`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The round number: every span of one round shares it.
    pub round: u32,
    pub start_ns: u64,
    pub busy_ns: u64,
    pub calls: u32,
}

struct Inner {
    on: Cell<bool>,
    round: Cell<u32>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Indices of the open spans, innermost last.
    open: RefCell<Vec<usize>>,
}

/// Shared handle to the span store (the workspace's `Rc` idiom: the
/// strategy wrapper and the round loop record into the same store).
#[derive(Clone)]
pub struct Recorder(Rc<Inner>);

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder(Rc::new(Inner {
            on: Cell::new(false),
            round: Cell::new(0),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }))
    }
}

impl Recorder {
    pub fn set_on(&self, on: bool) {
        self.0.on.set(on);
    }

    pub fn on(&self) -> bool {
        self.0.on.get()
    }

    pub fn set_round(&self, round: u32) {
        self.0.round.set(round);
    }

    fn push(&self, name: &'static str, start: Instant, busy_ns: u64, calls: u32) -> usize {
        let mut spans = self.0.spans.borrow_mut();
        spans.push(Span {
            name,
            parent: self.0.open.borrow().last().copied(),
            round: self.0.round.get(),
            start_ns: start.duration_since(self.0.epoch).as_nanos() as u64,
            busy_ns,
            calls,
        });
        spans.len() - 1
    }

    /// Open a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on() {
            return SpanGuard { rec: self, open: None };
        }
        let start = Instant::now();
        let index = self.push(name, start, 0, 1);
        self.0.open.borrow_mut().push(index);
        SpanGuard { rec: self, open: Some((index, start)) }
    }

    /// Record `calls` short calls as one child of the innermost open span.
    pub fn busy(&self, name: &'static str, first: Instant, busy_ns: u64, calls: u32) {
        if self.on() {
            self.push(name, first, busy_ns, calls);
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.spans.borrow_mut())
    }
}

pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    open: Option<(usize, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((index, start)) = self.open {
            self.rec.0.spans.borrow_mut()[index].busy_ns = start.elapsed().as_nanos() as u64;
            self.rec.0.open.borrow_mut().pop();
        }
    }
}

/// Accumulates the durations of many short calls for [`Recorder::busy`].
#[derive(Default)]
pub struct Busy {
    first: Option<Instant>,
    ns: u64,
    calls: u32,
}

impl Busy {
    /// Time one call when `on`; run it untimed otherwise.
    pub fn call<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let at = Instant::now();
        let out = f();
        self.ns += at.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.first.get_or_insert(at);
        out
    }

    pub fn record(self, rec: &Recorder, name: &'static str) {
        if let Some(first) = self.first {
            rec.busy(name, first, self.ns, self.calls);
        }
    }
}

/// A strategy with a span around `execute`, so `Database::query`'s own
/// time is its span minus this one. `on_mutation` is timed by the caller,
/// which folds a round's calls into one span.
pub struct Traced {
    pub inner: Box<dyn JoinStrategy>,
    pub rec: Recorder,
}

impl JoinStrategy for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_mutation(&mut self, m: &Mutation) -> Result<()> {
        self.inner.on_mutation(m)
    }

    fn execute(
        &mut self,
        r: &StoredRelation,
        s: &StoredRelation,
        sink: &mut dyn FnMut(ViewTuple),
    ) -> Result<u64> {
        let _span = self.rec.span("strategy.execute");
        self.inner.execute(r, s, sink)
    }
}

/// Mean self time per round of every span name, in milliseconds, in
/// first-seen order — the "where does a round go" table.
pub fn self_ms_per_round(spans: &[Span], rounds: usize) -> Vec<(&'static str, f64)> {
    let pairs: Vec<(Option<usize>, u64)> = spans.iter().map(|s| (s.parent, s.busy_ns)).collect();
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(crate::stats::self_times(&pairs)) {
        let ms = own as f64 / 1e6 / rounds.max(1) as f64;
        match out.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += ms,
            None => out.push((span.name, ms)),
        }
    }
    out
}

/// Serialize spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\
             \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
            s.name,
            s.round,
            s.start_ns,
            s.start_ns + s.busy_ns,
            s.busy_ns,
            s.calls
        ));
    }
    out.push_str("\n]");
    out
}
