//! Structured engine events in a bounded ring buffer.
//!
//! [`EventLog`] is a shared handle (the usual `Rc<RefCell<..>>` idiom)
//! holding the most recent [`EVENT_CAPACITY`] events. Each event is stamped
//! with a monotone sequence number and the ledger's [`OpCounts`] total at
//! emission time — the engine has no wall clock, so "when" is expressed in
//! primitive ops and rendered to simulated time with whatever
//! [`crate::SystemParams`] the report is priced under.

use crate::cost::OpCounts;
use crate::json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Maximum number of events the ring retains (oldest evicted first).
pub const EVENT_CAPACITY: usize = 1024;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A `Database::query` began.
    QueryStart,
    /// A `Database::query` finished.
    QueryEnd,
    /// A scheduled device fault fired.
    FaultFired,
    /// A strategy entered its recovery/retry path.
    RecoveryTriggered,
    /// The adaptive planner changed strategy.
    StrategySwitch,
    /// A strategy migration started (with the prices that decided it) or
    /// rolled back on a device fault.
    MigrationStep,
    /// A telemetry window's predicted-vs-actual cost error exceeded the
    /// configured drift threshold (see `telemetry::DriftAlert`).
    CostDrift,
}

impl EventKind {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::QueryStart => "query_start",
            EventKind::QueryEnd => "query_end",
            EventKind::FaultFired => "fault_fired",
            EventKind::RecoveryTriggered => "recovery_triggered",
            EventKind::StrategySwitch => "strategy_switch",
            EventKind::MigrationStep => "migration_step",
            EventKind::CostDrift => "cost_drift",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    pub fn from_wire(name: &str) -> Option<EventKind> {
        Some(match name {
            "query_start" => EventKind::QueryStart,
            "query_end" => EventKind::QueryEnd,
            "fault_fired" => EventKind::FaultFired,
            "recovery_triggered" => EventKind::RecoveryTriggered,
            "strategy_switch" => EventKind::StrategySwitch,
            "migration_step" => EventKind::MigrationStep,
            "cost_drift" => EventKind::CostDrift,
            _ => return None,
        })
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone emission index (survives ring eviction: the first retained
    /// event of a long run has `seq > 0`).
    pub seq: u64,
    /// Event class.
    pub kind: EventKind,
    /// Free-form context (`"strategy=mv"`, `"read f2 page 17"`, ...).
    pub detail: String,
    /// Ledger total at emission; price with `at.time_us(&params)`.
    pub at: OpCounts,
}

impl Event {
    /// Serialize for embedding in a run report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("seq", self.seq)
            .set("kind", self.kind.as_str())
            .set("detail", self.detail.as_str())
            .set(
                "at",
                Json::obj()
                    .set("ios", self.at.ios)
                    .set("comps", self.at.comps)
                    .set("hashes", self.at.hashes)
                    .set("moves", self.at.moves),
            )
    }

    /// Inverse of [`Event::to_json`].
    pub fn from_json(json: &Json) -> Result<Event, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .and_then(EventKind::from_wire)
            .ok_or_else(|| "event: bad kind".to_string())?;
        let at = json.get("at").ok_or_else(|| "event: missing at".to_string())?;
        let op = |f: &str| {
            at.get(f).and_then(Json::as_u64).ok_or_else(|| format!("event: at.{f} not a u64"))
        };
        Ok(Event {
            seq: json
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| "event: missing seq".to_string())?,
            kind,
            detail: json
                .get("detail")
                .and_then(Json::as_str)
                .ok_or_else(|| "event: missing detail".to_string())?
                .to_string(),
            at: OpCounts {
                ios: op("ios")?,
                comps: op("comps")?,
                hashes: op("hashes")?,
                moves: op("moves")?,
            },
        })
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// Shared handle to the event ring. Clones alias the same buffer.
#[derive(Debug, Clone, Default)]
pub struct EventLog(Rc<RefCell<Ring>>);

impl EventLog {
    /// A fresh, empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Append an event stamped `at` the given ledger total; returns its
    /// sequence number.
    pub fn emit(&self, kind: EventKind, detail: impl Into<String>, at: OpCounts) -> u64 {
        let mut ring = self.0.borrow_mut();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == EVENT_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(Event { seq, kind, detail: detail.into(), at });
        seq
    }

    /// Move event `seq` to the ledger total `at`, if the ring still holds
    /// it: for an event whose place in the order is known before its time
    /// is (a query starts its clock once the strategy has settled what it
    /// reads, and only the strategy knows what that is).
    pub fn restamp(&self, seq: u64, at: OpCounts) {
        let mut ring = self.0.borrow_mut();
        if let Some(event) = ring.events.iter_mut().rev().find(|e| e.seq == seq) {
            event.at = at;
        }
    }

    /// Events evicted from the ring to make room (overflow is no longer
    /// silent: run reports surface this as the `events.dropped` counter).
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.0.borrow().events.iter().cloned().collect()
    }

    /// Total events ever emitted (including any evicted from the ring).
    pub fn emitted(&self) -> u64 {
        self.0.borrow().next_seq
    }

    /// Number of retained events of one kind.
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.0.borrow().events.iter().filter(|e| e.kind == kind).count()
    }

    /// Drop all retained events and reset the sequence counter.
    pub fn reset(&self) {
        let mut ring = self.0.borrow_mut();
        ring.events.clear();
        ring.next_seq = 0;
        ring.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ios: u64) -> OpCounts {
        OpCounts { ios, ..OpCounts::default() }
    }

    #[test]
    fn emits_in_order_with_monotone_seq() {
        let log = EventLog::new();
        let alias = log.clone();
        log.emit(EventKind::QueryStart, "strategy=mv", at(0));
        alias.emit(EventKind::QueryEnd, "strategy=mv", at(10));
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].kind, EventKind::QueryStart);
        assert_eq!(events[1].at.ios, 10);
        assert_eq!(log.count_of(EventKind::QueryEnd), 1);
    }

    #[test]
    fn restamp_moves_one_event_and_ignores_an_evicted_one() {
        let log = EventLog::new();
        let start = log.emit(EventKind::QueryStart, "q", at(0));
        log.emit(EventKind::FaultFired, "f", at(3));
        log.restamp(start, at(7));
        let events = log.events();
        assert_eq!((events[0].seq, events[0].at.ios), (0, 7));
        assert_eq!(events[1].at.ios, 3);
        for i in 0..EVENT_CAPACITY as u64 {
            log.emit(EventKind::FaultFired, "f", at(i));
        }
        log.restamp(start, at(9));
        assert!(log.events().iter().all(|e| e.seq != start));
    }

    #[test]
    fn ring_evicts_oldest_but_seq_keeps_counting() {
        let log = EventLog::new();
        for i in 0..(EVENT_CAPACITY as u64 + 5) {
            log.emit(EventKind::FaultFired, format!("fault {i}"), at(i));
        }
        let events = log.events();
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert_eq!(events.first().unwrap().seq, 5);
        assert_eq!(events.last().unwrap().seq, EVENT_CAPACITY as u64 + 4);
        assert_eq!(log.emitted(), EVENT_CAPACITY as u64 + 5);
        assert_eq!(log.dropped(), 5, "overflow is counted, not silent");
    }

    #[test]
    fn dropped_is_zero_until_overflow() {
        let log = EventLog::new();
        for i in 0..EVENT_CAPACITY as u64 {
            log.emit(EventKind::QueryStart, "q", at(i));
        }
        assert_eq!(log.dropped(), 0, "a full-but-not-overflowed ring drops nothing");
        log.emit(EventKind::QueryEnd, "q", at(0));
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn event_json_round_trip() {
        let event = Event {
            seq: 17,
            kind: EventKind::StrategySwitch,
            detail: "mv -> hh at epoch 3".to_string(),
            at: OpCounts { ios: 1, comps: 2, hashes: 3, moves: 4 },
        };
        assert_eq!(Event::from_json(&event.to_json()).unwrap(), event);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            EventKind::QueryStart,
            EventKind::QueryEnd,
            EventKind::FaultFired,
            EventKind::RecoveryTriggered,
            EventKind::StrategySwitch,
            EventKind::MigrationStep,
            EventKind::CostDrift,
        ] {
            assert_eq!(EventKind::from_wire(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::from_wire("nope"), None);
    }

    #[test]
    fn reset_clears_and_rewinds() {
        let log = EventLog::new();
        for i in 0..(EVENT_CAPACITY as u64 + 1) {
            log.emit(EventKind::QueryStart, "x", at(i));
        }
        log.reset();
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0);
        log.emit(EventKind::QueryStart, "y", at(0));
        assert_eq!(log.events()[0].seq, 0);
    }
}
