//! Self-healing support for strategies with cached state.
//!
//! The fault-injection plan on [`trijoin_storage::SimDisk`] produces typed
//! [`Error::DeviceFault`] errors. Strategies react according to the fault
//! taxonomy (`trijoin_common::FaultKind`):
//!
//! * **Transient** faults clear after firing, so bounded retry of the failed
//!   read/scan succeeds — used for spilled-run I/O in hybrid-hash and for
//!   the base-relation snapshots recovery itself takes.
//! * **Torn/poisoned** pages stay damaged until rewritten. A strategy whose
//!   *cached* structure (view file, join index, differential runs) is hit
//!   falls back to recomputing the current answer directly from the base
//!   relations — an in-memory hybrid-hash pass, everything in partition 0 —
//!   validates the recomputation against [`crate::oracle`], rebuilds the
//!   cached structure into fresh pages, and answers the query exactly.
//!
//! * **Fatal** faults are exempt: the execution layer neither retries nor
//!   recovers from them, so they surface unchanged — what the error-path
//!   tests assert.

use std::collections::HashMap;

use trijoin_common::{cost::SectionGuard, BaseTuple, Error, EventKind, JoinKey, Result, ViewTuple};
use trijoin_storage::Disk;

use crate::relation::StoredRelation;
use crate::viewdef::ViewDef;

/// Attempts allowed for one retryable operation (the original try plus two
/// retries — the simulated analogue of bounded backoff).
pub const MAX_ATTEMPTS: u32 = 3;

/// Run `op` up to [`MAX_ATTEMPTS`] times, retrying only on retryable
/// (transient) device faults. Non-retryable errors propagate immediately.
pub fn with_retry<T>(mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut last: Option<Error> = None;
    for _ in 0..MAX_ATTEMPTS {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("retry loop exits early unless a fault was seen"))
}

/// Answer a query from a strategy's cached state, or from the base
/// relations when that state is damaged. `pipeline` runs with its emissions
/// buffered — a device fault mid-way must not leak a partial answer — and
/// on a device fault `recover` re-derives the exact answer and rebuilds the
/// cached structure. Any other error surfaces unchanged.
pub fn answer_or_recover<S>(
    strategy: &mut S,
    pipeline: impl FnOnce(&mut S, &mut dyn FnMut(ViewTuple)) -> Result<u64>,
    recover: impl FnOnce(&mut S) -> Result<Vec<ViewTuple>>,
) -> Result<Vec<ViewTuple>> {
    let mut answer: Vec<ViewTuple> = Vec::new();
    match pipeline(strategy, &mut |vt| answer.push(vt)) {
        Ok(_) => Ok(answer),
        Err(e) if e.is_device_fault() => recover(strategy),
        Err(e) => Err(e),
    }
}

/// Announce a recovery of strategy `label` (counter `<prefix>.recoveries`,
/// a [`EventKind::RecoveryTriggered`] event), open its `<prefix>.recover`
/// ledger section — the caller rebuilds its cached structure under the
/// returned guard — and recompute the current query answer directly from
/// base-relation snapshots: an in-memory hash join (hybrid-hash with
/// everything in partition 0) honoring `def`, with the usual per-operation
/// charges, validated against the oracle before it is returned.
pub fn recompute_join(
    disk: &Disk,
    (prefix, label): (&str, &str),
    r: &StoredRelation,
    s: &StoredRelation,
    def: &ViewDef,
) -> Result<(SectionGuard, Vec<ViewTuple>)> {
    let cost = disk.cost();
    // A view that never went back to `R` must now: the relations catch up
    // first, retried like the scans below, outside the recovery's section.
    for rel in [r, s] {
        with_retry(|| rel.settle())?;
    }
    disk.metrics().incr(&format!("{prefix}.recoveries"));
    let what = format!("{label}: recompute from base relations");
    disk.events().emit(EventKind::RecoveryTriggered, what, cost.total());
    let guard = cost.section(&format!("{prefix}.recover"));
    // The base relations are the recovery source of truth, and this scan,
    // retried on transient faults, the one read path recovery depends on.
    let snapshot = |rel: &StoredRelation, pred: &crate::viewdef::Predicate| {
        with_retry(|| {
            let mut out: Vec<BaseTuple> = Vec::with_capacity(rel.len() as usize);
            rel.scan(|t| out.push(t))?;
            out.retain(|t| pred.eval(t));
            Ok(out)
        })
    };
    let r_filt = snapshot(r, &def.r_pred)?;
    let s_filt = snapshot(s, &def.s_pred)?;

    let mut by_key: HashMap<JoinKey, Vec<&BaseTuple>> = HashMap::new();
    for st in &s_filt {
        cost.hash(1);
        by_key.entry(st.key).or_default().push(st);
    }
    let mut answer: Vec<ViewTuple> = Vec::new();
    for rt in &r_filt {
        cost.hash(1);
        match by_key.get(&rt.key) {
            Some(matches) => {
                cost.comp(matches.len() as u64);
                for st in matches {
                    cost.mov(1);
                    answer.push(def.make_view_tuple(rt, st));
                }
            }
            None => cost.comp(1),
        }
    }
    validate_against_oracle(label, &answer, &r_filt, &s_filt, def)?;
    Ok((guard, answer))
}

/// Validate a recomputed answer against the independent oracle join: the
/// (r, s) surrogate pair sets must match exactly, and for a full view the
/// tuples themselves must match byte-for-byte. Returns an invariant error
/// (not a panic) on mismatch so callers can surface it.
fn validate_against_oracle(
    label: &str,
    answer: &[ViewTuple],
    r_filt: &[BaseTuple],
    s_filt: &[BaseTuple],
    def: &ViewDef,
) -> Result<()> {
    let mut got_pairs: Vec<_> = answer.iter().map(|v| (v.r_sur, v.s_sur)).collect();
    got_pairs.sort_unstable();
    let mut want_pairs: Vec<_> =
        crate::oracle::join_pairs(r_filt, s_filt).into_iter().map(|e| (e.r, e.s)).collect();
    want_pairs.sort_unstable();
    if got_pairs != want_pairs {
        return Err(Error::Invariant(format!(
            "{label}: recovery recompute disagrees with oracle on join pairs \
             ({} vs {})",
            got_pairs.len(),
            want_pairs.len()
        )));
    }
    if def.is_full() {
        let mut got: Vec<ViewTuple> = answer.to_vec();
        got.sort_by_key(|v| (v.r_sur, v.s_sur));
        let mut want = crate::oracle::join_tuples(r_filt, s_filt);
        want.sort_by_key(|v| (v.r_sur, v.s_sur));
        if got != want {
            return Err(Error::Invariant(format!(
                "{label}: recovery recompute disagrees with oracle on tuple contents"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::{FaultKind, FaultOp};

    fn fault(kind: FaultKind) -> Error {
        Error::DeviceFault { op: FaultOp::Read, kind, file: 0, page: 0 }
    }

    #[test]
    fn retry_passes_through_success_and_hard_errors() {
        let mut calls = 0;
        let ok: Result<u32> = with_retry(|| {
            calls += 1;
            Ok(7)
        });
        assert_eq!(ok.unwrap(), 7);
        assert_eq!(calls, 1);

        let mut calls = 0;
        let hard: Result<u32> = with_retry(|| {
            calls += 1;
            Err(fault(FaultKind::Fatal))
        });
        assert_eq!(hard.unwrap_err(), fault(FaultKind::Fatal));
        assert_eq!(calls, 1, "fatal faults are never retried");
    }

    #[test]
    fn retry_retries_transients_boundedly() {
        let transient = || fault(FaultKind::Transient);
        // Succeeds on the second attempt.
        let mut calls = 0;
        let out: Result<&str> = with_retry(|| {
            calls += 1;
            if calls < 2 {
                Err(transient())
            } else {
                Ok("recovered")
            }
        });
        assert_eq!(out.unwrap(), "recovered");
        assert_eq!(calls, 2);
        // Gives up after MAX_ATTEMPTS.
        let mut calls = 0;
        let out: Result<&str> = with_retry(|| {
            calls += 1;
            Err(transient())
        });
        assert!(out.unwrap_err().is_retryable());
        assert_eq!(calls, MAX_ATTEMPTS);
    }
}
