//! The submission/completion ring between client sessions and the
//! scheduler: one fixed-capacity queue guarded by one mutex and two
//! condvars.
//!
//! Updates are enqueued fire-and-forget (no per-request reply channel, no
//! round-trip: the enqueue *is* the admission, and a full ring applies
//! backpressure by making the submitter wait for the next drain). Blocking
//! requests — queries, flushes, reports, fault control — take a completion
//! ticket; the scheduler drains whole slices of the ring per wakeup,
//! completes every ticketed request of the slice in place, and wakes all
//! waiters once per drained batch.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use trijoin_common::{Error, Result};

use crate::server::{Request, Response};

pub(crate) fn server_down() -> Error {
    Error::Invariant("serve: server is shut down".into())
}

/// One submitted request: a completion ticket for blocking calls (`None`
/// for fire-and-forget updates) plus the submission instant feeding the
/// serve-latency percentiles.
pub(crate) struct Slot {
    pub ticket: Option<u64>,
    pub at: Instant,
    pub request: Request,
}

/// Shared state of the submission/completion ring.
pub(crate) struct RingState {
    /// Submission queue, bounded at [`Ring::capacity`].
    queue: VecDeque<Slot>,
    /// Completions posted by the scheduler, keyed by ticket. Stays tiny:
    /// at most one entry per concurrently blocked client.
    done: Vec<(u64, Result<Response>)>,
    next_ticket: u64,
    /// False once the server shuts down: new submissions are refused and
    /// blocked clients error out instead of hanging.
    open: bool,
    /// Times a submitter had to wait for ring space (wall-clock shaped).
    full_waits: u64,
}

/// How many times a waiter polls-and-yields before parking on a condvar
/// (or blocking in `recv`). Yielding hands the CPU to whichever peer is
/// producing the awaited result, so on shared cores the result usually
/// arrives syscall-free within the budget; parking stays the fallback so
/// nothing ever busy-loops indefinitely.
pub(crate) const YIELD_BUDGET: u32 = 256;

/// The submission/completion ring: one mutex, two condvars.
///
/// `submitted` wakes the scheduler when the queue becomes non-empty;
/// `completed` wakes clients when results are posted or space frees up.
/// The scheduler signals `completed` **once per drained batch**, not per
/// request.
pub(crate) struct Ring {
    pub capacity: usize,
    state: Mutex<RingState>,
    submitted: Condvar,
    completed: Condvar,
}

impl Ring {
    pub fn new(capacity: usize) -> Arc<Ring> {
        Arc::new(Ring {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                queue: VecDeque::new(),
                done: Vec::new(),
                next_ticket: 0,
                open: true,
                full_waits: 0,
            }),
            submitted: Condvar::new(),
            completed: Condvar::new(),
        })
    }

    /// Lock the ring state, recovering from a poisoned mutex (a panicking
    /// peer must not cascade into every other thread).
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(
        &self,
        cv: &Condvar,
        guard: MutexGuard<'a, RingState>,
    ) -> MutexGuard<'a, RingState> {
        cv.wait(guard).unwrap_or_else(|p| p.into_inner())
    }

    /// Block until the ring has space (backpressure), then enqueue, drawing
    /// a completion ticket when `ticketed`. The ticket is drawn under the
    /// lock hold that enqueues, so it is unique however many clients race,
    /// and the guard flows back out so [`Ring::call`] waits for the
    /// completion under the same hold: one posted at once is found on its
    /// first look.
    fn enqueue(
        &self,
        request: Request,
        ticketed: bool,
    ) -> Result<(MutexGuard<'_, RingState>, u64)> {
        let mut st = self.lock();
        loop {
            if !st.open {
                return Err(server_down());
            }
            if st.queue.len() < self.capacity {
                break;
            }
            st.full_waits += 1;
            st = self.wait(&self.completed, st);
        }
        let ticket = st.next_ticket;
        st.next_ticket += u64::from(ticketed);
        st.queue.push_back(Slot {
            ticket: ticketed.then_some(ticket),
            at: Instant::now(),
            request,
        });
        // Wake the scheduler only on the empty→non-empty edge: it sleeps
        // on `submitted` only when the queue is empty, so deeper pushes
        // are always observed by the drain that follows its current batch.
        if st.queue.len() == 1 {
            self.submitted.notify_one();
        }
        Ok((st, ticket))
    }

    /// Fire-and-forget submission (updates): enqueue and return. The
    /// request is admitted by the scheduler in ring order; errors that
    /// surface while applying it are deferred to the next blocking call.
    pub fn submit(&self, request: Request) -> Result<()> {
        self.enqueue(request, false).map(drop)
    }

    /// Blocking submission: enqueue with a ticket and wait until the
    /// scheduler posts this call's completion.
    pub fn call(&self, request: Request) -> Result<Response> {
        let (mut st, ticket) = self.enqueue(request, true)?;
        // Park directly: a blocking call waits out a whole fan-out/merge
        // round, far past any useful poll window, and a spinning client
        // would only steal CPU from the shards computing its answer. (The
        // scheduler-side waits poll-then-park instead — their results
        // arrive quickly; see `drain_wait` and `recv_yielding`.)
        loop {
            if let Some(i) = st.done.iter().position(|(t, _)| *t == ticket) {
                return st.done.swap_remove(i).1;
            }
            if !st.open {
                return Err(server_down());
            }
            st = self.wait(&self.completed, st);
        }
    }

    /// Scheduler: take every queued submission without blocking — the
    /// pipelining poll while a fanned-out query is in flight, and the
    /// first half of [`Ring::drain_wait`]. When the queue was empty the
    /// guard that saw it so comes back, for a wait that cannot miss the
    /// next submission.
    pub fn drain_now(&self, out: &mut Vec<Slot>) -> Option<MutexGuard<'_, RingState>> {
        let mut st = self.lock();
        if st.queue.is_empty() {
            return Some(st);
        }
        let was_full = st.queue.len() >= self.capacity;
        out.extend(st.queue.drain(..));
        drop(st);
        if was_full {
            self.completed.notify_all();
        }
        None
    }

    /// Scheduler: take every queued submission, blocking until at least
    /// one arrives. Returns `false` once the ring is closed and drained.
    ///
    /// `on_idle` fires at most once per call, outside the lock, right
    /// before the scheduler would park on the condvar — i.e. when the
    /// yield-spin budget expired without any client producing work. This
    /// is the hook the scheduler uses to seal deferred commit barriers:
    /// an idle ring means no further barrier is imminent to coalesce
    /// with, so the fsync is paid now rather than holding client data
    /// volatile across an unbounded quiet period.
    pub fn drain_wait(&self, out: &mut Vec<Slot>, mut on_idle: impl FnMut()) -> bool {
        // Poll, then park: a client that just received a completion
        // typically submits its next round immediately, so a short
        // yield-spin catches it without a park/wake pair.
        let mut spins = 0u32;
        let mut idled = false;
        while let Some(st) = self.drain_now(out) {
            if !st.open {
                return false;
            }
            if spins < YIELD_BUDGET {
                spins += 1;
                drop(st);
                std::thread::yield_now();
            } else if !idled {
                idled = true;
                drop(st);
                on_idle();
            } else {
                drop(self.wait(&self.submitted, st));
            }
        }
        true
    }

    /// Scheduler: post a batch of completions — one wakeup for all of
    /// them, however many clients are blocked.
    pub fn complete(&self, results: Vec<(u64, Result<Response>)>) {
        if results.is_empty() {
            return;
        }
        let mut st = self.lock();
        st.done.extend(results);
        drop(st);
        self.completed.notify_all();
    }

    /// Refuse new submissions and wake every blocked thread. Idempotent.
    pub fn close(&self) {
        let mut st = self.lock();
        st.open = false;
        drop(st);
        self.submitted.notify_all();
        self.completed.notify_all();
    }

    pub fn full_waits(&self) -> u64 {
        self.lock().full_waits
    }
}
