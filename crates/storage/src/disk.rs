//! The simulated disk.
//!
//! [`SimDisk`] charges one random-I/O operation into the shared [`Cost`]
//! ledger for every page read and every page write. The paper prices
//! sequential and random accesses identically (a single `IO = 25 ms`
//! constant), so the disk does not model seek locality — doing so would
//! make the engine *diverge* from the analytical model.
//!
//! Page allocation and file creation are free: they are bookkeeping, not
//! device traffic; a freshly allocated page only costs when it is written.
//!
//! Where the pages actually live is a [`StorageBackend`]: the in-memory
//! [`crate::backend::MemBackend`] (the default, and what every golden
//! ledger is pinned on), the real-file [`crate::backend::FileBackend`],
//! or the write-ahead-logging [`crate::wal::DurableBackend`]. The fault
//! gates, damage marks, cost charges and metrics all live *here*, above
//! the backend, so they are identical whichever medium is plugged in —
//! the ledger is the paper's model regardless of where the bytes go.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use trijoin_common::{
    Cost, CounterId, Error, EventKind, EventLog, FaultKind, FaultOp, Metrics, Result, SystemParams,
};

use crate::backend::{
    CheckpointStats, CommitSabotage, CommitStats, Durability, MemBackend, PageWrite, StorageBackend,
};

/// Identifier of a simulated file (a growable array of pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Identifier of one page: a file plus a page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    /// Owning file.
    pub file: FileId,
    /// Zero-based page number within the file.
    pub page: u32,
}

impl PageId {
    /// Convenience constructor.
    pub fn new(file: FileId, page: u32) -> Self {
        PageId { file, page }
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// One scheduled fault: after `after` further *matching* charged operations
/// succeed, the next matching operation fails with the given [`FaultKind`].
///
/// An operation matches when its direction equals `op` (if set) and it
/// targets `file` (if set). Free (uncharged) accesses never match — they
/// model permanently memory-resident pages and test instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Restrict the fault to one file (`None` = any file).
    pub file: Option<FileId>,
    /// Restrict the fault to one operation direction (`None` = either).
    pub op: Option<FaultOp>,
    /// Matching operations to let through before firing (0 = the next one).
    pub after: u64,
    /// Behaviour when the fault fires.
    pub kind: FaultKind,
}

/// A schedule of device faults for a [`SimDisk`], built either explicitly
/// (one [`FaultSpec`] per fault site) or deterministically from a seed.
/// Install with [`SimDisk::install_fault_plan`]; every fault fires exactly
/// once and is then removed from the plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, each with an independent countdown.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add an arbitrary spec.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Fail the `n`-th charged read (0-based) of `file` (or of any file)
    /// with a transient fault: the retried read succeeds.
    pub fn fail_nth_read(self, file: Option<FileId>, n: u64) -> Self {
        self.with(FaultSpec { file, op: Some(FaultOp::Read), after: n, kind: FaultKind::Transient })
    }

    /// Fail the `n`-th charged write with a transient fault.
    pub fn fail_nth_write(self, file: Option<FileId>, n: u64) -> Self {
        self.with(FaultSpec {
            file,
            op: Some(FaultOp::Write),
            after: n,
            kind: FaultKind::Transient,
        })
    }

    /// Tear the `n`-th charged write: only a prefix of the page persists and
    /// the page reads back as damaged until something rewrites it.
    pub fn torn_write(self, file: Option<FileId>, n: u64) -> Self {
        self.with(FaultSpec {
            file,
            op: Some(FaultOp::Write),
            after: n,
            kind: FaultKind::TornWrite,
        })
    }

    /// Poison the page hit by the `n`-th charged read: that read and every
    /// later read of the same page fail until the page is rewritten.
    pub fn poison_nth_read(self, file: Option<FileId>, n: u64) -> Self {
        self.with(FaultSpec { file, op: Some(FaultOp::Read), after: n, kind: FaultKind::Poisoned })
    }

    /// Fail the `n`-th charged operation, read or write, with a fatal
    /// fault: it surfaces to the caller as it is, once, and the execution
    /// layer neither retries nor recovers from it.
    pub fn fail_nth_op(self, file: Option<FileId>, n: u64) -> Self {
        self.with(FaultSpec { file, op: None, after: n, kind: FaultKind::Fatal })
    }

    /// A small pseudo-random schedule derived deterministically from `seed`
    /// (same seed ⇒ identical plan): 1–3 faults with mixed kinds, scoped to
    /// `files` round-robin when any are given.
    pub fn from_seed(seed: u64, files: &[FileId]) -> Self {
        use rand::Rng;
        let mut rng = trijoin_common::rng::seeded(trijoin_common::rng::derive(seed, "fault-plan"));
        let count = rng.gen_range(1u32..=3);
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let file =
                if files.is_empty() { None } else { Some(files[(i as usize) % files.len()]) };
            let after = rng.gen_range(0u64..64);
            let spec = match rng.gen_range(0u32..4) {
                0 => FaultSpec { file, op: Some(FaultOp::Read), after, kind: FaultKind::Transient },
                1 => {
                    FaultSpec { file, op: Some(FaultOp::Write), after, kind: FaultKind::Transient }
                }
                2 => FaultSpec { file, op: Some(FaultOp::Read), after, kind: FaultKind::Poisoned },
                _ => {
                    FaultSpec { file, op: Some(FaultOp::Write), after, kind: FaultKind::TornWrite }
                }
            };
            plan.specs.push(spec);
        }
        plan
    }
}

/// The disk's storage medium, dispatched statically for the default
/// in-memory store and dynamically for everything else. The page
/// read/write hot paths run once per simulated I/O; routing the common
/// [`MemBackend`] case through a concrete type (instead of a
/// `Box<dyn StorageBackend>` vtable) lets those calls inline, so the
/// non-durable path pays zero dispatch overhead for the durability
/// machinery's pluggability.
enum BackendKind {
    /// The in-memory default (`SimDisk::new`) — statically dispatched.
    Mem(MemBackend),
    /// Any other medium (file-backed, WAL) — dynamically dispatched;
    /// these paths are dominated by real syscalls, not dispatch.
    Dyn(Box<dyn StorageBackend>),
}

impl BackendKind {
    /// The medium as a trait object, for cold (non-per-page) verbs.
    fn as_dyn(&self) -> &dyn StorageBackend {
        match self {
            BackendKind::Mem(m) => m,
            BackendKind::Dyn(d) => d.as_ref(),
        }
    }

    #[inline]
    fn read_page(&self, pid: PageId) -> Result<Rc<Vec<u8>>> {
        match self {
            BackendKind::Mem(m) => m.read_page(pid),
            BackendKind::Dyn(d) => d.read_page(pid),
        }
    }

    #[inline]
    fn write_page(&self, pid: PageId, data: PageWrite<'_>) -> Result<()> {
        match self {
            BackendKind::Mem(m) => m.write_page(pid, data),
            BackendKind::Dyn(d) => d.write_page(pid, data),
        }
    }

    #[inline]
    fn num_pages(&self, file: FileId) -> Result<u32> {
        match self {
            BackendKind::Mem(m) => m.num_pages(file),
            BackendKind::Dyn(d) => d.num_pages(file),
        }
    }

    #[inline]
    fn allocate_page(&self, file: FileId) -> Result<PageId> {
        match self {
            BackendKind::Mem(m) => m.allocate_page(file),
            BackendKind::Dyn(d) => d.allocate_page(file),
        }
    }

    #[inline]
    fn wal_enabled(&self) -> bool {
        match self {
            BackendKind::Mem(_) => false,
            BackendKind::Dyn(d) => d.wal_enabled(),
        }
    }
}

/// Auto-checkpoint policy: after this many frame-carrying commits the
/// disk checkpoints itself, bounding both the log length and the
/// committed-overlay apply backlog without ever putting the data-file
/// apply on an individual commit's path.
const AUTO_CHECKPOINT_EVERY: u64 = 512;

/// Async-apply policy: every this many frame-carrying *barrier*
/// commits the committed overlay is written into the data files
/// without syncing them or truncating the log. Spreads the apply work
/// so a checkpoint never has to drain [`AUTO_CHECKPOINT_EVERY`]
/// commits' worth of pages in one stall, and keeps the read path's
/// overlay small. Only fsynced commits qualify: right after a barrier
/// the apply's own log seal is a no-op, so the drain is pure page
/// writes.
const AUTO_APPLY_EVERY: u64 = 64;

/// Page store with paper-accurate I/O accounting over a pluggable
/// [`StorageBackend`].
pub struct SimDisk {
    backend: BackendKind,
    page_size: usize,
    cost: Cost,
    /// Active scheduled faults (installed via
    /// [`SimDisk::install_fault_plan`]); each fires once and is removed.
    plan: RefCell<Vec<FaultSpec>>,
    /// Pages with a persistent media error: reads fail until rewritten.
    poisoned: RefCell<HashSet<(u32, u32)>>,
    /// Pages holding a detectable partial write: reads fail until rewritten.
    torn: RefCell<HashSet<(u32, u32)>>,
    /// Total scheduled faults fired so far (tests assert exactly-once).
    fired: RefCell<u64>,
    /// Engine-wide metrics registry; every layer holding this disk handle
    /// (strategies, `Database`) reports into the same registry.
    metrics: Metrics,
    /// Engine-wide structured-event log, shared the same way.
    events: EventLog,
    /// Interned handles for the per-I/O counters, resolved once: the read
    /// and write hot paths bump array slots instead of hashing
    /// `"disk.reads"` / `format!("disk.read.f{n}")` on every page.
    c_reads: CounterId,
    c_writes: CounterId,
    /// Per-file `(read, write)` counter handles, indexed by `FileId`,
    /// interned at `create_file` time and retired at `delete_file`
    /// (`None` from then on), so the registry holds the counters of live
    /// files only.
    file_counters: RefCell<Vec<Option<(CounterId, CounterId)>>>,
    /// Frame-carrying commits since the last checkpoint (drives the
    /// every-N auto-checkpoint policy on WAL backends).
    commits_since_ckpt: Cell<u64>,
    /// Set when a crash sabotage is armed: the "process" dies inside
    /// that commit, so the background checkpointer must not run on it.
    sabotaged: Cell<bool>,
}

/// Shared handle to a [`SimDisk`]; the simulator is single-threaded.
pub type Disk = Rc<SimDisk>;

/// Intern `file`'s per-file I/O counters once, at creation, so the
/// read/write hot paths never format a name. Resolving a handle does not
/// register the counter: an untouched file stays out of snapshots.
fn intern_file_counters(metrics: &Metrics, file: FileId) -> (CounterId, CounterId) {
    (
        metrics.counter_handle(&format!("disk.read.f{}", file.0)),
        metrics.counter_handle(&format!("disk.write.f{}", file.0)),
    )
}

impl SimDisk {
    /// Create a disk over the in-memory backend with the page size of
    /// `params`, charging into `cost`. This is the golden-ledger path:
    /// byte-for-byte identical behaviour to the pre-backend `SimDisk`.
    pub fn new(params: &SystemParams, cost: Cost) -> Disk {
        Self::assemble(params, cost, BackendKind::Mem(MemBackend::new(params.page_size)))
    }

    /// Create a disk over an arbitrary [`StorageBackend`]. Per-file I/O
    /// counters are interned for every file slot the backend already
    /// holds (a reopened store arrives with files); if the backend ran
    /// crash recovery, its stats surface here as `wal.recovered.*`
    /// counters and a [`EventKind::RecoveryTriggered`] event.
    pub fn with_backend(
        params: &SystemParams,
        cost: Cost,
        backend: Box<dyn StorageBackend>,
    ) -> Disk {
        Self::assemble(params, cost, BackendKind::Dyn(backend))
    }

    fn assemble(params: &SystemParams, cost: Cost, backend: BackendKind) -> Disk {
        let metrics = Metrics::new();
        let backend_dyn = backend.as_dyn();
        let c_reads = metrics.counter_handle("disk.reads");
        let c_writes = metrics.counter_handle("disk.writes");
        let file_counters = (0..backend_dyn.file_count())
            .map(FileId)
            .map(|file| {
                backend_dyn.num_pages(file).is_ok().then(|| intern_file_counters(&metrics, file))
            })
            .collect();
        let events = EventLog::new();
        if backend_dyn.wal_enabled() {
            metrics.gauge_set("wal.enabled", 1.0);
            metrics.gauge_set("wal.len_bytes", backend_dyn.wal_len_bytes() as f64);
        }
        if let Some(stats) = backend_dyn.take_recovery_stats() {
            metrics.counter_add("wal.recovered.frames", stats.frames);
            metrics.counter_add("wal.recovered.pages", stats.pages);
            metrics.counter_add("wal.recovered.commits", stats.commits);
            metrics.counter_add("wal.recovered.torn_bytes", stats.torn_bytes);
            events.emit(
                EventKind::RecoveryTriggered,
                format!(
                    "wal recovery: scanned {} frames across {} commits, wrote {} distinct \
                     pages, truncated {} torn bytes",
                    stats.frames, stats.commits, stats.pages, stats.torn_bytes
                ),
                cost.total(),
            );
            // Redo is device traffic: one sequential I/O per sealed
            // frame, priced on the paper's single constant.
            cost.io(stats.frames);
        }
        Rc::new(SimDisk {
            backend,
            page_size: params.page_size,
            cost,
            plan: RefCell::new(Vec::new()),
            poisoned: RefCell::new(HashSet::new()),
            torn: RefCell::new(HashSet::new()),
            fired: RefCell::new(0),
            metrics,
            events,
            c_reads,
            c_writes,
            file_counters: RefCell::new(file_counters),
            commits_since_ckpt: Cell::new(0),
            sabotaged: Cell::new(false),
        })
    }

    /// Whether the backend runs a write-ahead log.
    pub fn wal_enabled(&self) -> bool {
        self.backend.wal_enabled()
    }

    /// Current log length in bytes (0 without a WAL).
    pub fn wal_len_bytes(&self) -> u64 {
        self.backend.as_dyn().wal_len_bytes()
    }

    /// Committed page images awaiting the checkpointer's data-file
    /// apply (0 without a WAL).
    pub fn wal_apply_lag(&self) -> u64 {
        self.backend.as_dyn().wal_apply_lag()
    }

    /// Commit everything written since the last commit with the classic
    /// barrier contract (append + fsync before returning). A no-op `Ok`
    /// on backends without a WAL.
    pub fn commit(&self) -> Result<CommitStats> {
        self.commit_with(Durability::Barrier)
    }

    /// Commit with an explicit durability level: [`Durability::Barrier`]
    /// appends the sealed group and fsyncs it (plus every deferred group
    /// before it); [`Durability::Deferred`] appends to the group-commit
    /// buffer only, sharing a later barrier's fsync. Surfaces `wal.*`
    /// counters and charges the group flush (one I/O per frame plus the
    /// commit frame) into the ledger under the span `wal.commit`; the
    /// charge models the log append and is durability-independent, so
    /// golden ledgers cannot tell the two levels apart. Without a WAL it
    /// charges nothing and opens no span.
    pub fn commit_with(&self, durability: Durability) -> Result<CommitStats> {
        let sabotaged = self.sabotaged.replace(false);
        let stats = self.backend.as_dyn().commit(durability)?;
        if self.backend.wal_enabled() {
            self.metrics.incr("wal.commits");
            self.metrics.counter_add("wal.frames", stats.frames);
            self.metrics.counter_add("wal.bytes", stats.bytes);
            self.metrics.counter_add("wal.fsyncs", stats.fsyncs);
            self.metrics.counter_add("wal.frames_skipped", stats.frames_skipped);
            // Re-stamped (not only set at construction) so a
            // `reset_observability` measurement boundary cannot strip the
            // WAL marker from subsequent reports.
            self.metrics.gauge_set("wal.enabled", 1.0);
            self.stamp_wal_gauges();
            if stats.frames > 0 {
                {
                    let _span = self.cost.section("wal.commit");
                    self.cost.io(stats.frames + 1);
                }
                // Every-N-commits checkpoint policy: bound the log and
                // the apply backlog off the per-commit path. A sabotaged
                // commit simulates the process dying inside it — no
                // background checkpointer gets to run after that.
                let n = self.commits_since_ckpt.get() + 1;
                self.commits_since_ckpt.set(n);
                if n >= AUTO_CHECKPOINT_EVERY && !sabotaged {
                    self.checkpoint()?;
                } else if n.is_multiple_of(AUTO_APPLY_EVERY) && !sabotaged && stats.fsyncs > 0 {
                    // Piggyback the apply on a commit that already
                    // fsynced the log: the apply's own log seal then
                    // finds an empty buffer and the whole drain is
                    // pure page writes. Deferred streams skip this (an
                    // apply would force the fsync they deferred) and
                    // stay bounded by the checkpoint interval alone.
                    self.apply_backlog()?;
                }
            }
        }
        Ok(stats)
    }

    /// Apply the committed backlog into the data files without syncing
    /// them or truncating the log (the cheap, frequent half of a
    /// checkpoint — one log fsync at most). A no-op `Ok` on backends
    /// without a WAL.
    pub fn apply_backlog(&self) -> Result<(u64, u64)> {
        let (pages, fsyncs) = self.backend.as_dyn().apply_backlog()?;
        if self.backend.wal_enabled() {
            self.metrics.incr("wal.applies");
            self.metrics.counter_add("wal.fsyncs", fsyncs);
            self.metrics.counter_add("wal.pages_applied", pages);
            self.stamp_wal_gauges();
        }
        Ok((pages, fsyncs))
    }

    /// Checkpoint: commit any pending work, apply the committed overlay
    /// to the data files, sync them, and truncate the log. A no-op `Ok`
    /// on backends without a WAL.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        // Reset the auto-checkpoint countdown first so the routed
        // commit below cannot re-trigger a checkpoint.
        self.commits_since_ckpt.set(0);
        // Route the flush through `commit` so its wal.* accounting and
        // ledger charges are identical to a caller-issued commit.
        self.commit()?;
        let stats = self.backend.as_dyn().checkpoint()?;
        if self.backend.wal_enabled() {
            self.metrics.incr("wal.checkpoints");
            self.metrics.counter_add("wal.truncated_bytes", stats.truncated_bytes);
            self.stamp_wal_gauges();
        }
        Ok(stats)
    }

    /// Re-stamp the WAL state gauges (log length, apply backlog).
    fn stamp_wal_gauges(&self) {
        let backend = self.backend.as_dyn();
        self.metrics.gauge_set("wal.len_bytes", backend.wal_len_bytes() as f64);
        self.metrics.gauge_set("wal.apply_lag", backend.wal_apply_lag() as f64);
    }

    /// Arm a simulated crash inside the next commit (harness only).
    pub fn sabotage_next_commit(&self, mode: CommitSabotage) {
        self.sabotaged.set(true);
        self.backend.as_dyn().sabotage_next_commit(mode);
    }

    /// The engine-wide metrics registry (the disk is the one object every
    /// layer already shares, so it carries the observability handles).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The engine-wide structured-event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Record a fired fault in the metrics registry and event log; returns
    /// the error the failed operation surfaces.
    fn observe_fault(&self, op: FaultOp, kind: FaultKind, pid: PageId) -> Error {
        self.metrics.incr(&format!("disk.faults.{kind}"));
        self.events.emit(
            EventKind::FaultFired,
            format!("{kind} on {op} f{} page {}", pid.file.0, pid.page),
            self.cost.total(),
        );
        Error::DeviceFault { op, kind, file: pid.file.0, page: pid.page }
    }

    /// Install a fault schedule (replacing any previous one). Damage marks
    /// (torn/poisoned pages) from earlier plans are kept: they model
    /// persistent media state, not schedule state.
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *self.plan.borrow_mut() = plan.specs;
    }

    /// Clear everything fault-related: the scheduled plan and all damage
    /// marks (healing torn/poisoned pages in place).
    pub fn clear_faults(&self) {
        self.plan.borrow_mut().clear();
        self.poisoned.borrow_mut().clear();
        self.torn.borrow_mut().clear();
    }

    /// Scheduled faults that have fired so far (exactly-once accounting).
    pub fn faults_fired(&self) -> u64 {
        *self.fired.borrow()
    }

    /// Pages currently carrying a damage mark (torn or poisoned) — the
    /// serving layer's per-shard health probe: a shard with damaged pages
    /// is degraded (queries recover or rebuild) but still serving.
    pub fn damaged_pages(&self) -> usize {
        self.torn.borrow().len() + self.poisoned.borrow().len()
    }

    /// Scheduled faults still pending.
    pub fn faults_pending(&self) -> usize {
        self.plan.borrow().len()
    }

    /// Mark a page as persistently unreadable until rewritten.
    pub fn poison_page(&self, pid: PageId) {
        self.poisoned.borrow_mut().insert((pid.file.0, pid.page));
    }

    /// True while `pid` carries a media-error mark.
    pub fn is_poisoned(&self, pid: PageId) -> bool {
        self.poisoned.borrow().contains(&(pid.file.0, pid.page))
    }

    /// True while `pid` holds a detectable partial write.
    pub fn is_torn(&self, pid: PageId) -> bool {
        self.torn.borrow().contains(&(pid.file.0, pid.page))
    }

    /// Fail reads of damaged (torn or poisoned) pages.
    fn check_damage(&self, pid: PageId) -> Result<()> {
        let kind = if self.is_torn(pid) {
            FaultKind::TornWrite
        } else if self.is_poisoned(pid) {
            FaultKind::Poisoned
        } else {
            return Ok(());
        };
        Err(Error::DeviceFault { op: FaultOp::Read, kind, file: pid.file.0, page: pid.page })
    }

    /// Count this charged operation against every matching scheduled fault;
    /// returns the kind of the fault that fires on it, if any. Each spec
    /// fires at most once and is removed from the plan when it does.
    fn next_scheduled(&self, op: FaultOp, pid: PageId) -> Option<FaultKind> {
        let mut plan = self.plan.borrow_mut();
        let matches = |spec: &FaultSpec| {
            spec.op.is_none_or(|o| o == op) && spec.file.is_none_or(|f| f == pid.file)
        };
        let fire_idx = plan.iter().position(|s| matches(s) && s.after == 0);
        match fire_idx {
            Some(idx) => {
                // The operation fails: it does not count against the other
                // specs' let-through budgets.
                let spec = plan.remove(idx);
                drop(plan);
                *self.fired.borrow_mut() += 1;
                Some(spec.kind)
            }
            None => {
                for spec in plan.iter_mut().filter(|s| matches(s)) {
                    spec.after -= 1;
                }
                None
            }
        }
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The shared cost ledger this disk charges into.
    pub fn cost(&self) -> &Cost {
        &self.cost
    }

    /// Create a new, empty file.
    pub fn create_file(&self) -> FileId {
        let id = self.backend.as_dyn().create_file();
        let counters = intern_file_counters(&self.metrics, id);
        let mut file_counters = self.file_counters.borrow_mut();
        debug_assert_eq!(file_counters.len(), id.0 as usize, "file ids are dense");
        file_counters.push(Some(counters));
        id
    }

    /// Delete a file, releasing its pages, any damage marks on them and
    /// its per-file I/O counters (`disk.reads` / `disk.writes` and the
    /// span tree keep its I/O). Idempotent.
    pub fn delete_file(&self, file: FileId) {
        self.backend.as_dyn().delete_file(file);
        self.poisoned.borrow_mut().retain(|&(f, _)| f != file.0);
        self.torn.borrow_mut().retain(|&(f, _)| f != file.0);
        let retired =
            self.file_counters.borrow_mut().get_mut(file.0 as usize).and_then(Option::take);
        if let Some((read, write)) = retired {
            self.metrics.retire(read);
            self.metrics.retire(write);
        }
    }

    /// Ids of the files currently live on the backend, ascending
    /// (deleted slots left out).
    pub fn live_files(&self) -> Vec<FileId> {
        let slots = self.backend.as_dyn().file_count();
        (0..slots).map(FileId).filter(|&file| self.num_pages(file).is_ok()).collect()
    }

    /// Number of pages currently allocated in `file`.
    pub fn num_pages(&self, file: FileId) -> Result<u32> {
        self.backend.num_pages(file)
    }

    /// Append a zeroed page to `file`. Free of I/O charge (bookkeeping).
    pub fn allocate_page(&self, file: FileId) -> Result<PageId> {
        self.backend.allocate_page(file)
    }

    /// Fault/damage gate for one charged read: damage marks, then the
    /// scheduled-fault plan.
    fn gate_read(&self, pid: PageId) -> Result<()> {
        self.check_damage(pid)?;
        if let Some(kind) = self.next_scheduled(FaultOp::Read, pid) {
            if kind == FaultKind::Poisoned {
                self.poison_page(pid);
            }
            return Err(self.observe_fault(FaultOp::Read, kind, pid));
        }
        Ok(())
    }

    /// The live file's `(read, write)` counter handles (`None` once the
    /// file is deleted: nothing can charge a slot a later file reuses).
    #[inline]
    fn file_counters(&self, file: FileId) -> Option<(CounterId, CounterId)> {
        self.file_counters.borrow().get(file.0 as usize).copied().flatten()
    }

    /// Charge one successful read of `pid` into the ledger and metrics.
    #[inline]
    fn charge_read(&self, pid: PageId) {
        self.cost.io(1);
        self.metrics.incr_id(self.c_reads);
        if let Some((read, _)) = self.file_counters(pid.file) {
            self.metrics.incr_id(read);
        }
    }

    /// Read a page, charging one random I/O. Damaged (torn/poisoned) pages
    /// and scheduled read faults fail here with a typed
    /// [`Error::DeviceFault`]; failed reads charge nothing.
    pub fn read_page(&self, pid: PageId) -> Result<Vec<u8>> {
        self.read_page_with(pid, |page| Ok(page.to_vec()))
    }

    /// Read a page and hand the caller a *borrowed* view of it — same
    /// checks and same single-I/O charge as [`SimDisk::read_page`], minus
    /// the page-sized allocation on the in-memory backend. The closure
    /// must not call back into the disk; decode-and-return is the
    /// intended shape.
    pub fn read_page_with<T>(&self, pid: PageId, f: impl FnOnce(&[u8]) -> Result<T>) -> Result<T> {
        self.gate_read(pid)?;
        let page = self.backend.read_page(pid)?;
        self.charge_read(pid);
        f(&page)
    }

    /// Read a page as a shared, reference-counted image — same checks and
    /// same single-I/O charge as [`SimDisk::read_page`], minus both the
    /// allocation *and* the page-sized copy: the caller shares the disk's
    /// own buffer. Mutating the image requires [`Rc::make_mut`], which
    /// copies at that point (copy-on-write), so the disk's copy is never
    /// visible to the caller's writes.
    pub fn read_page_rc(&self, pid: PageId) -> Result<Rc<Vec<u8>>> {
        self.gate_read(pid)?;
        let image = self.backend.read_page(pid)?;
        self.charge_read(pid);
        Ok(image)
    }

    /// Batched sequential read: append `count` pages of `file`, starting at
    /// `start_page`, contiguously onto `buf`. Charge-identical to `count`
    /// individual `read_page` calls in ascending page order — each page
    /// passes the same fault gate and charges one I/O — but makes a single
    /// engine call and a single buffer-growth decision for the whole run.
    ///
    /// Stops at the first failing page and returns its error; `buf` keeps
    /// every page read before it (progress = `buf.len() / page_size`
    /// pages), so retry logic can resume from the failure point.
    pub fn read_run(
        &self,
        file: FileId,
        start_page: u32,
        count: u32,
        buf: &mut Vec<u8>,
    ) -> Result<()> {
        buf.reserve(count as usize * self.page_size);
        for page in start_page..start_page + count {
            let pid = PageId::new(file, page);
            self.gate_read(pid)?;
            let data = self.backend.read_page(pid)?;
            buf.extend_from_slice(&data);
            self.charge_read(pid);
        }
        Ok(())
    }

    /// Write a page, charging one random I/O. `data` must be exactly one
    /// page long.
    pub fn write_page(&self, pid: PageId, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size {
            return Err(Error::Invariant(format!(
                "write_page: got {} bytes, page size is {}",
                data.len(),
                self.page_size
            )));
        }
        let scheduled = self.next_scheduled(FaultOp::Write, pid);
        // Missing pages win over scheduled faults (and the fired spec
        // stays consumed), exactly like the pre-backend lookup order.
        let pages = self
            .backend
            .num_pages(pid.file)
            .map_err(|_| Error::PageNotFound { file: pid.file.0, page: pid.page })?;
        if pid.page >= pages {
            return Err(Error::PageNotFound { file: pid.file.0, page: pid.page });
        }
        if let Some(kind) = scheduled {
            match kind {
                FaultKind::TornWrite => {
                    // Half the page reaches the medium; the page is now
                    // detectably damaged until something rewrites it.
                    // The splice is built here, above the backend, so a
                    // torn write looks the same on every medium.
                    let old = self.backend.read_page(pid)?;
                    let mut spliced = old.as_ref().clone();
                    let half = self.page_size / 2;
                    spliced[..half].copy_from_slice(&data[..half]);
                    self.backend.write_page(pid, PageWrite::Borrowed(&spliced))?;
                    self.torn.borrow_mut().insert((pid.file.0, pid.page));
                }
                FaultKind::Poisoned => {
                    self.poison_page(pid);
                }
                FaultKind::Transient | FaultKind::Fatal => {}
            }
            return Err(self.observe_fault(FaultOp::Write, kind, pid));
        }
        self.backend.write_page(pid, PageWrite::Borrowed(data))?;
        self.cost.io(1);
        self.metrics.incr_id(self.c_writes);
        if let Some((_, write)) = self.file_counters(pid.file) {
            self.metrics.incr_id(write);
        }
        // A successful full-page write heals any damage mark.
        self.torn.borrow_mut().remove(&(pid.file.0, pid.page));
        self.poisoned.borrow_mut().remove(&(pid.file.0, pid.page));
        Ok(())
    }

    /// Allocate a page and write it in one step (single I/O charge).
    pub fn append_page(&self, file: FileId, data: &[u8]) -> Result<PageId> {
        let pid = self.allocate_page(file)?;
        self.write_page(pid, data)?;
        Ok(pid)
    }

    /// Read a page **without** charging I/O. Reserved for pages the paper
    /// assumes permanently memory-resident (B⁺-tree roots) and for test
    /// assertions that must not perturb the ledger.
    pub fn read_page_free(&self, pid: PageId) -> Result<Vec<u8>> {
        self.read_page_free_with(pid, |page| Ok(page.to_vec()))
    }

    /// Borrowed-view variant of [`SimDisk::read_page_free`] (no I/O charge,
    /// no allocation). Same closure restriction as
    /// [`SimDisk::read_page_with`]: no re-entry into the disk.
    pub fn read_page_free_with<T>(
        &self,
        pid: PageId,
        f: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<T> {
        let page = self.backend.read_page(pid)?;
        f(&page)
    }

    /// Shared-image variant of [`SimDisk::read_page_free`] (no I/O charge,
    /// no allocation, no copy): the caller shares the disk's own buffer,
    /// with copy-on-write isolation as in [`SimDisk::read_page_rc`].
    pub fn read_page_free_rc(&self, pid: PageId) -> Result<Rc<Vec<u8>>> {
        self.backend.read_page(pid)
    }

    /// Write a page **without** charging I/O (resident pages; see
    /// [`SimDisk::read_page_free`]).
    pub fn write_page_free(&self, pid: PageId, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size {
            return Err(Error::Invariant("write_page_free: wrong length".into()));
        }
        self.backend.write_page(pid, PageWrite::Borrowed(data))
    }

    /// Total pages currently allocated across all live files (for tests and
    /// space reporting).
    pub fn total_pages(&self) -> u64 {
        self.backend.as_dyn().total_pages()
    }
}

impl std::fmt::Debug for SimDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDisk")
            .field("page_size", &self.page_size)
            .field("total_pages", &self.total_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> (Disk, Cost) {
        let cost = Cost::new();
        let params = SystemParams::paper_defaults();
        (SimDisk::new(&params, cost.clone()), cost)
    }

    #[test]
    fn read_write_roundtrip_charges_io() {
        let (d, c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        assert_eq!(c.total().ios, 0, "allocation is free");
        let mut data = vec![0u8; d.page_size()];
        data[0] = 0xAB;
        data[3999] = 0xCD;
        d.write_page(pid, &data).unwrap();
        assert_eq!(c.total().ios, 1);
        let back = d.read_page(pid).unwrap();
        assert_eq!(back, data);
        assert_eq!(c.total().ios, 2);
    }

    #[test]
    fn free_access_does_not_charge() {
        let (d, c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let data = vec![7u8; d.page_size()];
        d.write_page_free(pid, &data).unwrap();
        assert_eq!(d.read_page_free(pid).unwrap(), data);
        assert_eq!(c.total().ios, 0);
    }

    #[test]
    fn missing_pages_error() {
        let (d, _c) = disk();
        let f = d.create_file();
        let missing = PageId::new(f, 5);
        assert!(matches!(d.read_page(missing), Err(Error::PageNotFound { .. })));
        assert!(matches!(d.read_page(PageId::new(FileId(99), 0)), Err(Error::PageNotFound { .. })));
    }

    #[test]
    fn wrong_sized_write_rejected() {
        let (d, c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        assert!(d.write_page(pid, &[0u8; 10]).is_err());
        assert_eq!(c.total().ios, 0, "failed write must not charge");
    }

    #[test]
    fn delete_file_releases_pages() {
        let (d, _c) = disk();
        let f = d.create_file();
        d.allocate_page(f).unwrap();
        d.allocate_page(f).unwrap();
        assert_eq!(d.total_pages(), 2);
        d.delete_file(f);
        assert_eq!(d.total_pages(), 0);
        assert!(d.num_pages(f).is_err());
        d.delete_file(f); // idempotent
    }

    #[test]
    fn files_are_independent() {
        let (d, _c) = disk();
        let f1 = d.create_file();
        let f2 = d.create_file();
        let p1 = d.allocate_page(f1).unwrap();
        let p2 = d.allocate_page(f2).unwrap();
        d.write_page(p1, &vec![1u8; d.page_size()]).unwrap();
        d.write_page(p2, &vec![2u8; d.page_size()]).unwrap();
        assert_eq!(d.read_page(p1).unwrap()[0], 1);
        assert_eq!(d.read_page(p2).unwrap()[0], 2);
        assert_eq!(d.num_pages(f1).unwrap(), 1);
    }

    #[test]
    fn fault_plan_fires_exactly_once() {
        let (d, c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let data = vec![5u8; d.page_size()];
        d.write_page(pid, &data).unwrap();

        d.install_fault_plan(FaultPlan::new().fail_nth_read(None, 2));
        let mut outcomes = Vec::new();
        for _ in 0..6 {
            outcomes.push(d.read_page(pid).is_ok());
        }
        assert_eq!(outcomes, [true, true, false, true, true, true]);
        assert_eq!(d.faults_fired(), 1);
        assert_eq!(d.faults_pending(), 0);
        // The failed read charged nothing.
        assert_eq!(c.total().ios, 1 + 5);
    }

    #[test]
    fn fault_plan_scopes_to_file() {
        let (d, _c) = disk();
        let f1 = d.create_file();
        let f2 = d.create_file();
        let p1 = d.allocate_page(f1).unwrap();
        let p2 = d.allocate_page(f2).unwrap();
        let data = vec![1u8; d.page_size()];
        d.write_page(p1, &data).unwrap();
        d.write_page(p2, &data).unwrap();

        d.install_fault_plan(FaultPlan::new().fail_nth_read(Some(f2), 0));
        // Reads of f1 neither fail nor consume f2's countdown.
        assert!(d.read_page(p1).is_ok());
        assert!(d.read_page(p1).is_ok());
        let err = d.read_page(p2).unwrap_err();
        assert_eq!(
            err,
            Error::DeviceFault {
                op: FaultOp::Read,
                kind: FaultKind::Transient,
                file: f2.0,
                page: 0
            }
        );
        assert!(d.read_page(p2).is_ok(), "transient fault clears after firing");
    }

    #[test]
    fn torn_write_detected_and_healed_by_rewrite() {
        let (d, _c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let good = vec![0xAAu8; d.page_size()];
        d.write_page(pid, &good).unwrap();

        d.install_fault_plan(FaultPlan::new().torn_write(Some(f), 0));
        let fresh = vec![0xBBu8; d.page_size()];
        let err = d.write_page(pid, &fresh).unwrap_err();
        assert_eq!(
            err,
            Error::DeviceFault {
                op: FaultOp::Write,
                kind: FaultKind::TornWrite,
                file: f.0,
                page: 0
            }
        );
        assert!(d.is_torn(pid));
        // The medium holds a prefix of the new data and a suffix of the
        // old — and the damage is detected on read.
        let raw = d.read_page_free(pid).unwrap();
        assert_eq!(raw[0], 0xBB);
        assert_eq!(raw[d.page_size() - 1], 0xAA);
        let err = d.read_page(pid).unwrap_err();
        assert!(matches!(err, Error::DeviceFault { kind: FaultKind::TornWrite, .. }));
        // Rewriting the page heals it.
        d.write_page(pid, &fresh).unwrap();
        assert!(!d.is_torn(pid));
        assert_eq!(d.read_page(pid).unwrap(), fresh);
    }

    #[test]
    fn poisoned_read_persists_until_rewrite() {
        let (d, _c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let data = vec![3u8; d.page_size()];
        d.write_page(pid, &data).unwrap();

        d.install_fault_plan(FaultPlan::new().poison_nth_read(Some(f), 0));
        for _ in 0..3 {
            let err = d.read_page(pid).unwrap_err();
            assert!(matches!(err, Error::DeviceFault { kind: FaultKind::Poisoned, .. }));
        }
        assert_eq!(d.faults_fired(), 1, "the mark persists; the fault fired once");
        d.write_page(pid, &data).unwrap();
        assert!(!d.is_poisoned(pid));
        assert_eq!(d.read_page(pid).unwrap(), data);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let f = FileId(0);
        let a = FaultPlan::from_seed(42, &[f]);
        let b = FaultPlan::from_seed(42, &[f]);
        let c = FaultPlan::from_seed(43, &[f]);
        assert_eq!(a, b);
        assert!(!a.specs.is_empty() && a.specs.len() <= 3);
        // Different seeds should (for these particular seeds) differ.
        assert_ne!(a, c);
    }

    #[test]
    fn clear_faults_heals_everything() {
        let (d, _c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let data = vec![9u8; d.page_size()];
        d.write_page(pid, &data).unwrap();
        d.install_fault_plan(FaultPlan::new().poison_nth_read(None, 0).fail_nth_write(None, 9));
        assert!(d.read_page(pid).is_err());
        assert!(d.is_poisoned(pid));
        assert_eq!(d.damaged_pages(), 1);
        d.clear_faults();
        assert!(!d.is_poisoned(pid));
        assert_eq!(d.damaged_pages(), 0);
        assert_eq!(d.faults_pending(), 0);
        assert_eq!(d.read_page(pid).unwrap(), data);
    }

    #[test]
    fn fatal_fault_counts_either_direction_and_fires_once() {
        let (d, _c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let data = vec![2u8; d.page_size()];
        // One write let through, then the read fails.
        d.install_fault_plan(FaultPlan::new().fail_nth_op(None, 1));
        d.write_page(pid, &data).unwrap();
        let err = d.read_page(pid).unwrap_err();
        assert!(matches!(err, Error::DeviceFault { kind: FaultKind::Fatal, .. }), "{err:?}");
        assert!(!err.is_device_fault() && !err.is_retryable(), "nothing recovers from it");
        assert_eq!((d.faults_fired(), d.faults_pending()), (1, 0));
        assert_eq!(d.read_page(pid).unwrap(), data, "no damage mark stays behind");
    }

    #[test]
    fn metrics_and_events_observe_io_and_faults() {
        let (d, _c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let data = vec![1u8; d.page_size()];
        d.write_page(pid, &data).unwrap();
        d.read_page(pid).unwrap();
        d.read_page(pid).unwrap();
        let m = d.metrics();
        assert_eq!(m.counter("disk.writes"), 1);
        assert_eq!(m.counter("disk.reads"), 2);
        assert_eq!(m.counter(&format!("disk.read.f{}", f.0)), 2);
        assert_eq!(m.counter(&format!("disk.write.f{}", f.0)), 1);

        d.install_fault_plan(FaultPlan::new().fail_nth_read(None, 0));
        assert!(d.read_page(pid).is_err());
        assert_eq!(m.counter("disk.faults.transient"), 1);
        assert_eq!(d.events().count_of(EventKind::FaultFired), 1);
        let event = &d.events().events()[0];
        assert!(event.detail.contains("transient on read"), "{}", event.detail);
    }

    #[test]
    fn deleting_a_file_retires_its_counters_and_its_io_fails_uncounted() {
        let (d, c) = disk();
        let data = vec![4u8; d.page_size()];
        let f = d.create_file();
        let pid = d.append_page(f, &data).unwrap();
        d.read_page(pid).unwrap();
        let slots = d.metrics().counter_slots();
        d.delete_file(f);
        d.delete_file(f); // idempotent
        let m = d.metrics();
        assert_eq!(m.counter(&format!("disk.write.f{}", f.0)), 0);
        assert!(m.snapshot().counters.iter().all(|(k, _)| !k.ends_with(&format!(".f{}", f.0))));
        let (before, ios) = (m.snapshot(), c.total().ios);
        assert!(d.read_page(pid).is_err() && d.write_page(pid, &data).is_err());
        assert_eq!((m.snapshot(), c.total().ios), (before, ios), "nothing was charged");
        // The next file takes the freed slots; the totals keep every I/O.
        let g = d.create_file();
        d.append_page(g, &data).unwrap();
        assert_eq!(m.counter_slots(), slots);
        assert_eq!(m.counter(&format!("disk.write.f{}", g.0)), 1);
        assert_eq!((m.counter("disk.writes"), m.counter("disk.reads")), (2, 1));
    }

    #[test]
    fn append_page_is_one_io() {
        let (d, c) = disk();
        let f = d.create_file();
        let data = vec![9u8; d.page_size()];
        let pid = d.append_page(f, &data).unwrap();
        assert_eq!(pid.page, 0);
        assert_eq!(c.total().ios, 1);
        assert_eq!(d.append_page(f, &data).unwrap().page, 1);
    }

    #[test]
    fn read_page_with_borrows_and_charges_like_read_page() {
        let (d, c) = disk();
        let f = d.create_file();
        let pid = d.allocate_page(f).unwrap();
        let mut data = vec![0u8; d.page_size()];
        data[7] = 0x5A;
        d.write_page(pid, &data).unwrap();
        let got = d.read_page_with(pid, |page| Ok(page[7])).unwrap();
        assert_eq!(got, 0x5A);
        assert_eq!(c.total().ios, 2);
        assert_eq!(d.metrics().counter("disk.reads"), 1);
    }

    #[test]
    fn read_run_matches_per_page_reads() {
        let (d, c) = disk();
        let f = d.create_file();
        for i in 0..4u8 {
            d.append_page(f, &vec![i; d.page_size()]).unwrap();
        }
        let before = c.total().ios;
        let mut buf = Vec::new();
        d.read_run(f, 1, 3, &mut buf).unwrap();
        assert_eq!(c.total().ios - before, 3, "one I/O per page of the run");
        assert_eq!(buf.len(), 3 * d.page_size());
        for (i, chunk) in buf.chunks(d.page_size()).enumerate() {
            assert!(chunk.iter().all(|&b| b == (i + 1) as u8));
        }
        assert_eq!(d.metrics().counter("disk.reads"), 3);
    }

    #[test]
    fn read_run_stops_at_faulted_page_keeping_progress() {
        let (d, c) = disk();
        let f = d.create_file();
        for i in 0..4u8 {
            d.append_page(f, &vec![i; d.page_size()]).unwrap();
        }
        let before = c.total().ios;
        // Fail the 3rd charged read: pages 0 and 1 land in the buffer.
        d.install_fault_plan(FaultPlan::new().fail_nth_read(Some(f), 2));
        let mut buf = Vec::new();
        let err = d.read_run(f, 0, 4, &mut buf).unwrap_err();
        assert!(matches!(err, Error::DeviceFault { kind: FaultKind::Transient, page: 2, .. }));
        assert_eq!(buf.len(), 2 * d.page_size(), "progress before the fault is kept");
        assert_eq!(c.total().ios - before, 2, "the failed page charged nothing");
        // Resuming from the failure point completes the run.
        d.read_run(f, 2, 2, &mut buf).unwrap();
        assert_eq!(buf.len(), 4 * d.page_size());
        assert_eq!(c.total().ios - before, 4);
    }
}
