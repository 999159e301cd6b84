//! Storage substrate: simulated disk, slotted pages, heap files.
//!
//! The paper's evaluation is entirely in terms of *counts* of random page
//! I/Os and CPU primitives, weighted by 1989 device constants. [`SimDisk`]
//! is therefore an in-memory page store that charges one `IO` into the
//! shared [`Cost`](trijoin_common::Cost) ledger for every page read or
//! written — never a wall-clock sleep — which keeps experiments laptop-scale
//! and perfectly deterministic while preserving exactly the quantity the
//! paper reasons about.
//!
//! On top of the disk sit:
//! * [`page::SlottedPage`] — a classic slotted page layout for
//!   variable-length records;
//! * [`heap::HeapFile`] — a write-once record file read by page or by
//!   extent, used for spill runs, differential files and apply-log runs.

pub mod backend;
pub mod disk;
pub mod heap;
pub mod page;
pub mod wal;

pub use backend::{
    CheckpointStats, CommitSabotage, CommitStats, Durability, FileBackend, MemBackend, PageWrite,
    RecoveryStats, StorageBackend,
};
pub use disk::{Disk, FaultPlan, FaultSpec, FileId, PageId, SimDisk};
pub use heap::{HeapFile, RecordId};
pub use page::SlottedPage;
pub use wal::{DurableBackend, Wal};
