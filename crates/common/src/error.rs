//! Workspace-wide error type.
//!
//! The task's dependency policy excludes `thiserror`, so this is a plain
//! hand-rolled enum. Variants are deliberately coarse: the simulator is
//! deterministic, so most of these indicate a programming error rather than
//! an environmental failure, and carry enough context to debug a test.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Which device operation an injected fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// A charged page read.
    Read,
    /// A charged page write.
    Write,
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultOp::Read => write!(f, "read"),
            FaultOp::Write => write!(f, "write"),
        }
    }
}

/// How an injected device fault behaves, which determines the correct
/// response:
///
/// * [`FaultKind::Transient`] — the device hiccupped once; *retrying the
///   same operation* is expected to succeed.
/// * [`FaultKind::TornWrite`] — only a prefix of the page reached the
///   platter; the page stays unreadable until something rewrites it, so the
///   owning structure must be *rebuilt* (or the page rewritten from a
///   redundant source).
/// * [`FaultKind::Poisoned`] — the page is persistently unreadable (media
///   error) until rewritten; retries cannot help, rebuild is required.
/// * [`FaultKind::Fatal`] — a fault the execution layer must neither retry
///   nor recover from: it surfaces to the caller unchanged (what error-path
///   tests plan, to see a failure arrive whole).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One-off failure; retry is expected to succeed.
    Transient,
    /// Partial write persisted; page detectably damaged until rewritten.
    TornWrite,
    /// Media error; reads keep failing until the page is rewritten.
    Poisoned,
    /// One-off failure that is surfaced as-is, never retried or recovered.
    Fatal,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::TornWrite => write!(f, "torn-write"),
            FaultKind::Poisoned => write!(f, "poisoned"),
            FaultKind::Fatal => write!(f, "fatal"),
        }
    }
}

/// Errors produced by the storage, index and execution layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A page id referenced a file or page that does not exist.
    PageNotFound {
        /// File the page was looked up in.
        file: u32,
        /// Page number within the file.
        page: u32,
    },
    /// A record did not fit in a page, or a slot id was invalid.
    PageOverflow {
        /// Bytes that were requested.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// A slot id did not exist or was already deleted.
    SlotNotFound {
        /// The offending slot index.
        slot: u16,
    },
    /// A serialized record was malformed.
    Corrupt(String),
    /// A key was not found where it was required to exist.
    KeyNotFound(u64),
    /// A configuration is infeasible (e.g. memory budget too small for an
    /// operator's fixed buffers).
    Infeasible(String),
    /// Catch-all for invariant violations.
    Invariant(String),
    /// A typed device fault from the fault-injection plan (see
    /// `SimDisk::install_fault_plan`), carrying enough classification for
    /// the execution layer to react:
    /// transient faults are retried, persistent ones trigger a rebuild of
    /// the damaged cached structure.
    DeviceFault {
        /// The operation that failed.
        op: FaultOp,
        /// Behavioural class of the fault.
        kind: FaultKind,
        /// File the faulted page belongs to.
        file: u32,
        /// Page number within the file.
        page: u32,
    },
    /// A *real* operating-system I/O failure from the file storage
    /// backend (as opposed to the simulated [`Error::DeviceFault`]).
    /// `std::io::Error` is neither `Clone` nor `PartialEq`, so the kind
    /// and message are captured as strings at the mapping boundary —
    /// every file-backend syscall goes through [`Error::io`], which is
    /// how "never panics" is enforced for the durable path.
    Io {
        /// What the backend was doing, e.g. `"read f3 page 7"`.
        op: String,
        /// The `std::io::ErrorKind` (or a backend-specific class such as
        /// `"short read"`), rendered for comparison and display.
        kind: String,
    },
}

impl Error {
    /// Map a `std::io::Error` into the workspace error type, naming the
    /// operation that failed. The one funnel every file-backend syscall
    /// result passes through: backends return `Err(Error::Io { .. })`
    /// instead of panicking, whatever the OS reports.
    pub fn io(op: impl Into<String>, e: &std::io::Error) -> Error {
        Error::Io { op: op.into(), kind: format!("{:?}", e.kind()) }
    }

    /// An I/O-class error with a backend-specific kind (e.g. a read that
    /// returned fewer bytes than a page without an OS error).
    pub fn io_kind(op: impl Into<String>, kind: impl Into<String>) -> Error {
        Error::Io { op: op.into(), kind: kind.into() }
    }

    /// True for typed faults from the fault-injection plan — the class of
    /// errors the execution layer recovers from (retry or rebuild).
    /// [`FaultKind::Fatal`] is deliberately excluded: its contract is to
    /// surface unchanged.
    pub fn is_device_fault(&self) -> bool {
        matches!(self, Error::DeviceFault { kind, .. } if *kind != FaultKind::Fatal)
    }

    /// True when retrying the same operation may succeed (transient device
    /// faults). Torn/poisoned pages stay damaged until rewritten, so they
    /// are not retryable — the owning structure must rebuild instead.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::DeviceFault { kind: FaultKind::Transient, .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PageNotFound { file, page } => {
                write!(f, "page not found: file {file}, page {page}")
            }
            Error::PageOverflow { needed, available } => {
                write!(f, "page overflow: needed {needed} bytes, {available} available")
            }
            Error::SlotNotFound { slot } => write!(f, "slot {slot} not found"),
            Error::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Error::KeyNotFound(k) => write!(f, "key not found: {k}"),
            Error::Infeasible(msg) => write!(f, "infeasible configuration: {msg}"),
            Error::Invariant(msg) => write!(f, "invariant violation: {msg}"),
            Error::DeviceFault { op, kind, file, page } => {
                write!(f, "{kind} device fault on {op} of file {file}, page {page}")
            }
            Error::Io { op, kind } => write!(f, "io error ({kind}) during {op}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::PageNotFound { file: 3, page: 9 };
        assert_eq!(e.to_string(), "page not found: file 3, page 9");
        let e = Error::PageOverflow { needed: 5000, available: 12 };
        assert!(e.to_string().contains("5000"));
        let e = Error::Infeasible("|M| too small".into());
        assert!(e.to_string().contains("|M| too small"));
    }

    #[test]
    fn fault_taxonomy_classifies() {
        let transient =
            Error::DeviceFault { op: FaultOp::Read, kind: FaultKind::Transient, file: 1, page: 2 };
        let poisoned =
            Error::DeviceFault { op: FaultOp::Read, kind: FaultKind::Poisoned, file: 1, page: 2 };
        let torn =
            Error::DeviceFault { op: FaultOp::Write, kind: FaultKind::TornWrite, file: 3, page: 0 };
        assert!(transient.is_device_fault() && transient.is_retryable());
        assert!(poisoned.is_device_fault() && !poisoned.is_retryable());
        assert!(torn.is_device_fault() && !torn.is_retryable());
        // A fatal fault is surfaced, never recovered from.
        let fatal =
            Error::DeviceFault { op: FaultOp::Read, kind: FaultKind::Fatal, file: 1, page: 2 };
        assert!(!fatal.is_device_fault() && !fatal.is_retryable());
        assert_eq!(transient.to_string(), "transient device fault on read of file 1, page 2");
        assert!(torn.to_string().contains("torn-write"));
    }

    #[test]
    fn io_mapping_captures_operation_and_kind() {
        let denied = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "nope");
        let e = Error::io("open wal.log", &denied);
        assert_eq!(e, Error::Io { op: "open wal.log".into(), kind: "PermissionDenied".into() });
        assert_eq!(e.to_string(), "io error (PermissionDenied) during open wal.log");
        assert!(!e.is_device_fault() && !e.is_retryable());

        let short = Error::io_kind("read f3 page 7", "short read");
        assert!(short.to_string().contains("short read"), "{short}");
        assert!(short.to_string().contains("f3 page 7"), "{short}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::SlotNotFound { slot: 1 }, Error::SlotNotFound { slot: 1 });
        assert_ne!(Error::SlotNotFound { slot: 0 }, Error::KeyNotFound(0));
    }
}
