//! Error type shared by all framework operations.

use std::fmt;

/// Errors produced by the TPDE framework.
///
/// Most errors indicate either an unsupported IR construct (the framework is
/// a *baseline* compiler and deliberately rejects exotic inputs) or an
/// internal resource limit (e.g. running out of registers for a single
/// instruction with too many constrained operands).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The IR uses a construct the framework or back-end does not support.
    Unsupported(String),
    /// The register allocator could not satisfy a request
    /// (e.g. all registers of a bank are locked by the current instruction).
    RegisterExhausted { bank: &'static str },
    /// An IR invariant required by the framework was violated
    /// (e.g. a use before the definition in layout order, malformed phi).
    InvalidIr(String),
    /// A label was used but never bound, or a fixup does not fit its encoding.
    Fixup(String),
    /// Error while emitting an object file or JIT image.
    Emit(String),
    /// The compile service shed the request at admission: the queue was at
    /// capacity. Carries the queue depth observed at rejection so callers
    /// can back off proportionally. Never silent — the ticket resolves
    /// immediately with this error.
    Rejected { queue_depth: u64 },
    /// The request's deadline expired before a worker started (or while a
    /// sharded compile was still running); the remaining work was skipped.
    DeadlineExceeded,
    /// The service watchdog condemned a hung worker and poisoned this
    /// request's ticket instead of letting the caller block forever.
    Timeout(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Unsupported(what) => write!(f, "unsupported IR construct: {what}"),
            Error::RegisterExhausted { bank } => {
                write!(f, "register bank {bank} exhausted (too many locked values)")
            }
            Error::InvalidIr(what) => write!(f, "invalid IR: {what}"),
            Error::Fixup(what) => write!(f, "label/fixup error: {what}"),
            Error::Emit(what) => write!(f, "emission error: {what}"),
            Error::Rejected { queue_depth } => {
                write!(
                    f,
                    "request rejected: admission queue full (depth {queue_depth})"
                )
            }
            Error::DeadlineExceeded => write!(f, "deadline exceeded before completion"),
            Error::Timeout(what) => write!(f, "request timed out: {what}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used throughout the framework.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::Unsupported("vector types".into());
        assert_eq!(e.to_string(), "unsupported IR construct: vector types");
        let e = Error::RegisterExhausted { bank: "gp" };
        assert!(e.to_string().contains("gp"));
    }

    #[test]
    fn shed_errors_are_classified() {
        let e = Error::Rejected { queue_depth: 9 };
        assert!(e.to_string().contains("depth 9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
