//! Error type for the database stack.

use std::fmt;
use std::time::Duration;
use sysplex_core::CfError;
use sysplex_dasd::IoError;

/// Result alias for database operations.
pub type DbResult<T> = Result<T, DbError>;

/// Errors surfaced by the data-sharing database stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A Coupling Facility command failed.
    Cf(CfError),
    /// A DASD I/O failed.
    Io(IoError),
    /// A lock could not be obtained within the deadlock timeout.
    LockTimeout {
        /// The contested resource.
        resource: Vec<u8>,
        /// How long we waited.
        waited: Duration,
    },
    /// Chosen as the victim of a conversion deadlock: this transaction and
    /// an older one both hold `resource` Shared and both want it
    /// Exclusive, so neither can ever be granted. The younger aborts at
    /// once instead of waiting out the lock timeout.
    Deadlock {
        /// The contested resource.
        resource: Vec<u8>,
    },
    /// The transaction was already completed (commit/abort called twice).
    TxnComplete,
    /// Page image failed to decode (corruption or torn write).
    PageCorrupt(u64),
    /// Log record failed to decode.
    LogCorrupt,
    /// The lock-manager peer negotiation failed (peer gone mid-protocol).
    NegotiationFailed,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Cf(e) => write!(f, "coupling facility: {e}"),
            DbError::Io(e) => write!(f, "dasd: {e}"),
            DbError::LockTimeout { resource, waited } => {
                write!(f, "lock timeout after {waited:?} on {}", String::from_utf8_lossy(resource))
            }
            DbError::Deadlock { resource } => {
                write!(f, "conversion deadlock victim on {}", String::from_utf8_lossy(resource))
            }
            DbError::TxnComplete => write!(f, "transaction already complete"),
            DbError::PageCorrupt(p) => write!(f, "page {p} corrupt"),
            DbError::LogCorrupt => write!(f, "log record corrupt"),
            DbError::NegotiationFailed => write!(f, "lock negotiation failed"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<CfError> for DbError {
    fn from(e: CfError) -> Self {
        DbError::Cf(e)
    }
}

impl From<IoError> for DbError {
    fn from(e: IoError) -> Self {
        DbError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from() {
        let e: DbError = CfError::StructureFull.into();
        assert_eq!(e.to_string(), "coupling facility: structure storage exhausted");
        let e: DbError = IoError::NoPaths.into();
        assert_eq!(e.to_string(), "dasd: no operational channel paths");
        let e = DbError::LockTimeout { resource: b"ROW.7".to_vec(), waited: Duration::from_millis(100) };
        assert!(e.to_string().contains("ROW.7"));
    }
}
