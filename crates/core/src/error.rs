//! Error types shared across the workspace.

use crate::ids::{ObjectId, ProcessId, TxId};
use crate::key::Key;
use std::fmt;

/// Convenience result alias used throughout `snow-rs`.
pub type Result<T> = std::result::Result<T, SnowError>;

/// Errors raised by the protocol and simulation layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnowError {
    /// A message referenced an object the receiving server does not host.
    UnknownObject {
        /// The offending object.
        object: ObjectId,
        /// The process that received the request.
        at: ProcessId,
    },
    /// A read asked for a version key the server has never installed.
    MissingVersion {
        /// The object read.
        object: ObjectId,
        /// The requested version key.
        key: Key,
    },
    /// A client violated well-formedness (e.g. invoked a transaction while a
    /// previous one was still outstanding, or a reader issued a WRITE).
    NotWellFormed {
        /// Description of the violation.
        reason: String,
    },
    /// A protocol that requires client-to-client communication was deployed
    /// in a configuration that forbids it.
    C2cDisallowed,
    /// A transaction id was not recognised.
    UnknownTransaction(TxId),
    /// The configuration failed validation.
    InvalidConfig(String),
    /// A run was cut off before the transaction completed.
    Incomplete(TxId),
}

impl fmt::Display for SnowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnowError::UnknownObject { object, at } => {
                write!(f, "object {object} is not hosted at {at}")
            }
            SnowError::MissingVersion { object, key } => {
                write!(f, "no version {key} installed for {object}")
            }
            SnowError::NotWellFormed { reason } => write!(f, "ill-formed client behaviour: {reason}"),
            SnowError::C2cDisallowed => {
                write!(f, "protocol requires client-to-client communication, which is disallowed")
            }
            SnowError::UnknownTransaction(tx) => write!(f, "unknown transaction {tx}"),
            SnowError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SnowError::Incomplete(tx) => write!(f, "transaction {tx} did not complete"),
        }
    }
}

impl std::error::Error for SnowError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    #[test]
    fn display_messages_are_informative() {
        let e = SnowError::UnknownObject {
            object: ObjectId(3),
            at: ProcessId::Server(crate::ids::ServerId(1)),
        };
        assert!(e.to_string().contains("o3"));
        assert!(e.to_string().contains("s1"));

        let e = SnowError::MissingVersion {
            object: ObjectId(0),
            key: Key::new(2, ClientId(1)),
        };
        assert!(e.to_string().contains("κ(2,c1)"));

        assert!(SnowError::C2cDisallowed.to_string().contains("client-to-client"));
        assert!(SnowError::UnknownTransaction(TxId(7)).to_string().contains("tx7"));
        assert!(SnowError::Incomplete(TxId(9)).to_string().contains("tx9"));
        assert!(SnowError::InvalidConfig("bad".into()).to_string().contains("bad"));
        assert!(SnowError::NotWellFormed {
            reason: "overlapping".into()
        }
        .to_string()
        .contains("overlapping"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&SnowError::C2cDisallowed);
    }
}
