//! Identifiers for the processes and artifacts of a transaction processing
//! system.
//!
//! The paper's model (§2) has two kinds of processes: *clients* (front-end
//! machines that initiate transactions) and *servers* (storage machines, one
//! per shard).  Clients are further split by role: a *read client* only ever
//! issues READ transactions and a *write client* only ever issues WRITE
//! transactions — the split matters because the SNOW results are stated in
//! terms of the number of readers and writers (SWMR, MWSR, MWMR, ...).

use std::fmt;

/// Identifier of a stored object `o ∈ O`.
///
/// Every object is maintained by exactly one server (its shard); the mapping
/// is part of [`crate::config::SystemConfig`].  `Default` (object 0) only
/// fills the unused slots of an [`crate::InlineList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u32);

/// Identifier of a server process (a shard of the storage tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

/// Identifier of a client process (a front-end machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

/// The role a client plays.  The paper's model forbids a single client from
/// issuing both READ and WRITE transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientRole {
    /// Issues only READ transactions.
    Reader,
    /// Issues only WRITE transactions.
    Writer,
}

/// A process in the system: either a client or a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcessId {
    /// A front-end client.
    Client(ClientId),
    /// A storage server.
    Server(ServerId),
}

impl ProcessId {
    /// Returns the client id if this process is a client.
    pub fn as_client(&self) -> Option<ClientId> {
        match self {
            ProcessId::Client(c) => Some(*c),
            ProcessId::Server(_) => None,
        }
    }

    /// Returns the server id if this process is a server.
    pub fn as_server(&self) -> Option<ServerId> {
        match self {
            ProcessId::Server(s) => Some(*s),
            ProcessId::Client(_) => None,
        }
    }

    /// True if this process is a client.
    pub fn is_client(&self) -> bool {
        matches!(self, ProcessId::Client(_))
    }

    /// True if this process is a server.
    pub fn is_server(&self) -> bool {
        matches!(self, ProcessId::Server(_))
    }
}

/// Globally unique identifier of a transaction instance.
///
/// Transaction ids are allocated by the simulator driving the system, not by
/// the protocol; they exist so that histories can refer to transactions
/// unambiguously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessId::Client(c) => write!(f, "{c}"),
            ProcessId::Server(s) => write!(f, "{s}"),
        }
    }
}

impl From<ClientId> for ProcessId {
    fn from(c: ClientId) -> Self {
        ProcessId::Client(c)
    }
}

impl From<ServerId> for ProcessId {
    fn from(s: ServerId) -> Self {
        ProcessId::Server(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_accessors() {
        let c = ProcessId::Client(ClientId(3));
        let s = ProcessId::Server(ServerId(7));
        assert_eq!(c.as_client(), Some(ClientId(3)));
        assert_eq!(c.as_server(), None);
        assert_eq!(s.as_server(), Some(ServerId(7)));
        assert_eq!(s.as_client(), None);
        assert!(c.is_client() && !c.is_server());
        assert!(s.is_server() && !s.is_client());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(1).to_string(), "o1");
        assert_eq!(ServerId(2).to_string(), "s2");
        assert_eq!(ClientId(3).to_string(), "c3");
        assert_eq!(TxId(9).to_string(), "tx9");
        assert_eq!(ProcessId::Client(ClientId(3)).to_string(), "c3");
        assert_eq!(ProcessId::Server(ServerId(2)).to_string(), "s2");
    }

    #[test]
    fn conversions_into_process_id() {
        let p: ProcessId = ClientId(5).into();
        assert_eq!(p, ProcessId::Client(ClientId(5)));
        let p: ProcessId = ServerId(6).into();
        assert_eq!(p, ProcessId::Server(ServerId(6)));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            ProcessId::Server(ServerId(1)),
            ProcessId::Client(ClientId(2)),
            ProcessId::Client(ClientId(0)),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                ProcessId::Client(ClientId(0)),
                ProcessId::Client(ClientId(2)),
                ProcessId::Server(ServerId(1)),
            ]
        );
    }
}
