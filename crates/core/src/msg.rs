//! Protocol message classification, shared by every execution substrate.
//!
//! Neither simulator understands protocol payloads, but both need to know,
//! for each message, whether it is a read request, a read response (and how
//! many versions it carries), a write, a control message or a
//! client-to-client message: that classification is what the SNOW property
//! verifiers and the round/C2C instrumentation are built on.  Protocol
//! message enums implement [`ProtocolMessage::info`] to expose it.

use crate::ids::{ObjectId, TxId};
use std::fmt;

/// Identifier of a message instance within one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Coarse classification of a protocol message, used by the property
/// verifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A client's request to read an object (or to fetch read metadata such
    /// as Algorithm B/C's `get-tag-arr`).
    ReadRequest,
    /// A server's response to a read request, carrying object value(s).
    ReadResponse,
    /// A client's request to write an object (`write-val`) or to register a
    /// completed WRITE (`update-coor` / `info-reader`).
    WriteRequest,
    /// A server's (or reader's, in Algorithm A) acknowledgement of a write.
    WriteAck,
    /// Any other protocol control traffic.
    Control,
    /// A message exchanged directly between two clients (C2C).
    ClientToClient,
}

/// Classification of one message: its kind plus the transaction/object it
/// belongs to and, for read responses, the number of versions carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgInfo {
    /// The coarse message kind.
    pub kind: MsgKind,
    /// The transaction this message belongs to, if any.
    pub tx: Option<TxId>,
    /// The object this message concerns, if any.
    pub object: Option<ObjectId>,
    /// Number of object versions carried (meaningful for read responses).
    pub versions: usize,
}

impl MsgInfo {
    /// A plain control message attached to no transaction.
    pub fn control() -> Self {
        MsgInfo {
            kind: MsgKind::Control,
            tx: None,
            object: None,
            versions: 0,
        }
    }

    /// A read request for `object` on behalf of `tx`.
    pub fn read_request(tx: TxId, object: Option<ObjectId>) -> Self {
        MsgInfo {
            kind: MsgKind::ReadRequest,
            tx: Some(tx),
            object,
            versions: 0,
        }
    }

    /// A read response for `object` on behalf of `tx` carrying `versions`
    /// versions.
    pub fn read_response(tx: TxId, object: Option<ObjectId>, versions: usize) -> Self {
        MsgInfo {
            kind: MsgKind::ReadResponse,
            tx: Some(tx),
            object,
            versions,
        }
    }

    /// A write request for `object` on behalf of `tx`.
    pub fn write_request(tx: TxId, object: Option<ObjectId>) -> Self {
        MsgInfo {
            kind: MsgKind::WriteRequest,
            tx: Some(tx),
            object,
            versions: 0,
        }
    }

    /// A write acknowledgement on behalf of `tx`.
    pub fn write_ack(tx: TxId, object: Option<ObjectId>) -> Self {
        MsgInfo {
            kind: MsgKind::WriteAck,
            tx: Some(tx),
            object,
            versions: 0,
        }
    }

    /// A client-to-client message on behalf of `tx`.
    pub fn client_to_client(tx: Option<TxId>) -> Self {
        MsgInfo {
            kind: MsgKind::ClientToClient,
            tx,
            object: None,
            versions: 0,
        }
    }
}

/// Trait implemented by protocol message types so an execution substrate can
/// classify them without understanding their payloads.
pub trait ProtocolMessage: Clone + fmt::Debug {
    /// Classify this message.  The default classification is an anonymous
    /// control message; protocols should override this for read/write
    /// traffic so the N and O verifiers can do their job.
    fn info(&self) -> MsgInfo {
        MsgInfo::control()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Dummy;
    impl ProtocolMessage for Dummy {}

    #[test]
    fn default_classification_is_control() {
        let info = Dummy.info();
        assert_eq!(info.kind, MsgKind::Control);
        assert_eq!(info.tx, None);
        assert_eq!(info.versions, 0);
    }

    #[test]
    fn constructors_set_kind_and_payload() {
        let tx = TxId(1);
        let o = ObjectId(2);
        assert_eq!(MsgInfo::read_request(tx, Some(o)).kind, MsgKind::ReadRequest);
        let resp = MsgInfo::read_response(tx, Some(o), 3);
        assert_eq!(resp.kind, MsgKind::ReadResponse);
        assert_eq!(resp.versions, 3);
        assert_eq!(MsgInfo::write_request(tx, Some(o)).kind, MsgKind::WriteRequest);
        assert_eq!(MsgInfo::write_ack(tx, None).kind, MsgKind::WriteAck);
        assert_eq!(
            MsgInfo::client_to_client(Some(tx)).kind,
            MsgKind::ClientToClient
        );
        assert_eq!(MsgInfo::control().kind, MsgKind::Control);
    }

    #[test]
    fn msg_id_displays_compactly() {
        assert_eq!(MsgId(5).to_string(), "m5");
    }
}
