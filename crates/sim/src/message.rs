//! Messages in flight on the simulated network.
//!
//! The protocol-agnostic classification vocabulary ([`MsgId`], [`MsgKind`],
//! [`MsgInfo`], [`SimMessage`]) lives in `snow-core` (`snow_core::msg`) so
//! that every execution substrate shares it; this module re-exports it and
//! adds the simulator-specific [`PendingMessage`] envelope (send time,
//! [`Causal`] stamp, scheduler-assigned delivery time).

pub use snow_core::{MsgId, MsgInfo, MsgKind};

/// Re-export of [`snow_core::ProtocolMessage`] under its historical
/// simulator name.
pub use snow_core::ProtocolMessage as SimMessage;

use snow_core::ProcessId;

/// The causal stamp every in-flight message carries: all the substrate
/// keeps of a message's ancestry, computed by the simulator at the send
/// from the stamp of the message being handled.  There is no side table —
/// the round count (O) and the non-blocking verdict (N) of a transaction
/// are this stamp, folded into its [`snow_core::TxRecord`].
///
/// A **chain** is one transaction's own contiguous ancestry.  A send from
/// an INV handler, an unattributed send, or a send whose handled message
/// belongs to another transaction (or to none) starts a chain: `round = 1`,
/// `direct = false`.  Otherwise the send continues the chain of the handled
/// message `p`: `round` is `p.round + 1` if the sender is the
/// transaction's invoking client — it has handled one more response — else
/// `p.round`, and `direct` says whether `p` was a read request.
///
/// This is the definition, not an approximation of one: a client's send
/// that descends from *another* transaction's message addressed to that
/// same client starts at round 1.  Of the six protocols only Blocking
/// crosses a transaction boundary (`LockGranted`, sent from the handler of
/// another transaction's unattributed `Unlock`), and that chain starts
/// over under this rule as it always did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Causal {
    /// The round of the transaction's invoking client this message belongs
    /// to: 1 + the responses of the chain the invoker had handled when the
    /// message (or the request it answers) was sent.
    pub round: u32,
    /// True iff the message was sent from the handler of a read request of
    /// its own transaction: a read response so stamped was answered without
    /// waiting for any other input action.
    pub direct: bool,
}

impl Causal {
    /// The stamp of a send that starts a chain.
    pub const ROOT: Causal = Causal { round: 1, direct: false };
}

/// A message that has been sent but not yet delivered.
#[derive(Debug, Clone)]
pub struct PendingMessage<M> {
    /// Unique id of this message.
    pub id: MsgId,
    /// Sender.
    pub src: ProcessId,
    /// Destination.
    pub dst: ProcessId,
    /// The payload.
    pub msg: M,
    /// Simulation time at which the send action occurred.
    pub sent_at: u64,
    /// What the send inherited from the message whose handler produced it.
    pub causal: Causal,
    /// Delivery time assigned by a latency-modelling scheduler, if any.
    pub deliver_at: Option<u64>,
}

impl<M> PendingMessage<M> {
    /// The delivery-queue key this message is ordered by: the scheduler's
    /// stamped delivery time, else the send time (under a monotone clock
    /// both orders FIFO delivery by send order).  The single source of
    /// the rule [`crate::MessagePool`]'s heap orders by.
    pub fn delivery_key(&self) -> u64 {
        self.deliver_at.unwrap_or(self.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_core::ClientId;

    #[derive(Debug, Clone)]
    struct Dummy;
    impl SimMessage for Dummy {}

    #[test]
    fn pending_message_carries_causality() {
        let p = PendingMessage {
            id: MsgId(5),
            src: ProcessId::Client(ClientId(0)),
            dst: ProcessId::Client(ClientId(1)),
            msg: Dummy,
            sent_at: 10,
            causal: Causal { round: 2, direct: true },
            deliver_at: None,
        };
        assert_eq!(p.id.to_string(), "m5");
        assert_eq!(p.causal, Causal { round: 2, direct: true });
        assert_eq!(std::mem::size_of::<Causal>(), 8);
    }

    #[test]
    fn core_trait_is_usable_under_the_sim_alias() {
        let info = Dummy.info();
        assert_eq!(info.kind, MsgKind::Control);
    }
}
