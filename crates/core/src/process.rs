//! The [`Process`] trait (one I/O automaton) and the [`Effects`] buffer its
//! handlers write into.
//!
//! This is the transport-agnostic protocol engine contract: a protocol is a
//! set of [`Process`] state machines that react to invocations and message
//! deliveries by emitting output actions into an [`Effects`] buffer.  *How*
//! those sends are carried — today by the deterministic event-queue
//! simulator (`snow_sim::Simulation`) — is the substrate's business; the
//! protocol logic is written once.
//!
//! A substrate owns one [`Effects`] buffer and lends it to every handler
//! call: the handler pushes its sends and RESPs, the substrate drains them
//! in emission order, and the emptied buffer keeps its capacity for the
//! next call.

use crate::ids::ProcessId;
use crate::msg::ProtocolMessage;
use crate::txn::{TxOutcome, TxSpec};
use crate::ids::TxId;

/// A process (I/O automaton) participating in an execution.
///
/// A process reacts to two kinds of input actions:
///
/// * [`Process::on_invoke`] — the INV event of a transaction (clients only);
/// * [`Process::on_message`] — delivery of a message from another process.
///
/// Handlers must not block or spin: they update local state and emit output
/// actions (sends, RESP events) through the [`Effects`] buffer.  This is the
/// non-blocking handler discipline that makes the N property *checkable*: a
/// read answered within the handler of its own request is non-blocking by
/// construction, a read answered from any other handler is not.
pub trait Process {
    /// The protocol message type exchanged by processes.
    type Msg: ProtocolMessage;

    /// The identity of this process.
    fn id(&self) -> ProcessId;

    /// Handle the invocation of a transaction at this process.
    ///
    /// Only client processes receive invocations; the default implementation
    /// panics to catch mis-wired harnesses early.
    fn on_invoke(&mut self, tx_id: TxId, spec: TxSpec, effects: &mut Effects<Self::Msg>) {
        let _ = (tx_id, spec, effects);
        panic!("process {} does not accept transaction invocations", self.id());
    }

    /// Handle delivery of `msg` from `from`.
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, effects: &mut Effects<Self::Msg>);

    /// The execution substrate retired transaction `tx_id` as
    /// [`TxOutcome::Aborted`]: a fault (server crash, partition, dropped
    /// message) orphaned it and no further message for it will ever arrive.
    ///
    /// Client processes clear any in-flight state they hold for `tx_id` so
    /// the next invocation finds them idle; anything else (and any client
    /// with no per-transaction state) can keep the default no-op.  Handlers
    /// must not send or respond here — the abort itself is recorded by the
    /// substrate — which is why the hook takes no [`Effects`] buffer.
    fn on_abort(&mut self, tx_id: TxId) {
        let _ = tx_id;
    }
}

/// The output-action buffer a handler writes into: its sends, as
/// `(destination, message)` pairs, and its RESP events, as `(transaction,
/// outcome)` pairs, each in emission order.
///
/// Every send emitted during one handler call is stamped by the execution
/// substrate from the message (or invocation) being handled, which is what
/// produces the round/non-blocking instrumentation, and numbered in
/// emission order — with the sender and the handler's tick, the send's
/// substrate-independent coordinates.
#[derive(Debug)]
pub struct Effects<M> {
    sends: Vec<(ProcessId, M)>,
    responses: Vec<(TxId, TxOutcome)>,
}

impl<M> Effects<M> {
    /// Creates an empty buffer; allocation-free until the first push.
    ///
    /// The argument is ignored.  It is kept because the repo benchmark's
    /// adapter (`examples/e2e_bench/sut.rs`) passes one.
    pub fn new(_now: u64) -> Self {
        Effects {
            sends: Vec::new(),
            responses: Vec::new(),
        }
    }

    /// Emit a message to `to`.  A protocol whose handlers also run inside
    /// a protocol-erased deployment passes its own message type, converted
    /// on the way in.
    pub fn send(&mut self, to: ProcessId, msg: impl Into<M>) {
        self.sends.push((to, msg.into()));
    }

    /// Emit the RESP event of transaction `tx` with `outcome`.
    pub fn respond(&mut self, tx: TxId, outcome: TxOutcome) {
        self.responses.push((tx, outcome));
    }

    /// The buffered output actions: `(sends, responses)`.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Vec<(ProcessId, M)>, Vec<(TxId, TxOutcome)>) {
        (self.sends, self.responses)
    }

    /// Yields the buffered sends in emission order, leaving none behind and
    /// the buffer's capacity in place for the next handler call.
    pub fn drain_sends(&mut self) -> impl ExactSizeIterator<Item = (ProcessId, M)> + '_ {
        self.sends.drain(..)
    }

    /// Yields the buffered RESP events in emission order, leaving none
    /// behind.
    pub fn drain_responses(&mut self) -> impl ExactSizeIterator<Item = (TxId, TxOutcome)> + '_ {
        self.responses.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, ObjectId};
    use crate::key::{Key, Tag};
    use crate::txn::WriteOutcome;

    #[derive(Debug, Clone)]
    struct Ping;
    impl ProtocolMessage for Ping {}

    struct Echo {
        id: ProcessId,
    }

    impl Process for Echo {
        type Msg = Ping;
        fn id(&self) -> ProcessId {
            self.id
        }
        fn on_message(&mut self, from: ProcessId, msg: Ping, effects: &mut Effects<Ping>) {
            effects.send(from, msg);
        }
    }

    #[test]
    fn effects_buffer_sends_and_responses() {
        let mut e: Effects<Ping> = Effects::new(42);
        e.send(ProcessId::Client(ClientId(1)), Ping);
        e.respond(
            TxId(3),
            TxOutcome::Write(WriteOutcome {
                key: Key::new(1, ClientId(0)),
                tag: Some(Tag(2)),
            }),
        );
        let (sends, resps) = e.into_parts();
        assert_eq!(sends.len(), 1);
        assert_eq!(resps[0].0, TxId(3));
    }

    /// The substrate's reuse pattern: one buffer, drained after every
    /// handler call and refilled by the next.  Bursts wider than any
    /// handler's usual fan-out keep their emission order on every cycle,
    /// and a drain leaves nothing behind for the next one to yield.
    #[test]
    fn effects_drain_in_emission_order_and_can_be_refilled() {
        let mut e: Effects<Ping> = Effects::new(0);
        for burst in [9, 6] {
            for i in 0..burst {
                e.send(ProcessId::Client(ClientId(i)), Ping);
            }
            e.respond(TxId(u64::from(burst)), TxOutcome::Aborted);
            let order: Vec<ProcessId> = e.drain_sends().map(|(to, _)| to).collect();
            let emitted: Vec<_> = (0..burst).map(|i| ProcessId::Client(ClientId(i))).collect();
            assert_eq!(order, emitted);
            let responses: Vec<TxId> = e.drain_responses().map(|(tx, _)| tx).collect();
            assert_eq!(responses, [TxId(u64::from(burst))]);
        }
    }

    #[test]
    fn default_on_invoke_panics_for_non_clients() {
        let mut echo = Echo {
            id: ProcessId::Client(ClientId(0)),
        };
        let mut effects = Effects::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            echo.on_invoke(TxId(1), TxSpec::read(vec![ObjectId(0)]), &mut effects)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn echo_process_replies_to_sender() {
        let mut echo = Echo {
            id: ProcessId::Client(ClientId(9)),
        };
        let mut effects = Effects::new(0);
        echo.on_message(ProcessId::Client(ClientId(1)), Ping, &mut effects);
        let (sends, _) = effects.into_parts();
        assert_eq!(sends[0].0, ProcessId::Client(ClientId(1)));
    }
}
