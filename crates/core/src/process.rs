//! The [`Process`] trait (one I/O automaton) and the [`Effects`] buffer its
//! handlers write into.
//!
//! This is the transport-agnostic protocol engine contract: a protocol is a
//! set of [`Process`] state machines that react to invocations and message
//! deliveries by emitting output actions into an [`Effects`] buffer.  *How*
//! those sends are carried — the serial deterministic event-queue simulator
//! (`snow_sim::Simulation`) or the sharded parallel simulator
//! (`snow_sim::ParallelSimulation`) — is the substrate's business; the
//! protocol logic is written once.

use crate::ids::ProcessId;
use crate::msg::ProtocolMessage;
use crate::txn::{TxOutcome, TxSpec};
use crate::ids::TxId;
use smallvec::SmallVec;

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

/// The buffered sends of one handler call: `(destination, message)` pairs,
/// in emission order.
///
/// Inline capacity 4: most handler calls emit 0–1 sends (server echoes,
/// client RESPs) and the common fan-out burst is one message per server in a
/// small quorum, so the hot delivery path never heap-allocates.
pub type Sends<M> = SmallVec<[(ProcessId, M); 4]>;

/// The buffered RESP events of one handler call: `(transaction, outcome)`
/// pairs, in emission order.
///
/// Inline capacity 2: a handler responds to at most its own transaction in
/// every protocol in this workspace; 2 leaves headroom for batched RESPs.
pub type Responses = SmallVec<[(TxId, TxOutcome); 2]>;

/// The output-action buffer a handler writes into.
///
/// Every send emitted during one handler call is stamped by the execution
/// substrate from the message (or invocation) being handled, which is what
/// produces the round/non-blocking instrumentation, and numbered in
/// emission order — with the sender and the handler's tick, the send's
/// substrate-independent coordinates.
#[derive(Debug)]
pub struct Effects<M> {
    /// Current logical time (read-only for handlers; 0 on substrates without
    /// a logical clock).
    now: u64,
    sends: Sends<M>,
    responses: Responses,
}

impl<M> Effects<M> {
    /// Creates an empty buffer at logical time `now`.
    ///
    /// Allocation-free: both buffers start inline (see [`Sends`] /
    /// [`Responses`]) and only spill to the heap past their inline capacity.
    ///
    /// Never inlined, so the buffer is built in the caller's return slot: an
    /// inlined copy has been seen to build the sends buffer in a temporary
    /// and `memcpy` its 200–300 bytes into place on every handler call
    /// (3–6 % of the repo benchmark's `norm_tx_per_s`).
    #[inline(never)]
    pub fn new(now: u64) -> Self {
        Effects {
            now,
            sends: SmallVec::new(),
            responses: SmallVec::new(),
        }
    }

    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Emit a message to `to`.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Emit the RESP event of transaction `tx` with `outcome`.
    pub fn respond(&mut self, tx: TxId, outcome: TxOutcome) {
        self.responses.push((tx, outcome));
    }

    /// Number of sends buffered so far.
    pub fn send_count(&self) -> usize {
        self.sends.len()
    }

    /// Number of responses buffered so far.
    pub fn response_count(&self) -> usize {
        self.responses.len()
    }

    /// Drains the buffered output actions: `(sends, responses)`.
    pub fn into_parts(self) -> (Sends<M>, Responses) {
        (self.sends, self.responses)
    }

    /// Yields the buffered sends in emission order, leaving none behind.
    ///
    /// What a substrate consumes a handler's output through: each message
    /// moves once, out of its slot, where [`Effects::into_parts`] first
    /// moves both buffers whole.
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
        assert_eq!(e.now(), 42);
        e.send(ProcessId::Client(ClientId(1)), Ping);
        e.respond(
            TxId(3),
            TxOutcome::Write(WriteOutcome {
                key: Key::new(1, ClientId(0)),
                tag: Some(Tag(2)),
            }),
        );
        assert_eq!(e.send_count(), 1);
        assert_eq!(e.response_count(), 1);
        let (sends, resps) = e.into_parts();
        assert_eq!(sends.len(), 1);
        assert_eq!(resps[0].0, TxId(3));
    }

    #[test]
    fn effects_buffers_stay_inline_then_spill_in_order() {
        let mut e: Effects<Ping> = Effects::new(0);
        // Typical handler fan-out (≤ 4 sends) must not spill to the heap…
        for i in 0..4 {
            e.send(ProcessId::Client(ClientId(i)), Ping);
        }
        assert!(!e.sends.spilled());
        // …and a larger burst spills while preserving emission order exactly.
        for i in 4..9 {
            e.send(ProcessId::Client(ClientId(i)), Ping);
        }
        assert!(e.sends.spilled());
        let (sends, _) = e.into_parts();
        let order: Vec<u32> = sends
            .into_iter()
            .map(|(to, _)| match to {
                ProcessId::Client(c) => c.0,
                other => panic!("unexpected destination {other}"),
            })
            .collect();
        assert_eq!(order, (0..9).collect::<Vec<u32>>());
    }

    #[test]
    fn effects_drain_in_emission_order_and_can_be_refilled() {
        let mut e: Effects<Ping> = Effects::new(7);
        for i in 0..6 {
            e.send(ProcessId::Client(ClientId(i)), Ping);
        }
        e.respond(TxId(1), TxOutcome::Aborted);
        let order: Vec<ProcessId> = e.drain_sends().map(|(to, _)| to).collect();
        assert_eq!(order, (0..6).map(|i| ProcessId::Client(ClientId(i))).collect::<Vec<_>>());
        assert_eq!((e.send_count(), e.response_count()), (0, 1));
        assert_eq!(e.drain_responses().map(|(tx, _)| tx).collect::<Vec<_>>(), [TxId(1)]);
        e.send(ProcessId::Client(ClientId(9)), Ping);
        assert_eq!((e.send_count(), e.response_count(), e.now()), (1, 0, 7));
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
