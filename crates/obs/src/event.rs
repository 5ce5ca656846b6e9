//! Typed trace events and the sinks they are emitted into.
//!
//! Every event is emitted from exactly one definition site: the
//! simulator, `snow_sim::Simulation` (virtual-time stamps), or the
//! streaming checker's certification frontier.  Sinks are selected by
//! monomorphization: a substrate generic over `O: TraceSink` guards every
//! emission with `if O::ENABLED { … }`, so the default [`NullSink`]
//! (`ENABLED = false`) compiles the whole path away.

use snow_core::{ClientId, MsgKind, ProcessId, ServerId, TxId};

/// One observability event.  `at` is the emitter's clock: virtual ticks
/// for the simulator, the certification watermark for the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A transaction invocation was dispatched to its client process.
    InvocationDispatched {
        /// Clock at dispatch.
        at: u64,
        /// The transaction.
        tx: TxId,
        /// The invoking client.
        client: ClientId,
    },
    /// A protocol message was sent (and scheduled for delivery).
    MessageSent {
        /// Clock at the send.
        at: u64,
        /// Raw message id (`MsgId.0`).
        msg: u64,
        /// Protocol-agnostic classification.
        kind: MsgKind,
        /// Transaction attribution, if any.
        tx: Option<TxId>,
        /// Sending process.
        src: ProcessId,
        /// Destination process.
        dst: ProcessId,
        /// Pending messages on the emitting substrate after this send.
        queue_depth: u32,
    },
    /// A protocol message was delivered to its destination.
    MessageDelivered {
        /// Clock at delivery.
        at: u64,
        /// Raw message id (`MsgId.0`).
        msg: u64,
        /// Protocol-agnostic classification.
        kind: MsgKind,
        /// Transaction attribution, if any.
        tx: Option<TxId>,
        /// Sending process.
        src: ProcessId,
        /// Destination process.
        dst: ProcessId,
        /// Pending messages remaining after this delivery.
        queue_depth: u32,
    },
    /// A transaction responded at its invoking client.
    TxCommitted {
        /// Clock at the RESP.
        at: u64,
        /// The transaction.
        tx: TxId,
        /// The invoking client.
        client: ClientId,
        /// Clock at the INV, so `at - invoked_at` is the latency in the
        /// substrate's own time unit.
        invoked_at: u64,
    },
    /// The fault engine dropped a message in flight (a drop region, a
    /// `Drop`-policy partition cut, or a delivery into a `DropInFlight`
    /// crash window).
    MessageDropped {
        /// Clock at the drop decision.
        at: u64,
        /// Raw message id (`MsgId.0`).
        msg: u64,
        /// Sending process.
        src: ProcessId,
        /// Destination the message never reached.
        dst: ProcessId,
    },
    /// The fault engine duplicated a message: a second copy with its own id
    /// was sent alongside the original.
    MessageDuplicated {
        /// Clock at the duplication.
        at: u64,
        /// Raw id of the original message.
        original: u64,
        /// Raw id of the injected duplicate.
        duplicate: u64,
        /// Sending process.
        src: ProcessId,
        /// Destination process.
        dst: ProcessId,
    },
    /// A scheduled server crash took effect (emitted once, at the first
    /// send or delivery decision at or past the crash tick).
    ServerCrashed {
        /// Clock at the announcement.
        at: u64,
        /// The crashed server.
        server: ServerId,
    },
    /// A crashed server recovered: its process was rebuilt from fresh
    /// state (emitted once, at the first send or delivery decision at or
    /// past the recovery tick).
    ServerRecovered {
        /// Clock at the recovery.
        at: u64,
        /// The recovered server.
        server: ServerId,
    },
    /// A scheduled network partition took effect (emitted once, at the
    /// first send or delivery decision at or past its start tick).
    PartitionStarted {
        /// Clock at the announcement.
        at: u64,
        /// Index of the partition in the run's fault schedule.
        partition: u32,
    },
    /// A partition healed (emitted once, at the first send or delivery
    /// decision at or past its heal tick).
    PartitionHealed {
        /// Clock at the announcement.
        at: u64,
        /// Index of the partition in the run's fault schedule.
        partition: u32,
    },
    /// The streaming checker retired a certified prefix of its live window.
    CheckerRetired {
        /// The certification watermark that triggered the retirement.
        at: u64,
        /// Transactions whose verdict contribution is now final.
        certified: u64,
        /// Records still held (live window + sealed segments).
        live_window: u32,
        /// Uncertified live transactions (the frontier width).
        frontier: u32,
        /// Precedence edges added so far.
        edges_added: u64,
        /// Full window re-solves so far.
        window_resolves: u64,
        /// Watermark minus the oldest retired commit's response time: how
        /// far certification trailed the commit stream.
        retirement_lag: u64,
    },
}

impl ObsEvent {
    /// The event's clock stamp.
    pub fn at(&self) -> u64 {
        match *self {
            ObsEvent::InvocationDispatched { at, .. }
            | ObsEvent::MessageSent { at, .. }
            | ObsEvent::MessageDelivered { at, .. }
            | ObsEvent::TxCommitted { at, .. }
            | ObsEvent::MessageDropped { at, .. }
            | ObsEvent::MessageDuplicated { at, .. }
            | ObsEvent::ServerCrashed { at, .. }
            | ObsEvent::ServerRecovered { at, .. }
            | ObsEvent::PartitionStarted { at, .. }
            | ObsEvent::PartitionHealed { at, .. }
            | ObsEvent::CheckerRetired { at, .. } => at,
        }
    }
}

/// An event tagged with the track it is exported on (a Perfetto thread) —
/// the unit the exporters consume.  The simulator and the checker both
/// emit on track 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardEvent {
    /// Exporting track (0 for the simulator and the checker).
    pub shard: u32,
    /// The event.
    pub event: ObsEvent,
}

/// Where a substrate's events go.
///
/// `ENABLED` is the zero-cost switch: emission sites are written as
/// `if O::ENABLED { sink.emit(…) }`, so a sink whose `ENABLED` is `false`
/// ([`NullSink`]) never even constructs the event.  Implementations with
/// `ENABLED = true` receive every event in emission order.
pub trait TraceSink {
    /// Whether emission sites should construct and emit events at all.
    const ENABLED: bool = true;

    /// Receives one event.
    fn emit(&mut self, event: ObsEvent);

    /// Yields and clears the events collected so far.  Sinks that forward
    /// rather than store may leave the default (empty) implementation.
    fn drain(&mut self) -> Vec<ObsEvent> {
        Vec::new()
    }
}

/// The default sink: drops everything, and — via `ENABLED = false` —
/// removes the emission sites themselves at compile time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _event: ObsEvent) {}
}

/// A sink that stores every event in emission order, for draining into the
/// exporters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordingSink {
    events: Vec<ObsEvent>,
}

impl RecordingSink {
    /// Creates an empty recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// The events collected so far, in emission order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }
}

impl TraceSink for RecordingSink {
    fn emit(&mut self, event: ObsEvent) {
        self.events.push(event);
    }

    fn drain(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_recording_sink_collects_in_order() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(RecordingSink::ENABLED) };
        let mut sink = RecordingSink::new();
        let a = ObsEvent::InvocationDispatched { at: 1, tx: TxId(0), client: ClientId(0) };
        let b = ObsEvent::TxCommitted { at: 9, tx: TxId(0), client: ClientId(0), invoked_at: 1 };
        sink.emit(a);
        sink.emit(b);
        assert_eq!(sink.events(), &[a, b]);
        assert_eq!(sink.drain(), vec![a, b]);
        assert!(sink.events().is_empty());
        // NullSink's drain is the default empty implementation.
        assert!(NullSink.drain().is_empty());
        assert_eq!(b.at(), 9);
    }
}
