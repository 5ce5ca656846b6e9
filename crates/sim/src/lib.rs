//! # snow-sim
//!
//! A deterministic discrete-event simulator of asynchronous message-passing
//! processes, in the style of the I/O-automata model the paper uses (§2,
//! Appendix A):
//!
//! * processes ([`Process`]) are state machines reacting to delivered
//!   messages and to transaction invocations, emitting sends and responses
//!   through an [`Effects`] buffer — exactly the "actions at one automaton"
//!   granularity the paper's fragment arguments rely on.  The
//!   [`Process`]/[`Effects`] contract itself lives in `snow-core`
//!   (transport-agnostic); this crate provides its execution substrate,
//!   [`Simulation`];
//! * the network is **reliable but asynchronous**: every sent message is
//!   eventually deliverable, but the order and timing of deliveries are under
//!   the control of a [`Scheduler`] (seeded-random, per-link latencies —
//!   [`LatencyScheduler`], of which send order is the zero-latency case —
//!   or fully manual/adversarial).  In-flight messages live in a
//!   [`MessagePool`] — a slab and one delivery heap — from which the
//!   scheduler takes the message it picks: O(log n) for the latency
//!   scheduler, O(live) for the random adversary — see [`pool`] and
//!   [`scheduler`] for the complexity contract;
//! * causality rides on the message: every send is stamped ([`Causal`])
//!   from the stamp of the message whose handler made it, and the round
//!   counts and non-blocking verdicts of a transaction are that stamp
//!   folded into its record.  That is what lets `snow-checker` verify the
//!   N (non-blocking) and O (one-response) properties without trusting
//!   the protocol's self-reporting; the per-action log of a run is the
//!   [`TraceSink`] event stream;
//! * the simulation also assembles the [`snow_core::History`] of the run.
//!
//! The simulator is single-threaded and fully deterministic given
//! `(configuration, scheduler seed, invocation plan)`, which is what makes
//! the impossibility constructions of `snow-impossibility` replayable.  A
//! seeded [`FaultSchedule`] (see [`fault`]) extends the contract to
//! failures: drop/duplicate/delay regions, partitions and server
//! crash+recovery are pure per-message decisions, so a faulty history is a
//! pure function of `(configuration, seeds, fault schedule)`.
//!
//! There is **one simulator type**, [`Simulation`], whose fields are
//! private to its module ([`sim`]).  Every dispatch decision — the one rule
//! for what is dispatched next (a planned invocation as soon as it is keyed
//! before every pending delivery, else the scheduler's pick) and the clock
//! invariant that no event is dispatched before its own timestamp — is
//! defined exactly once there.  Every per-message draw (a latency, a fault
//! gate) is one hash of the send's coordinates, which the simulator hands
//! to [`Scheduler::on_send`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod message;
pub mod pool;
pub mod scheduler;
pub mod sim;
mod tables;
pub mod topology;

pub use fault::{
    Crash, CrashPolicy, EndpointSel, FaultAction, FaultRegion, FaultSchedule, Partition,
    PartitionPolicy, RestartFn,
};
pub use message::{Causal, MsgId, MsgInfo, MsgKind, PendingMessage, SimMessage};
pub use pool::MessagePool;
pub use snow_core::{Effects, Process};
pub use snow_obs::{NullSink, ObsEvent, RecordingSink, ShardEvent, TraceSink};
pub use scheduler::{LatencyScheduler, RandomScheduler, Scheduler};
pub use sim::{CommitDrain, Simulation, StepOutcome, DEFAULT_MAX_STEPS};
pub use topology::{LinkDist, Topology, TICK};
