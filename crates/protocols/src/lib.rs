//! # snow-protocols
//!
//! Executable implementations of every READ/WRITE transaction protocol the
//! paper discusses, written once as transport-agnostic state machines
//! (`snow_core::Process` implementations) and executed unchanged on both
//! substrates — the serial and the sharded deterministic simulator
//! (`snow-sim`):
//!
//! * [`alg_a`] — **Algorithm A** (§5.2, Pseudocode 4): all four SNOW
//!   properties in the multi-writer single-reader setting, using
//!   client-to-client communication (writers push an `info-reader`
//!   notification to the reader).
//! * [`alg_b`] — **Algorithm B** (§8, Pseudocodes 5–6): SNW + one-version in
//!   the multi-writer multi-reader setting; READs take exactly two
//!   non-blocking rounds (`get-tag-array` then `read-value`).
//! * [`alg_c`] — **Algorithm C** (§9, Pseudocodes 5, 7): SNW + one-round in
//!   MWMR; READs take one round but responses carry up to |W| versions.
//! * [`eiger`] — a Lamport-clock read-only transaction baseline modelled on
//!   Eiger, faithful enough to reproduce the §6 / Fig. 5 strict
//!   serializability violation.
//! * [`blocking`] — a lock-based strictly serializable baseline whose reads
//!   *block* under conflicting writes: the other side of the SNOW trade-off.
//! * [`simple`] — non-transactional simple reads/writes: the latency floor
//!   that "optimal latency" is defined against (§1).
//!
//! # The unified deployment layer
//!
//! Deployment is described once and executed anywhere.  [`any`] erases the
//! per-protocol node/message types behind enum dispatch ([`AnyNode`],
//! [`AnyMsg`]), so [`deploy_any`] is the *single* `ProtocolKind`-dispatched
//! construction path in the workspace, and [`ClusterSpec`] the single way
//! to put its node set on a substrate: pick a [`SchedulerKind`] or a
//! topology, select the serial or the sharded simulator with
//! [`ExecutorKind`], and drive the result through the [`deploy::Cluster`]
//! trait.
//!
//! A new protocol therefore lands on both executors — and under the golden,
//! parity and fault suites — by adding one module and one
//! [`deploy_any`] arm; no executor grows protocol-specific wiring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg_a;
pub mod alg_b;
pub mod alg_c;
pub mod any;
pub mod blocking;
pub mod common;
pub mod deploy;
pub mod eiger;
pub mod simple;

pub use any::{deploy_any, AnyMsg, AnyNode};
pub use common::{PendingRead, PendingWrite, WriteLog};
pub use deploy::{
    fault_scenarios, scenario_crash_mid_read, scenario_dup_storm,
    scenario_partition_during_write, Cluster, ClusterSpec, CommitDrain, ExecutorKind, ObsEvent,
    ProtocolKind, SchedulerKind, ShardEvent, DEFAULT_MAX_STEPS,
};
