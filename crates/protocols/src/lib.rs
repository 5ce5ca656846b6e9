//! # snow-protocols
//!
//! Executable implementations of every READ/WRITE transaction protocol the
//! paper discusses, written once as transport-agnostic state machines and
//! executed unchanged on both substrates — the serial and the sharded
//! deterministic simulator (`snow-sim`) — through [`AnyNode`], the crate's
//! one `snow_core::Process` implementation:
//!
//! * [`list`] — **Algorithms A, B and C** (§5.2, §8, §9; Pseudocodes 4–7),
//!   one family: the same WRITE, wire format, writer and server, and one
//!   READ procedure each.  A — all four SNOW properties in the multi-writer
//!   single-reader setting, the reader holding the `List` of registered
//!   WRITEs (writers push an `info-reader` notification to it,
//!   client-to-client).  B — SNW + one-version in the multi-writer
//!   multi-reader setting, `List` at a coordinator server; READs take
//!   exactly two non-blocking rounds (`get-tag-array` then `read-value`).
//!   C — SNW + one-round in MWMR; READs take one round but responses carry
//!   up to |W| versions.
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

pub mod any;
pub mod blocking;
pub mod common;
pub mod deploy;
pub mod eiger;
pub mod list;
pub mod simple;

pub use any::{deploy_any, AnyMsg, AnyNode};
pub use common::{PendingRead, PendingWrite, WriteLog};
pub use deploy::{
    fault_scenarios, scenario_crash_mid_read, scenario_dup_storm,
    scenario_partition_during_write, Cluster, ClusterSpec, CommitDrain, ExecutorKind, ObsEvent,
    ProtocolKind, SchedulerKind, ShardEvent, DEFAULT_MAX_STEPS,
};

/// The `#[test]` entry points of [`list`]'s unit tests: each row runs one of
/// `list::tests`' bodies on one algorithm.  They sit here, one module per
/// algorithm, so a test id (`alg_b::tests::…`) names what it exercises and
/// means the same thing as when each algorithm was a module of its own.
#[cfg(test)]
macro_rules! family_tests {
    ($($module:ident { $($name:ident => $body:expr;)* })*) => {$(
        mod $module {
            mod tests {
                use crate::list::{tests::*, Algorithm::*};
                $(#[test] fn $name() { $body })*
            }
        }
    )*};
}

#[cfg(test)]
family_tests! {
    alg_a {
        deploy_rejects_bad_configs => deploy_requirements(A);
        read_after_write_sees_written_values =>
            read_after_write(A, Shape { rounds: 1..=1, versions: 1, write_c2c: 2 });
        read_before_any_write_returns_initial_values => unwritten_objects_read_initial_values(A);
        concurrent_reads_and_writes_complete_under_many_schedules =>
            concurrent_transactions_complete(A, Shape { rounds: 1..=1, versions: 1, write_c2c: 2 });
        sequential_writes_from_one_writer_get_increasing_tags => one_writers_tags_increase(A);
        reader_registers_writes_from_multiple_writers => list_totally_orders_concurrent_writes(A);
    }
    alg_b {
        deploy_allows_mwmr_without_c2c => deploy_requirements(B);
        read_after_write_sees_written_values_in_two_rounds =>
            read_after_write(B, Shape { rounds: 2..=2, versions: 1, write_c2c: 0 });
        read_of_unwritten_objects_returns_initial_values => unwritten_objects_read_initial_values(B);
        multiple_readers_and_writers_complete_under_random_schedules =>
            concurrent_transactions_complete(B, Shape { rounds: 2..=2, versions: 1, write_c2c: 0 });
        writes_are_totally_ordered_by_coordinator_tags => list_totally_orders_concurrent_writes(B);
    }
    alg_c {
        read_after_write_is_one_round =>
            read_after_write(C, Shape { rounds: 1..=1, versions: 2, write_c2c: 0 });
        concurrent_workload_completes_under_random_schedules =>
            concurrent_transactions_complete(C, Shape { rounds: 1..=2, versions: 2, write_c2c: 0 });
        versions_returned_grow_with_registered_writes => c_returns_every_version_ever_written();
        adversarial_schedule_triggers_the_documented_fallback =>
            c_adversarial_schedule_triggers_the_fallback();
        fallback_is_not_used_on_benign_schedules => c_benign_schedules_never_fall_back();
    }
}
