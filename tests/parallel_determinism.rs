//! Determinism regression for the sharded parallel engine
//! (`snow_sim::ParallelSimulation`).
//!
//! Four pins:
//!
//! * **Golden bit-parity at one shard.**  A 1-shard parallel cluster takes
//!   the engine's inline fast path, whose step loop replicates the serial
//!   engine decision for decision — so for every golden (protocol ×
//!   scheduler) combo it must reproduce the exact fingerprint committed in
//!   `tests/golden_histories.txt`.  This is the parallel engine's
//!   equivalence proof, the same way the fixtures proved the event-queue
//!   refactor equivalent to the linear-scan engine.
//! * **Seeded determinism at many shards.**  With N shards the
//!   interleaving legitimately differs from the serial engine's, but the
//!   observable history must be a pure function of `(seeds, shard count)`
//!   — independent of how the OS schedules the worker threads.  Two fresh
//!   runs of every combo at 4 shards must agree byte for byte.
//! * **Schedule-independent semantics at many shards.**  The serial parity
//!   plan yields the serial engine's semantic digest at 4 shards under every
//!   golden scheduler.
//! * **Serializability under overlap at many shards.**  The concurrent
//!   parity plan is certified strictly serializable at 2 and 4 shards.

use snow::checker::{GraphChecker, Verdict};
use snow::core::History;
use snow::protocols::{ExecutorKind, ProtocolKind};
use snow_bench::golden;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden_histories.txt");

fn parse_fixture() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for line in FIXTURE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let label = parts.next().expect("fixture label").to_string();
        let hash = parts
            .nth(1)
            .and_then(|p| p.strip_prefix("hash="))
            .expect("fixture hash");
        out.insert(label, u64::from_str_radix(hash, 16).expect("fixture hash value"));
    }
    out
}

#[test]
fn one_shard_parallel_engine_reproduces_every_golden_fixture() {
    let fixtures = parse_fixture();
    let mut mismatches = Vec::new();
    for combo in golden::combos() {
        let want = fixtures
            .get(&combo.label)
            .unwrap_or_else(|| panic!("no fixture for {}", combo.label));
        let canon = golden::run_combo_on(&combo, ExecutorKind::ParallelSim { shards: 1 });
        let got = golden::fingerprint(&canon);
        if got != *want {
            eprintln!(
                "=== {} parallel(1) mismatch: want {want:016x}, got {got:016x} ===\n{canon}",
                combo.label
            );
            mismatches.push(combo.label.clone());
        }
    }
    assert!(
        mismatches.is_empty(),
        "1-shard parallel histories diverged from the serial golden fixtures: {mismatches:?}"
    );
}

#[test]
fn multi_shard_runs_are_reproducible_for_every_combo() {
    let executor = ExecutorKind::ParallelSim { shards: 4 };
    for combo in golden::combos() {
        assert_eq!(
            golden::run_combo_on(&combo, executor),
            golden::run_combo_on(&combo, executor),
            "{} not reproducible at 4 shards",
            combo.label
        );
    }
}

/// Requires a serialization witness; panics (with the checker's
/// explanation) otherwise.
fn assert_strictly_serializable(label: &str, history: &History) {
    match GraphChecker::new().check(history) {
        Verdict::Serializable(_) => {}
        verdict => panic!("{label}: history is not strictly serializable: {verdict:?}"),
    }
}

/// The sharded parallel simulator under the parity harness.  For a
/// *serial* plan the protocol's semantics are schedule-independent, so a
/// multi-shard run — whose interleaving differs from the serial engine's
/// by design — must still produce the serial engine's semantic digest.
#[test]
fn multi_shard_parallel_engine_agrees_semantically_on_serial_plans() {
    for protocol in ProtocolKind::all() {
        let (config, plan) = golden::parity_plan(protocol);
        let digest_of: fn(&History) -> String = if protocol == ProtocolKind::Eiger {
            golden::semantic_digest
        } else {
            golden::instrumented_digest
        };
        for combo in golden::combos().iter().filter(|c| c.protocol == protocol) {
            let serial = golden::run_plan_on(
                protocol,
                &config,
                combo.scheduler,
                ExecutorKind::SerialSim,
                &plan,
            );
            let parallel = golden::run_plan_on(
                protocol,
                &config,
                combo.scheduler,
                ExecutorKind::ParallelSim { shards: 4 },
                &plan,
            );
            assert_eq!(parallel.incomplete_count(), 0, "{}", combo.label);
            assert_eq!(
                digest_of(&serial),
                digest_of(&parallel),
                "{}: serial and 4-shard parallel engines disagree on history semantics",
                combo.label
            );
        }
    }
}

/// Concurrent batches on the sharded engine: outcomes are
/// schedule-dependent, so the contract is serializability-equivalence —
/// every history the parallel engine produces, at every shard count, must
/// be certified strictly serializable by the graph checker.
#[test]
fn multi_shard_concurrent_batches_are_strictly_serializable() {
    for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Blocking] {
        let (config, batches) = golden::concurrent_parity_plan(protocol);
        for combo in golden::combos().iter().filter(|c| c.protocol == protocol) {
            for shards in [2usize, 4] {
                let history = golden::run_concurrent_plan_on(
                    protocol,
                    &config,
                    combo.scheduler,
                    ExecutorKind::ParallelSim { shards },
                    &batches,
                );
                assert_eq!(history.incomplete_count(), 0, "{}/{shards}", combo.label);
                assert_strictly_serializable(
                    &format!("{}/parallel{shards}", combo.label),
                    &history,
                );
            }
        }
    }
}
