//! Golden-history fixtures: seeded determinism across engine refactors.
//!
//! The simulator promises that a run is a pure function of
//! `(protocol, scheduler, seeds)`.  This module pins that promise down: it
//! runs a fixed workload for every (protocol × scheduler) combination and
//! renders the resulting [`snow_core::History`] into a canonical text whose
//! FNV-1a fingerprint is stored in `tests/golden_histories.txt` at the
//! workspace root.  The `determinism` integration test re-runs every combo
//! and compares fingerprints, so any engine change that silently perturbs
//! schedules (and therefore histories) fails loudly.
//!
//! The fixtures were captured from the pre-event-queue (linear-scan) engine;
//! the indexed engine reproduces them bit-for-bit, which is the refactor's
//! equivalence proof.  Regenerate with
//! `cargo run -p snow-bench --release --bin golden_histories -- --write`
//! (only legitimate when the schedule semantics intentionally change, or
//! the workload bodies do — e.g. a different `rand` backend, see
//! `vendor/README.md`).

//! Beyond the fingerprints, this module also defines the **parity
//! fixtures**: a deterministic serial transaction plan per protocol
//! ([`parity_plan`]), its runner ([`run_plan`]) and a timing-free
//! canonical rendering of a history's semantics ([`semantic_digest`]) that
//! the `protocol_properties` integration test uses to hold every scheduler
//! to one set of semantics.

use snow_core::{ClientId, History, SystemConfig, TxSpec};
use snow_protocols::{fault_scenarios, ClusterSpec, ProtocolKind, SchedulerKind, ShardEvent};
use snow_sim::FaultSchedule;
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};
use std::fmt::Write as _;

/// One pinned (protocol, scheduler) execution.
#[derive(Debug, Clone)]
pub struct Combo {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// The delivery schedule.
    pub scheduler: SchedulerKind,
    /// Stable identifier used as the fixture key.
    pub label: String,
}

/// Transactions driven per combo.
pub const COMBO_TXNS: usize = 20;

/// Every pinned combination: six protocols × five schedules.
pub fn combos() -> Vec<Combo> {
    let schedulers = [
        ("fifo", SchedulerKind::Fifo),
        ("random7", SchedulerKind::Random(7)),
        ("random42", SchedulerKind::Random(42)),
        ("latency7", SchedulerKind::Latency { seed: 7, min: 1, max: 20 }),
        ("latency42", SchedulerKind::Latency { seed: 42, min: 1, max: 20 }),
    ];
    let mut out = Vec::new();
    for protocol in ProtocolKind::all() {
        for (sched_name, scheduler) in &schedulers {
            out.push(Combo {
                protocol,
                scheduler: *scheduler,
                label: format!("{protocol:?}/{sched_name}"),
            });
        }
    }
    out
}

/// The system configuration every combo and parity fixture of `protocol`
/// runs on: MWSR + C2C for Algorithm A, MWMR otherwise.
pub fn combo_config(protocol: ProtocolKind) -> SystemConfig {
    if protocol.needs_c2c() {
        SystemConfig::mwsr(3, 2, true)
    } else {
        SystemConfig::mwmr(3, 2, 2)
    }
}

/// The workload distribution every combo and parity fixture draws from.
fn combo_workload_spec() -> WorkloadSpec {
    WorkloadSpec {
        read_fraction: 0.5,
        objects_per_read: 2,
        objects_per_write: 2,
        zipf_exponent: 0.9,
        seed: 13,
    }
}

/// Runs one combo and renders its history canonically: the full `Debug` form
/// of every record (spec, outcome, timings, rounds, C2C, read
/// instrumentation) plus the final simulation clock.
pub fn run_combo(combo: &Combo) -> String {
    drive_combo(combo, false).0
}

/// [`run_combo`] with observability enabled: the identical workload on an
/// event-recording cluster, returning the canonical history text *plus*
/// the drained virtual-time event stream.  The text must equal
/// [`run_combo`]'s byte for byte — observation must never perturb the
/// schedule — which is exactly what `tests/observability.rs` pins against
/// the golden fixtures for all 30 combos.
pub fn run_combo_observed(combo: &Combo) -> (String, Vec<ShardEvent>) {
    drive_combo(combo, true)
}

fn drive_combo(combo: &Combo, observed: bool) -> (String, Vec<ShardEvent>) {
    let config = combo_config(combo.protocol);
    let mut cluster = ClusterSpec::new(combo.protocol, &config)
        .scheduler(combo.scheduler)
        .observed(observed)
        .build()
        .expect("valid combo config");
    let mut generator = WorkloadGenerator::new(&config, combo_workload_spec());
    let (history, report) =
        WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, COMBO_TXNS);
    assert_eq!(
        report.completed, report.issued,
        "{}: combo workload must fully complete",
        combo.label
    );
    let mut canon = String::new();
    for record in &history.records {
        writeln!(canon, "{record:?}").expect("string write");
    }
    writeln!(canon, "now={}", cluster.now()).expect("string write");
    (canon, cluster.drain_obs_events())
}

/// The deterministic serial transaction plan the parity harness drives
/// under every scheduler: the same generator draw (distribution, seed) as
/// the golden combos, executed one transaction at a time so that
/// per-transaction semantics (values read, keys, tags, rounds, versions,
/// non-blocking verdicts) are schedule-independent and therefore
/// comparable across schedulers.
pub fn parity_plan(protocol: ProtocolKind) -> (SystemConfig, Vec<(ClientId, TxSpec)>) {
    let config = combo_config(protocol);
    let mut generator = WorkloadGenerator::new(&config, combo_workload_spec());
    let plan = (0..COMBO_TXNS)
        .map(|_| {
            let tx = generator.next_tx();
            (tx.client, tx.spec)
        })
        .collect();
    (config, plan)
}

/// A deterministic *concurrent* plan: rounds of transactions from distinct
/// clients that are dispatched together and drained together, so the
/// transactions within a round genuinely overlap.  Unlike [`parity_plan`],
/// per-transaction outcomes are schedule-dependent here — the comparison
/// across schedulers is *serializability-equivalence* (every
/// history satisfies strict serializability, checked by the graph engine),
/// not digest equality.
pub fn concurrent_parity_plan(
    protocol: ProtocolKind,
) -> (SystemConfig, Vec<Vec<(ClientId, TxSpec)>>) {
    let config = combo_config(protocol);
    let mut generator = WorkloadGenerator::new(&config, combo_workload_spec());
    let clients = config.num_readers + config.num_writers;
    let mut batches = Vec::new();
    for _ in 0..8 {
        let mut batch: Vec<(ClientId, TxSpec)> = Vec::new();
        let mut guard = 0;
        while batch.len() < clients as usize && guard < 200 {
            guard += 1;
            let tx = generator.next_tx();
            if batch.iter().all(|(c, _)| *c != tx.client) {
                batch.push((tx.client, tx.spec));
            }
        }
        batches.push(batch);
    }
    (config, batches)
}

/// Runs a concurrent plan: each round is dispatched as one batch at the
/// same instant, then the network drains to quiescence.
pub fn run_concurrent_plan(
    protocol: ProtocolKind,
    config: &SystemConfig,
    scheduler: SchedulerKind,
    batches: &[Vec<(ClientId, TxSpec)>],
) -> History {
    let mut cluster = ClusterSpec::new(protocol, config)
        .scheduler(scheduler)
        .build()
        .expect("valid parity config");
    for batch in batches {
        let now = cluster.now();
        let txs = cluster.invoke_batch(now, batch.clone());
        cluster.run_until_quiescent();
        for tx in txs {
            assert!(cluster.is_complete(tx), "{protocol:?}: concurrent {tx} incomplete");
        }
    }
    cluster.history()
}

/// Runs `plan` serially under `scheduler`: each transaction is invoked
/// alone and the network drains to quiescence before the next, so only the
/// *semantics* of the protocol — not the schedule — determine the history.
/// Panics if any transaction fails to complete.
pub fn run_plan(
    protocol: ProtocolKind,
    config: &SystemConfig,
    scheduler: SchedulerKind,
    plan: &[(ClientId, TxSpec)],
) -> History {
    let mut cluster = ClusterSpec::new(protocol, config)
        .scheduler(scheduler)
        .build()
        .expect("valid parity config");
    for (client, spec) in plan {
        let tx = cluster.invoke_at(cluster.now(), *client, spec.clone());
        cluster.run_until_quiescent();
        assert!(
            cluster.is_complete(tx),
            "{protocol:?}: serial transaction {tx} did not complete"
        );
    }
    cluster.history()
}

fn digest(history: &History, rounds: bool) -> String {
    let mut records: Vec<_> = history.records.iter().collect();
    records.sort_by_key(|r| r.tx_id);
    let mut out = String::new();
    for rec in records {
        let outcome = match &rec.outcome {
            None => "incomplete".to_string(),
            Some(outcome) => match outcome.as_read() {
                Some(read) => {
                    let mut reads = read.reads.clone();
                    reads.sort_by_key(|r| r.object);
                    format!("read tag={:?} {reads:?}", read.tag)
                }
                None => {
                    let write = outcome.as_write().expect("read or write");
                    format!("write key={:?} tag={:?}", write.key, write.tag)
                }
            },
        };
        let mut reads = rec.reads.clone();
        reads.sort_by_key(|r| (r.object, r.server, r.versions_in_response, !r.nonblocking));
        write!(
            out,
            "{} client={} spec={:?} outcome=[{outcome}] c2c={}",
            rec.tx_id, rec.client, rec.spec, rec.c2c_messages
        )
        .expect("string write");
        if rounds {
            writeln!(out, " rounds={} reads={reads:?}", rec.rounds).expect("string write");
        } else {
            // Collapse per-round duplicates (a re-read of the same object at
            // the same server with the same measurement): how *often* a
            // logical-clock protocol re-reads is schedule-dependent, what it
            // observes is not.
            reads.dedup();
            writeln!(out, " reads={reads:?}").expect("string write");
        }
    }
    out
}

/// Renders the timing- and schedule-independent semantics of a history: per
/// transaction (in id order) the client, the spec, the outcome with reads
/// sorted by object, the C2C count and the deduplicated per-read
/// measurement set (object, server, versions, non-blocking).  Two histories
/// with equal digests executed the same transactions to the same values,
/// keys, tags and measurements — regardless of scheduler or clock.  Round
/// counts are deliberately omitted: for logical-clock protocols (Eiger) the
/// *number* of rounds a READ needs depends on clock
/// values and therefore on delivery order, even for a serial plan.
pub fn semantic_digest(history: &History) -> String {
    digest(history, false)
}

/// [`semantic_digest`] plus the per-transaction round counts and the raw
/// (duplicate-preserving) read-measurement list.  Use for protocols whose
/// round structure is schedule-independent (all but Eiger).
pub fn instrumented_digest(history: &History) -> String {
    digest(history, true)
}

/// 64-bit FNV-1a over the canonical text.
pub fn fingerprint(canonical: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Renders the full fixture file: one `label ntx=<n> hash=<hex>` line per
/// combo, sorted by label.
pub fn fixture_file() -> String {
    let mut lines: Vec<String> = combos()
        .iter()
        .map(|combo| {
            let canon = run_combo(combo);
            format!(
                "{} ntx={} hash={:016x}",
                combo.label,
                COMBO_TXNS,
                fingerprint(&canon)
            )
        })
        .collect();
    lines.sort();
    let mut out = String::from(
        "# Golden history fingerprints per (protocol, scheduler, seed).\n\
         # Regenerate: cargo run -p snow-bench --release --bin golden_histories -- --write\n",
    );
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// One pinned (protocol, scheduler, fault scenario) execution.
#[derive(Debug, Clone)]
pub struct FaultCombo {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// The delivery schedule.
    pub scheduler: SchedulerKind,
    /// The named fault scenario (see `snow_protocols::fault_scenarios`).
    pub scenario: &'static str,
    /// Stable identifier used as the fixture key.
    pub label: String,
}

/// The pinned fault matrix: every protocol under the crash and partition
/// scenarios, plus the duplicate-tolerant protocols under the dup storm.
/// Unlike [`combos`], the workload is *not* required to fully complete —
/// transactions orphaned by a crash or a partition retire as
/// `TxOutcome::Aborted`, and the fixture pins that abort pattern too.
pub fn fault_combos() -> Vec<FaultCombo> {
    let mut out = Vec::new();
    for protocol in ProtocolKind::all() {
        for scenario in ["crash_mid_read", "partition_during_write"] {
            out.push(FaultCombo {
                protocol,
                scheduler: SchedulerKind::Fifo,
                scenario,
                label: format!("{protocol:?}/fifo/{scenario}"),
            });
        }
    }
    // Dup storm: at-least-once delivery.  Pin it on the quorum protocols
    // whose handlers are idempotent per tag; a latency schedule besides
    // FIFO so duplicates genuinely race their originals.
    for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Simple] {
        out.push(FaultCombo {
            protocol,
            scheduler: SchedulerKind::Latency { seed: 7, min: 1, max: 20 },
            scenario: "dup_storm",
            label: format!("{protocol:?}/latency7/dup_storm"),
        });
    }
    out
}

/// Resolves a scenario name from [`fault_scenarios`] to its schedule.
pub fn scenario_by_name(name: &str) -> FaultSchedule {
    fault_scenarios()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s)
        .unwrap_or_else(|| panic!("unknown fault scenario {name:?}"))
}

/// Runs the pinned 20-transaction workload under an arbitrary fault
/// schedule and renders the history canonically, exactly like
/// [`run_combo`] — full `Debug` of every record plus the final clock —
/// with one extra trailer line counting aborted transactions.  No
/// completion assert beyond retirement: aborts are the point.
pub fn run_fault_schedule(
    protocol: ProtocolKind,
    scheduler: SchedulerKind,
    schedule: FaultSchedule,
) -> String {
    let config = combo_config(protocol);
    let mut cluster = ClusterSpec::new(protocol, &config)
        .scheduler(scheduler)
        .faults(schedule)
        .build()
        .expect("valid fault combo config");
    let mut generator = WorkloadGenerator::new(&config, combo_workload_spec());
    let (history, report) =
        WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, COMBO_TXNS);
    assert_eq!(
        report.completed, report.issued,
        "{protocol:?}: every transaction must retire (committed or aborted)"
    );
    let aborted = history
        .records
        .iter()
        .filter(|r| r.outcome.as_ref().is_some_and(|o| o.is_aborted()))
        .count();
    let mut canon = String::new();
    for record in &history.records {
        writeln!(canon, "{record:?}").expect("string write");
    }
    writeln!(canon, "now={} aborted={aborted}", cluster.now()).expect("string write");
    canon
}

/// [`run_fault_schedule`] for one pinned fault combo.
pub fn run_fault_combo(combo: &FaultCombo) -> String {
    run_fault_schedule(combo.protocol, combo.scheduler, scenario_by_name(combo.scenario))
}

/// Renders the fault fixture file: one `label ntx=<n> hash=<hex>` line per
/// fault combo, sorted by label — the fault-engine analogue of
/// [`fixture_file`], pinned in `tests/golden_fault_histories.txt`.
pub fn fault_fixture_file() -> String {
    let mut lines: Vec<String> = fault_combos()
        .iter()
        .map(|combo| {
            let canon = run_fault_combo(combo);
            format!(
                "{} ntx={} hash={:016x}",
                combo.label,
                COMBO_TXNS,
                fingerprint(&canon)
            )
        })
        .collect();
    lines.sort();
    let mut out = String::from(
        "# Golden fault-schedule history fingerprints per (protocol, scheduler, scenario).\n\
         # Regenerate: cargo run -p snow-bench --release --bin golden_histories -- --faults --write\n",
    );
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_combos_are_unique_and_cover_every_scenario() {
        let combos = fault_combos();
        assert_eq!(combos.len(), 15);
        let mut labels: Vec<&str> = combos.iter().map(|c| c.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 15, "fault combo labels must be unique");
        for (name, _) in fault_scenarios() {
            assert!(
                combos.iter().any(|c| c.scenario == name),
                "scenario {name} must be pinned by at least one combo"
            );
        }
    }

    #[test]
    fn combos_cover_every_protocol_and_are_unique() {
        let combos = combos();
        assert_eq!(combos.len(), 30);
        let mut labels: Vec<&str> = combos.iter().map(|c| c.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 30, "combo labels must be unique");
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
    }

    #[test]
    fn one_combo_is_reproducible_within_a_process() {
        let combo = &combos()[6]; // AlgB/fifo
        assert_eq!(run_combo(combo), run_combo(combo));
    }
}
