//! Cross-crate property tests: for every protocol that claims strict
//! serializability, random schedules and random workloads never produce a
//! history the checker rejects; and the per-protocol latency signatures
//! (rounds / versions / blocking) match Fig. 1(b).  The golden combos of
//! `snow_bench::golden`, run serially and in full concurrent rounds, add the
//! schedule-independence of each protocol's semantics, and pin Eiger's round
//! counts under two deterministic schedules.

use proptest::prelude::*;
use snow::checker::{HistoryMetrics, SnowChecker, SnowReport, StreamChecker, Verdict};
use snow::core::{History, SystemConfig};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};
use snow_bench::golden::{self, Combo, Shape};

fn run_random(protocol: ProtocolKind, seed: u64, total: usize, read_fraction: f64) -> SnowReport {
    let config = protocol.config(3, 2, 2);
    let mut cluster = ClusterSpec::new(protocol, &config)
        .scheduler(SchedulerKind::Random(seed))
        .build()
        .unwrap();
    let spec = WorkloadSpec {
        read_fraction,
        objects_per_read: 2,
        objects_per_write: 2,
        zipf_exponent: 0.9,
        seed,
    };
    let mut generator = WorkloadGenerator::new(&config, spec);
    let (history, report) =
        WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, total);
    assert_eq!(report.completed, report.issued);
    SnowReport::evaluate(protocol.name(), &history)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn algorithm_a_is_snow_on_random_workloads(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::AlgA, seed, 24, rf);
        prop_assert!(report.is_snow(), "{report}");
    }

    #[test]
    fn algorithm_b_is_snw_one_version_on_random_workloads(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::AlgB, seed, 24, rf);
        prop_assert!(report.is_snw(), "{report}");
        prop_assert!(report.metrics.max_versions() <= 1);
        prop_assert!(report.metrics.max_rounds() <= 2);
    }

    #[test]
    fn algorithm_c_is_snw_and_mostly_one_round(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::AlgC, seed, 24, rf);
        prop_assert!(report.is_snw(), "{report}");
        // One round except for the rare documented fallback race.
        prop_assert!(report.metrics.max_rounds() <= 2);
    }

    #[test]
    fn blocking_baseline_is_strictly_serializable(seed in 0u64..10_000, rf in 0.2f64..0.9) {
        let report = run_random(ProtocolKind::Blocking, seed, 20, rf);
        prop_assert!(report.observed.s, "{report}");
        prop_assert!(report.observed.w, "{report}");
    }
}

#[test]
fn latency_signatures_match_fig1b() {
    // Deterministic single check of the headline signature per protocol.
    for (protocol, max_rounds, max_versions_is_one) in [
        (ProtocolKind::AlgA, 1, true),
        (ProtocolKind::AlgB, 2, true),
        (ProtocolKind::AlgC, 2, false),
    ] {
        let config = protocol.config(4, 3, 2);
        let mut cluster = ClusterSpec::new(protocol, &config)
            .scheduler(SchedulerKind::Latency { seed: 3, min: 1, max: 15 })
            .build()
            .unwrap();
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
        let (history, _) = WorkloadDriver::new(5).run(cluster.as_mut(), &mut generator, 150);
        let metrics = HistoryMetrics::from_history(&history);
        assert!(metrics.max_rounds() <= max_rounds, "{protocol:?}: {}", metrics.max_rounds());
        assert_eq!(
            metrics.max_versions() <= 1,
            max_versions_is_one,
            "{protocol:?}: {}",
            metrics.max_versions()
        );
        let checker = SnowChecker::new();
        assert!(checker.check_non_blocking(&history).holds, "{protocol:?}");
        assert!(checker.check_strict_serializability(&history).holds, "{protocol:?}");
    }
}

#[test]
fn simple_reads_are_fast_but_not_transactional_under_adversity() {
    // Simple grouped reads keep the latency floor but the checker is allowed
    // to find torn snapshots under adversarial schedules; nothing to assert
    // beyond completion here (the torn-read demonstration lives in the
    // protocol's unit tests), but the latency floor must be one round.
    let config = SystemConfig::mwmr(4, 1, 1);
    let mut cluster = ClusterSpec::new(ProtocolKind::Simple, &config)
        .scheduler(SchedulerKind::Random(5))
        .build()
        .unwrap();
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::uniform_read_mostly());
    let (history, _) = WorkloadDriver::new(2).run(cluster.as_mut(), &mut generator, 40);
    let metrics = HistoryMetrics::from_history(&history);
    assert_eq!(metrics.max_rounds(), 1);
    assert!((metrics.nonblocking_fraction - 1.0).abs() < 1e-9);
}

/// A protocol's semantics do not depend on the schedule, with the simulator
/// as its own witness.  For every protocol the golden workload run
/// *serially* yields the same digest under all of its golden schedulers
/// (round counts and raw read measurements included, except for Eiger,
/// whose logical-clock second round is schedule-dependent — pinned
/// separately below); and for the strictly serializable MWMR protocols the
/// same workload in 8 full *concurrent* rounds, whose outcomes legitimately
/// differ per schedule, is certified strictly serializable by the stream
/// checker under each.
#[test]
fn semantics_do_not_depend_on_the_schedule() {
    let mut combos_checked = 0;
    for protocol in ProtocolKind::all() {
        let digest_of: fn(&History) -> String = if protocol == ProtocolKind::Eiger {
            golden::semantic_digest
        } else {
            golden::instrumented_digest
        };
        let mut reference: Option<(String, String)> = None;
        for combo in golden::combos().iter().filter(|c| c.protocol == protocol) {
            let history = serial(combo);
            assert_eq!(history.len(), golden::COMBO_TXNS, "{}", combo.label);
            assert_eq!(history.incomplete_count(), 0, "{}", combo.label);
            let digest = digest_of(&history);
            let (first_label, first_digest) =
                reference.get_or_insert_with(|| (combo.label.clone(), digest.clone()));
            assert_eq!(
                *first_digest, digest,
                "{first_label} and {} disagree on history semantics",
                combo.label
            );
            combos_checked += 1;
        }
    }
    assert_eq!(combos_checked, 30, "every golden combo must be exercised");

    // Concurrent: 8 rounds in which every client invokes at once, so the
    // transactions of a round genuinely overlap.
    for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Blocking] {
        for combo in golden::combos().iter().filter(|c| c.protocol == protocol) {
            let clients = combo.cluster().config().num_clients() as usize;
            let run = combo.run(Shape { clients, transactions: 8 * clients, ..golden::FIXTURE });
            let (history, report) = (run.history, run.report);
            assert_eq!((report.rounds, report.issued), (8, 8 * clients), "{}", combo.label);
            assert_eq!(history.incomplete_count(), 0, "{}", combo.label);
            assert_eq!(history.len(), report.issued, "{}", combo.label);
            let verdict = StreamChecker::check(&history);
            assert!(
                matches!(verdict, Verdict::Serializable(_)),
                "{}: history is not strictly serializable: {verdict:?}",
                combo.label
            );
        }
    }
}

/// `combo`'s workload run serially: each transaction invoked alone and
/// drained to quiescence before the next, so only the *semantics* of the
/// protocol — not the schedule — determine the history.
fn serial(combo: &Combo) -> History {
    combo.run(Shape { clients: 1, ..golden::FIXTURE }).history
}

/// Eiger's round count is exempted from the parity digest
/// ([`golden::semantic_digest`]) because its logical-clock second round is
/// schedule-dependent — which would leave Eiger's round logic with no
/// guard at all.  Pin it under deterministic schedules instead:
/// the serial parity run, on the simulator under FIFO and under one
/// seeded-random schedule, must produce exactly these per-transaction
/// round counts.  A regression in Eiger's second-round trigger (the
/// validity-interval overlap check on clock-valued versions) changes this
/// sequence and fails here, even though the parity digest ignores it.
///
/// The two schedules legitimately disagree (transaction 15 needs a second
/// round under FIFO but not under Random(7)) — that disagreement is *why*
/// rounds are exempt from the digest, and pinning both keeps the
/// schedule-dependence itself visible.
#[test]
fn eiger_round_counts_are_pinned_under_deterministic_schedules() {
    let rounds_under = |label: &str| -> Vec<u32> {
        let combos = golden::combos();
        let combo = combos.iter().find(|c| c.label == label).expect("a golden combo");
        let history = serial(combo);
        let mut records: Vec<_> = history.records.iter().collect();
        records.sort_by_key(|r| r.tx_id);
        records.iter().map(|r| r.rounds).collect()
    };

    let fifo = rounds_under("Eiger/fifo");
    assert_eq!(
        fifo,
        vec![1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1],
        "Eiger round counts changed under the FIFO schedule"
    );

    let random = rounds_under("Eiger/random7");
    assert_eq!(
        random,
        vec![1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        "Eiger round counts changed under the seeded-random schedule"
    );
}
