//! Checker behaviour on fault-laden histories: the graph engine
//! (`check_auto`) and the streaming engine must agree on runs containing
//! crashes, partitions and duplicated/dropped messages; aborted
//! transactions must neither wedge the streaming frontier nor smuggle a
//! false `Serializable`; and a genuinely violating injection on a
//! fault-laden history must still be convicted at the offending commit.
//!
//! Also hosts the regression tests for the N verdict under duplication
//! and for the "every INV gets a RESP"
//! assumption: before the fault engine retired orphans as
//! `TxOutcome::Aborted`, a transaction whose messages all died would leave
//! `run_until_complete` reporting failure forever and the paced driver
//! stalling mid-workload.

use snow::checker::{
    check_auto, GraphChecker, SequentialOt, SnowChecker, StreamChecker, Verdict,
};
use snow::core::{
    ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, SystemConfig, TxId, TxOutcome,
    TxRecord, TxSpec, Value, WriteOutcome,
};
use snow_bench::golden;
use snow_protocols::{
    scenario_crash_mid_read, scenario_dup_storm, ClusterSpec, ExecutorKind, ProtocolKind,
    SchedulerKind,
};
use snow_sim::{EndpointSel, FaultAction, FaultRegion, FaultSchedule};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

fn fault_workload_spec() -> WorkloadSpec {
    WorkloadSpec {
        read_fraction: 0.5,
        objects_per_read: 2,
        objects_per_write: 2,
        zipf_exponent: 0.9,
        seed: 13,
    }
}

fn run_fault_combo_history(combo: &golden::FaultCombo, executor: ExecutorKind) -> History {
    let config = golden::combo_config(combo.protocol);
    let mut cluster = ClusterSpec::new(combo.protocol, &config)
        .scheduler(combo.scheduler)
        .executor(executor)
        .faults(golden::scenario_by_name(combo.scenario))
        .build()
        .expect("valid fault combo");
    let mut generator = WorkloadGenerator::new(&config, fault_workload_spec());
    let (history, _) =
        WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, golden::COMBO_TXNS);
    history
}

/// Replays a stream witness through the sequential object machine and
/// checks every committed (non-aborted) transaction is scheduled.  Aborted
/// transactions are constraint-free: the witness may place them anywhere
/// or omit them.
fn assert_witness_replays(history: &History, order: &[TxId]) {
    let mut ot = SequentialOt::new();
    for tx in order {
        ot.apply(history.get(*tx).expect("witness transaction exists"))
            .unwrap_or_else(|o| panic!("stream witness fails replay at {tx} on {o}"));
    }
    for rec in history.completed() {
        if rec.outcome.as_ref().is_some_and(|o| o.is_aborted()) {
            continue;
        }
        assert!(
            order.contains(&rec.tx_id),
            "committed {} missing from stream witness",
            rec.tx_id
        );
    }
}

/// The streaming engine's verdict on `history` must fall in `posthoc`'s
/// category: a certificate replays and leaves no live window, a conviction
/// names its commit.
fn assert_stream_agrees(history: &History, posthoc: Verdict, label: &str) {
    let mut checker = StreamChecker::new();
    checker.feed_history(history);
    let stream = checker.finish();
    match (&posthoc, &stream) {
        (Verdict::Serializable(_), Verdict::Serializable(order)) => {
            assert_witness_replays(history, order);
            assert_eq!(
                checker.live_window(),
                0,
                "{label}: frontier wedged on a certified fault run"
            );
        }
        (Verdict::NotSerializable(_), Verdict::NotSerializable(_)) => {
            assert!(checker.offending_index().is_some(), "{label}");
        }
        (Verdict::Unknown(_), Verdict::Unknown(_)) => {}
        (p, s) => panic!("{label}: post-hoc {p:?} vs stream {s:?}"),
    }
}

fn aborted_count(history: &History) -> usize {
    history
        .records
        .iter()
        .filter(|r| r.outcome.as_ref().is_some_and(|o| o.is_aborted()))
        .count()
}

#[test]
fn graph_and_stream_agree_on_every_fault_combo() {
    let mut total_aborted = 0usize;
    for combo in golden::fault_combos() {
        let history = run_fault_combo_history(&combo, ExecutorKind::SerialSim);
        total_aborted += aborted_count(&history);
        assert_stream_agrees(&history, check_auto(&history), &combo.label);
    }
    // The matrix must actually exercise the abort path, or this test
    // silently degenerates into the clean differential.
    assert!(
        total_aborted > 0,
        "fault matrix produced no aborted transactions"
    );
}

/// No golden fault combo drops messages (they crash, partition and
/// duplicate).  300 write-heavy transactions through AlgB with every link
/// losing 1 % of its messages, for all time: every transaction retires,
/// exactly 14 as orphans, and the graph and stream engines agree on what is
/// left.  (They stop agreeing on a 10 000-transaction faulty history —
/// ROADMAP item 1(b); this is the agreeing side, small enough to grow from.)
#[test]
fn one_percent_drop_everywhere_aborts_fourteen_of_300_and_the_engines_agree() {
    let config = SystemConfig::mwmr(4, 4, 4);
    let lossy = FaultSchedule::new(0x5EED).with_region(FaultRegion {
        chance_pct: 1,
        ..FaultRegion::always(FaultAction::Drop, EndpointSel::Any, EndpointSel::Any, 0, u64::MAX)
    });
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .faults(lossy)
        .build()
        .expect("valid lossy schedule");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (history, report) = WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, 300);
    assert_eq!((report.issued, report.completed), (300, 300));
    assert_eq!((history.incomplete_count(), aborted_count(&history)), (0, 14));
    assert_stream_agrees(&history, GraphChecker::new().check(&history), "1% drop");
}

/// The paper proves Algorithms B and C non-blocking, and a duplicated
/// request does not change that: its second answer reaches a READ that has
/// already responded, and a response delivered after the RESP is not
/// instrumentation.  The spec is built the way the repo benchmark builds
/// its fault phase, the identity `trace_capacity` included.
#[test]
fn duplicated_requests_never_cost_a_read_its_n_verdict() {
    let config = SystemConfig::mwmr(8, 2, 2);
    for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Simple] {
        for executor in [ExecutorKind::SerialSim, ExecutorKind::ParallelSim { shards: 4 }] {
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Latency { seed: 7, min: 1, max: 20 })
                .executor(executor)
                .max_steps(u64::MAX)
                .trace_capacity(Some(4096))
                .faults(scenario_dup_storm())
                .build()
                .expect("valid dup-storm spec");
            let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::tao_like());
            let (history, report) =
                WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 200);
            let label = format!("{protocol:?}/{executor:?}");
            assert_eq!(report.completed, 200, "{label}");
            assert!(history.reads().count() > 100, "{label}: tao_like is read-dominated");
            let flagged = history.reads().filter(|r| !r.all_reads_nonblocking()).count();
            assert_eq!(flagged, 0, "{label}: READs with a blocking ReadResult");
            assert!(SnowChecker::new().check_non_blocking(&history).holds, "{label}");
        }
    }
}

#[test]
fn crash_mid_read_never_wedges_the_frontier_or_fakes_serializable() {
    for protocol in ProtocolKind::all() {
        let config = golden::combo_config(protocol);
        let mut cluster = ClusterSpec::new(protocol, &config)
            .faults(scenario_crash_mid_read())
            .build()
            .expect("valid crash scenario");
        let mut generator = WorkloadGenerator::new(&config, fault_workload_spec());
        let (history, report) =
            WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, golden::COMBO_TXNS);
        assert_eq!(
            report.completed, report.issued,
            "{protocol:?}: crash-mid-read left unretired transactions"
        );
        let posthoc = check_auto(&history);
        let mut checker = StreamChecker::new();
        checker.feed_history(&history);
        let stream = checker.finish();
        // No false certificates: a Serializable stream verdict must carry a
        // replayable witness and a fully retired frontier even with aborted
        // transactions in the feed.
        if let Verdict::Serializable(order) = &stream {
            assert!(
                posthoc.is_serializable(),
                "{protocol:?}: stream certified what the graph engine rejects: {posthoc:?}"
            );
            assert_witness_replays(&history, order);
            assert_eq!(checker.live_window(), 0, "{protocol:?}: frontier wedged");
        }
        // Aborts are in-flight-bounded, so the frontier stays O(window):
        // the workload keeps ≤ 4 transactions live and the crash adds at
        // most that many orphans per round.
        assert!(
            checker.peak_live_window() <= 64,
            "{protocol:?}: peak live window {} not bounded under aborts",
            checker.peak_live_window()
        );
    }
}

/// The commit position (RESP order, ties by id — the stream's feed order)
/// of `tx` in `history`.
fn commit_index(history: &History, tx: TxId) -> usize {
    let mut committed: Vec<&TxRecord> = history.completed().collect();
    committed.sort_by_key(|r| (r.responded_at.unwrap_or(u64::MAX), r.tx_id.0));
    committed
        .iter()
        .position(|r| r.tx_id == tx)
        .expect("committed transaction")
}

#[test]
fn violating_injection_on_fault_laden_history_convicts_at_the_offending_commit() {
    // A hand-built fault-laden fragment: one committed write, two aborted
    // orphans (one read, one write), and a stale READ that commits after
    // the write completed yet observes the initial version — a real-time
    // violation no abort noise may excuse.
    let client_w = ClientId(100);
    let client_r = ClientId(0);
    let object = ObjectId(0);
    let k1 = Key::new(1, client_w);
    let mut h = History::new();

    let mut w1 = TxRecord::invoked(TxId(1), client_w, TxSpec::write(vec![(object, Value(7))]), 10);
    w1.outcome = Some(TxOutcome::Write(WriteOutcome { key: k1, tag: None }));
    w1.responded_at = Some(20);
    h.push(w1);

    let mut a1 = TxRecord::invoked(TxId(2), client_r, TxSpec::read(vec![object]), 12);
    a1.outcome = Some(TxOutcome::Aborted);
    a1.responded_at = Some(15);
    h.push(a1);

    let mut a2 = TxRecord::invoked(TxId(3), ClientId(101), TxSpec::write(vec![(object, Value(9))]), 35);
    a2.outcome = Some(TxOutcome::Aborted);
    a2.responded_at = Some(38);
    h.push(a2);

    let mut r1 = TxRecord::invoked(TxId(4), client_r, TxSpec::read(vec![object]), 30);
    r1.outcome = Some(TxOutcome::Read(ReadOutcome {
        reads: vec![ObjectRead { object, key: Key::initial(), value: Value(0) }],
        tag: None,
    }));
    r1.responded_at = Some(40);
    h.push(r1);

    assert!(check_auto(&h).is_violation(), "graph engine must convict the stale read");
    let mut checker = StreamChecker::new();
    checker.feed_history(&h);
    let verdict = checker.finish();
    assert!(verdict.is_violation(), "stream must convict: {verdict:?}");
    assert_eq!(
        checker.offending_index(),
        Some(commit_index(&h, TxId(4))),
        "conviction must land on the stale READ's commit, not at finish"
    );
}

#[test]
fn orphaned_transaction_retires_as_aborted() {
    // Regression for the latent "every INV gets a RESP" assumption.  A
    // region dropping *all* client→server traffic orphans every
    // transaction; before the fault engine's retirement rule,
    // `run_until_complete` returned `false` here forever (the record stayed
    // incomplete at quiescence) and callers looped or asserted.
    let protocol = ProtocolKind::AlgB;
    let config = golden::combo_config(protocol);
    let black_hole = FaultSchedule::new(1).with_region(FaultRegion::always(
        FaultAction::Drop,
        EndpointSel::AnyClient,
        EndpointSel::AnyServer,
        0,
        u64::MAX,
    ));
    let mut cluster = ClusterSpec::new(protocol, &config)
        .faults(black_hole)
        .build()
        .expect("valid black-hole schedule");
    let reader = config.readers().next().expect("config has a reader");
    let tx = cluster.invoke_at(0, reader, TxSpec::read(vec![ObjectId(0)]));
    assert!(
        cluster.run_until_complete(tx),
        "orphaned transaction must retire instead of staying incomplete"
    );
    let history = cluster.history();
    let rec = history.get(tx).expect("record exists");
    assert!(
        rec.outcome.as_ref().is_some_and(|o| o.is_aborted()),
        "orphan must retire as Aborted, got {:?}",
        rec.outcome
    );
    assert!(rec.responded_at.is_some(), "aborted record must carry a RESP time");
}

#[test]
fn paced_driver_survives_a_crash_without_stalling() {
    // Driver-level half of the regression: `run_paced` frees a client only
    // when its transaction completes, so pre-retirement a crash-orphaned
    // transaction stalled the wave loop and the run ended with
    // `issued < total`.  With aborts retiring at quiescence the full
    // workload must always be issued and retired.
    for protocol in [ProtocolKind::AlgB, ProtocolKind::Simple] {
        let config = golden::combo_config(protocol);
        let mut cluster = ClusterSpec::new(protocol, &config)
            .faults(scenario_crash_mid_read())
            .build()
            .expect("valid crash scenario");
        let mut generator = WorkloadGenerator::new(&config, fault_workload_spec());
        let total = golden::COMBO_TXNS;
        let (_, report) =
            WorkloadDriver::new(4).run_paced(cluster.as_mut(), &mut generator, total);
        assert_eq!(report.issued, total, "{protocol:?}: paced driver stalled mid-workload");
        assert_eq!(
            report.completed, report.issued,
            "{protocol:?}: paced driver left unretired transactions"
        );
    }
}
