//! Checker behaviour on fault-laden histories: on runs containing crashes,
//! partitions and duplicated/dropped messages, the streaming engine fed
//! commit by commit must land in the category of an independent engine —
//! the complete search on the 20-transaction golden combos, the tag order
//! on the larger tagged runs — with each category pinned; aborted
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

mod support;

use snow::checker::{check_auto, SearchChecker, SequentialOt, SnowChecker, StreamChecker, Verdict};
use snow::core::{
    ClientId, History, Key, ObjectId, ObjectRead, ReadOutcome, SystemConfig, TxId, TxOutcome,
    TxRecord, TxSpec, Value, WriteOutcome,
};
use snow_bench::golden;
use snow_protocols::{
    scenario_crash_mid_read, scenario_dup_storm, ClusterSpec, ProtocolKind, SchedulerKind,
};
use snow_sim::{EndpointSel, FaultAction, FaultRegion, FaultSchedule, Topology};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};
use std::sync::Arc;
use support::lemma20::TagOrderChecker;

/// The pinned fault combos under `crash_mid_read`: every protocol, FIFO.
fn crash_combos() -> impl Iterator<Item = golden::Combo> {
    let crash = Some(scenario_crash_mid_read());
    golden::fault_combos().into_iter().filter(move |c| c.faults == crash)
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

/// Every golden fault combo is a 20-transaction history, inside the
/// complete search's reach, so `SearchChecker` decides each one
/// independently of the precedence-graph engine this test was named for.
/// The categories are pinned: Eiger and Simple under `crash_mid_read` and
/// Simple under the dup storm are convicted, everything else is certified.
/// `check_auto` (the tag order on the tagged family, the stream engine
/// elsewhere) and the stream engine fed commit by commit must land in the
/// search's category.
#[test]
fn graph_and_stream_agree_on_every_fault_combo() {
    const CONVICTED: [&str; 3] =
        ["Eiger/fifo/crash_mid_read", "Simple/fifo/crash_mid_read", "Simple/latency7/dup_storm"];
    let mut total_aborted = 0usize;
    for combo in golden::fault_combos() {
        let history = combo.run(golden::FIXTURE).history;
        total_aborted += aborted_count(&history);
        let search = SearchChecker::with_max_transactions(golden::COMBO_TXNS).check(&history);
        let label = &combo.label;
        if CONVICTED.contains(&label.as_str()) {
            assert!(search.is_violation(), "{label}: complete search: {search:?}");
            assert!(check_auto(&history).is_violation(), "{label}: check_auto");
        } else {
            assert!(search.is_serializable(), "{label}: complete search: {search:?}");
            assert!(check_auto(&history).is_serializable(), "{label}: check_auto");
        }
        assert_stream_agrees(&history, search, label);
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
/// exactly 14 as orphans, and the tag order and the stream engine agree on
/// what is left: it is certified, pinned.  (At 10 000 transactions the
/// benchmark's fault phase is a conviction instead —
/// `the_benchmarks_fault_phase_gets_one_verdict_from_both_engines`,
/// ROADMAP item 1.)
#[test]
fn one_percent_drop_everywhere_aborts_fourteen_of_300_and_the_engines_agree() {
    let config = SystemConfig::mwmr(4, 4, 4);
    let lossy = FaultSchedule::new(0x5EED).with_region(everywhere(FaultAction::Drop, 1));
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .faults(lossy)
        .build()
        .expect("valid lossy schedule");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (history, report) = WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, 300);
    assert_eq!((report.issued, report.completed), (300, 300));
    assert_eq!((history.incomplete_count(), aborted_count(&history)), (0, 14));
    assert_certified(&history, "1% drop");
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
        let mut cluster = ClusterSpec::new(protocol, &config)
            .scheduler(SchedulerKind::Latency { seed: 7, min: 1, max: 20 })
            .max_steps(u64::MAX)
            .trace_capacity(Some(4096))
            .faults(scenario_dup_storm())
            .build()
            .expect("valid dup-storm spec");
        let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::tao_like());
        let (history, report) = WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 200);
        assert_eq!(report.completed, 200, "{protocol:?}");
        assert!(history.reads().count() > 100, "{protocol:?}: tao_like is read-dominated");
        let flagged = history.reads().filter(|r| !r.all_reads_nonblocking()).count();
        assert_eq!(flagged, 0, "{protocol:?}: READs with a blocking ReadResult");
        assert!(SnowChecker::new().check_non_blocking(&history).holds, "{protocol:?}");
    }
}

#[test]
fn crash_mid_read_never_wedges_the_frontier_or_fakes_serializable() {
    for combo in crash_combos() {
        // The runner asserts that every transaction retired.
        let (protocol, history) = (combo.protocol, combo.run(golden::FIXTURE).history);
        // The complete search decides these 20 transactions: Eiger and
        // Simple are convicted, the other four certified.
        let search = SearchChecker::with_max_transactions(golden::COMBO_TXNS).check(&history);
        let convicted = matches!(protocol, ProtocolKind::Eiger | ProtocolKind::Simple);
        assert_eq!(search.is_violation(), convicted, "{protocol:?}: {search:?}");
        assert_eq!(search.is_serializable(), !convicted, "{protocol:?}: {search:?}");
        let mut checker = StreamChecker::new();
        checker.feed_history(&history);
        let stream = checker.finish();
        // No false certificates and no missed ones: the stream lands in the
        // search's category, and a certificate carries a replayable witness
        // and a fully retired frontier even with aborted transactions in
        // the feed.
        assert_eq!(stream.is_violation(), convicted, "{protocol:?}: stream {stream:?}");
        if let Verdict::Serializable(order) = &stream {
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

    assert!(check_auto(&h).is_violation(), "check_auto must convict the stale read");
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
    let config = protocol.config(3, 2, 2);
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
    let paced = [ProtocolKind::AlgB, ProtocolKind::Simple];
    for combo in crash_combos().filter(|c| paced.contains(&c.protocol)) {
        let protocol = combo.protocol;
        let spec = combo.cluster();
        let mut generator = WorkloadGenerator::new(spec.config(), golden::COMBO_WORKLOAD);
        let mut cluster = spec.build().expect("valid crash scenario");
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

// ---- expected verdicts under at-least-once delivery ------------------------
//
// The fault contract's first row (ARCHITECTURE.md, "Fault model"): among
// committed transactions Algorithms A, B and C keep S under duplication.
// These are the fault suites' only tests of an *expected* verdict — the rest
// assert that two engines agree, which they also do when both are wrong.

const FAMILY: [ProtocolKind; 3] = [ProtocolKind::AlgA, ProtocolKind::AlgB, ProtocolKind::AlgC];

/// `chance_pct` % of the messages of every link, for the whole run.
fn everywhere(action: FaultAction, chance_pct: u8) -> FaultRegion {
    FaultRegion {
        chance_pct,
        ..FaultRegion::always(action, EndpointSel::Any, EndpointSel::Any, 0, u64::MAX)
    }
}

/// `transactions` of the write-heavy mix through AlgB on the three-site WAN
/// in rounds of 8 — the repo benchmark's `closed-b-wan3` and the shape of
/// its fault phase — under `faults`.
fn algb_on_the_wan(faults: FaultSchedule, transactions: usize) -> History {
    let config = SystemConfig::mwmr(8, 4, 4);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgB, &config)
        .topology(Arc::new(Topology::wan3(&config)), 7)
        .max_steps(u64::MAX)
        .faults(faults)
        .build()
        .expect("valid fault schedule");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (history, report) =
        WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, transactions);
    assert_eq!(report.completed, transactions);
    history
}

/// The tag order certifies `history`, so `check_auto` returns its verdict,
/// and the streaming engine, deciding semantically, certifies it too.
/// `Unknown` is a failure.
fn assert_certified(history: &History, label: &str) {
    let tags = TagOrderChecker::new().check(history);
    assert!(tags.is_serializable(), "{label}: tag order answered {tags:?}");
    let posthoc = check_auto(history);
    assert_eq!(posthoc, tags, "{label}: check_auto");
    assert_stream_agrees(history, posthoc, label);
}

/// The tag order convicts `history`, `check_auto` confirms the conviction
/// (through the stream engine), and the streaming engine fed commit by
/// commit convicts at a commit it names.
fn assert_convicted(history: &History, label: &str) {
    let tags = TagOrderChecker::new().check(history);
    assert!(tags.is_violation(), "{label}: tag order answered {tags:?}");
    let posthoc = check_auto(history);
    assert!(posthoc.is_violation(), "{label}: check_auto answered {posthoc:?}");
    assert_stream_agrees(history, posthoc, label);
}

/// Tiny histories, every one decided by the *complete* search: 14
/// transactions over two objects with every fifth message delivered twice.
/// A duplicated `get-tag-arr` used to hand the reader a second tag array
/// and a duplicated `update-coor` / `info-reader` a second `List` entry;
/// either breaks S (AlgB: 41 of the first 3 000 seeds, 7, 38 and 105 among
/// these) and the tag order (one seed in five, all three algorithms).
#[test]
fn tiny_histories_under_heavy_duplication_are_strictly_serializable() {
    for protocol in FAMILY {
        let config = protocol.config(2, 3, 3);
        for seed in 0..120 {
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Latency { seed, min: 1, max: 60 })
                .faults(FaultSchedule::new(seed).with_region(everywhere(FaultAction::Duplicate, 20)))
                .build()
                .expect("valid duplication schedule");
            let spec = WorkloadSpec { seed, ..WorkloadSpec::write_heavy() };
            let mut generator = WorkloadGenerator::new(&config, spec);
            let (history, _) = WorkloadDriver::new(6).run(cluster.as_mut(), &mut generator, 14);
            let label = format!("{protocol:?} seed {seed}");
            let search = SearchChecker::with_max_transactions(20).check(&history);
            assert!(search.is_serializable(), "{label}: complete search: {search:?}");
            let tags = TagOrderChecker::new().check(&history);
            assert!(tags.is_serializable(), "{label}: tag order: {tags:?}");
        }
    }
}

/// 2 000 transactions under the dup storm: certified, where `check_auto`
/// used to answer `Unknown` on every seed (a tag-order conviction too large
/// for the search to overrule) and the stream engine convicted AlgB on one
/// seed in seven (3 of seeds 0–19, seed 5 first; all 20 are certified now).
#[test]
fn the_dup_storm_leaves_a_b_and_c_certified_serializable() {
    for protocol in FAMILY {
        let config = protocol.config(8, 2, 2);
        for seed in 0..4 {
            let mut cluster = ClusterSpec::new(protocol, &config)
                .scheduler(SchedulerKind::Latency { seed, min: 1, max: 20 })
                .max_steps(u64::MAX)
                .faults(scenario_dup_storm())
                .build()
                .expect("valid dup-storm spec");
            let spec = WorkloadSpec { seed, ..WorkloadSpec::write_heavy() };
            let mut generator = WorkloadGenerator::new(&config, spec);
            let (history, _) = WorkloadDriver::new(4).run(cluster.as_mut(), &mut generator, 2_000);
            assert_certified(&history, &format!("{protocol:?} seed {seed}"));
        }
    }
}

/// 1 % of every link's messages duplicated, 10 000 transactions: certified.
/// (The graph engine used to answer `Unknown` here and the stream engine
/// `Serializable` — the disagreement half of ROADMAP item 1(b).)
#[test]
fn one_percent_duplication_on_the_wan_leaves_algb_certified_serializable() {
    let faults = FaultSchedule::new(7).with_region(everywhere(FaultAction::Duplicate, 1));
    assert_certified(&algb_on_the_wan(faults, 10_000), "AlgB/wan3/1% dup");
}

/// The benchmark's fault phase — 1 % drop and 1 % duplication on every
/// link — pinned by category: the tag order and the stream engine both
/// convict.  Every conviction contains a READ of a WRITE that registered
/// and was then retired `Aborted` because its ack was dropped — ROADMAP
/// item 1's open half.  Item 1's re-encoding alone (each orphaned WRITE
/// an incomplete write with its key) moves this pin to `Unknown`, not to
/// `Serializable`: its 293 orphaned WRITEs leave thousands of concurrent
/// untagged writes on one object, past the window solver's cap of 24.  It
/// moves to `Serializable` only with a version order for the orphans
/// (item 22's hints, or item 18).  (The benchmark's
/// `sim.fault.checkers_agree` now compares the stream engine with itself:
/// its graph side forwards to the stream.)
#[test]
fn the_benchmarks_fault_phase_gets_one_verdict_from_both_engines() {
    let faults = FaultSchedule::new(7)
        .with_region(everywhere(FaultAction::Drop, 1))
        .with_region(everywhere(FaultAction::Duplicate, 1));
    let history = algb_on_the_wan(faults, 10_000);
    assert!(aborted_count(&history) > 0, "a lossy run orphans something");
    assert_convicted(&history, "AlgB/wan3/drop+dup");
}
