//! `check_auto`'s verdicts on workload histories no tag order can decide:
//! untagged protocols (Eiger, Blocking, Simple) and tagged ones with their
//! tags stripped, at 2 000 and 5 000 transactions.  The semantic engine
//! behind `check_auto` is the stream engine, which decides each of these
//! in milliseconds; the whole-history graph engine it replaced answered
//! `Unknown` on all of them after seconds of constraint splitting.
//!
//! Each test pins the verdict's category, a conviction's commit and a
//! certificate's replay — never wall time.  The shape is the round driver's
//! write-heavy mix on `mwmr(8, 4, 4)` in rounds of 8 under
//! `Latency { seed: 11, min: 1, max: 16 }`, the one
//! `tests/stream_hot_path.rs` pins the live window on.

#[path = "support/alloc.rs"]
mod alloc;

use snow::checker::{check_auto, SequentialOt, StreamChecker, Verdict};
use snow::core::{History, SystemConfig, TxOutcome};
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{
    drive_open_loop, OpenLoopSpec, WorkloadDriver, WorkloadGenerator, WorkloadSpec,
};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `transactions` of the write-heavy mix through `protocol`, closed loop in
/// rounds of 8.
fn round_driver_history(protocol: ProtocolKind, transactions: usize) -> History {
    let config = SystemConfig::mwmr(8, 4, 4);
    let mut cluster = ClusterSpec::new(protocol, &config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .max_steps(u64::MAX)
        .build()
        .expect("MWMR configuration");
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());
    let (history, report) =
        WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, transactions);
    assert_eq!((report.issued, report.completed), (transactions, transactions));
    history
}

/// `history` with every tag removed, so no tag order can decide it and no
/// version order is read off tags.
fn strip_tags(history: History) -> History {
    let mut records = Vec::from(history);
    for rec in &mut records {
        match rec.outcome.as_mut() {
            Some(TxOutcome::Write(w)) => w.tag = None,
            Some(TxOutcome::Read(r)) => r.tag = None,
            _ => {}
        }
    }
    History::from(records)
}

/// `check_auto` certifies `history`, and its witness places every
/// completed transaction and replays against the sequential semantics.
fn assert_certified(history: &History, label: &str) {
    let verdict = check_auto(history);
    let Verdict::Serializable(order) = &verdict else {
        panic!("{label}: check_auto answered {verdict:?}");
    };
    let mut ot = SequentialOt::new();
    for tx in order {
        ot.apply(history.get(*tx).expect("witness transaction exists"))
            .unwrap_or_else(|o| panic!("{label}: witness fails replay at {tx} on {o}"));
    }
    assert_eq!(order.len(), history.completed().count(), "{label}: witness size");
}

/// `check_auto` convicts `history` at commit `commit` (0-based, in RESP
/// order), and names that commit.
fn assert_convicted_at(history: &History, commit: usize, label: &str) {
    let verdict = check_auto(history);
    let Verdict::NotSerializable(why) = &verdict else {
        panic!("{label}: check_auto answered {verdict:?}");
    };
    assert!(why.contains(&format!("(commit #{commit})")), "{label}: {why}");
    let mut stream = StreamChecker::new();
    stream.feed_history(history);
    assert!(stream.finish().is_violation(), "{label}");
    assert_eq!(stream.offending_index(), Some(commit), "{label}");
}

#[test]
fn check_auto_certifies_algb_with_its_tags_stripped_at_2000() {
    let history = strip_tags(round_driver_history(ProtocolKind::AlgB, 2_000));
    assert_certified(&history, "AlgB, tags stripped, 2 000");
}

#[test]
fn check_auto_certifies_algb_with_its_tags_stripped_at_5000() {
    let history = strip_tags(round_driver_history(ProtocolKind::AlgB, 5_000));
    assert_certified(&history, "AlgB, tags stripped, 5 000");
}

#[test]
fn check_auto_convicts_eiger_at_2000() {
    let history = round_driver_history(ProtocolKind::Eiger, 2_000);
    assert_convicted_at(&history, 12, "Eiger, 2 000");
}

#[test]
fn check_auto_certifies_blocking_at_2000() {
    let history = round_driver_history(ProtocolKind::Blocking, 2_000);
    assert_certified(&history, "Blocking, 2 000");
}

#[test]
fn check_auto_convicts_simple_at_2000() {
    let history = round_driver_history(ProtocolKind::Simple, 2_000);
    assert_convicted_at(&history, 147, "Simple, 2 000");
}

/// The AlgC open loop of `tests/stream_hot_path.rs` (`open-c-read`'s shape
/// at 5 000 arrivals, the history on which the stream engine once panicked
/// with "live slot"), with its tags stripped.
#[test]
fn check_auto_certifies_the_algc_open_loop_with_its_tags_stripped() {
    let config = SystemConfig::mwmr(8, 2, 6);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
        .scheduler(SchedulerKind::Latency { seed: 32, min: 1, max: 16 })
        .max_steps(u64::MAX)
        .build()
        .expect("AlgC runs on MWMR configurations");
    let workload = WorkloadSpec {
        read_fraction: 0.96,
        objects_per_read: 4,
        objects_per_write: 2,
        zipf_exponent: 0.99,
        seed: 224,
    };
    let spec = OpenLoopSpec { workload, rate: 50, arrivals: 5_000, arrival_seed: 416 };
    let (history, report) = drive_open_loop(cluster.as_mut(), &config, &spec);
    assert_eq!(report.completed, 5_000);
    assert_certified(&strip_tags(history), "AlgC open loop, tags stripped");
}

/// On an untagged history `check_auto`'s stream stops at the first commit
/// and hands the history to the stream engine, with the commit list it
/// built: one build and sort of that list, as `StreamChecker::check`
/// makes, so the two allocate alike — the same count and the same peak.
#[test]
fn check_auto_on_an_untagged_history_allocates_what_the_stream_engine_does() {
    let history = strip_tags(round_driver_history(ProtocolKind::AlgB, 1_000));
    let (auto, auto_counts) = alloc::counted(|| check_auto(&history));
    let (engine, engine_counts) = alloc::counted(|| StreamChecker::check(&history));
    assert_eq!(auto, engine);
    assert_eq!(
        (auto_counts.allocs, auto_counts.peak),
        (engine_counts.allocs, engine_counts.peak),
        "check_auto over StreamChecker::check"
    );
}
