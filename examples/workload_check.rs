//! Full-history verification: drive a mixed workload against Algorithm C
//! under an adversarially random schedule, then hand the *entire* history
//! — not a sample — to the strict-serializability checker.
//!
//! `check_auto` picks the engine by history shape: Algorithm C tags every
//! transaction, so small runs go through the Lemma 20 tag-order checker
//! and large runs through the graph engine, which builds a precedence DAG
//! (real time + write/read dependencies + inferred anti-dependencies) and
//! replay-validates a topological serialization witness.
//!
//! Run with: `cargo run --example workload_check`

use snow::checker::{check_auto, SnowReport, Verdict};
use snow::core::SystemConfig;
use snow::protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow::workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

fn main() {
    let config = SystemConfig::mwmr(8, 4, 4);
    let mut cluster = ClusterSpec::new(ProtocolKind::AlgC, &config)
        .scheduler(SchedulerKind::Latency { seed: 7, min: 1, max: 25 })
        .max_steps(u64::MAX)
        .build()
        .unwrap();
    let mut generator = WorkloadGenerator::new(&config, WorkloadSpec::write_heavy());

    let total = 5_000;
    let (history, report) =
        WorkloadDriver::new(8).run(cluster.as_mut(), &mut generator, total);
    println!(
        "drove {} transactions in {} rounds ({} simulated ticks)",
        report.completed, report.rounds, report.duration
    );

    match check_auto(&history) {
        Verdict::Serializable(witness) => println!(
            "strictly serializable: replay-validated witness over {} transactions",
            witness.len()
        ),
        Verdict::NotSerializable(why) => panic!("Algorithm C violated S: {why}"),
        Verdict::Unknown(why) => panic!("checker could not decide: {why}"),
    }

    // The SNOW report uses the same engine selection for its S verdict.
    let report = SnowReport::evaluate("workload_check / Algorithm C", &history);
    println!("{}", report.summary_line());
    assert!(report.is_snw(), "Algorithm C guarantees S, N and W");
}
