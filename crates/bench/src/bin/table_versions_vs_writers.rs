//! Extended study E9: Algorithm C's versions-per-response versus the number
//! of concurrent writers |W|, compared against Algorithm B's constant 1.

use snow_bench::{header, row};
use snow_checker::HistoryMetrics;
use snow_core::SystemConfig;
use snow_protocols::{ClusterSpec, ProtocolKind, SchedulerKind};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

fn run(protocol: ProtocolKind, writers: u32) -> HistoryMetrics {
    let config = SystemConfig::mwmr(2, writers, 1);
    let mut cluster = ClusterSpec::new(protocol, &config)
        .scheduler(SchedulerKind::Latency { seed: 9, min: 1, max: 30 })
        .build()
        .unwrap();
    let spec = WorkloadSpec {
        read_fraction: 0.0,
        objects_per_read: 2,
        objects_per_write: 2,
        zipf_exponent: 0.0,
        seed: 5,
    };
    let mut generator = WorkloadGenerator::new(&config, spec);
    let (history, _) = WorkloadDriver::new(writers as usize + 1).run_read_probe(
        cluster.as_mut(),
        &mut generator,
        20,
        writers as usize,
    );
    HistoryMetrics::from_history(&history)
}

fn main() {
    println!("# E9 — versions returned per READ vs concurrent writers |W|\n");
    println!(
        "{}",
        header(&["|W| (writers)", "Alg C versions (mean)", "Alg C versions (max)", "Alg B versions (max)", "Alg C rounds (max)", "Alg B rounds (max)"])
    );
    for writers in [1u32, 2, 4, 8, 16] {
        let c = run(ProtocolKind::AlgC, writers);
        let b = run(ProtocolKind::AlgB, writers);
        println!(
            "{}",
            row(&[
                writers.to_string(),
                format!("{:.2}", c.mean_versions),
                c.max_versions().to_string(),
                b.max_versions().to_string(),
                c.max_rounds().to_string(),
                b.max_rounds().to_string(),
            ])
        );
    }
    println!("\nExpected shape: Alg C's versions grow with the write history (bounded by registered writes + 1),");
    println!("Alg B stays at exactly 1 version but always pays 2 rounds.");
}
