//! Extended study E8: read latency per protocol.
//!
//! The columns (virtual ticks, latency-model scheduler) show the *shape* the
//! paper argues: SNOW-optimal reads match simple reads; B pays one extra
//! round; blocking 2PL pays for locks.

use snow_bench::{comparison_config, header, row, run_protocol_workload};
use snow_protocols::ProtocolKind;
use snow_workload::WorkloadSpec;

fn main() {
    println!("# E8 — READ transaction latency by protocol\n");
    println!(
        "{}",
        header(&[
            "Protocol",
            "p50 (ticks)",
            "p99 (ticks)",
            "mean rounds",
            "S?",
        ])
    );
    for protocol in ProtocolKind::all() {
        let config = comparison_config(protocol, 4, 2, 2);
        let (_h, metrics, report) =
            run_protocol_workload(protocol, &config, WorkloadSpec::tao_like(), 400, 3);
        println!(
            "{}",
            row(&[
                protocol.name().into(),
                metrics.read_latency.p50.to_string(),
                metrics.read_latency.p99.to_string(),
                format!("{:.2}", metrics.mean_rounds),
                if report.observed.s { "✓" } else { "✗" }.into(),
            ])
        );
    }
    println!("\nExpected shape: Simple ≈ Alg A ≈ Alg C (1 round) < Alg B ≈ Eiger (≤2 rounds) < Blocking 2PL.");
}
