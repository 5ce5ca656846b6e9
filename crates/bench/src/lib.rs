//! # snow-bench
//!
//! The benchmark/experiment harness: one binary per paper table or figure
//! plus Criterion micro-benchmarks and the golden-fixture machinery (see
//! `ARCHITECTURE.md` at the workspace root for how the pieces fit).
//!
//! Binaries (run with `cargo run -p snow-bench --release --bin <name>`):
//!
//! * `fig1a_snow_matrix` — Fig. 1(a): is SNOW possible per (setting × C2C)?
//! * `fig1b_rounds_versions` — Fig. 1(b): bounded SNW algorithms
//!   (rounds × versions) measured for Algorithms B and C.
//! * `fig3_alpha_chain` — Fig. 3: the mechanized α₂ → α₁₀ chain.
//! * `fig4_two_client_chain` — Fig. 4: the mechanized two-client δ-chain.
//! * `fig5_eiger_violation` — Fig. 5: the Eiger counterexample.
//! * `table_latency` — extended study: read latency and rounds per
//!   protocol on the simulator.
//! * `table_versions_vs_writers` — extended study: Algorithm C's versions
//!   per response as the number of concurrent writers grows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod golden;
pub mod simcore;

use snow_checker::{HistoryMetrics, SnowReport};
use snow_core::{History, SystemConfig};
use snow_protocols::{Cluster, ClusterSpec, ProtocolKind, SchedulerKind};
use snow_workload::{WorkloadDriver, WorkloadGenerator, WorkloadSpec};

/// Renders a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Renders a markdown-style header + separator.
pub fn header(cells: &[&str]) -> String {
    let head = row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep = row(&cells.iter().map(|_| "---".to_string()).collect::<Vec<_>>());
    format!("{head}\n{sep}")
}

/// Runs a mixed workload of `total` transactions for `protocol` under a
/// latency-model scheduler and returns `(history, metrics, report)`.
pub fn run_protocol_workload(
    protocol: ProtocolKind,
    config: &SystemConfig,
    spec: WorkloadSpec,
    total: usize,
    seed: u64,
) -> (History, HistoryMetrics, SnowReport) {
    let mut cluster: Box<dyn Cluster> = ClusterSpec::new(protocol, config)
        .scheduler(SchedulerKind::Latency { seed, min: 1, max: 20 })
        .build()
        .expect("valid deployment");
    let mut generator = WorkloadGenerator::new(config, spec);
    let (history, _) = WorkloadDriver::new(config.num_clients() as usize)
        .run(cluster.as_mut(), &mut generator, total);
    let metrics = HistoryMetrics::from_history(&history);
    let report = SnowReport::evaluate(protocol.name(), &history);
    (history, metrics, report)
}

/// The configuration a protocol needs for an apples-to-apples comparison:
/// MWSR + C2C for Algorithm A, MWMR without C2C for everything else.
pub fn comparison_config(protocol: ProtocolKind, servers: u32, writers: u32, readers: u32) -> SystemConfig {
    if protocol.needs_c2c() {
        SystemConfig::mwsr(servers, writers, true)
    } else {
        SystemConfig::mwmr(servers, writers, readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_helpers_render() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert!(header(&["x", "y"]).contains("---"));
    }

    #[test]
    fn workload_runner_produces_clean_histories() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let (history, metrics, report) = run_protocol_workload(
            ProtocolKind::AlgB,
            &config,
            WorkloadSpec::write_heavy(),
            30,
            7,
        );
        assert_eq!(history.incomplete_count(), 0);
        assert!(metrics.reads + metrics.writes == 30);
        assert!(report.observed.n);
    }

    #[test]
    fn comparison_config_matches_protocol_needs() {
        assert!(comparison_config(ProtocolKind::AlgA, 2, 2, 2).c2c_allowed);
        assert!(comparison_config(ProtocolKind::AlgA, 2, 2, 2).is_mwsr());
        assert!(!comparison_config(ProtocolKind::AlgC, 2, 2, 2).c2c_allowed);
    }
}
