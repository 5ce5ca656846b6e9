//! # snow-bench
//!
//! The experiment harness: one binary per paper table or figure plus the
//! golden-fixture machinery (see `ARCHITECTURE.md` at the workspace root for
//! how the pieces fit).  Every number printed here is exact in virtual time;
//! wall-clock figures come from the repo benchmark (`BENCHMARK.json`) only.
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
//! * `table_open_loop` — latency-vs-offered-load curves, saturation knees
//!   and Zipf hot-key points ([`open_loop_rows`], [`zipf_rows`]; pinned
//!   by `tests/open_loop.rs`).
//! * `table_scenarios` — the 18-cell protocol × topology × workload SLO
//!   matrix ([`scenario_rows`]; pinned by `tests/topology_scenarios.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;

use snow_checker::{HistoryMetrics, SnowReport};
use snow_core::{History, SystemConfig};
use snow_protocols::{Cluster, ClusterSpec, ProtocolKind, SchedulerKind};
use snow_workload::{
    rate_sweep, scenario_matrix, slo_report, zipf_sweep, OpenLoopSpec, WorkloadDriver,
    WorkloadGenerator, WorkloadSpec,
};

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

/// Offered rates of the open-loop table, in arrivals per kilotick.
pub const OPEN_LOOP_RATES: [u64; 5] = [25, 50, 100, 200, 400];

/// The cluster every open-loop table run is driven against: the latency
/// distribution the golden fixtures use and no step cap.
fn open_loop_cluster(protocol: ProtocolKind, config: &SystemConfig) -> ClusterSpec {
    ClusterSpec::new(protocol, config)
        .scheduler(SchedulerKind::Latency { seed: 11, min: 1, max: 16 })
        .max_steps(u64::MAX)
}

/// `table_open_loop`'s curves: per protocol, the saturation
/// knee and `p50/p99` latency (virtual ticks from the scheduled arrival) at
/// each of [`OPEN_LOOP_RATES`], for 400 TAO-like arrivals on `mwmr(4,4,4)`.
/// Cells: protocol, knee, one `p50/p99` per rate.
pub fn open_loop_rows() -> Vec<Vec<String>> {
    let config = SystemConfig::mwmr(4, 4, 4);
    let base = OpenLoopSpec { arrivals: 400, ..OpenLoopSpec::tao_like(0) };
    [ProtocolKind::AlgB, ProtocolKind::AlgC, ProtocolKind::Blocking]
        .into_iter()
        .map(|protocol| {
            let cluster = open_loop_cluster(protocol, &config);
            let sweep = rate_sweep(&cluster, &base, &OPEN_LOOP_RATES).expect("open-loop sweep");
            let knee = sweep.knee().map_or("-".to_string(), |k| k.to_string());
            let points = sweep.points.iter().map(|p| format!("{}/{}", p.latency.p50, p.latency.p99));
            [format!("{protocol:?}"), knee].into_iter().chain(points).collect()
        })
        .collect()
}

/// `table_open_loop`'s hot-key points: Zipf exponent swept at
/// 30 arrivals per kilotick, 200 write-heavy arrivals on `mwmr(2,2,2)`.
/// Cells: protocol, exponent, achieved/realized-offered rate, saturated,
/// all-transaction p99, READ p99.
pub fn zipf_rows() -> Vec<Vec<String>> {
    let config = SystemConfig::mwmr(2, 2, 2);
    let base = OpenLoopSpec {
        workload: WorkloadSpec::write_heavy(),
        rate: 30,
        arrivals: 200,
        arrival_seed: 3,
    };
    let mut rows = Vec::new();
    for protocol in [ProtocolKind::AlgC, ProtocolKind::Blocking] {
        let cluster = open_loop_cluster(protocol, &config);
        for (exponent, r) in zipf_sweep(&cluster, &base, &[0.0, 0.8, 1.2]).expect("zipf sweep") {
            rows.push(vec![
                format!("{protocol:?}"),
                format!("{exponent:.1}"),
                format!("{:.1}/{:.1}", r.achieved_rate, r.realized_offered_rate),
                r.saturated.to_string(),
                r.latency.p99.to_string(),
                r.read_latency.p99.to_string(),
            ]);
        }
    }
    rows
}

/// `table_scenarios`' rows: every cell of [`scenario_matrix`] at seed 42 for
/// 256 closed-loop rounds (over 1 000 committed transactions per cell, so the
/// p99 is a percentile).  Cells: scenario, observed SNOW letters, committed,
/// aborted, READ p50 and p99 (site-ticks), mean rounds per READ,
/// client-to-client messages, duration (site-ticks).
pub fn scenario_rows() -> Vec<Vec<String>> {
    scenario_matrix()
        .iter()
        .map(|cell| {
            let r = slo_report(cell, 42, 256).expect("scenario cell");
            vec![
                r.scenario,
                r.snow,
                r.committed.to_string(),
                r.aborted.to_string(),
                r.read_p50.to_string(),
                r.read_p99.to_string(),
                format!("{:.2}", r.mean_rounds),
                r.c2c_messages.to_string(),
                r.duration_ticks.to_string(),
            ]
        })
        .collect()
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
