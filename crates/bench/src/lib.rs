//! # snow-bench
//!
//! The experiment harness: the functions behind the paper's figures and the
//! extended-study tables, plus the golden-fixture machinery (see
//! `ARCHITECTURE.md` at the workspace root for how the pieces fit).  Every
//! number printed here is exact in virtual time; wall-clock figures come
//! from the repo benchmark (`BENCHMARK.json`) only.
//!
//! One binary, `snow` (`src/bin/snow.rs`), prints them all: `cargo run -p
//! snow-bench --release -- <command>`, where `<command>` is one of
//!
//! * `fig 1a` — Fig. 1(a): is SNOW possible per (setting × C2C)?  ✓ cells
//!   are Algorithm A verified SNOW under 40 random schedules
//!   ([`verify_alg_a_snow`]); × cells are the chains of Figs. 3 and 4.
//! * `fig 1b` — Fig. 1(b): bounded SNW algorithms (rounds × versions)
//!   measured for Algorithms A, B and C, with the SNW letters of each run.
//! * `fig 3` — Fig. 3: the mechanized α₂ → α₁₀ chain of Theorem 1.
//! * `fig 4` — Fig. 4: the mechanized two-client δ-chain of Theorem 2.
//! * `fig 5` — Fig. 5: the Eiger counterexample.
//! * `table latency` — extended study: read latency and rounds per
//!   protocol on the simulator.
//! * `table versions` — extended study: Algorithm C's versions per
//!   response as the number of concurrent writers grows, against
//!   Algorithm B's constant 1.
//! * `table open-loop` — latency-vs-offered-load curves, saturation knees
//!   and Zipf hot-key points ([`open_loop_rows`], [`zipf_rows`]; pinned
//!   by `tests/open_loop.rs`).
//! * `table scenarios` — the 18-cell protocol × topology × workload SLO
//!   matrix ([`scenario_rows`]; pinned by `tests/topology_scenarios.rs`).
//! * `golden [--faults] [--write]` — print the golden fingerprint fixture
//!   ([`golden`]; `--faults`: the fault-schedule one); `--write` also
//!   overwrites it under `tests/`, which is only right when schedule
//!   semantics change on purpose.
//! * `run workload-check` — 5 000 transactions against Algorithm C under a
//!   random-latency schedule, the *entire* history handed to `check_auto`.
//! * `run observe` — an observed open loop: event stream → `sim.*` metrics
//!   fold → Perfetto trace (`target/observe_run.trace.json` at the
//!   workspace root; load it at <https://ui.perfetto.dev>) → the stream
//!   checker's frontier counters.
//! * `run partition-drill` — Algorithm B on the `wan3` topology while the
//!   whole `us-east` site is cut off and healed; per-phase p99 and the SNOW
//!   verdict over the scarred history.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;

use std::ops::Range;

use snow_checker::{HistoryMetrics, SnowReport};
use snow_core::{History, ObjectId, SystemConfig, TxSpec, Value};
use snow_protocols::{Cluster, ClusterSpec, ProtocolKind, SchedulerKind};
use snow_workload::{
    rate_sweep, scenario_matrix, slo_report, zipf_sweep, OpenLoopSpec, WorkloadDriver,
    WorkloadGenerator, WorkloadSpec,
};

/// Renders a markdown-style table row.  A `|` inside a cell (AlgC's name,
/// `|W|`) is escaped as `\|`, so it stays in its cell.
pub fn row(cells: &[String]) -> String {
    let cells: Vec<String> = cells.iter().map(|cell| cell.replace('|', "\\|")).collect();
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

/// Fig. 1(a)'s ✓-cell sampler: for every seed in `seeds`, runs Algorithm A
/// on `config` under the random scheduler — four rounds, each one
/// two-object WRITE per writer and one two-object READ, run to quiescence —
/// and checks every SNOW property of the history.  `Err` names the first
/// seed whose history is not SNOW, with its report.
pub fn verify_alg_a_snow(config: &SystemConfig, seeds: Range<u64>) -> Result<(), String> {
    let reader = config.readers().next().expect("a reader");
    let writers: Vec<_> = config.writers().collect();
    for seed in seeds {
        let mut cluster = ClusterSpec::new(ProtocolKind::AlgA, config)
            .scheduler(SchedulerKind::Random(seed))
            .build()
            .expect("valid Algorithm A deployment");
        let mut t = 0u64;
        for round in 0..4u64 {
            for (i, w) in writers.iter().enumerate() {
                let value = Value(round * 10 + i as u64 + 1);
                cluster.invoke_at(
                    t + i as u64,
                    *w,
                    TxSpec::write(vec![(ObjectId(0), value), (ObjectId(1), value)]),
                );
            }
            cluster.invoke_at(t + 1, reader, TxSpec::read(vec![ObjectId(0), ObjectId(1)]));
            t += 10;
            cluster.run_until_quiescent();
        }
        let report = SnowReport::evaluate("alg A", &cluster.history());
        if !report.is_snow() {
            return Err(format!("seed {seed}: {report}"));
        }
    }
    Ok(())
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

/// `snow table open-loop`'s curves: per protocol, the saturation
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

/// `snow table open-loop`'s hot-key points: Zipf exponent swept at
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

/// `snow table scenarios`' rows: every cell of [`scenario_matrix`] at seed 42 for
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

    /// A cell's `|` is escaped, so every row of a table has as many
    /// columns as its header.
    #[test]
    fn a_pipe_inside_a_cell_does_not_split_it() {
        let name = ProtocolKind::AlgC.name().to_string();
        assert!(name.contains("|W|"), "{name}");
        let line = row(&[name, "≤ |W|+1".into(), "3".into()]);
        assert_eq!(line, "| Algorithm C (SNW, 1 round, \\|W\\| versions) | ≤ \\|W\\|+1 | 3 |");
        let separators = |line: &str| line.replace("\\|", "").matches('|').count();
        let head = header(&["a", "b", "c"]);
        assert_eq!(separators(&line), separators(head.lines().next().unwrap()));
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
