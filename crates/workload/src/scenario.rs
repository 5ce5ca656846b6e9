//! The scenario matrix: protocols × topologies × workload shapes, each cell
//! emitting an SLO report.
//!
//! The paper's Fig. 1 is a fixed table: protocol rows, a handful of latency
//! columns.  This module turns it into a table re-derived on every test
//! run — every cell of [`scenario_matrix`] deploys a protocol over a
//! geo-topology ([`TopologyKind`]), drives a named workload shape
//! ([`WorkloadShape`] — read-heavy, hot-key or multi-key snapshot), and
//! reports the observed SNOW verdict alongside p50/p99 read latency, round
//! counts and client-to-client message counts ([`SloReport`]).
//! `snow table scenarios` (in `snow-bench`) prints the matrix and
//! `tests/topology_scenarios.rs` pins every row of it exactly.
//!
//! # Determinism
//!
//! A scenario history is a **pure function of `(scenario, seed)`**.  Two
//! ingredients:
//!
//! * the cluster delivers over a topology (via [`ClusterSpec::topology`]),
//!   whose per-message latency draws are stateless hashes of each send's
//!   coordinates, delivered in `(key, id)` order — see `snow_sim::topology`
//!   for the contract;
//! * the runner invokes each round's transactions at **consecutive ticks
//!   right at quiescence** (`t0+1, t0+2, …`).  Every preset link's latency
//!   is at least one site-tick ([`TICK`] ticks), more than any round's
//!   kickoff wave spans, so the whole wave is keyed before the earliest
//!   possible delivery; the engine therefore dispatches the wave first and
//!   stamps each invocation at exactly `planned + 1`.
//!
//! `tests/topology_scenarios.rs` pins both properties (replay proptest over
//! cells and seeds + stream-engine certification of every cell).

use snow_checker::SnowReport;
use snow_core::{History, Result, SystemConfig};
use snow_protocols::{ClusterSpec, ProtocolKind};
use snow_sim::topology::TICK;
use snow_sim::Topology;
use std::sync::Arc;

use crate::driver::{draw_distinct, round_loop, Batch, ClientSet};
use crate::generator::{WorkloadGenerator, WorkloadSpec};

/// The geo-topologies the matrix crosses (presets from
/// [`snow_sim::topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// One site, LAN links: the latency floor.
    SingleDc,
    /// Three WAN sites, processes round-robined, heavy-tailed inter-site
    /// links.
    Wan3,
    /// Servers in one DC, every client behind a heavy-tailed WAN link —
    /// the paper's geo-replicated reading-client setting.
    ClientRemote,
}

impl TopologyKind {
    /// All topologies, in presentation order.
    pub fn all() -> [TopologyKind; 3] {
        [TopologyKind::SingleDc, TopologyKind::Wan3, TopologyKind::ClientRemote]
    }

    /// Stable snake_case name used in scenario labels.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::SingleDc => "single_dc",
            TopologyKind::Wan3 => "wan3",
            TopologyKind::ClientRemote => "client_remote",
        }
    }

    /// Builds the topology for `config`.
    pub fn build(&self, config: &SystemConfig) -> Topology {
        match self {
            TopologyKind::SingleDc => Topology::single_dc(config),
            TopologyKind::Wan3 => Topology::wan3(config),
            TopologyKind::ClientRemote => Topology::client_remote(config),
        }
    }
}

/// The named workload shapes of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadShape {
    /// Read-heavy social-graph traffic: TAO-like read:write ratio,
    /// multi-object READs, mild skew.
    SocialGraph,
    /// Hot-key flash sale: single-object transactions, strong Zipf skew,
    /// a substantial write share contending on the hot keys.
    FlashSale,
    /// Large multi-key snapshot reads over a wider keyspace, uniform
    /// popularity.
    Snapshot,
}

impl WorkloadShape {
    /// All shapes, in presentation order.
    pub fn all() -> [WorkloadShape; 3] {
        [WorkloadShape::SocialGraph, WorkloadShape::FlashSale, WorkloadShape::Snapshot]
    }

    /// Stable snake_case name used in scenario labels.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadShape::SocialGraph => "social_graph",
            WorkloadShape::FlashSale => "flash_sale",
            WorkloadShape::Snapshot => "snapshot",
        }
    }

    /// The system configuration the shape runs on.  The object space
    /// equals the server count (`SystemConfig::mwmr` pins
    /// `num_objects = num_servers`), so the snapshot shape gets a wider
    /// deployment to give its 6-object READs room.
    pub fn config(&self) -> SystemConfig {
        match self {
            WorkloadShape::SocialGraph => SystemConfig::mwmr(4, 2, 4),
            WorkloadShape::FlashSale => SystemConfig::mwmr(4, 2, 4),
            WorkloadShape::Snapshot => SystemConfig::mwmr(8, 2, 4),
        }
    }

    /// The workload mix, seeded so the generated transaction stream is a
    /// pure function of `(shape, seed)`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        match self {
            WorkloadShape::SocialGraph => WorkloadSpec {
                read_fraction: 0.96,
                objects_per_read: 4,
                objects_per_write: 2,
                zipf_exponent: 0.99,
                seed,
            },
            WorkloadShape::FlashSale => WorkloadSpec {
                read_fraction: 0.70,
                objects_per_read: 1,
                objects_per_write: 1,
                zipf_exponent: 1.2,
                seed,
            },
            WorkloadShape::Snapshot => WorkloadSpec {
                read_fraction: 0.90,
                objects_per_read: 6,
                objects_per_write: 2,
                zipf_exponent: 0.0,
                seed,
            },
        }
    }
}

/// One cell of the matrix: a protocol on a topology under a workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// The geo-topology it deploys on.
    pub topology: TopologyKind,
    /// The workload shape driving it.
    pub shape: WorkloadShape,
}

impl Scenario {
    /// Stable label, e.g. `algb/wan3/social_graph` — the cell's key in the
    /// pinned table.
    pub fn name(&self) -> String {
        format!("{}/{}/{}", protocol_slug(self.protocol), self.topology.name(), self.shape.name())
    }
}

fn protocol_slug(protocol: ProtocolKind) -> &'static str {
    match protocol {
        ProtocolKind::AlgA => "alga",
        ProtocolKind::AlgB => "algb",
        ProtocolKind::AlgC => "algc",
        ProtocolKind::Eiger => "eiger",
        ProtocolKind::Blocking => "blocking",
        ProtocolKind::Simple => "simple",
    }
}

/// The full matrix: {Algorithm B, Algorithm C} × 3 topologies × 3 shapes =
/// 18 cells.  Both protocols are MWMR and tag every committed
/// transaction, so every cell can be certified by tag order; Algorithm A's
/// MWSR restriction would leave holes in the table, and Eiger's untagged
/// reads would send every cell to the semantic stream engine.
pub fn scenario_matrix() -> Vec<Scenario> {
    let mut cells = Vec::new();
    for protocol in [ProtocolKind::AlgB, ProtocolKind::AlgC] {
        for topology in TopologyKind::all() {
            for shape in WorkloadShape::all() {
                cells.push(Scenario { protocol, topology, shape });
            }
        }
    }
    cells
}

/// A finished scenario run: the history plus the virtual duration.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The complete run history (every transaction retired).
    pub history: History,
    /// End-of-run virtual time, in site-ticks.
    pub duration_ticks: u64,
}

/// The per-cell SLO report: the paper's Fig. 1 row, plus tail latency.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Cell label ([`Scenario::name`]).
    pub scenario: String,
    /// Observed SNOW verdict (e.g. `SN-W`), from the checker — not the
    /// protocol's self-description.
    pub snow: String,
    /// Committed transactions.
    pub committed: u64,
    /// Median READ latency, in site-ticks.
    pub read_p50: u64,
    /// 99th-percentile READ latency, in site-ticks.
    pub read_p99: u64,
    /// Mean rounds per READ.
    pub mean_rounds: f64,
    /// Client-to-client messages observed (nonzero only for C2C
    /// protocols).
    pub c2c_messages: u64,
    /// Virtual run duration, in site-ticks.
    pub duration_ticks: u64,
}

/// Runs one scenario cell for `rounds` closed-loop rounds.  The returned
/// history is a pure function of `(scenario, seed)` (see the module docs).
pub fn run_scenario(scenario: &Scenario, seed: u64, rounds: usize) -> Result<ScenarioRun> {
    let config = scenario.shape.config();
    let topology = Arc::new(scenario.topology.build(&config));
    let mut cluster =
        ClusterSpec::new(scenario.protocol, &config).topology(topology, seed).build()?;
    let mut generator = WorkloadGenerator::new(&config, scenario.shape.spec(seed));
    // One outstanding transaction per client: of `per_round` draws, keep
    // the first per client, in generation order.
    let per_round = config.num_clients() as usize;
    let mut draw = |seen: &mut ClientSet, batch: &mut Batch| {
        draw_distinct(seen, batch, per_round, per_round, || generator.next_tx());
    };
    let cluster = cluster.as_mut();
    let (history, _) =
        round_loop(cluster, rounds * per_round, rounds, per_round, 1, &mut draw, &mut |_| {});
    Ok(ScenarioRun { history, duration_ticks: cluster.now() / TICK })
}

/// Runs a cell and condenses it into its [`SloReport`] — one row of
/// `snow table scenarios`.
pub fn slo_report(scenario: &Scenario, seed: u64, rounds: usize) -> Result<SloReport> {
    let run = run_scenario(scenario, seed, rounds)?;
    let report = SnowReport::evaluate(scenario.name(), &run.history);
    Ok(SloReport {
        scenario: scenario.name(),
        snow: report.observed.to_string(),
        // No fault schedule, so nothing aborts: every completed
        // transaction committed.
        committed: run.history.completed().count() as u64,
        read_p50: report.metrics.read_latency.p50 / TICK,
        read_p99: report.metrics.read_latency.p99 / TICK,
        mean_rounds: report.metrics.mean_rounds,
        c2c_messages: report.metrics.c2c_messages,
        duration_ticks: run.duration_ticks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn matrix_has_eighteen_uniquely_named_cells() {
        let cells = scenario_matrix();
        assert_eq!(cells.len(), 18);
        let names: BTreeSet<String> = cells.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 18, "cell labels are unique");
        assert!(names.contains("algb/wan3/social_graph"));
        assert!(names.contains("algc/client_remote/snapshot"));
    }

    #[test]
    fn every_shape_fits_its_configuration() {
        for shape in WorkloadShape::all() {
            let config = shape.config();
            let spec = shape.spec(1);
            assert!(
                spec.objects_per_read <= config.num_objects as usize,
                "{}: {} objects per read, {} objects",
                shape.name(),
                spec.objects_per_read,
                config.num_objects
            );
            // The generator itself enforces this with a panic; building one
            // is the real check.
            let _ = WorkloadGenerator::new(&config, spec);
        }
    }

    #[test]
    fn a_cell_runs_and_reports() {
        let cell = Scenario {
            protocol: ProtocolKind::AlgB,
            topology: TopologyKind::ClientRemote,
            shape: WorkloadShape::FlashSale,
        };
        let report = slo_report(&cell, 7, 4).unwrap();
        assert!(report.committed > 0);
        assert_eq!(report.snow.len(), 4, "four-letter SNOW verdict");
        assert!(report.read_p99 >= report.read_p50);
        // Client-remote WAN reads cannot beat the link's base latency.
        assert!(report.read_p50 >= 24, "p50 {} site-ticks", report.read_p50);
        assert!(report.duration_ticks > 0);
    }
}
